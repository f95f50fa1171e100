//! The hybrid warehouse: both clusters plus the fabric between them.

use hybrid_common::batch::Batch;
use hybrid_common::cache::TableGenerations;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::expr::Expr;
use hybrid_common::ids::JenWorkerId;
use hybrid_common::mempool::{BufferPool, QueryBudget};
use hybrid_common::metrics::Metrics;
use hybrid_common::schema::Schema;
use hybrid_common::trace::Tracer;
use hybrid_edw::DbCluster;
use hybrid_hdfs::{Catalog, HdfsCluster, TableMeta};
use hybrid_jen::{JenCoordinator, JenWorker};
use hybrid_net::{Fabric, FaultSpec, Message, RetryPolicy};
use hybrid_storage::{encode, BlockReader, FileFormat};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;

/// How the zigzag join's step 5 obtains `T'` again after `BF_H` arrives
/// (paper §3.4: "we rely on the advanced database optimizer to choose the
/// best strategy: either to materialize the intermediate table … or to
/// utilize indexes to access the original table").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ZigzagReaccess {
    /// Keep `T'` materialized from step 1 (no second table access).
    #[default]
    Materialize,
    /// Re-run the predicate scan — an index-only plan when the paper's
    /// covering indexes exist — instead of holding `T'` in memory.
    IndexReaccess,
}

/// Sizing of the two clusters.
///
/// The paper's testbed is 30 DB2 workers (5 servers × 6) and 30 JEN workers
/// (one per DataNode), HDFS replication 2 — [`SystemConfig::paper_shape`]
/// at a reduced worker count is what the experiment harness uses.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    pub db_workers: usize,
    pub jen_workers: usize,
    pub replication: usize,
    /// Rows per HDFS block when loading tables (controls block counts).
    pub rows_per_block: usize,
    /// Deadline for any single fabric receive — a dead peer surfaces as an
    /// error rather than a hang.
    pub recv_timeout: Duration,
    /// Build-side row budget for each JEN worker's local hash join.
    /// `None` reproduces the paper's all-in-memory JEN (§4.4); `Some(n)`
    /// enables the grace-hash spill-to-disk path (the paper's stated
    /// future work) past `n` buffered rows.
    pub jen_memory_limit_rows: Option<usize>,
    /// The zigzag join's step-5 strategy (§3.4).
    pub zigzag_reaccess: ZigzagReaccess,
    /// Compute-thread budget for the execution driver. `1` replays each
    /// algorithm in the exact sequential step order; `> 1` runs every
    /// worker on its own OS thread with at most `threads` of them inside a
    /// compute section at once. Defaults from the `HYBRID_THREADS` env var
    /// (the CI correctness matrix drives it), falling back to 1.
    pub threads: usize,
    /// Per-endpoint fabric inbox bound used when `threads > 1` (sequential
    /// runs stay unbounded — a single-threaded driver would deadlock on a
    /// full inbox with nobody draining). `None` = unbounded.
    pub channel_capacity: Option<usize>,
    /// Seeded chaos plan: inject drops/delays/duplicates/reorders into the
    /// fabric and kills/stragglers into the driver. `None` (the default)
    /// is the fault-free fast path. Sessions inherit the plan; the session
    /// namespace is part of every decision hash, so a query retried in a
    /// fresh namespace rolls fresh faults.
    pub fault_spec: Option<FaultSpec>,
    /// Retry budget for fabric sends whose attempts the chaos plan drops.
    pub retry: RetryPolicy,
    /// Salt fan-out for skew-aware shuffles: `Some(f)` lets the
    /// repartition-family joins split each detected heavy-hitter build key
    /// across `f` workers and replicate its probe tuples to them (see
    /// [`crate::skew::SaltRouter`]). `None` (the default) keeps the plain
    /// agreed-hash route. Results are bit-identical either way.
    pub salt_buckets: Option<usize>,
    /// Rows per fabric data message: every data stream is framed into
    /// batches of at most this many rows. The default
    /// ([`DEFAULT_BATCH_ROWS`]) preserves the framing every committed
    /// baseline was blessed under; `1` degrades the fabric to exact
    /// one-tuple-at-a-time messages (the sequential tuple replay the
    /// differential harness compares against). Routing is batch-size
    /// independent, so results and row-level metric totals are identical
    /// at every setting — only message counts (and with them byte totals,
    /// which include the per-message frame header) vary. Defaults from the
    /// `HYBRID_BATCH_ROWS` env var, falling back to [`DEFAULT_BATCH_ROWS`].
    pub batch_rows: usize,
    /// Total byte budget for the system's shared
    /// [`BufferPool`]. `None` (the
    /// default) is unbounded — the paper's all-in-memory JEN, and exactly
    /// the pre-governor behavior (no `mem.*` counters are recorded).
    /// `Some(bytes)` bounds the build-side residency of every query:
    /// direct runs reserve the whole pool, the query service splits it
    /// across admitted queries, and each query splits its share statically
    /// across its JEN workers — workers evict partitions past their share
    /// (hybrid hash join) instead of failing. Defaults from the
    /// `HYBRID_MEM_BUDGET` env var (integer bytes with an optional
    /// `k`/`m`/`g` suffix; unset or `unbounded` = `None`).
    pub mem_budget_bytes: Option<u64>,
    /// Divergence ratio that arms the mid-query replan controller
    /// ([`crate::adapt`]). `None` (the default) disables adaptation
    /// entirely — every run is byte-identical to the pre-adaptive system.
    /// `Some(r)` (must be `> 1.0`) compares observed cardinalities,
    /// selectivities, and shuffle skew against the advisor's
    /// `QueryEstimates` at phase boundaries; when the worst estimate is
    /// off by more than a factor of `r`, the controller re-costs the
    /// remaining work and may abandon the running plan for a cheaper one.
    /// Defaults from the `HYBRID_REPLAN_THRESHOLD` env var (a float, or
    /// `off`/unset = `None`).
    pub replan_threshold: Option<f64>,
}

/// Default fabric batch size (rows per data message).
pub const DEFAULT_BATCH_ROWS: usize = 4096;

/// The value of environment variable `var` through `parse`; `None` when
/// it is unset or does not parse, so the caller's default holds.
fn env_override<T>(var: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    std::env::var(var).ok().and_then(|v| parse(&v))
}

/// A positive count; zero or unparsable → `None`.
fn parse_count(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Parse a byte budget: an integer with an optional `k`/`m`/`g` suffix
/// (powers of 1024). `"unbounded"`, empty, or unparsable → `None`.
pub fn parse_mem_budget(s: &str) -> Option<u64> {
    let s = s.trim().to_ascii_lowercase();
    if s.is_empty() || s == "unbounded" {
        return None;
    }
    let (digits, shift) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match s.as_bytes()[s.len() - 1] {
                b'k' => 10,
                b'm' => 20,
                _ => 30,
            },
        ),
        None => (s.as_str(), 0),
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_shl(shift))
}

/// Parse a replan divergence threshold: a finite float `> 1.0` (an estimate
/// off by less than its own value is never "divergent"). Empty, `"off"`, or
/// unparsable → `None` (adaptation disabled).
pub fn parse_replan_threshold(s: &str) -> Option<f64> {
    let s = s.trim().to_ascii_lowercase();
    if s.is_empty() || s == "off" {
        return None;
    }
    s.parse::<f64>().ok().filter(|r| r.is_finite() && *r > 1.0)
}

impl SystemConfig {
    /// A scaled-down version of the paper's 30+30 testbed. The fields
    /// documented as defaulting from a `HYBRID_*` variable read it here.
    pub fn paper_shape(db_workers: usize, jen_workers: usize) -> SystemConfig {
        SystemConfig {
            db_workers,
            jen_workers,
            replication: 2.min(jen_workers),
            rows_per_block: 8192,
            recv_timeout: Duration::from_secs(30),
            jen_memory_limit_rows: None,
            zigzag_reaccess: ZigzagReaccess::default(),
            threads: env_override("HYBRID_THREADS", parse_count).unwrap_or(1),
            channel_capacity: Some(256),
            fault_spec: None,
            retry: RetryPolicy::default(),
            salt_buckets: None,
            batch_rows: env_override("HYBRID_BATCH_ROWS", parse_count)
                .unwrap_or(DEFAULT_BATCH_ROWS),
            mem_budget_bytes: env_override("HYBRID_MEM_BUDGET", parse_mem_budget),
            replan_threshold: env_override("HYBRID_REPLAN_THRESHOLD", parse_replan_threshold),
        }
    }

    pub fn validate(&self) -> Result<()> {
        if self.db_workers == 0 || self.jen_workers == 0 {
            return Err(HybridError::config(
                "both clusters need at least one worker",
            ));
        }
        if self.rows_per_block == 0 {
            return Err(HybridError::config("rows_per_block must be positive"));
        }
        if self.threads == 0 {
            return Err(HybridError::config("threads must be at least 1"));
        }
        if self.channel_capacity == Some(0) {
            return Err(HybridError::config("channel_capacity must be positive"));
        }
        if let Some(spec) = &self.fault_spec {
            spec.validate().map_err(HybridError::config)?;
        }
        if self.retry.attempts == 0 {
            return Err(HybridError::config("retry.attempts must be at least 1"));
        }
        if let Some(f) = self.salt_buckets {
            if f < 2 {
                return Err(HybridError::config(
                    "salt_buckets must be at least 2 (1 salt bucket is the plain route)",
                ));
            }
        }
        if self.batch_rows == 0 {
            return Err(HybridError::config("batch_rows must be at least 1"));
        }
        if self.mem_budget_bytes == Some(0) {
            return Err(HybridError::config(
                "mem_budget_bytes must be positive (use None for unbounded)",
            ));
        }
        if let Some(r) = self.replan_threshold {
            if !r.is_finite() || r <= 1.0 {
                return Err(HybridError::config(
                    "replan_threshold must be a finite ratio > 1.0 (use None for off)",
                ));
            }
        }
        Ok(())
    }
}

/// Everything a join algorithm needs: the EDW, HDFS + JEN, and the fabric.
pub struct HybridSystem {
    pub db: DbCluster,
    pub hdfs: Arc<RwLock<HdfsCluster>>,
    pub catalog: Arc<RwLock<Catalog>>,
    pub coordinator: JenCoordinator,
    pub jen_workers: Vec<JenWorker>,
    pub fabric: Fabric<Message>,
    pub metrics: Metrics,
    /// Shared phase recorder: every worker's spans land on one clock.
    pub tracer: Tracer,
    pub config: SystemConfig,
    /// Cross-query `BF_DB` cache, shared by every session of this system.
    /// `None` (the default) keeps single-query behavior: every run builds
    /// its filter from the table. [`HybridSystem::enable_bloom_cache`]
    /// turns it on; the query service does so at construction.
    pub bloom_cache: Option<crate::cache::BloomCache>,
    /// Per-table load generations, shared by every session. Bumped by the
    /// load methods after the new data is visible; cross-query caches
    /// snapshot a generation before reading a table and drop inserts whose
    /// generation went stale (a rewrite landed mid-execution), so an
    /// in-flight query can never repopulate a just-invalidated cache with
    /// pre-rewrite artifacts.
    pub table_gens: TableGenerations,
    /// The shared memory governor, sized by `config.mem_budget_bytes`.
    /// Sessions share the root's pool (its `mem.reservations` /
    /// `mem.pool_high_water` counters land in the **root** registry), so
    /// concurrent queries draw from one fixed total.
    pub mem_pool: BufferPool,
    /// This system's slice of the pool for the query it is running.
    /// `None` until granted: the service reserves a share at admission and
    /// injects it into each attempt's session; a direct [`crate::run`]
    /// reserves everything the pool has left on first use.
    pub query_budget: Option<QueryBudget>,
}

impl HybridSystem {
    pub fn new(config: SystemConfig) -> Result<HybridSystem> {
        config.validate()?;
        let metrics = Metrics::new();
        let db = DbCluster::new(config.db_workers, metrics.clone())?;
        let hdfs = Arc::new(RwLock::new(HdfsCluster::new(
            config.jen_workers,
            config.replication,
            metrics.clone(),
        )?));
        let catalog = Arc::new(RwLock::new(Catalog::new()));
        let coordinator =
            JenCoordinator::new(Arc::clone(&catalog), Arc::clone(&hdfs), config.jen_workers)?;
        let tracer = Tracer::new();
        let jen_workers = (0..config.jen_workers)
            .map(|i| {
                JenWorker::with_tracer(
                    JenWorkerId(i),
                    Arc::clone(&hdfs),
                    metrics.clone(),
                    tracer.clone(),
                )
            })
            .collect();
        // Bounded inboxes only make sense with concurrent workers draining
        // them; a sequential driver fills its own target and deadlocks.
        let capacity = if config.threads > 1 {
            config.channel_capacity
        } else {
            None
        };
        let fabric = Fabric::with_options(
            config.db_workers,
            config.jen_workers,
            metrics.clone(),
            capacity,
            config.fault_spec.clone(),
            config.retry.clone(),
        );
        let mem_pool = BufferPool::new(config.mem_budget_bytes, metrics.clone());
        Ok(HybridSystem {
            db,
            hdfs,
            catalog,
            coordinator,
            jen_workers,
            fabric,
            metrics,
            tracer,
            mem_pool,
            config,
            bloom_cache: None,
            table_gens: TableGenerations::new(),
            query_budget: None,
        })
    }

    /// Turn on the cross-query `BF_DB` cache (counters land under
    /// `svc.cache.bloom.*` in this system's root registry). Capacity 0
    /// disables it again without removing the plumbing.
    pub fn enable_bloom_cache(&mut self, capacity: usize) {
        self.bloom_cache = Some(crate::cache::BloomCache::new(
            capacity,
            self.metrics.clone(),
            self.table_gens.clone(),
        ));
    }

    /// A per-query *session* over this system: shares the loaded data (DB
    /// partitions, indexes, HDFS blocks, catalog) and the physical fabric,
    /// but owns a fresh metrics registry, a fresh tracer, and a private
    /// fabric namespace — so any number of sessions can execute
    /// concurrently without interleaving counters, spans, or shuffle
    /// streams. The Bloom cache is shared (it is cross-query by design).
    ///
    /// `ns` must be unique among live sessions (the service hands out a
    /// monotone counter). Call [`HybridSystem::close_session`] on the
    /// returned system when the query finishes, or its fabric inboxes stay
    /// registered forever.
    ///
    /// Fabric traffic of a session is metered into both the session's
    /// registry and the root registry, so the root's `net.cross.*` /
    /// `net.intra_hdfs.*` totals remain the exact sum over all sessions.
    /// Purely local work (DB scans, intra-DB exchanges, HDFS reads, JEN
    /// operators) is metered into the session registry only.
    /// Build-side memory each JEN worker would get for a query run on this
    /// system, for the advisor's spill term: the granted budget's share if
    /// one was already reserved, otherwise what is left in the pool
    /// (what a direct [`crate::run`] would reserve). `None` = unbounded.
    pub fn mem_budget_per_worker(&self) -> Option<u64> {
        let n = self.config.jen_workers.max(1) as u64;
        match &self.query_budget {
            Some(q) => q.cap_bytes().map(|c| c / n),
            None => self
                .mem_pool
                .total()
                .map(|t| t.saturating_sub(self.mem_pool.reserved()) / n),
        }
    }

    pub fn session(&self, ns: u64) -> Result<HybridSystem> {
        let metrics = Metrics::new();
        let tracer = Tracer::new();
        let fabric = self.fabric.namespace(ns, metrics.clone())?;
        let db = self.db.session(metrics.clone());
        let coordinator = JenCoordinator::new(
            Arc::clone(&self.catalog),
            Arc::clone(&self.hdfs),
            self.config.jen_workers,
        )?;
        let jen_workers = (0..self.config.jen_workers)
            .map(|i| {
                JenWorker::with_tracer(
                    JenWorkerId(i),
                    Arc::clone(&self.hdfs),
                    metrics.clone(),
                    tracer.clone(),
                )
            })
            .collect();
        Ok(HybridSystem {
            db,
            hdfs: Arc::clone(&self.hdfs),
            catalog: Arc::clone(&self.catalog),
            coordinator,
            jen_workers,
            fabric,
            metrics,
            tracer,
            config: self.config.clone(),
            bloom_cache: self.bloom_cache.clone(),
            table_gens: self.table_gens.clone(),
            mem_pool: self.mem_pool.clone(),
            query_budget: None,
        })
    }

    /// Release a session's fabric namespace (undelivered messages die with
    /// it). No-op on the root system.
    pub fn close_session(&self) {
        self.fabric.remove_namespace();
    }

    /// Load `data` into the parallel database as table `name`, distributed
    /// on `dist_col` (the paper distributes `T` on `uniqKey`).
    pub fn load_db_table(&mut self, name: &str, dist_col: usize, data: Batch) -> Result<()> {
        self.db.load_table(name, dist_col, data)?;
        // Rewriting a table makes every cached filter over it stale. The
        // generation bump must come after the data swap and before the
        // invalidation: an in-flight build that read pre-rewrite data then
        // either inserts before this invalidation (removed here) or sees
        // the bumped generation at insert time (dropped there).
        self.table_gens.bump(name);
        if let Some(cache) = &self.bloom_cache {
            cache.invalidate_table(name);
        }
        Ok(())
    }

    /// Build a covering index on the database table (e.g. the paper's
    /// `(corPred, indPred, joinKey)` index for index-only Bloom builds).
    pub fn create_db_index(&mut self, table: &str, base_cols: &[usize]) -> Result<()> {
        self.db.create_index(table, base_cols)
    }

    /// Load `data` onto HDFS as table `name` in the given format, split into
    /// blocks of `config.rows_per_block` rows, and register it in the
    /// catalog.
    pub fn load_hdfs_table(
        &mut self,
        name: &str,
        format: FileFormat,
        schema: Schema,
        data: &Batch,
    ) -> Result<()> {
        if data.schema() != &schema {
            return Err(HybridError::SchemaMismatch(
                "HDFS table data does not match declared schema".into(),
            ));
        }
        let path = format!("/warehouse/{name}");
        let blocks: Vec<Vec<u8>> = data
            .chunks(self.config.rows_per_block)
            .iter()
            .map(|chunk| encode(format, chunk))
            .collect();
        self.hdfs.write().write_file(&path, blocks)?;
        self.catalog.write().register(TableMeta {
            name: name.to_string(),
            path,
            format,
            schema,
        });
        self.table_gens.bump(name);
        Ok(())
    }

    /// Bytes a scan of every block of HDFS table `table` reads for the
    /// base columns `cols` (on the columnar format only their chunks; a
    /// text block is read whole). Reads the blocks without metering them.
    pub fn hdfs_bytes_read(&self, table: &str, cols: &[usize]) -> Result<u64> {
        let meta = self.coordinator.lookup_table(table)?;
        let hdfs = self.hdfs.read();
        let reader = self.jen_workers[0].datanode();
        let mut total = 0;
        for block in hdfs.file_blocks(&meta.path)? {
            let bytes = hdfs.read_block_into(block.id, reader, &Metrics::new())?;
            total += BlockReader::open(meta.format, &meta.schema, &bytes)?.bytes_read(cols)?;
        }
        Ok(total as u64)
    }

    /// Bytes the database workers read to evaluate `pred` over `table` and
    /// project `proj` — an index prefix or the whole partition, as
    /// [`DbWorker::scan_filter_project`](hybrid_edw::DbWorker::scan_filter_project)
    /// would — without reading them.
    pub fn db_access_bytes(&self, table: &str, pred: &Expr, proj: &[usize]) -> Result<u64> {
        (0..self.db.num_workers())
            .map(|w| self.db.worker(w).access_bytes(table, pred, proj))
            .sum()
    }

    /// Reset all counters (between experiment runs).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("joinKey", DataType::I32), ("v", DataType::I64)])
    }

    fn data(n: usize) -> Batch {
        Batch::new(
            schema(),
            vec![
                Column::I32((0..n as i32).collect()),
                Column::I64((0..n as i64).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construct_and_load() {
        let mut sys = HybridSystem::new(SystemConfig::paper_shape(3, 4)).unwrap();
        sys.load_db_table("T", 0, data(100)).unwrap();
        sys.load_hdfs_table("L", FileFormat::Columnar, schema(), &data(300))
            .unwrap();
        let plan = sys.coordinator.plan_scan("L").unwrap();
        let total: usize = plan.blocks.iter().map(Vec::len).sum();
        assert!(total >= 1);
        assert_eq!(sys.coordinator.lookup_table("L").unwrap().name, "L");
    }

    #[test]
    fn block_count_follows_rows_per_block() {
        let mut cfg = SystemConfig::paper_shape(2, 3);
        cfg.rows_per_block = 64;
        let mut sys = HybridSystem::new(cfg).unwrap();
        sys.load_hdfs_table("L", FileFormat::Text, schema(), &data(300))
            .unwrap();
        let blocks = sys.hdfs.read().file_blocks("/warehouse/L").unwrap();
        assert_eq!(blocks.len(), 5); // ceil(300/64)
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut sys = HybridSystem::new(SystemConfig::paper_shape(1, 1)).unwrap();
        let wrong = Schema::from_pairs(&[("x", DataType::I64)]);
        assert!(sys
            .load_hdfs_table("L", FileFormat::Text, wrong, &data(10))
            .is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(HybridSystem::new(SystemConfig::paper_shape(0, 3)).is_err());
        assert!(HybridSystem::new(SystemConfig::paper_shape(3, 0)).is_err());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.rows_per_block = 0;
        assert!(HybridSystem::new(cfg).is_err());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.threads = 0;
        assert!(HybridSystem::new(cfg).is_err());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.channel_capacity = Some(0);
        assert!(HybridSystem::new(cfg).is_err());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.salt_buckets = Some(1);
        assert!(HybridSystem::new(cfg).is_err());
        let mut cfg = SystemConfig::paper_shape(2, 2);
        cfg.salt_buckets = Some(2);
        assert!(HybridSystem::new(cfg).is_ok());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.batch_rows = 0;
        assert!(HybridSystem::new(cfg).is_err());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.batch_rows = 1;
        assert!(HybridSystem::new(cfg).is_ok());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.mem_budget_bytes = Some(0);
        assert!(HybridSystem::new(cfg).is_err());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.mem_budget_bytes = Some(1 << 20);
        assert!(HybridSystem::new(cfg).is_ok());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.replan_threshold = Some(1.0);
        assert!(HybridSystem::new(cfg).is_err());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.replan_threshold = Some(f64::NAN);
        assert!(HybridSystem::new(cfg).is_err());
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.replan_threshold = Some(1.5);
        assert!(HybridSystem::new(cfg).is_ok());
    }

    #[test]
    fn replan_threshold_parsing() {
        assert_eq!(parse_replan_threshold("off"), None);
        assert_eq!(parse_replan_threshold(""), None);
        assert_eq!(parse_replan_threshold("nonsense"), None);
        assert_eq!(parse_replan_threshold("1.0"), None); // not > 1
        assert_eq!(parse_replan_threshold("0.5"), None);
        assert_eq!(parse_replan_threshold("inf"), None);
        assert_eq!(parse_replan_threshold("1.5"), Some(1.5));
        assert_eq!(parse_replan_threshold(" 2 "), Some(2.0));
        assert_eq!(parse_replan_threshold("OFF"), None);
    }

    #[test]
    fn mem_budget_parsing() {
        assert_eq!(parse_mem_budget("unbounded"), None);
        assert_eq!(parse_mem_budget(""), None);
        assert_eq!(parse_mem_budget("nonsense"), None);
        assert_eq!(parse_mem_budget("4096"), Some(4096));
        assert_eq!(parse_mem_budget("64k"), Some(64 << 10));
        assert_eq!(parse_mem_budget("2M"), Some(2 << 20));
        assert_eq!(parse_mem_budget("1g"), Some(1 << 30));
        assert_eq!(parse_mem_budget(" 8 k "), Some(8 << 10));
    }

    #[test]
    fn fabric_bounded_only_when_parallel() {
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.threads = 1;
        assert_eq!(HybridSystem::new(cfg).unwrap().fabric.capacity(), None);
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.threads = 4;
        assert_eq!(HybridSystem::new(cfg).unwrap().fabric.capacity(), Some(256));
    }
}
