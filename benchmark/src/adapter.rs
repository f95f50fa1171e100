//! The one file that names the repo's crates. Workload runners, probes and
//! kernel drivers import from here only, so a change that moves an API
//! (ROADMAP item 2) needs a follow-up that edits this file and nothing else.
//!
//! Re-exports cover the types and kernel entry points that are used as they
//! are; the functions below pin down every call that has a shape of its own
//! (how a system is configured, loaded, served and reloaded).

pub use hybrid_bloom::{member_sel, ApproxMembership, BlockedBloomFilter, BloomFilter};
pub use hybrid_common::batch::{Batch, SelectionVector};
pub use hybrid_common::cache::TableGenerations;
pub use hybrid_common::hash::{agreed_shuffle_partition, splitmix64};
pub use hybrid_common::ids::JenWorkerId;
pub use hybrid_common::mempool::BufferPool;
pub use hybrid_common::metrics::Metrics;
pub use hybrid_common::ops::{partition_by_key, HashAggregator, HashJoiner};
pub use hybrid_common::trace::{Stage, Tracer};
pub use hybrid_core::advisor::advise;
pub use hybrid_core::{
    sample_stats, HybridQuery, HybridSystem, JoinAlgorithm, JoinSummary, MultiwayPlanner,
    RunOutput, StarQuery,
};
pub use hybrid_costmodel::{CostModel, ScaleFactors};
pub use hybrid_datagen::{DimSpec, KeySkew, Workload, WorkloadSpec};
pub use hybrid_edw::optimizer::DbJoinSpec;
pub use hybrid_jen::spill::HybridHashJoiner;
pub use hybrid_jen::ScanSpec;
pub use hybrid_net::{Endpoint, Fabric, Message, StreamTag};
pub use hybrid_server::wire::{read_frame, write_frame};
pub use hybrid_server::{JoinClient, JoinServer, QueryBody, QueryFrame, Request, Response};
pub use hybrid_service::{CachedResult, QueryRequest, QueryService, ResultCache};
pub use hybrid_storage::{decode, encode, FileFormat};

use hybrid_common::expr::Expr;
use hybrid_core::reference::{run_reference, run_star_reference};
use hybrid_core::{RetryPolicy, SystemConfig, ZigzagReaccess};
use hybrid_datagen::tables::{l_cols, t_cols};
use hybrid_server::{ServerConfig, TenantCred};
use hybrid_service::{ServiceConfig, TenantQuota};
use std::sync::Arc;
use std::time::Duration;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// The paper's 30 + 30 testbed shape.
pub const DB_WORKERS: usize = 30;
pub const JEN_WORKERS: usize = 30;
pub const BATCH_ROWS: usize = 4_096;
/// Distinct binary queries of the service mix; fits the default result cache.
pub const VARIANTS: usize = 48;

/// Every `SystemConfig` field set explicitly — `paper_shape` reads four
/// `HYBRID_*` environment variables, and a developer's shell must not move
/// the numbers.
pub fn system_config(
    rows_per_block: usize,
    threads: usize,
    mem_budget_bytes: Option<u64>,
) -> SystemConfig {
    SystemConfig {
        db_workers: DB_WORKERS,
        jen_workers: JEN_WORKERS,
        replication: 2,
        rows_per_block,
        recv_timeout: Duration::from_secs(30),
        jen_memory_limit_rows: None,
        zigzag_reaccess: ZigzagReaccess::Materialize,
        threads,
        channel_capacity: Some(256),
        fault_spec: None,
        retry: RetryPolicy::default(),
        salt_buckets: None,
        batch_rows: BATCH_ROWS,
        mem_budget_bytes,
        replan_threshold: None,
    }
}

/// A fresh system with `workload` loaded in `format`.
///
/// Every JEN worker must end up with blocks of `L` to scan, as on a real
/// cluster — and because a scan of zero blocks can hang: its reader thread
/// hangs up before the scan starts waiting, and the channel shim signals a
/// hang-up without holding the queue lock, so the wake-up can be lost.
pub fn load_system(
    workload: &Workload,
    format: FileFormat,
    rows_per_block: usize,
    threads: usize,
    mem_budget_bytes: Option<u64>,
) -> Result<HybridSystem> {
    let config = system_config(rows_per_block, threads, mem_budget_bytes);
    let mut system = HybridSystem::new(config)?;
    workload.load_into(&mut system, format)?;
    let idle = system.coordinator.plan_scan("L")?.stats.min_per_worker == 0;
    if idle {
        return Err(
            format!("{rows_per_block} rows per block leave a JEN worker without blocks").into(),
        );
    }
    Ok(system)
}

/// Rows of every loaded table: the input size `rows_per_s` is stated at.
pub fn loaded_rows(workload: &Workload) -> usize {
    workload.t.num_rows()
        + workload.l.num_rows()
        + workload.dims.iter().map(Batch::num_rows).sum::<usize>()
}

/// Order-sensitive checksum of a table, for the seed self-tests.
#[cfg(test)]
pub fn table_checksum(batch: &Batch) -> u64 {
    hybrid_core::batch_checksum(batch)
}

pub fn run_binary(
    system: &mut HybridSystem,
    query: &HybridQuery,
    algorithm: JoinAlgorithm,
) -> Result<RunOutput> {
    Ok(hybrid_core::run(system, query, algorithm)?)
}

pub fn run_star(
    system: &mut HybridSystem,
    star: &StarQuery,
    planner: MultiwayPlanner,
) -> Result<RunOutput> {
    Ok(hybrid_core::run_star(system, star, planner)?)
}

/// The sequential reference every binary result is compared against.
pub fn reference_binary(workload: &Workload, query: &HybridQuery) -> Result<Batch> {
    Ok(run_reference(&workload.t, &workload.l, query)?)
}

pub fn reference_star(workload: &Workload, star: &StarQuery) -> Result<Batch> {
    Ok(run_star_reference(&workload.l, &workload.dims, star)?)
}

/// Variant `i` of the workload query: the per-tuple HDFS predicate tightened
/// by `i` steps. Same database side (same `BF_DB` cache key), distinct
/// fingerprint and result.
pub fn variant(workload: &Workload, i: usize) -> HybridQuery {
    let th = workload.thresholds;
    let mut query = workload.query();
    query.hdfs_pred = Expr::col_le(l_cols::COR_PRED, th.l_cor)
        .and(Expr::col_le(l_cols::IND_PRED, th.l_ind - 1024 * i as i64));
    query
}

/// What the harness keeps of one engine run: stage busy times from the
/// returned `Timeline` and the counters the per-layer metrics and the
/// non-vacuity guards read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    /// Wall of the `run` / `run_star` call, filled in by the caller.
    pub wall_us: f64,
    /// Σ over workers of span time per stage, in `STAGES` order.
    pub stage_busy_us: [f64; 8],
    pub evictions: u64,
    pub partitions_resident: u64,
    pub spill_bytes_written: u64,
    pub spill_bytes_read: u64,
    pub mem_high_water: u64,
    pub hdfs_bytes_scanned: u64,
    pub cross_bytes: u64,
    pub intra_hdfs_bytes: u64,
    pub msgs: u64,
    pub shuffle_tuples: u64,
    pub shuffle_max_over_mean_x1000: u64,
    pub multiway_shuffle_bytes: u64,
    pub ran_hypercube: u64,
    /// The run's whole movement digest (the cost model prices it).
    pub summary: JoinSummary,
}

pub const STAGES: [Stage; 8] = [
    Stage::Scan,
    Stage::BloomBuild,
    Stage::BloomApply,
    Stage::ShuffleSend,
    Stage::ShuffleRecv,
    Stage::HashBuild,
    Stage::Probe,
    Stage::Aggregate,
];

impl OpStats {
    pub fn of(out: &RunOutput, wall: Duration) -> OpStats {
        let counter = |name: &str| out.snapshot.get(name).copied().unwrap_or(0);
        let mut stage_busy_us = [0.0; 8];
        for span in &out.timeline.spans {
            if let Some(i) = STAGES.iter().position(|s| *s == span.stage) {
                stage_busy_us[i] += span.duration_us() as f64;
            }
        }
        let s = &out.summary;
        OpStats {
            wall_us: wall.as_secs_f64() * 1e6,
            stage_busy_us,
            evictions: counter("mem.evictions"),
            partitions_resident: counter("mem.partitions_resident"),
            spill_bytes_written: s.spill_bytes_written,
            spill_bytes_read: s.spill_bytes_read,
            mem_high_water: s.mem_high_water,
            hdfs_bytes_scanned: s.hdfs_bytes_scanned,
            cross_bytes: s.cross_bytes,
            intra_hdfs_bytes: s.intra_hdfs_bytes,
            msgs: s.fabric_msgs,
            shuffle_tuples: s.hdfs_tuples_shuffled,
            shuffle_max_over_mean_x1000: s.shuffle_max_over_mean_x1000,
            multiway_shuffle_bytes: counter("multiway.shuffle.bytes"),
            ran_hypercube: counter("advisor.multiway.ran_hypercube"),
            summary: *s,
        }
    }
}

/// A per-query session over `system`, as the service opens one per query.
pub fn open_session(system: &HybridSystem, ns: u64) -> Result<HybridSystem> {
    Ok(system.session(ns)?)
}

/// A `QueryService` over `system` behind a `JoinServer` on a loopback port,
/// with one tenant `t<i>` (token `tok-<i>`, unlimited quota) per client.
pub fn serve(
    system: HybridSystem,
    max_in_flight: usize,
    cached: bool,
    tenants: usize,
) -> Result<(Arc<QueryService>, JoinServer)> {
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        max_in_flight,
        result_cache_capacity: if cached {
            defaults.result_cache_capacity
        } else {
            0
        },
        bloom_cache_capacity: if cached {
            defaults.bloom_cache_capacity
        } else {
            0
        },
        ..defaults
    };
    let service = Arc::new(QueryService::new(system, config));
    let creds: Vec<TenantCred> = (0..tenants)
        .map(|i| {
            TenantCred::new(
                &format!("t{i}"),
                &format!("tok-{i}"),
                TenantQuota::unlimited(),
            )
        })
        .collect();
    let server = JoinServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        &creds,
        ServerConfig::default(),
    )?;
    Ok((service, server))
}

pub fn connect(server: &JoinServer, tenant: usize) -> Result<JoinClient> {
    Ok(JoinClient::connect(
        &server.local_addr().to_string(),
        &format!("t{tenant}"),
        &format!("tok-{tenant}"),
    )?)
}

/// Rewrite `T` through the service exactly as `Workload::load_into` loads
/// it: the table, then the paper's two covering indexes (a reload drops
/// them). Invalidates cached Bloom filters and results over `T`.
pub fn reload_t(service: &QueryService, workload: &Workload) -> Result<()> {
    service.load_db_table("T", t_cols::UNIQ_KEY, workload.t.clone())?;
    service.create_db_index("T", &[t_cols::COR_PRED, t_cols::IND_PRED])?;
    service.create_db_index("T", &[t_cols::COR_PRED, t_cols::IND_PRED, t_cols::JOIN_KEY])?;
    Ok(())
}

/// Counter `name` of the service's root registry (`svc.*`, cache counters).
pub fn service_counter(service: &QueryService, name: &str) -> u64 {
    service.metrics().get(name)
}

/// `T′`: the rows of `T` the query keeps, projected — what the DB ships.
pub fn t_prime(workload: &Workload, query: &HybridQuery) -> Result<Batch> {
    let mask = query.db_pred.eval_predicate(&workload.t)?;
    Ok(workload.t.filter(&mask)?.project(&query.db_proj)?)
}

/// `L′`: the rows of `L` the query keeps, projected — what JEN shuffles.
pub fn l_prime(workload: &Workload, query: &HybridQuery) -> Result<Batch> {
    let mask = query.hdfs_pred.eval_predicate(&workload.l)?;
    Ok(workload.l.filter(&mask)?.project(&query.hdfs_proj)?)
}

/// The share of `batch` the agreed shuffle hash routes to the JEN worker
/// that owns join key 0. The generator puts key 0 in `JK(T′) ∩ JK(L′)`, so
/// this worker's build and probe shares always have matches to join.
pub fn joining_worker_share(batch: &Batch, key_col: usize) -> Result<Batch> {
    let mut parts = partition_by_key(batch, key_col, JEN_WORKERS, agreed_shuffle_partition)?;
    Ok(parts.swap_remove(agreed_shuffle_partition(0, JEN_WORKERS)))
}

/// The DB-side join of a query, as `DbSide` hands it to `join_and_aggregate`
/// (left = `T′`, right = `L′` landed on the DB workers).
pub fn db_join_spec(query: &HybridQuery) -> DbJoinSpec {
    DbJoinSpec {
        left_key: query.db_key,
        right_key: query.hdfs_key,
        post_predicate: query.post_predicate.clone(),
        group_expr: query.group_expr.clone(),
        aggs: query.aggs.clone(),
    }
}

/// Group keys of joined rows in the `L′ ++ T′` layout the HDFS-side joins
/// produce, as their aggregate step computes them.
pub fn group_keys_hdfs_layout(query: &HybridQuery, joined: &Batch) -> Result<Vec<i64>> {
    Ok(query.group_expr_hdfs_layout().eval_i64(joined)?)
}

/// The eight join strategies the cost model prices.
pub const ALGORITHMS: [JoinAlgorithm; 8] = [
    JoinAlgorithm::Zigzag,
    JoinAlgorithm::Repartition { bloom: true },
    JoinAlgorithm::Repartition { bloom: false },
    JoinAlgorithm::DbSide { bloom: true },
    JoinAlgorithm::DbSide { bloom: false },
    JoinAlgorithm::Broadcast,
    JoinAlgorithm::SemiJoin,
    JoinAlgorithm::PerfJoin,
];

#[cfg(test)]
mod tests {
    /// The satellite this file exists for: no other source file may name a
    /// crate of the repository.
    #[test]
    fn only_this_file_names_the_repos_crates() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "adapter.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let needle = ["hybrid", "_"].concat();
            assert!(
                !text.contains(&needle),
                "{} names a repo crate",
                path.display()
            );
        }
    }
}
