//! Robust dynamic hybrid hash join with spill-to-disk.
//!
//! The paper's JEN "requires that all data fit in memory for the local
//! hash-based join on each worker. In the future, we plan to support
//! spilling to disk to overcome this limitation" (§4.4). This module is
//! that future work, upgraded from a wholesale grace hash join to the
//! *robust dynamic hybrid* design: the build side is hash-partitioned up
//! front, but partitions stay **resident in memory while the budget
//! allows**. Under pressure the joiner dynamically evicts the largest
//! resident partition to an on-disk run (via `SpillSide`, encoded with
//! the columnar format) and keeps going; partitions that still do not fit
//! at join time are **recursively repartitioned** with a depth-salted hash
//! until they fit or a depth bound is reached (correctness over memory:
//! at the bound the partition is joined in memory regardless).
//!
//! Partitioning on the join key guarantees matching rows land in the same
//! partition at every depth, so the result equals the in-memory join
//! exactly — resident partitions just skip the disk round-trip that the
//! old grace join paid for the whole build side.
//!
//! # Budgets and determinism
//!
//! Residency is bounded two ways, both optional: a row limit (the legacy
//! `jen_memory_limit_rows` knob) and a byte cap carried by a
//! [`WorkerBudget`] ledger from the system's shared
//! [`BufferPool`](hybrid_common::mempool::BufferPool). The worker cap is a
//! *static* share of the query's reservation, so each joiner's eviction
//! decisions depend only on its own input stream — results are
//! bit-identical at any thread count, and spill/`mem.*` counters are
//! exactly reproducible at `threads=1`.
//!
//! Residency is re-checked after every build append and evictions bring it
//! back under the cap before the joiner returns to its caller; the ledger
//! is reported at those stable points, so the pool-level high-water mark
//! never exceeds the sum of worker caps. (The transient peak *during* an
//! append-then-evict step, and re-reading an evicted partition at join
//! time, are not ledgered — classic hybrid hash accounting.)

use hybrid_common::batch::{Batch, BatchBuilder};
use hybrid_common::error::{HybridError, Result};
use hybrid_common::hash::hash_key_seeded;
use hybrid_common::mempool::WorkerBudget;
use hybrid_common::metrics::Metrics;
use hybrid_common::ops::{partition_by_key, HashJoiner};
use hybrid_common::schema::Schema;
use hybrid_storage::columnar;
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Seed for the spill partitioning hash — distinct from both the agreed
/// shuffle hash and the DB partitioning hash, so spill partitions are
/// uncorrelated with how rows were routed to this worker.
const SPILL_SEED: u64 = 0x5B11_1ED0_0000_0001;

/// Per-depth salt for recursive repartitioning: a bucket that overflows at
/// depth `d` is re-split with a *different* hash at depth `d+1`, otherwise
/// every row would land in the same sub-bucket again.
const DEPTH_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Recursion depth bound. A partition that still overflows after this many
/// re-splits (e.g. a single hot key) is joined in memory anyway —
/// correctness over memory — and counted under `mem.depth_bound_hits`.
const MAX_RECURSION: usize = 4;

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One joiner's private spill directory, `hybrid-spill-<pid>-<n>` under
/// [`std::env::temp_dir`]: created at the joiner's first eviction and
/// removed, with anything still in it, when the joiner drops. Joiners
/// running side by side in one process therefore never share a directory.
struct SpillDir {
    path: PathBuf,
    created: bool,
}

impl SpillDir {
    fn new() -> SpillDir {
        let n = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        SpillDir {
            path: std::env::temp_dir().join(format!("hybrid-spill-{}-{n}", std::process::id())),
            created: false,
        }
    }

    /// The directory, created on first use.
    fn ensure(&mut self) -> Result<&Path> {
        if !self.created {
            fs::create_dir_all(&self.path).map_err(|e| {
                HybridError::Storage(format!("spill dir create {:?}: {e}", self.path))
            })?;
            self.created = true;
        }
        Ok(&self.path)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if self.created {
            let _ = fs::remove_dir_all(&self.path);
        }
    }
}

/// Partitioning hash at recursion `depth` (depth 0 = the eviction layer).
fn depth_seed(depth: usize) -> u64 {
    SPILL_SEED ^ (depth as u64).wrapping_mul(DEPTH_SALT)
}

/// One side's on-disk runs: a file per partition of length-prefixed
/// columnar-encoded batches.
///
/// Carries its own [`Metrics`] handle so the `jen.spill.files_created` /
/// `jen.spill.files_removed` pair balances even when cleanup happens in
/// [`Drop`] on an error path (e.g. a fault-injected worker kill between
/// the spill-write and spill-read phases): any imbalance means orphaned
/// partition files.
struct SpillSide {
    schema: Schema,
    key_col: usize,
    seed: u64,
    files: Vec<PathBuf>,
    /// Which partition files have actually been created on disk.
    written: Vec<bool>,
    metrics: Metrics,
}

impl SpillSide {
    fn create(
        schema: Schema,
        key_col: usize,
        dir: &Path,
        tag: &str,
        parts: usize,
        seed: u64,
        metrics: Metrics,
    ) -> Result<SpillSide> {
        let run = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let files: Vec<PathBuf> = (0..parts)
            .map(|p| dir.join(format!("{run}-{tag}-{p}.col")))
            .collect();
        Ok(SpillSide {
            schema,
            key_col,
            seed,
            written: vec![false; files.len()],
            files,
            metrics,
        })
    }

    /// Partition `batch` with this side's seed and append each non-empty
    /// slice to its partition file.
    fn append(&mut self, batch: &Batch) -> Result<()> {
        let seed = self.seed;
        let parts = partition_by_key(batch, self.key_col, self.files.len(), |key, n| {
            (hash_key_seeded(key, seed) % n as u64) as usize
        })?;
        for (p, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            self.append_part(p, part)?;
        }
        Ok(())
    }

    /// Append an already-partitioned batch to partition `p`'s file —
    /// the eviction path, where the joiner partitioned on arrival.
    fn append_part(&mut self, p: usize, part: &Batch) -> Result<()> {
        let path = &self.files[p];
        let payload = columnar::encode(part);
        let mut f = File::options()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| HybridError::Storage(format!("spill open {path:?}: {e}")))?;
        if !self.written[p] {
            self.written[p] = true;
            self.metrics.incr("jen.spill.files_created");
        }
        f.write_all(&(payload.len() as u32).to_le_bytes())
            .and_then(|()| f.write_all(&payload))
            .map_err(|e| HybridError::Storage(format!("spill write: {e}")))?;
        self.metrics
            .add("jen.spill.bytes_written", (payload.len() + 4) as u64);
        Ok(())
    }

    fn read_partition(&self, p: usize) -> Result<Vec<Batch>> {
        let path = &self.files[p];
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)
                    .map_err(|e| HybridError::Storage(format!("spill read: {e}")))?;
            }
            Err(_) => return Ok(Vec::new()), // partition never received rows
        }
        self.metrics.add("jen.spill.bytes_read", bytes.len() as u64);
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            if pos + 4 > bytes.len() {
                return Err(HybridError::Storage("spill run truncated".into()));
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            let chunk = bytes
                .get(pos..pos + len)
                .ok_or_else(|| HybridError::Storage("spill chunk truncated".into()))?;
            pos += len;
            let (batch, _) = columnar::decode(&self.schema, chunk, None)?;
            out.push(batch);
        }
        Ok(out)
    }

    fn cleanup(&mut self) {
        for (p, f) in self.files.iter().enumerate() {
            if fs::remove_file(f).is_ok() && self.written[p] {
                self.written[p] = false;
                self.metrics.incr("jen.spill.files_removed");
            }
        }
    }
}

impl Drop for SpillSide {
    fn drop(&mut self) {
        self.cleanup();
    }
}

/// One hash partition's in-memory state.
#[derive(Default)]
struct Partition {
    /// False once evicted: its build (and buffered probe) rows live on
    /// disk and all later arrivals go straight there.
    evicted: bool,
    build: Vec<Batch>,
    rows: usize,
    bytes: u64,
    /// Probe slices buffered while the partition is resident; moved to the
    /// probe spill run if the partition is evicted later.
    probe: Vec<Batch>,
}

/// A robust dynamic hybrid hash join: resident partitions while the budget
/// allows, dynamic eviction under pressure, recursive repartitioning of
/// buckets that overflow their share.
pub struct HybridHashJoiner {
    build_schema: Schema,
    build_key: usize,
    /// Legacy row limit on total resident build rows (`jen_memory_limit_rows`).
    max_rows: Option<usize>,
    /// Byte-budget ledger; its cap bounds total resident build bytes.
    budget: Option<WorkerBudget>,
    num_partitions: usize,
    metrics: Metrics,
    parts: Vec<Partition>,
    resident_rows: usize,
    resident_bytes: u64,
    /// Created lazily at the first eviction.
    build_spill: Option<SpillSide>,
    probe_spill: Option<SpillSide>,
    probe_schema: Option<Schema>,
    probe_key: Option<usize>,
    evictions: u64,
    /// Declared after the spill runs, so their files are removed before
    /// the directory is.
    spill_dir: SpillDir,
}

impl HybridHashJoiner {
    pub fn new(
        build_schema: Schema,
        build_key: usize,
        max_rows: Option<usize>,
        budget: Option<WorkerBudget>,
        num_partitions: usize,
        metrics: Metrics,
    ) -> Result<HybridHashJoiner> {
        if num_partitions == 0 {
            return Err(HybridError::config(
                "hybrid hash join needs at least one partition",
            ));
        }
        Ok(HybridHashJoiner {
            build_schema,
            build_key,
            max_rows,
            budget,
            num_partitions,
            metrics,
            parts: (0..num_partitions).map(|_| Partition::default()).collect(),
            resident_rows: 0,
            resident_bytes: 0,
            build_spill: None,
            probe_spill: None,
            probe_schema: None,
            probe_key: None,
            evictions: 0,
            spill_dir: SpillDir::new(),
        })
    }

    /// Schema of the build side, the left part of every joined row.
    pub(crate) fn build_schema(&self) -> &Schema {
        &self.build_schema
    }

    /// Whether any partition has been evicted to disk.
    pub fn is_spilled(&self) -> bool {
        self.evictions > 0
    }

    fn over_budget(&self) -> bool {
        if self.max_rows.is_some_and(|mr| self.resident_rows > mr) {
            return true;
        }
        self.budget
            .as_ref()
            .is_some_and(|b| !b.fits(self.resident_bytes))
    }

    /// Feed a build-side batch: partition it, keep slices for resident
    /// partitions in memory, then evict until residency fits the budget.
    pub fn add_build(&mut self, batch: Batch) -> Result<()> {
        if batch.schema() != &self.build_schema {
            return Err(HybridError::SchemaMismatch(
                "hybrid join build schema".into(),
            ));
        }
        let slices = partition_by_key(&batch, self.build_key, self.num_partitions, |key, n| {
            (hash_key_seeded(key, depth_seed(0)) % n as u64) as usize
        })?;
        for (p, slice) in slices.into_iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            if self.parts[p].evicted {
                self.build_spill
                    .as_mut()
                    .expect("evicted partition implies a build spill run")
                    .append_part(p, &slice)?;
            } else {
                let bytes = slice.serialized_bytes() as u64;
                self.parts[p].rows += slice.num_rows();
                self.parts[p].bytes += bytes;
                self.resident_rows += slice.num_rows();
                self.resident_bytes += bytes;
                self.parts[p].build.push(slice);
            }
        }
        self.enforce_budget()?;
        self.report_residency();
        Ok(())
    }

    /// Evict largest-resident-first until residency fits both caps.
    fn enforce_budget(&mut self) -> Result<()> {
        while self.over_budget() {
            // victim: largest resident partition by bytes, ties → lowest
            // index (deterministic for a given input order)
            let victim = (0..self.num_partitions)
                .filter(|&p| !self.parts[p].evicted && self.parts[p].rows > 0)
                .max_by_key(|&p| (self.parts[p].bytes, std::cmp::Reverse(p)));
            match victim {
                Some(p) => self.evict(p)?,
                // nothing evictable left; residency is already minimal
                None => break,
            }
        }
        Ok(())
    }

    fn evict(&mut self, p: usize) -> Result<()> {
        if self.build_spill.is_none() {
            self.build_spill = Some(SpillSide::create(
                self.build_schema.clone(),
                self.build_key,
                self.spill_dir.ensure()?,
                "build",
                self.num_partitions,
                depth_seed(0),
                self.metrics.clone(),
            )?);
            // first eviction = the join degraded to disk at all
            self.metrics.incr("jen.spill.activations");
        }
        let build = std::mem::take(&mut self.parts[p].build);
        let probe = std::mem::take(&mut self.parts[p].probe);
        self.resident_rows -= self.parts[p].rows;
        self.resident_bytes -= self.parts[p].bytes;
        self.parts[p].rows = 0;
        self.parts[p].bytes = 0;
        self.parts[p].evicted = true;
        let spill = self.build_spill.as_mut().expect("created above");
        for b in &build {
            spill.append_part(p, b)?;
        }
        if !probe.is_empty() {
            self.ensure_probe_spill()?;
            let ps = self.probe_spill.as_mut().expect("created above");
            for b in &probe {
                ps.append_part(p, b)?;
            }
        }
        self.evictions += 1;
        self.metrics.incr("mem.evictions");
        Ok(())
    }

    fn ensure_probe_spill(&mut self) -> Result<()> {
        if self.probe_spill.is_none() {
            let schema = self
                .probe_schema
                .clone()
                .expect("buffered probe slices imply a known probe schema");
            let key = self.probe_key.expect("probe schema implies probe key");
            self.probe_spill = Some(SpillSide::create(
                schema,
                key,
                self.spill_dir.ensure()?,
                "probe",
                self.num_partitions,
                depth_seed(0),
                self.metrics.clone(),
            )?);
        }
        Ok(())
    }

    /// Report residency to the pool ledger and the `mem.high_water` mark.
    /// Called at stable points only (after evictions), so the reported
    /// high-water never exceeds the worker cap.
    fn report_residency(&mut self) {
        if let Some(b) = &mut self.budget {
            b.report(self.resident_bytes);
        }
        self.metrics.set_max("mem.high_water", self.resident_bytes);
    }

    /// Feed a probe-side batch. The first probe batch fixes the probe schema
    /// and key column. Slices for resident partitions are buffered in
    /// memory; slices for evicted partitions go to the probe spill run.
    pub fn add_probe(&mut self, batch: Batch, probe_key: usize) -> Result<()> {
        match (&self.probe_schema, &self.probe_key) {
            (None, _) => {
                self.probe_schema = Some(batch.schema().clone());
                self.probe_key = Some(probe_key);
            }
            (Some(s), Some(k)) => {
                if s != batch.schema() || *k != probe_key {
                    return Err(HybridError::SchemaMismatch(
                        "hybrid join probe schema/key changed mid-stream".into(),
                    ));
                }
            }
            _ => unreachable!(),
        }
        let slices = partition_by_key(&batch, probe_key, self.num_partitions, |key, n| {
            (hash_key_seeded(key, depth_seed(0)) % n as u64) as usize
        })?;
        for (p, slice) in slices.into_iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            if self.parts[p].evicted {
                self.ensure_probe_spill()?;
                self.probe_spill
                    .as_mut()
                    .expect("created above")
                    .append_part(p, &slice)?;
            } else {
                self.parts[p].probe.push(slice);
            }
        }
        Ok(())
    }

    /// Join one evicted partition, recursively repartitioning while it
    /// overflows the per-worker caps and the depth bound allows.
    fn join_partition(
        &self,
        build: Vec<Batch>,
        probe: Vec<Batch>,
        probe_key: usize,
        depth: usize,
        sink: &mut impl FnMut(&HashJoiner, &Batch, usize) -> Result<()>,
    ) -> Result<()> {
        let rows: usize = build.iter().map(Batch::num_rows).sum();
        let bytes: u64 = build.iter().map(|b| b.serialized_bytes() as u64).sum();
        let fits = self.max_rows.map_or(true, |mr| rows <= mr)
            && self.budget.as_ref().map_or(true, |b| b.fits(bytes));
        if fits || depth >= MAX_RECURSION {
            if !fits {
                // e.g. one scorching key: no split can help, join anyway
                self.metrics.incr("mem.depth_bound_hits");
            }
            let mut joiner = HashJoiner::new(self.build_schema.clone(), self.build_key);
            for b in build {
                joiner.build(b)?;
            }
            for pb in &probe {
                sink(&joiner, pb, probe_key)?;
            }
            return Ok(());
        }
        self.metrics.incr("mem.recursive_repartitions");
        let probe_schema = self
            .probe_schema
            .clone()
            .expect("join_partition runs only with probe data");
        let mut sub_build = SpillSide::create(
            self.build_schema.clone(),
            self.build_key,
            &self.spill_dir.path,
            &format!("rbuild{depth}"),
            self.num_partitions,
            depth_seed(depth),
            self.metrics.clone(),
        )?;
        let mut sub_probe = SpillSide::create(
            probe_schema,
            probe_key,
            &self.spill_dir.path,
            &format!("rprobe{depth}"),
            self.num_partitions,
            depth_seed(depth),
            self.metrics.clone(),
        )?;
        for b in &build {
            sub_build.append(b)?;
        }
        for b in &probe {
            sub_probe.append(b)?;
        }
        drop(build);
        drop(probe);
        for sp in 0..self.num_partitions {
            let b = sub_build.read_partition(sp)?;
            if b.is_empty() {
                continue;
            }
            let p = sub_probe.read_partition(sp)?;
            self.join_partition(b, p, probe_key, depth + 1, sink)?;
        }
        Ok(())
    }

    /// Run the join and return its output as one batch (`build_row ++
    /// probe_row`, like [`HashJoiner::probe`]): the same partition walk as
    /// `finish_into`, each partition's matches appended onto the output
    /// columns.
    pub fn finish(self) -> Result<Batch> {
        // with no probe batch seen, the build schema stands in for the probe's
        let probe_schema = self.probe_schema.as_ref().unwrap_or(&self.build_schema);
        let mut out = BatchBuilder::new(self.build_schema.join(probe_schema));
        self.finish_into(|joiner, probe, key| joiner.probe_append(probe, key, &mut out))?;
        Ok(out.finish())
    }

    /// Run the join, handing `sink` each partition's in-memory joiner with
    /// each of that partition's probe batches and the probe key.
    ///
    /// Resident partitions join purely in memory; evicted partitions are
    /// re-read from their spill runs (recursing if they overflow). The
    /// number of non-empty partitions that never touched disk is recorded
    /// under `mem.partitions_resident` — the hybrid win over grace.
    pub(crate) fn finish_into(
        mut self,
        mut sink: impl FnMut(&HashJoiner, &Batch, usize) -> Result<()>,
    ) -> Result<()> {
        // Residency is a property of the build, so it is recorded even on
        // the no-probe path below — a worker that holds its partitions in
        // memory scored the hybrid win whether or not any probe row arrives.
        let resident_nonempty = self
            .parts
            .iter()
            .filter(|p| !p.evicted && p.rows > 0)
            .count() as u64;
        self.metrics
            .add("mem.partitions_resident", resident_nonempty);
        let Some(probe_key) = self.probe_key else {
            return Ok(());
        };
        for p in 0..self.num_partitions {
            if self.parts[p].evicted {
                let build = self
                    .build_spill
                    .as_ref()
                    .expect("evicted partition implies a build spill run")
                    .read_partition(p)?;
                if build.is_empty() {
                    continue;
                }
                let probe = match &self.probe_spill {
                    Some(ps) => ps.read_partition(p)?,
                    None => Vec::new(),
                };
                self.join_partition(build, probe, probe_key, 1, &mut sink)?;
            } else {
                if self.parts[p].rows == 0 {
                    continue;
                }
                let mut joiner = HashJoiner::new(self.build_schema.clone(), self.build_key);
                for b in std::mem::take(&mut self.parts[p].build) {
                    joiner.build(b)?;
                }
                for pb in std::mem::take(&mut self.parts[p].probe) {
                    sink(&joiner, &pb, probe_key)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::mempool::BufferPool;

    fn build_schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::I32), ("v", DataType::I64)])
    }

    fn probe_schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::I32), ("s", DataType::Utf8)])
    }

    fn build_batch(range: std::ops::Range<i32>) -> Batch {
        Batch::new(
            build_schema(),
            vec![
                Column::I32(range.clone().collect()),
                Column::I64(range.map(i64::from).map(|v| v * 10).collect()),
            ],
        )
        .unwrap()
    }

    fn probe_batch(keys: &[i32]) -> Batch {
        Batch::new(
            probe_schema(),
            vec![
                Column::I32(keys.to_vec()),
                Column::Utf8(keys.iter().map(|k| format!("p{k}")).collect()),
            ],
        )
        .unwrap()
    }

    fn reference_join(build: &Batch, probe: &Batch) -> Batch {
        let mut j = HashJoiner::new(build.schema().clone(), 0);
        j.build(build.clone()).unwrap();
        j.probe(probe, 0).unwrap()
    }

    fn sorted_rows(b: &Batch) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = (0..b.num_rows())
            .map(|r| b.row(r).iter().map(|d| d.to_string()).collect())
            .collect();
        rows.sort();
        rows
    }

    fn row_limited(limit: usize, parts: usize, m: Metrics) -> HybridHashJoiner {
        HybridHashJoiner::new(build_schema(), 0, Some(limit), None, parts, m).unwrap()
    }

    #[test]
    fn in_memory_path_matches_reference() {
        let m = Metrics::new();
        let mut g = row_limited(1000, 4, m.clone());
        g.add_build(build_batch(0..50)).unwrap();
        g.add_probe(probe_batch(&[1, 2, 99, 2]), 0).unwrap();
        assert!(!g.is_spilled());
        let out = g.finish().unwrap();
        let expected = reference_join(&build_batch(0..50), &probe_batch(&[1, 2, 99, 2]));
        assert_eq!(sorted_rows(&out), sorted_rows(&expected));
        assert_eq!(m.get("jen.spill.activations"), 0);
        assert_eq!(m.get("mem.evictions"), 0);
        assert!(m.get("mem.partitions_resident") > 0);
    }

    #[test]
    fn spilled_path_matches_in_memory() {
        let m = Metrics::new();
        let mut g = row_limited(64, 4, m.clone());
        // probe arrives early (buffered), then the build blows the budget
        g.add_probe(
            probe_batch(&(0..300).map(|i| i % 120).collect::<Vec<_>>()),
            0,
        )
        .unwrap();
        for chunk in 0..5 {
            g.add_build(build_batch(chunk * 40..(chunk + 1) * 40))
                .unwrap();
        }
        assert!(g.is_spilled());
        // more probes after the spill go straight to disk
        g.add_probe(probe_batch(&[5, 199, 250]), 0).unwrap();
        let out = g.finish().unwrap();

        let all_build = build_batch(0..200);
        let mut probe_keys: Vec<i32> = (0..300).map(|i| i % 120).collect();
        probe_keys.extend([5, 199, 250]);
        let expected = reference_join(&all_build, &probe_batch(&probe_keys));
        assert_eq!(sorted_rows(&out), sorted_rows(&expected));
        assert_eq!(m.get("jen.spill.activations"), 1);
        assert!(m.get("jen.spill.bytes_written") > 0);
        assert!(m.get("jen.spill.bytes_read") > 0);
        assert!(m.get("mem.evictions") > 0);
    }

    /// The hybrid property itself: under pressure *some* partitions go to
    /// disk while at least one stays resident, and the result is still
    /// exact. A budget of ~half the build bytes cannot evict everything.
    #[test]
    fn partial_eviction_keeps_some_partitions_resident() {
        let m = Metrics::new();
        let total_bytes = build_batch(0..400).serialized_bytes() as u64;
        let pool = BufferPool::new(Some(total_bytes / 2), Metrics::new());
        let q = pool.reserve(total_bytes / 2, "t").unwrap();
        let mut g = HybridHashJoiner::new(
            build_schema(),
            0,
            None,
            Some(q.worker_share(1)),
            8,
            m.clone(),
        )
        .unwrap();
        for chunk in 0..10 {
            g.add_build(build_batch(chunk * 40..(chunk + 1) * 40))
                .unwrap();
        }
        assert!(g.is_spilled(), "half budget must evict");
        let probe_keys: Vec<i32> = (0..500).map(|i| i % 420).collect();
        g.add_probe(probe_batch(&probe_keys), 0).unwrap();
        let out = g.finish().unwrap();
        let expected = reference_join(&build_batch(0..400), &probe_batch(&probe_keys));
        assert_eq!(sorted_rows(&out), sorted_rows(&expected));
        assert!(m.get("mem.evictions") > 0);
        assert!(
            m.get("mem.partitions_resident") > 0,
            "hybrid must keep >=1 partition in memory under a half budget"
        );
        assert!(m.get("mem.high_water") > 0);
        assert!(m.get("mem.high_water") <= total_bytes / 2);
    }

    /// A tiny budget forces every partition out; overflowing buckets are
    /// recursively repartitioned and the result is still exact.
    #[test]
    fn tiny_budget_recursively_repartitions() {
        let m = Metrics::new();
        let pool = BufferPool::new(Some(64), Metrics::new());
        let q = pool.reserve(64, "t").unwrap();
        // row limit low enough that depth-0 partitions (~100 rows each at
        // 2 partitions) must re-split at join time
        let mut g = HybridHashJoiner::new(
            build_schema(),
            0,
            Some(30),
            Some(q.worker_share(1)),
            2,
            m.clone(),
        )
        .unwrap();
        for chunk in 0..5 {
            g.add_build(build_batch(chunk * 40..(chunk + 1) * 40))
                .unwrap();
        }
        let probe_keys: Vec<i32> = (0..300).map(|i| i % 250).collect();
        g.add_probe(probe_batch(&probe_keys), 0).unwrap();
        let out = g.finish().unwrap();
        let expected = reference_join(&build_batch(0..200), &probe_batch(&probe_keys));
        assert_eq!(sorted_rows(&out), sorted_rows(&expected));
        assert!(
            m.get("mem.recursive_repartitions") > 0,
            "tiny budget must trigger recursive repartitioning"
        );
        assert_eq!(m.get("mem.partitions_resident"), 0);
        // recursion's temporary runs are cleaned up like any other
        assert_eq!(
            m.get("jen.spill.files_created"),
            m.get("jen.spill.files_removed")
        );
    }

    /// A single hot key cannot be split at any depth: the depth bound must
    /// stop the recursion and join in memory anyway.
    #[test]
    fn single_hot_key_hits_depth_bound_but_joins() {
        let m = Metrics::new();
        let mut g = row_limited(10, 2, m.clone());
        let hot = Batch::new(
            build_schema(),
            vec![
                Column::I32(vec![7; 100]),
                Column::I64((0..100).collect::<Vec<i64>>()),
            ],
        )
        .unwrap();
        g.add_build(hot.clone()).unwrap();
        g.add_probe(probe_batch(&[7, 8]), 0).unwrap();
        let out = g.finish().unwrap();
        let expected = reference_join(&hot, &probe_batch(&[7, 8]));
        assert_eq!(sorted_rows(&out), sorted_rows(&expected));
        assert!(m.get("mem.depth_bound_hits") > 0);
        assert_eq!(
            m.get("jen.spill.files_created"),
            m.get("jen.spill.files_removed")
        );
    }

    #[test]
    fn no_probe_data_yields_empty_joined_schema() {
        let m = Metrics::new();
        let mut g = row_limited(10, 2, m);
        g.add_build(build_batch(0..5)).unwrap();
        let out = g.finish().unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema().len(), 4);
    }

    #[test]
    fn probe_schema_change_rejected() {
        let m = Metrics::new();
        let mut g = row_limited(10, 2, m);
        g.add_probe(probe_batch(&[1]), 0).unwrap();
        assert!(g.add_probe(build_batch(0..1), 0).is_err());
        assert!(g.add_probe(probe_batch(&[1]), 1).is_err());
    }

    #[test]
    fn build_schema_mismatch_rejected() {
        let m = Metrics::new();
        let mut g = row_limited(10, 2, m);
        assert!(g.add_build(probe_batch(&[1])).is_err());
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(
            HybridHashJoiner::new(build_schema(), 0, Some(10), None, 0, Metrics::new()).is_err()
        );
    }

    #[test]
    fn spill_files_cleaned_up() {
        let m = Metrics::new();
        let mut g = row_limited(8, 4, m.clone());
        for chunk in 0..4 {
            g.add_build(build_batch(chunk * 10..(chunk + 1) * 10))
                .unwrap();
        }
        g.add_probe(probe_batch(&[1, 2]), 0).unwrap();
        assert!(g.is_spilled());
        let dir = g.spill_dir.path.clone();
        assert!(dir.is_dir(), "the first eviction creates the spill dir");
        let _ = g.finish().unwrap();
        assert!(!dir.exists(), "finish must remove the spill dir");
        let created = m.get("jen.spill.files_created");
        assert!(created > 0, "spilled join must create partition files");
        assert_eq!(created, m.get("jen.spill.files_removed"));
    }

    /// The orphan-accounting invariant on an *abandoned* join: a joiner
    /// dropped mid-spill (as when a fault-injected kill unwinds the worker
    /// between build and probe) must still remove every file it created.
    #[test]
    fn abandoned_spill_leaves_no_orphans() {
        let m = Metrics::new();
        let mut g = row_limited(8, 4, m.clone());
        for chunk in 0..4 {
            g.add_build(build_batch(chunk * 10..(chunk + 1) * 10))
                .unwrap();
        }
        g.add_probe(probe_batch(&[1, 2, 3]), 0).unwrap();
        assert!(g.is_spilled());
        let dir = g.spill_dir.path.clone();
        assert!(dir.is_dir(), "the first eviction creates the spill dir");
        drop(g); // without finish(): the kill path
        assert!(!dir.exists(), "an abandoned join must remove its spill dir");
        let created = m.get("jen.spill.files_created");
        assert!(created > 0);
        assert_eq!(created, m.get("jen.spill.files_removed"));
    }

    /// Residency deltas reported through the worker ledger are released on
    /// drop, so a pool shared by many joiners ends at zero.
    #[test]
    fn ledger_released_on_drop() {
        let root = Metrics::new();
        let pool = BufferPool::new(Some(1 << 20), root.clone());
        let q = pool.reserve(1 << 20, "t").unwrap();
        {
            let mut g = HybridHashJoiner::new(
                build_schema(),
                0,
                None,
                Some(q.worker_share(1)),
                4,
                Metrics::new(),
            )
            .unwrap();
            g.add_build(build_batch(0..50)).unwrap();
            assert!(pool.used() > 0, "residency must be ledgered");
        }
        assert_eq!(pool.used(), 0);
        assert!(root.get("mem.pool_high_water") > 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::mempool::BufferPool;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::I32), ("v", DataType::I64)])
    }

    fn batch(rows: &[(i32, i64)]) -> Batch {
        Batch::new(
            schema(),
            vec![
                Column::I32(rows.iter().map(|r| r.0).collect()),
                Column::I64(rows.iter().map(|r| r.1).collect()),
            ],
        )
        .unwrap()
    }

    fn sorted_rows(b: &Batch) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = (0..b.num_rows())
            .map(|r| b.row(r).iter().map(|d| d.to_string()).collect())
            .collect();
        rows.sort();
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The hybrid (partially spilled) join equals the in-memory join
        /// for arbitrary build/probe streams, row limits, byte budgets,
        /// and partition counts.
        #[test]
        fn hybrid_equals_in_memory(
            build in proptest::collection::vec((0i32..15, any::<i64>()), 0..60),
            probe in proptest::collection::vec((0i32..15, any::<i64>()), 0..60),
            limit in 1usize..30,
            parts in 1usize..6,
            budget_bytes in 0u64..2000, // 0 = no byte budget
        ) {
            let mut mem = HashJoiner::new(schema(), 0);
            mem.build(batch(&build)).unwrap();
            let expected = mem.probe(&batch(&probe), 0).unwrap();

            let worker = (budget_bytes > 0).then(|| {
                let pool = BufferPool::new(Some(budget_bytes), Metrics::new());
                pool.reserve(budget_bytes, "prop").unwrap().worker_share(1)
            });
            let mut hybrid = HybridHashJoiner::new(
                schema(), 0, Some(limit), worker, parts, Metrics::new(),
            ).unwrap();
            // feed in small chunks to exercise incremental appends
            for chunk in build.chunks(7) {
                hybrid.add_build(batch(chunk)).unwrap();
            }
            for chunk in probe.chunks(5) {
                hybrid.add_probe(batch(chunk), 0).unwrap();
            }
            let got = hybrid.finish().unwrap();
            prop_assert_eq!(sorted_rows(&got), sorted_rows(&expected));
        }
    }
}
