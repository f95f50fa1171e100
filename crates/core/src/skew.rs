//! Skew-aware shuffle routing: heavy-hitter detection plus salted
//! partitioning.
//!
//! The repartition-family joins route every tuple of a join key to the one
//! JEN worker owning its hash partition. A heavy-hitter key therefore turns
//! that worker into the straggler that bounds the whole pipelined plan —
//! the load-balancing problem selective replication attacks (Metwally,
//! SIGMOD '22; Afrati et al.).
//!
//! The scheme here:
//!
//! 1. **Detect** — before execution, sample strided HDFS blocks under the
//!    query's local predicates and feed surviving join keys through a
//!    [`SpaceSaving`] sketch. A key is *hot* when its guaranteed count
//!    reaches a fair worker share of the sample.
//! 2. **Salt the build side** — rows of a hot key `k` are split
//!    round-robin across the `f = salt_buckets` workers
//!    `(home(k) + i) mod n`, `i < f`, where `home` is the agreed hash.
//! 3. **Replicate the probe side** — `T'` rows carrying `k` are sent to
//!    *all* `f` salt workers, so every `(t, l)` pair still meets exactly
//!    once; results are bit-identical to the unsalted plan.
//!
//! Cold keys keep the agreed hash route untouched. Every routing decision
//! is a pure function of (key, per-sender scan order), so parallel runs
//! stay deterministic and metric snapshots remain schedule-independent.

use crate::query::HybridQuery;
use crate::system::HybridSystem;
use hybrid_common::batch::{Batch, SelectionVector};
use hybrid_common::error::Result;
use hybrid_common::expr::Expr;
use hybrid_common::hash::agreed_shuffle_partition;
use hybrid_common::sketch::SpaceSaving;
use hybrid_storage::decode;
use std::collections::{HashMap, HashSet};

/// How many HDFS blocks the detector decodes (strided through the file).
const SALT_SAMPLE_BLOCKS: usize = 16;

/// Sketch width — far above the handful of keys that can matter.
const SKETCH_CAPACITY: usize = 64;

/// Noise floor: a key must have at least this many guaranteed sampled
/// occurrences before salting it, however small the sample.
const MIN_HOT_COUNT: u64 = 16;

/// Heavy hitters among the `key_cols` of an HDFS table's filtered,
/// projected rows: the detector behind every salted plan, binary or star.
/// Decodes [`SALT_SAMPLE_BLOCKS`] strided blocks, feeds each key column
/// through its own [`SpaceSaving`] sketch, and keeps the keys whose
/// guaranteed count reaches a fair worker share of the sample; meters
/// `{meter}.sampled_rows` and `{meter}.hot_keys`. `None` when salting is
/// off (no `salt_buckets`, or fewer than 2 JEN workers).
pub(crate) fn sample_hot_keys(
    sys: &HybridSystem,
    meter: &str,
    table: &str,
    pred: &Expr,
    proj: &[usize],
    key_cols: &[usize],
) -> Result<Option<Vec<HashSet<i64>>>> {
    let n = sys.config.jen_workers;
    if sys.config.salt_buckets.is_none() || n < 2 {
        return Ok(None);
    }
    let meta = sys.coordinator.lookup_table(table)?;
    let blocks = sys.hdfs.read().file_blocks(&meta.path)?;
    let picked = SALT_SAMPLE_BLOCKS.clamp(1, blocks.len().max(1));
    let mut sketches: Vec<SpaceSaving> = key_cols
        .iter()
        .map(|_| SpaceSaving::new(SKETCH_CAPACITY))
        .collect();
    let mut sampled = 0u64;
    for i in 0..picked {
        let idx = i * blocks.len() / picked;
        let reader = sys.jen_workers[0].datanode();
        let bytes = sys
            .hdfs
            .read()
            .read_block_into(blocks[idx].id, reader, &sys.metrics)?;
        let decoded = decode(meta.format, &meta.schema, &bytes, None)?;
        let mask = pred.eval_predicate(&decoded.batch)?;
        let survivors = decoded.batch.filter(&mask)?.project(proj)?;
        sampled += survivors.num_rows() as u64;
        for (&col, sketch) in key_cols.iter().zip(&mut sketches) {
            for &key in survivors.column(col)?.keys_i64()?.iter() {
                sketch.offer(key);
            }
        }
    }
    let threshold = (sampled / n as u64).max(MIN_HOT_COUNT);
    let hot: Vec<HashSet<i64>> = sketches
        .into_iter()
        .map(|sketch| {
            sketch
                .heavy_hitters(threshold)
                .into_iter()
                .map(|(key, _)| key)
                .collect()
        })
        .collect();
    sys.metrics.add(&format!("{meter}.sampled_rows"), sampled);
    let hot_keys = hot.iter().map(|h| h.len() as u64).sum();
    sys.metrics.add(&format!("{meter}.hot_keys"), hot_keys);
    Ok(Some(hot))
}

/// Routing table for one query's salted shuffle.
#[derive(Debug, Clone)]
pub struct SaltRouter {
    num_jen: usize,
    /// Salt fan-out per hot key, clamped to the worker count.
    fanout: usize,
    hot: HashSet<i64>,
}

impl SaltRouter {
    /// Sample the HDFS side of `query` and build a router when
    /// `config.salt_buckets` is set and at least one heavy hitter clears
    /// the fair-share threshold. Returns `None` (zero overhead) otherwise.
    pub fn detect(sys: &HybridSystem, query: &HybridQuery) -> Result<Option<SaltRouter>> {
        let (table, pred, proj) = (&query.hdfs_table, &query.hdfs_pred, &query.hdfs_proj);
        let Some(mut hot) =
            sample_hot_keys(sys, "core.salt", table, pred, proj, &[query.hdfs_key])?
        else {
            return Ok(None);
        };
        let hot = hot.pop().expect("one key column");
        let f = sys.config.salt_buckets.expect("sampled, so salting is on");
        let n = sys.config.jen_workers;
        Ok((!hot.is_empty()).then(|| SaltRouter::with_hot_keys(hot, n, f)))
    }

    /// A router over an explicit hot-key set (tests, tooling).
    pub fn with_hot_keys(
        hot: impl IntoIterator<Item = i64>,
        num_jen: usize,
        f: usize,
    ) -> SaltRouter {
        SaltRouter {
            num_jen,
            fanout: f.clamp(1, num_jen),
            hot: hot.into_iter().collect(),
        }
    }

    pub fn is_hot(&self, key: i64) -> bool {
        self.hot.contains(&key)
    }

    /// The salt workers of hot key `key`: `fanout` distinct workers
    /// starting at the key's agreed home partition.
    fn salt_workers(&self, key: i64) -> impl Iterator<Item = usize> + '_ {
        let home = agreed_shuffle_partition(key, self.num_jen);
        (0..self.fanout).map(move |i| (home + i) % self.num_jen)
    }

    /// Per-destination selection vectors for a build-side batch. Hot-key
    /// rows cycle round-robin over the key's salt workers through
    /// `cursors`, which persist across the batches of one sender's share:
    /// routing depends only on (key, per-sender scan order), never on how
    /// the share was framed into batches, so any `batch_rows` setting
    /// reproduces the whole-share routing bit for bit. Cold rows take the
    /// agreed hash.
    pub fn partition_build_sel(
        &self,
        batch: &Batch,
        key_col: usize,
        cursors: &mut SaltCursors,
    ) -> Result<Vec<SelectionVector>> {
        let keys = batch.column(key_col)?.keys_i64()?;
        let mut sel: Vec<Vec<u32>> = (0..self.num_jen).map(|_| Vec::new()).collect();
        for (row, &key) in keys.iter().enumerate() {
            let dest = if self.is_hot(key) {
                let c = cursors.next.entry(key).or_insert(0);
                let home = agreed_shuffle_partition(key, self.num_jen);
                let dest = (home + *c) % self.num_jen;
                *c = (*c + 1) % self.fanout;
                dest
            } else {
                agreed_shuffle_partition(key, self.num_jen)
            };
            sel[dest].push(row as u32);
        }
        Ok(sel.into_iter().map(SelectionVector::from_indexes).collect())
    }

    /// Per-destination selection vectors for a probe-side batch. Hot-key
    /// rows appear in *every* salt worker's selection (each meets a
    /// disjoint slice of the split build side); cold rows take the agreed
    /// hash. Stateless, so per-batch application equals whole-share
    /// application.
    pub fn partition_probe_sel(
        &self,
        batch: &Batch,
        key_col: usize,
    ) -> Result<Vec<SelectionVector>> {
        let keys = batch.column(key_col)?.keys_i64()?;
        let mut sel: Vec<Vec<u32>> = (0..self.num_jen).map(|_| Vec::new()).collect();
        for (row, &key) in keys.iter().enumerate() {
            if self.is_hot(key) {
                for dest in self.salt_workers(key) {
                    sel[dest].push(row as u32);
                }
            } else {
                sel[agreed_shuffle_partition(key, self.num_jen)].push(row as u32);
            }
        }
        Ok(sel.into_iter().map(SelectionVector::from_indexes).collect())
    }
}

/// Per-sender round-robin positions of each hot key's salted build route.
///
/// One instance lives for the duration of one sender's share and is
/// threaded through every [`SaltRouter::partition_build_sel`] call, making
/// the hot-key split a function of scan order alone — independent of batch
/// framing.
#[derive(Debug, Default)]
pub struct SaltCursors {
    next: HashMap<i64, usize>,
}

impl SaltCursors {
    pub fn new() -> SaltCursors {
        SaltCursors::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::schema::Schema;

    fn batch(keys: &[i32]) -> Batch {
        Batch::new(
            Schema::from_pairs(&[("k", DataType::I32), ("v", DataType::I64)]),
            vec![
                Column::I32(keys.to_vec()),
                Column::I64((0..keys.len() as i64).collect()),
            ],
        )
        .unwrap()
    }

    /// One piece per worker: a build-side batch split with fresh cursors.
    fn build_pieces(r: &SaltRouter, b: &Batch) -> Vec<Batch> {
        let sel = r
            .partition_build_sel(b, 0, &mut SaltCursors::new())
            .unwrap();
        sel.iter().map(|s| b.take_sel(s)).collect()
    }

    /// One piece per worker: a probe-side batch, hot rows replicated.
    fn probe_pieces(r: &SaltRouter, b: &Batch) -> Vec<Batch> {
        let sel = r.partition_probe_sel(b, 0).unwrap();
        sel.iter().map(|s| b.take_sel(s)).collect()
    }

    #[test]
    fn build_splits_hot_probe_replicates_hot() {
        let n = 4;
        let r = SaltRouter::with_hot_keys([7], n, 4);
        let hot_rows = 40;
        let b = batch(&vec![7i32; hot_rows]);
        let built = build_pieces(&r, &b);
        // round-robin: every worker gets exactly hot_rows / n rows
        for piece in &built {
            assert_eq!(piece.num_rows(), hot_rows / n);
        }
        let probed = probe_pieces(&r, &b);
        for piece in &probed {
            assert_eq!(piece.num_rows(), hot_rows, "probe replicates to all");
        }
    }

    #[test]
    fn cold_keys_keep_the_agreed_route() {
        let n = 4;
        let r = SaltRouter::with_hot_keys([999], n, 4);
        let keys: Vec<i32> = (0..100).collect();
        let b = batch(&keys);
        let built = build_pieces(&r, &b);
        let probed = probe_pieces(&r, &b);
        let agreed =
            hybrid_common::ops::partition_by_key(&b, 0, n, agreed_shuffle_partition).unwrap();
        assert_eq!(built, agreed);
        assert_eq!(probed, agreed);
    }

    #[test]
    fn every_build_probe_pair_meets_exactly_once() {
        // For each (build row, probe row) of the same key, exactly one
        // worker holds both — the invariant that makes results identical.
        let n = 5;
        let r = SaltRouter::with_hot_keys([3, 11], n, 3);
        let build = batch(&[3, 3, 3, 3, 3, 11, 11, 11, 2, 2, 9]);
        let probe = batch(&[3, 3, 11, 2, 9, 9]);
        let built = build_pieces(&r, &build);
        let probed = probe_pieces(&r, &probe);
        for key in [3i32, 11, 2, 9] {
            let build_count: usize = built.iter().map(|p| count_key(p, key)).sum();
            assert_eq!(build_count, count_key(&build, key), "build rows conserved");
            for w in 0..n {
                let bw = count_key(&built[w], key);
                let pw = count_key(&probed[w], key);
                if bw > 0 {
                    assert_eq!(
                        pw,
                        count_key(&probe, key),
                        "worker {w} holds build rows of {key} but not all probe rows"
                    );
                }
            }
            // pairs meet exactly once: sum over workers of bw*pw equals
            // total build rows × total probe rows
            let met: usize = (0..n)
                .map(|w| count_key(&built[w], key) * count_key(&probed[w], key))
                .sum();
            assert_eq!(met, count_key(&build, key) * count_key(&probe, key));
        }
    }

    fn count_key(b: &Batch, key: i32) -> usize {
        b.column(0)
            .unwrap()
            .as_i32()
            .unwrap()
            .iter()
            .filter(|&&k| k == key)
            .count()
    }

    #[test]
    fn fanout_clamps_to_worker_count() {
        let r = SaltRouter::with_hot_keys([1], 2, 64);
        let b = batch(&[1, 1, 1, 1]);
        let built = build_pieces(&r, &b);
        assert_eq!(built.len(), 2);
        assert_eq!(built[0].num_rows() + built[1].num_rows(), 4);
        assert_eq!(built[0].num_rows(), 2);
    }

    #[test]
    fn batched_routing_matches_whole_share_routing() {
        // Route the share whole, then re-route it chunked at several batch
        // sizes with cursors persisting across chunks: the per-destination
        // row streams must be identical.
        let n = 4;
        let r = SaltRouter::with_hot_keys([5, 2], n, 3);
        let b = batch(&[5, 1, 5, 2, 5, 5, 2, 3, 5, 2, 2, 5, 7, 5]);
        let whole = build_pieces(&r, &b);
        for chunk_rows in [1usize, 3, 5, 100] {
            let mut cursors = SaltCursors::new();
            let mut pieces: Vec<Vec<Batch>> = (0..n).map(|_| Vec::new()).collect();
            for chunk in b.chunks(chunk_rows) {
                let sel = r.partition_build_sel(&chunk, 0, &mut cursors).unwrap();
                for (dest, s) in sel.iter().enumerate() {
                    pieces[dest].push(chunk.take_sel(s));
                }
            }
            for (dest, got) in pieces.into_iter().enumerate() {
                let glued = Batch::concat(b.schema().clone(), &got).unwrap();
                assert_eq!(glued, whole[dest], "chunk {chunk_rows} dest {dest}");
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let r = SaltRouter::with_hot_keys([5], 4, 3);
        let b = batch(&[5, 1, 5, 2, 5, 5, 3]);
        assert_eq!(build_pieces(&r, &b), build_pieces(&r, &b));
    }
}
