//! Mid-query adaptive re-optimization — the runtime feedback + replan
//! subsystem that closes the estimator → advisor → tracer loop.
//!
//! The advisor (§5.5) picks a strategy from *estimates*; the estimator
//! samples, so its estimates can be badly wrong (a clustered file and a
//! strided block sample is all it takes). Every algorithm's first phase —
//! scan + filter both tables, optionally build and apply `BF_DB` — already
//! *measures* the exact quantities the advisor guessed at: `T'`/`L'`
//! volume, the join-key selectivities, and the shuffle-key skew. This
//! module pauses at that phase boundary, compares observed actuals against
//! the [`QueryEstimates`] the plan was chosen with, and when the divergence
//! exceeds [`SystemConfig::replan_threshold`], re-prices the remaining work
//! with corrected estimates on the same cost model the advisor picked with
//! ([`crate::costmodel::replan`]). If a different strategy now wins by a
//! clear hysteresis margin, the rest of the old plan is abandoned and the query
//! restarts as the new algorithm under a fresh fabric sub-namespace —
//! *reusing everything the first phase already paid for*: the scanned
//! `T'` partitions, the filtered `L'` blocks, and (via the [`BloomCache`])
//! an already-serialized `BF_DB`.
//!
//! There is no second copy of any algorithm here. Each algorithm has one
//! step list that takes its first-phase data from an `algorithms::Input`:
//! a cold scan, or the `PrescanData` parked at the observation point. The
//! prescan itself is built from the same first-phase helpers
//! (`first_phase`, `LSource`), and both continuing and replanning are
//! `dispatch` with the parked input.
//!
//! With `replan_threshold = None` (the default) the controller is inert:
//! [`run_adaptive`] delegates straight to [`run`] and every run is
//! byte-identical to the pre-adaptive system.
//!
//! Metering: `advisor.est_error_x1000.{scan,bloom,shuffle}` records the
//! observed/estimated divergence per observation dimension on every armed
//! run; `advisor.replan_considered` counts threshold crossings;
//! `advisor.replans` counts actual restarts. The tracer records a
//! [`Stage::Replan`] span on the coordinator linking the abandoned and
//! restarted timelines.
//!
//! [`SystemConfig::replan_threshold`]: crate::system::SystemConfig::replan_threshold
//! [`BloomCache`]: crate::cache::BloomCache

use crate::advisor::QueryEstimates;
use crate::algorithms::{
    dispatch, finish_run, first_phase, prepare_run, run, Driver, Input, JoinAlgorithm,
};
use crate::costmodel::{
    consumes_bf_db, predict, replan_break_even, CostModel, ScaleFactors, SunkWork,
};
use crate::estimation::max_over_mean;
use crate::query::HybridQuery;
use crate::stats::RunOutput;
use crate::system::HybridSystem;
use hybrid_common::batch::Batch;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::hash::agreed_shuffle_partition;
use hybrid_common::trace::Stage;
use std::collections::HashSet;

/// How decisively the corrected cost model must favor a different strategy
/// before the controller abandons work in flight: the replacement's
/// remaining cost × this factor must still undercut the current plan's
/// remaining cost. Without the margin, estimates hovering near a crossover
/// would flip plans on noise — and every flip re-pays the restart overhead.
pub const REPLAN_HYSTERESIS: f64 = 1.2;

/// Namespace offset for a replanned attempt's fabric sub-namespace:
/// `REPLAN_NS_OFFSET + parent_ns` is unique among live sessions (the
/// service hands out small monotone session ids) and never collides with
/// the parent itself.
pub const REPLAN_NS_OFFSET: u64 = 1 << 48;

/// Cap on the metered estimation-error ratios, and the sentinel ratio for
/// an estimate that was zero where the observation was not (or vice
/// versa): "off by at least three orders of magnitude".
const MAX_ERR_RATIO: f64 = 1000.0;

/// The mid-query replan controller: the threshold it was armed with and
/// the estimates the running plan was chosen under.
#[derive(Debug, Clone, Copy)]
pub struct ReplanController {
    /// Divergence ratio (observed vs estimated, always ≥ 1.0) above which
    /// the remaining work is re-priced. From
    /// [`SystemConfig::replan_threshold`](crate::system::SystemConfig::replan_threshold).
    pub threshold: f64,
    /// What the advisor believed when it picked the running algorithm.
    pub estimates: QueryEstimates,
}

/// Everything the first phase materialized, parked across the observation
/// point. A continued plan resumes from this state and a replanned one
/// reuses it under the new strategy, both as [`Input::Parked`] — neither
/// re-reads a table.
pub(crate) struct PrescanData {
    /// Per-DB-worker `T'` partitions (scanned, filtered, projected).
    pub t_parts: Vec<Batch>,
    /// Per-JEN-worker filtered `L'` scan output, in block batches.
    pub l_blocks: Vec<Vec<Batch>>,
    /// Whether `BF_DB` was built and applied during the prescan — when
    /// true, `l_blocks` only holds rows whose key (probably) joins `T'`.
    pub bloomed: bool,
}

/// Exact first-phase actuals, measured from the materialized prescan state
/// — the observed counterparts of the advisor's [`QueryEstimates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    pub t_prime_bytes: u64,
    pub l_prime_bytes: u64,
    pub t_prime_rows: u64,
    pub l_prime_rows: u64,
    /// Observed `S_T'`: fraction of `T'` join keys that appear in `L'`.
    pub st: f64,
    /// Observed `S_L'`.
    pub sl: f64,
    /// Observed shuffle imbalance of the surviving `L'` keys under the
    /// agreed hash (hottest worker's share over the mean).
    pub shuffle_skew: f64,
    /// The same imbalance over only the `L'` rows whose key `T'` holds.
    pub joined_shuffle_skew: f64,
}

/// Per-dimension observed/estimated divergence ratios (each ≥ 1.0).
#[derive(Debug, Clone, Copy)]
pub struct EstErrors {
    /// Worst of the `T'` / `L'` post-scan volume ratios.
    pub scan: f64,
    /// Worst of the `S_T'` / `S_L'` join-selectivity ratios (the
    /// quantities the Bloom phases hinge on).
    pub bloom: f64,
    /// Shuffle-skew ratio.
    pub shuffle: f64,
}

impl EstErrors {
    pub fn worst(&self) -> f64 {
        self.scan.max(self.bloom).max(self.shuffle)
    }
}

/// Symmetric divergence ratio between an observed and an estimated value:
/// 1.0 = perfect, 2.0 = off by 2× in either direction. Zero-vs-nonzero is
/// clamped to [`MAX_ERR_RATIO`] instead of infinity so the metered value
/// stays finite.
fn err_ratio(actual: f64, estimate: f64) -> f64 {
    if actual <= 0.0 && estimate <= 0.0 {
        return 1.0;
    }
    if actual <= 0.0 || estimate <= 0.0 {
        return MAX_ERR_RATIO;
    }
    (actual / estimate)
        .max(estimate / actual)
        .min(MAX_ERR_RATIO)
}

/// The strategy a restart at the observation point should switch to, if
/// any: the paper variant whose remaining work, priced by the cost model
/// on the volumes `corrected` predicts, beats `current`'s by the
/// hysteresis margin. What the prescan already paid — both scans, the
/// coordination, and a `BF_DB` that `current` built — is sunk for every
/// candidate alike. Priced at the estimates' own scale: the remaining
/// work is linear in the volumes, so the scale cannot change the answer.
pub(crate) fn replan_target(
    corrected: &QueryEstimates,
    current: JoinAlgorithm,
) -> Option<JoinAlgorithm> {
    let (model, scale) = (CostModel::paper(), ScaleFactors::identity());
    let sunk = SunkWork::at_observation(current);
    let remaining = |alg| model.estimate_remaining(alg, &predict(corrected, alg), &scale, &sunk);
    let incumbent = remaining(current);
    JoinAlgorithm::paper_variants()
        .into_iter()
        .filter(|&alg| alg != current)
        .map(|alg| (alg, remaining(alg)))
        .min_by(|a, b| a.1.total_s.total_cmp(&b.1.total_s))
        .filter(|(_, best)| replan_break_even(&incumbent, best))
        .map(|(alg, _)| alg)
}

impl ReplanController {
    pub fn new(threshold: f64, estimates: QueryEstimates) -> ReplanController {
        ReplanController {
            threshold,
            estimates,
        }
    }

    /// Per-dimension divergence of `obs` from the plan-time estimates.
    ///
    /// A `bloomed` prescan observes the *filtered* `L'`: `BF_DB` already
    /// dropped the non-joining keys, so honest estimates predict an
    /// observed `L'` of roughly `l_prime_bytes · SL'` and an observed
    /// `S_L'` of ~1 (`S_T'` is untouched — the filter preserves the key
    /// intersection). The comparison must be against those post-filter
    /// expectations, or every accurate low-`SL'` estimate would read as a
    /// huge miss and trigger a false-positive replan. The shuffle axis has
    /// no post-filter counterpart at all — the plan-time skew describes
    /// the unfiltered key population, and the surviving keys' imbalance is
    /// a different quantity with no estimate to diverge from (a wrong
    /// `SL'` already surfaces on the scan axis as filtered-volume error) —
    /// so a bloomed prescan reports no divergence there.
    pub fn errors(&self, obs: &Observation, bloomed: bool) -> EstErrors {
        let est = &self.estimates;
        let (expected_l_bytes, expected_sl) = if bloomed {
            (est.l_prime_bytes as f64 * est.sl, 1.0)
        } else {
            (est.l_prime_bytes as f64, est.sl)
        };
        EstErrors {
            scan: err_ratio(obs.t_prime_bytes as f64, est.t_prime_bytes as f64)
                .max(err_ratio(obs.l_prime_bytes as f64, expected_l_bytes)),
            bloom: err_ratio(obs.st, est.st).max(err_ratio(obs.sl, expected_sl)),
            shuffle: if bloomed {
                1.0
            } else {
                err_ratio(obs.shuffle_skew, est.shuffle_skew.max(1.0))
            },
        }
    }

    /// The observation-point decision: meter the estimation error, and if
    /// the worst dimension diverges past the threshold, re-price the
    /// remaining work with corrected estimates. `Some(target)` means
    /// "abandon the current plan and restart as `target`".
    pub(crate) fn decide(
        &self,
        sys: &HybridSystem,
        query: &HybridQuery,
        current: JoinAlgorithm,
        obs: &Observation,
        pre: &PrescanData,
    ) -> Option<JoinAlgorithm> {
        let errors = self.errors(obs, pre.bloomed);
        sys.metrics.add(
            "advisor.est_error_x1000.scan",
            (errors.scan * 1000.0) as u64,
        );
        sys.metrics.add(
            "advisor.est_error_x1000.bloom",
            (errors.bloom * 1000.0) as u64,
        );
        sys.metrics.add(
            "advisor.est_error_x1000.shuffle",
            (errors.shuffle * 1000.0) as u64,
        );
        if errors.worst() <= self.threshold {
            return None;
        }
        sys.metrics.incr("advisor.replan_considered");
        let corrected = QueryEstimates {
            t_prime_bytes: obs.t_prime_bytes,
            l_prime_bytes: obs.l_prime_bytes,
            t_prime_rows: obs.t_prime_rows,
            l_prime_rows: obs.l_prime_rows,
            st: obs.st,
            sl: obs.sl,
            num_jen_workers: sys.config.jen_workers,
            bloom_bytes: query.bloom.wire_bytes() as u64,
            shuffle_skew: obs.shuffle_skew,
            joined_shuffle_skew: obs.joined_shuffle_skew,
            mem_budget_per_worker: sys.mem_budget_per_worker(),
            batch_rows: sys.config.batch_rows as u64,
            ..self.estimates
        };
        replan_target(&corrected, current)
    }
}

/// Execute `algorithm` with the mid-query replan controller armed (when
/// `SystemConfig::replan_threshold` is set) — the adaptive counterpart of
/// [`run`]. `estimates` is what the plan was chosen with; a disarmed
/// system (`replan_threshold = None`) ignores it and delegates to [`run`]
/// unchanged, byte for byte.
pub fn run_adaptive(
    sys: &mut HybridSystem,
    query: &HybridQuery,
    algorithm: JoinAlgorithm,
    estimates: &QueryEstimates,
) -> Result<RunOutput> {
    let Some(threshold) = sys.config.replan_threshold else {
        return run(sys, query, algorithm);
    };
    query.validate()?;
    prepare_run(sys)?;
    let controller = ReplanController::new(threshold, *estimates);
    let result = execute_adaptive(sys, query, algorithm, &controller)?;
    Ok(finish_run(sys, result))
}

/// The armed execution path: prescan to the observation point, observe,
/// decide, then continue or restart. Strategies the advisor does not price
/// (semi-join, PERF) have no cost to compare — they run unobserved.
fn execute_adaptive(
    sys: &mut HybridSystem,
    query: &HybridQuery,
    algorithm: JoinAlgorithm,
    controller: &ReplanController,
) -> Result<Batch> {
    if !JoinAlgorithm::paper_variants().contains(&algorithm) {
        return dispatch(sys, query, algorithm, Input::Cold);
    }
    let pre = prescan(sys, query, consumes_bf_db(algorithm))?;
    let obs = observe(query, &pre)?;
    match controller.decide(sys, query, algorithm, &obs, &pre) {
        None => dispatch(sys, query, algorithm, Input::Parked(pre)),
        Some(target) => replan_and_restart(sys, query, target, pre),
    }
}

/// Phase 1 of every advisor-priced strategy, run as its own task-set pair:
/// scan/filter/project `T'` on each DB worker, optionally build and
/// multicast `BF_DB`, scan/filter `L'` (under the filter, if built) on
/// each JEN worker. These are the cold first-phase steps every algorithm
/// registers ([`first_phase`]), with the `L'` blocks parked instead of
/// consumed. Stops at the phase boundary with all streams fully drained
/// and no joiner state — a clean cancellation point.
pub(crate) fn prescan(
    sys: &HybridSystem,
    query: &HybridQuery,
    use_bloom: bool,
) -> Result<PrescanData> {
    let driver = &Driver::from_config(&sys.config);
    let (l_src, db, mut jen) =
        first_phase(sys, query, driver, Input::Cold, use_bloom.then_some(12))?;
    let l_src = &l_src;
    jen.step(20, move |w, st| {
        let bloom = l_src.take_bloom(st)?;
        let blocks = {
            let _permit = driver.compute_permit();
            l_src.blocks(sys, query, st, w, bloom.as_ref())?
        };
        st.blocks = Some(blocks);
        Ok(())
    });

    let (db_states, jen_states) = driver.run_pair(db, jen)?;
    let t_parts = db_states
        .into_iter()
        .map(|mut st| {
            st.part
                .take()
                .ok_or_else(|| HybridError::exec("prescan left a DB worker without T'"))
        })
        .collect::<Result<Vec<_>>>()?;
    let l_blocks = jen_states
        .into_iter()
        .map(|mut st| st.blocks.take().unwrap_or_default())
        .collect();
    Ok(PrescanData {
        t_parts,
        l_blocks,
        bloomed: use_bloom,
    })
}

/// Measure the first-phase actuals from the materialized prescan state.
/// These are *exact* — byte sizes, distinct-key overlaps, and per-worker
/// shuffle loads over the full filtered data, not a sample. When the
/// prescan was bloomed, the observed values carry remaining-work
/// semantics directly: `L'` is already reduced by `BF_DB` and `sl`
/// observed ≈ 1, so cost formulas evaluated at the observation price
/// exactly the shuffle still ahead.
pub(crate) fn observe(query: &HybridQuery, pre: &PrescanData) -> Result<Observation> {
    let (mut t_bytes, mut t_rows) = (0u64, 0u64);
    let mut t_keys: HashSet<i64> = HashSet::new();
    for part in &pre.t_parts {
        t_bytes += part.serialized_bytes() as u64;
        t_rows += part.num_rows() as u64;
        let keys = part.column(query.db_key)?;
        for row in 0..part.num_rows() {
            t_keys.insert(keys.key_at(row)?);
        }
    }
    let num_jen = pre.l_blocks.len().max(1);
    let (mut l_bytes, mut l_rows) = (0u64, 0u64);
    let mut l_keys: HashSet<i64> = HashSet::new();
    let mut worker_loads = vec![0u64; num_jen];
    let mut joined_loads = vec![0u64; num_jen];
    for blocks in &pre.l_blocks {
        for block in blocks {
            l_bytes += block.serialized_bytes() as u64;
            l_rows += block.num_rows() as u64;
            let keys = block.column(query.hdfs_key)?;
            for row in 0..block.num_rows() {
                let key = keys.key_at(row)?;
                l_keys.insert(key);
                let worker = agreed_shuffle_partition(key, num_jen);
                worker_loads[worker] += 1;
                joined_loads[worker] += u64::from(t_keys.contains(&key));
            }
        }
    }
    let inter = t_keys.intersection(&l_keys).count() as f64;
    Ok(Observation {
        t_prime_bytes: t_bytes,
        l_prime_bytes: l_bytes,
        t_prime_rows: t_rows,
        l_prime_rows: l_rows,
        st: if t_keys.is_empty() {
            1.0
        } else {
            inter / t_keys.len() as f64
        },
        sl: if l_keys.is_empty() {
            1.0
        } else {
            inter / l_keys.len() as f64
        },
        shuffle_skew: max_over_mean(&worker_loads),
        joined_shuffle_skew: max_over_mean(&joined_loads),
    })
}

/// Abandon the current plan and restart the query as `target` in a fresh
/// fabric sub-namespace, reusing the prescan state. The sub-namespace
/// keeps the parent's metering plane, so the fabric conservation law
/// (root totals = Σ sessions) survives the restart; the query's existing
/// memory grant is untouched — a replan never re-enters admission.
fn replan_and_restart(
    sys: &mut HybridSystem,
    query: &HybridQuery,
    target: JoinAlgorithm,
    pre: PrescanData,
) -> Result<Batch> {
    sys.metrics.incr("advisor.replans");
    let span = sys.tracer.start("coordinator", Stage::Replan);
    // The abandoned attempt's streams are all drained at the observation
    // point, but a chaos plan may have left held deliveries behind.
    sys.fabric.purge();
    let fresh = sys
        .fabric
        .subnamespace(REPLAN_NS_OFFSET + sys.fabric.ns())?;
    let parent = std::mem::replace(&mut sys.fabric, fresh);
    let result = dispatch(sys, query, target, Input::Parked(pre));
    let fresh = std::mem::replace(&mut sys.fabric, parent);
    fresh.remove_namespace();
    let rows = result.as_ref().map(|b| b.num_rows() as u64).unwrap_or(0);
    span.done(0, rows);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_reference;
    use crate::system::SystemConfig;
    use hybrid_bloom::BloomParams;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::expr::Expr;
    use hybrid_common::hash::splitmix64;
    use hybrid_common::ops::AggSpec;
    use hybrid_common::schema::Schema;
    use hybrid_storage::FileFormat;

    fn t_schema() -> Schema {
        Schema::from_pairs(&[
            ("uniqKey", DataType::I64),
            ("joinKey", DataType::I32),
            ("corPred", DataType::I32),
            ("tdate", DataType::Date),
        ])
    }

    fn l_schema() -> Schema {
        Schema::from_pairs(&[
            ("joinKey", DataType::I32),
            ("corPred", DataType::I32),
            ("ldate", DataType::Date),
            ("grp", DataType::Utf8),
        ])
    }

    fn t_data() -> Batch {
        let n = 400usize;
        Batch::new(
            t_schema(),
            vec![
                Column::I64((0..n as i64).collect()),
                Column::I32((0..n).map(|i| (splitmix64(i as u64) % 50) as i32).collect()),
                Column::I32(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 7) % 100) as i32)
                        .collect(),
                ),
                Column::Date(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 9) % 30) as i32)
                        .collect(),
                ),
            ],
        )
        .unwrap()
    }

    /// L over `key_space` join keys — the paper fixture uses 80 (dense
    /// overlap with T's 50); the replan fixture uses 400 (sparse overlap,
    /// so the Bloom filter pays for itself decisively).
    fn l_data(key_space: u64) -> Batch {
        let n = 1200usize;
        Batch::new(
            l_schema(),
            vec![
                Column::I32(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 100) % key_space) as i32)
                        .collect(),
                ),
                Column::I32(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 101) % 100) as i32)
                        .collect(),
                ),
                Column::Date(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 102) % 30) as i32)
                        .collect(),
                ),
                Column::Utf8(
                    (0..n)
                        .map(|i| format!("url_{}/p", splitmix64(i as u64 ^ 103) % 7))
                        .collect(),
                ),
            ],
        )
        .unwrap()
    }

    fn paper_query() -> HybridQuery {
        HybridQuery {
            db_table: "T".into(),
            hdfs_table: "L".into(),
            db_pred: Expr::col_le(2, 49),
            db_proj: vec![1, 3],
            db_key: 0,
            hdfs_pred: Expr::col_le(1, 59),
            hdfs_proj: vec![0, 2, 3],
            hdfs_key: 0,
            post_predicate: Some(
                Expr::col(1)
                    .sub(Expr::col(3))
                    .ge(Expr::lit_i64(0))
                    .and(Expr::col(1).sub(Expr::col(3)).le(Expr::lit_i64(1))),
            ),
            group_expr: Expr::ExtractGroup(Box::new(Expr::col(4))),
            aggs: vec![AggSpec::Count],
            bloom: BloomParams::new(1 << 12, 2).unwrap(),
        }
    }

    fn system(l_key_space: u64, replan_threshold: Option<f64>) -> HybridSystem {
        let mut cfg = SystemConfig::paper_shape(3, 4);
        cfg.rows_per_block = 100;
        cfg.replan_threshold = replan_threshold;
        let mut sys = HybridSystem::new(cfg).unwrap();
        sys.load_db_table("T", 0, t_data()).unwrap();
        sys.create_db_index("T", &[2, 1]).unwrap();
        sys.load_hdfs_table("L", FileFormat::Columnar, l_schema(), &l_data(l_key_space))
            .unwrap();
        sys
    }

    /// Rough-but-sane estimates for the paper fixture, as a planner with
    /// decent statistics would produce them: the exact first-phase actuals
    /// over a sample's scan volumes.
    fn honest_estimates(sys: &HybridSystem, query: &HybridQuery) -> QueryEstimates {
        let pre = prescan(sys, query, false).unwrap();
        let obs = observe(query, &pre).unwrap();
        let sampled = crate::estimation::sample_stats(sys, query, 8).unwrap();
        QueryEstimates {
            t_prime_bytes: obs.t_prime_bytes,
            l_prime_bytes: obs.l_prime_bytes,
            t_prime_rows: obs.t_prime_rows,
            l_prime_rows: obs.l_prime_rows,
            st: obs.st,
            sl: obs.sl,
            shuffle_skew: obs.shuffle_skew,
            joined_shuffle_skew: obs.joined_shuffle_skew,
            ..sampled.to_estimates(query, sys.config.jen_workers, None)
        }
    }

    /// Estimates of a query on 4 JEN workers whose `T'` and `L'` rows are
    /// 8 and 48 wire bytes (the generated query's widths), over an `L` of
    /// twice `L'`'s rows.
    fn estimates(t_prime_bytes: u64, l_prime_bytes: u64, st: f64, sl: f64) -> QueryEstimates {
        let l_prime_rows = l_prime_bytes / 48;
        QueryEstimates {
            t_prime_bytes,
            l_prime_bytes,
            t_prime_rows: t_prime_bytes / 8,
            l_prime_rows,
            l_rows: 2 * l_prime_rows,
            l_bytes_read: 2 * l_prime_rows * 38,
            db_prep_bytes: t_prime_bytes / 8 * 12,
            st,
            sl,
            num_jen_workers: 4,
            bloom_bytes: 512,
            shuffle_skew: 1.0,
            joined_shuffle_skew: 1.0,
            mem_budget_per_worker: None,
            batch_rows: 4096,
        }
    }

    /// The remaining seconds of a restart onto `alg` at the observation
    /// point of `current`, as [`replan_target`] prices it.
    fn remaining(est: &QueryEstimates, current: JoinAlgorithm, alg: JoinAlgorithm) -> f64 {
        let sunk = SunkWork::at_observation(current);
        let id = ScaleFactors::identity();
        let summary = predict(est, alg);
        CostModel::paper()
            .estimate_remaining(alg, &summary, &id, &sunk)
            .total_s
    }

    #[test]
    fn err_ratio_edges() {
        assert_eq!(err_ratio(0.0, 0.0), 1.0);
        assert_eq!(err_ratio(5.0, 0.0), MAX_ERR_RATIO);
        assert_eq!(err_ratio(0.0, 5.0), MAX_ERR_RATIO);
        assert_eq!(err_ratio(4.0, 2.0), 2.0);
        assert_eq!(err_ratio(2.0, 4.0), 2.0);
        assert_eq!(err_ratio(3.0, 3.0), 1.0);
        // overflow-scale mismatches stay clamped and finite
        assert_eq!(err_ratio(1e12, 1.0), MAX_ERR_RATIO);
    }

    #[test]
    fn bloomed_observation_compares_post_filter_expectations() {
        let est = QueryEstimates {
            shuffle_skew: 1.1,
            ..estimates(10_000, 1_000_000, 0.2, 0.05)
        };
        let controller = ReplanController::new(1.5, est);
        // What a bloomed prescan observes when the estimate was honest:
        // L' shrunk to ~SL' of its estimated bytes, surviving keys all
        // join (sl ≈ 1), and the few survivors hash unevenly.
        let obs = Observation {
            t_prime_bytes: 10_000,
            l_prime_bytes: 50_000,
            t_prime_rows: 1_250,
            l_prime_rows: 1_041,
            st: 0.2,
            sl: 1.0,
            shuffle_skew: 3.0,
            joined_shuffle_skew: 3.0,
        };
        assert!(
            controller.errors(&obs, true).worst() < 1.1,
            "honest low-SL' estimates must not read as divergence after the filter"
        );
        // The same observation from an *unfiltered* prescan is a real miss
        // on every axis.
        assert!(controller.errors(&obs, false).worst() > 1.5);
    }

    #[test]
    fn uses_bf_db_table() {
        assert!(consumes_bf_db(JoinAlgorithm::DbSide { bloom: true }));
        assert!(consumes_bf_db(JoinAlgorithm::Repartition { bloom: true }));
        assert!(consumes_bf_db(JoinAlgorithm::Zigzag));
        assert!(!consumes_bf_db(JoinAlgorithm::DbSide { bloom: false }));
        assert!(!consumes_bf_db(JoinAlgorithm::Repartition { bloom: false }));
        assert!(!consumes_bf_db(JoinAlgorithm::Broadcast));
        assert!(!consumes_bf_db(JoinAlgorithm::SemiJoin));
        assert!(!consumes_bf_db(JoinAlgorithm::PerfJoin));
    }

    #[test]
    fn pick_replacement_applies_hysteresis() {
        // T' of 10k rows makes broadcast's four copies dear, and a 1M-row
        // L' makes ingesting it into the database dearer still; selective
        // join keys then make repartition(BF) far cheaper than plain
        // repartition: a fifth of the shuffle, with st = 1 leaving zigzag
        // only an extra BF_H round trip behind.
        let est = estimates(80_000, 48_000_000, 1.0, 0.2);
        let rep = JoinAlgorithm::Repartition { bloom: false };
        let rep_bf = JoinAlgorithm::Repartition { bloom: true };
        let picked = replan_target(&est, rep).expect("a decisive win must replan");
        assert_eq!(picked, rep_bf);
        assert!(remaining(&est, rep, rep_bf) * REPLAN_HYSTERESIS < remaining(&est, rep, rep));
        // When the current plan is already the winner, stay put.
        assert!(replan_target(&est, rep_bf).is_none());
        // A marginal edge under the hysteresis factor also stays put:
        // sl near 1 makes the BF variant only epsilon-different.
        let close = estimates(80_000, 48_000_000, 1.0, 0.99);
        assert!(remaining(&close, rep, rep_bf) < remaining(&close, rep, rep));
        assert!(replan_target(&close, rep).is_none());
    }

    #[test]
    fn bf_db_discount_credits_bloom_users_only() {
        // A restart after a bloomed prescan finds BF_DB in the cache: a
        // Bloom consumer's remaining work drops by exactly BF_DB's build
        // (one key per T' row) and multicast; every other plan's is
        // unchanged, and zigzag still pays for its own BF_H.
        let est = estimates(1_000, 100_000, 0.5, 0.5);
        let cluster = CostModel::paper().cluster;
        let bf_db_s = est.t_prime_rows as f64 / cluster.bloom_build_rate
            + (est.bloom_bytes * est.num_jen_workers as u64) as f64 / cluster.cross_bw;
        let (bloomed, plain) = (JoinAlgorithm::Zigzag, JoinAlgorithm::Broadcast);
        for alg in JoinAlgorithm::paper_variants() {
            let (with, without) = (remaining(&est, bloomed, alg), remaining(&est, plain, alg));
            let want = if consumes_bf_db(alg) { bf_db_s } else { 0.0 };
            assert!((without - with - want).abs() < 1e-12, "{alg:?}");
        }
        let zigzag = predict(&est, JoinAlgorithm::Zigzag);
        assert!(zigzag.bloom_keys_inserted > est.t_prime_rows, "BF_H keys");
    }

    /// The replan decision, like the advice, does not depend on the scale
    /// the estimates are given at: the remaining work is linear in the
    /// volumes, with the fixed overhead sunk.
    #[test]
    fn replan_decision_is_invariant_to_the_volume_scale() {
        let scaled = crate::advisor::tests::scaled;
        let cases = [
            estimates(80_000, 48_000_000, 1.0, 0.2),
            estimates(80_000, 48_000_000, 1.0, 0.99),
            estimates(3_000, 30_000, 1.0, 0.125),
            estimates(1_000, 100_000, 0.5, 0.5),
            QueryEstimates {
                shuffle_skew: 4.0,
                ..estimates(200_000, 9_600_000, 0.3, 0.6)
            },
        ];
        for est in cases {
            // counts of 10⁴+ rows, so rounding a predicted volume to whole
            // rows cannot tip a ratio across the hysteresis margin
            let est = scaled(&est, 100.0);
            let big = scaled(&est, 1e4);
            for current in JoinAlgorithm::paper_variants() {
                let (small, large) = (replan_target(&est, current), replan_target(&big, current));
                assert_eq!(small, large, "{est:?} from {current}");
            }
        }
    }

    #[test]
    fn observation_measures_exact_actuals() {
        let query = paper_query();
        let sys = system(80, None);
        let pre = prescan(&sys, &query, false).unwrap();
        let obs = observe(&query, &pre).unwrap();
        // T: 400 rows, corPred %100 ≤ 49; L: keys 0..80 vs T keys 0..50.
        assert!(obs.t_prime_bytes > 0 && obs.l_prime_bytes > 0);
        assert!(obs.st > 0.9, "T keys 0..50 all appear in L keys 0..80");
        assert!(
            obs.sl > 0.5 && obs.sl < 0.8,
            "~50/80 of L keys join T: {}",
            obs.sl
        );
        assert!(obs.shuffle_skew >= 1.0);
        // A bloomed prescan observes the *remaining* work: L' shrinks and
        // its surviving keys (modulo false positives) all join.
        let bloomed = prescan(&sys, &query, true).unwrap();
        let obs_bf = observe(&query, &bloomed).unwrap();
        assert!(obs_bf.l_prime_bytes <= obs.l_prime_bytes);
        assert!(obs_bf.sl >= obs.sl);
    }

    #[test]
    fn threshold_off_is_plain_run() {
        let query = paper_query();
        let est = {
            let sys = system(80, None);
            honest_estimates(&sys, &query)
        };
        let mut sys = system(80, None);
        let plain = crate::algorithms::run(&mut sys, &query, JoinAlgorithm::Zigzag).unwrap();
        let mut sys2 = system(80, None);
        let adaptive = run_adaptive(&mut sys2, &query, JoinAlgorithm::Zigzag, &est).unwrap();
        assert_eq!(adaptive.result, plain.result);
        assert_eq!(
            adaptive.snapshot, plain.snapshot,
            "threshold None must leave the metric snapshot byte-identical"
        );
        assert_eq!(sys2.metrics.get("advisor.replans"), 0);
        assert_eq!(sys2.metrics.get("advisor.est_error_x1000.scan"), 0);
    }

    #[test]
    fn huge_threshold_continues_every_paper_variant() {
        let query = paper_query();
        let expected = run_reference(&t_data(), &l_data(80), &query).unwrap();
        assert!(expected.num_rows() > 0);
        let est = {
            let sys = system(80, None);
            honest_estimates(&sys, &query)
        };
        for alg in JoinAlgorithm::paper_variants() {
            let mut sys = system(80, Some(1e9));
            let out = run_adaptive(&mut sys, &query, alg, &est).unwrap();
            assert_eq!(out.result, expected, "{alg} diverged on the continue path");
            assert_eq!(sys.metrics.get("advisor.replans"), 0, "{alg} replanned");
            assert_eq!(
                sys.metrics.get("advisor.replan_considered"),
                0,
                "{alg} considered a replan under a huge threshold"
            );
            assert!(
                sys.metrics.get("advisor.est_error_x1000.scan") >= 1000,
                "{alg} must meter its estimation error"
            );
        }
    }

    #[test]
    fn unpriced_strategies_run_unobserved() {
        let query = paper_query();
        let expected = run_reference(&t_data(), &l_data(80), &query).unwrap();
        let est = {
            let sys = system(80, None);
            honest_estimates(&sys, &query)
        };
        let mut sys = system(80, Some(1.01));
        let out = run_adaptive(&mut sys, &query, JoinAlgorithm::SemiJoin, &est).unwrap();
        assert_eq!(out.result, expected);
        assert_eq!(sys.metrics.get("advisor.est_error_x1000.scan"), 0);
        assert_eq!(sys.metrics.get("advisor.replans"), 0);
    }

    /// Every (prescan bloomed?, target) combination resumes to the
    /// reference result — the full remainder matrix, including the
    /// cross-restart cases where a plain prescan restarts as a
    /// Bloom-using plan (filter built from the parked `T'`) and where a
    /// bloomed prescan restarts as a plain plan (already-reduced `L'` is
    /// result-identical).
    #[test]
    fn from_prescan_matrix_matches_reference() {
        let query = paper_query();
        let expected = run_reference(&t_data(), &l_data(80), &query).unwrap();
        assert!(expected.num_rows() > 0);
        for bloomed in [false, true] {
            for target in JoinAlgorithm::paper_variants() {
                let mut sys = system(80, None);
                prepare_run(&mut sys).unwrap();
                let pre = prescan(&sys, &query, bloomed).unwrap();
                let result = dispatch(&mut sys, &query, target, Input::Parked(pre)).unwrap();
                assert_eq!(
                    result, expected,
                    "target {target} from a bloomed={bloomed} prescan diverged"
                );
            }
        }
    }

    /// The end-to-end feedback loop: estimates that wildly overstate the
    /// join selectivity (claiming every L' key joins) pick plain
    /// repartition; the observation point measures sl ≈ 50/400, the
    /// divergence trips the threshold, and the corrected costs replan to
    /// a Bloom-using strategy — bit-identical result, exactly one replan.
    #[test]
    fn mis_estimated_workload_replans_once_to_the_reference_result() {
        let query = paper_query();
        let expected = run_reference(&t_data(), &l_data(400), &query).unwrap();
        assert!(expected.num_rows() > 0);
        // truth: sl ≈ 0.125 — the estimator claims no key filters
        let bogus = QueryEstimates {
            bloom_bytes: paper_query().bloom.wire_bytes() as u64,
            ..estimates(3_000, 30_000, 1.0, 1.0)
        };
        let mut sys = system(400, Some(1.5));
        let out = run_adaptive(
            &mut sys,
            &query,
            JoinAlgorithm::Repartition { bloom: false },
            &bogus,
        )
        .unwrap();
        assert_eq!(out.result, expected, "replanned run diverged");
        assert_eq!(sys.metrics.get("advisor.replans"), 1);
        assert_eq!(sys.metrics.get("advisor.replan_considered"), 1);
        assert!(
            out.timeline
                .spans
                .iter()
                .any(|s| s.stage == Stage::Replan && s.worker == "coordinator"),
            "the tracer must record the replan span"
        );
        // sanity: the controller really did swap strategies — a BF_DB (or
        // BF_H) phase ran, which plain repartition never has
        assert!(
            out.timeline
                .spans
                .iter()
                .any(|s| s.stage == Stage::BloomBuild),
            "the restarted plan must be a Bloom-using strategy"
        );
    }

    /// A well-estimated workload never trips the controller even at a
    /// tight threshold.
    #[test]
    fn honest_estimates_never_replan() {
        let query = paper_query();
        let est = {
            let sys = system(80, None);
            honest_estimates(&sys, &query)
        };
        let expected = run_reference(&t_data(), &l_data(80), &query).unwrap();
        let mut sys = system(80, Some(1.5));
        let out = run_adaptive(
            &mut sys,
            &query,
            JoinAlgorithm::Repartition { bloom: false },
            &est,
        )
        .unwrap();
        assert_eq!(out.result, expected);
        assert_eq!(sys.metrics.get("advisor.replans"), 0);
        assert_eq!(sys.metrics.get("advisor.replan_considered"), 0);
    }

    /// After a replan the parent fabric namespace is restored and the
    /// restart's sub-namespace is gone — a second query on the same
    /// system (including another replan) works.
    #[test]
    fn replan_namespace_is_reusable() {
        let query = paper_query();
        let bogus = QueryEstimates {
            bloom_bytes: paper_query().bloom.wire_bytes() as u64,
            ..estimates(3_000, 30_000, 1.0, 1.0)
        };
        let mut sys = system(400, Some(1.5));
        let ns_before = sys.fabric.ns();
        let first = run_adaptive(
            &mut sys,
            &query,
            JoinAlgorithm::Repartition { bloom: false },
            &bogus,
        )
        .unwrap();
        assert_eq!(sys.fabric.ns(), ns_before, "parent fabric must be restored");
        let second = run_adaptive(
            &mut sys,
            &query,
            JoinAlgorithm::Repartition { bloom: false },
            &bogus,
        )
        .unwrap();
        assert_eq!(first.result, second.result);
        assert_eq!(
            sys.metrics.get("advisor.replans"),
            1,
            "metrics reset per run; the second run replans once again"
        );
    }
}
