//! Remaining-work costing for mid-query replans — the replan controller's
//! decision rule.
//!
//! The adaptive controller (`crate::adapt`) decides at the observation
//! point *whether* to switch strategies, and to which, with this module:
//! it prices each candidate's remaining work with the full
//! phase-structured [`CostModel`] over a *residual* summary — the volumes
//! the candidate would move with everything the aborted attempt already
//! paid for zeroed out — so the remaining-work estimate inherits every
//! overlap rule, anchor, and skew factor of the model that picked the plan
//! instead of re-deriving its own. [`replan_break_even`] then applies the
//! hysteresis margin.
//!
//! At the observation point both scans have completed (the controller
//! observes *exact* actuals, which requires the prescan to finish), so a
//! restart re-pays neither the HDFS scan nor the DB-side prep, nor the
//! per-query coordination overhead; if the aborted attempt built and
//! shipped `BF_DB`, a restart onto another Bloom-consuming strategy reuses
//! the serialized filter from cache and re-pays neither the build nor the
//! cross-cluster exchange.

use super::model::{CostBreakdown, CostModel};
use super::scale::ScaleFactors;
use crate::{JoinAlgorithm, JoinSummary, REPLAN_HYSTERESIS};

/// What an aborted attempt already paid for by the observation point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SunkWork {
    /// Both table scans ran to completion: the HDFS scan volume, the
    /// DB-side prep (table/index scan) and the per-query coordination
    /// overhead are sunk. Always true at the controller's observation
    /// point; `false` prices the whole plan.
    pub scans_done: bool,
    /// `BF_DB` was built and multicast before the switch; the restart
    /// target reuses the cached serialized filter.
    pub bloom_reusable: bool,
}

impl SunkWork {
    /// The controller's actual observation point: scans complete, Bloom
    /// reusable iff the aborted attempt was a Bloom-consuming strategy.
    pub fn at_observation(aborted: JoinAlgorithm) -> SunkWork {
        SunkWork {
            scans_done: true,
            bloom_reusable: consumes_bf_db(aborted),
        }
    }
}

/// Whether a strategy builds/consumes the database-side Bloom filter — the
/// precondition for a restart to find it in cache, and what makes the
/// controller's prescan apply `BF_DB`.
pub fn consumes_bf_db(alg: JoinAlgorithm) -> bool {
    matches!(
        alg,
        JoinAlgorithm::DbSide { bloom: true }
            | JoinAlgorithm::Repartition { bloom: true }
            | JoinAlgorithm::Zigzag
    )
}

/// The residual volumes a restart must still move: `summary` minus what
/// `sunk` already covered.
fn residual(summary: &JoinSummary, target: JoinAlgorithm, sunk: &SunkWork) -> JoinSummary {
    let mut s = *summary;
    if sunk.scans_done {
        // The prescan decoded every HDFS block and ran the DB-side
        // predicate; a restart starts from the materialized survivors.
        s.hdfs_bytes_scanned = 0;
        s.hdfs_rows_raw = 0;
        s.db_scan_bytes = 0;
        s.db_index_bytes = 0;
    }
    if sunk.bloom_reusable && consumes_bf_db(target) {
        // Cache hit: neither BF_DB's key inserts (one per `T'` row) nor its
        // cross-cluster multicast. Zigzag's `BF_H` is built over the
        // restart's own `L'` and still ships: half of its filter bytes.
        s.bloom_keys_inserted = s.bloom_keys_inserted.saturating_sub(s.t_prime_rows);
        s.bloom_cross_bytes = match target {
            JoinAlgorithm::Zigzag => s.bloom_cross_bytes / 2,
            _ => 0,
        };
    }
    s
}

impl CostModel {
    /// Paper-scale seconds a restart onto `algorithm` still needs, given
    /// the volumes it would move (`summary`, measured or predicted for the
    /// *target* strategy) and what the aborted attempt already paid for.
    ///
    /// `estimate_remaining(.., &SunkWork::default())` equals
    /// [`CostModel::estimate`] exactly — nothing sunk, nothing discounted.
    pub fn estimate_remaining(
        &self,
        algorithm: JoinAlgorithm,
        summary: &JoinSummary,
        scale: &ScaleFactors,
        sunk: &SunkWork,
    ) -> CostBreakdown {
        let mut model = *self;
        if sunk.scans_done {
            model.cluster.fixed_overhead_s = 0.0;
        }
        model.estimate(algorithm, &residual(summary, algorithm, sunk), scale)
    }
}

/// The controller's decision rule: a restart is worthwhile
/// iff the candidate's remaining time beats the incumbent's remaining time
/// by more than the replan hysteresis margin (switching has fixed costs —
/// teardown, fresh task sets — that a marginal win never recoups).
pub fn replan_break_even(
    current_remaining: &CostBreakdown,
    candidate_remaining: &CostBreakdown,
) -> bool {
    candidate_remaining.total_s * REPLAN_HYSTERESIS < current_remaining.total_s
}
