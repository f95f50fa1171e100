//! Remaining-work costing for mid-query replans.
//!
//! The adaptive controller (`hybrid_core::adapt`) decides *whether* to
//! switch strategies with the advisor's abstract byte-volume costs. This
//! module answers the paper-scale follow-up: **what would the replan have
//! cost on the paper's hardware?** It reuses the full phase-structured
//! [`CostModel`] by building a *residual* summary — the measured volumes
//! with everything the aborted attempt already paid for zeroed out — so
//! the remaining-work estimate inherits every overlap rule, anchor, and
//! skew factor of the normal model instead of re-deriving its own.
//!
//! At the observation point both scans have completed (the controller
//! observes *exact* actuals, which requires the prescan to finish), so a
//! restart re-pays neither the HDFS scan nor the DB-side prep; if the
//! aborted attempt built and shipped `BF_DB`, a restart onto another
//! Bloom-consuming strategy reuses the serialized filter from cache and
//! re-pays neither the build nor the cross-cluster exchange.

use crate::model::{CostBreakdown, CostModel};
use crate::scale::ScaleFactors;
use hybrid_core::{JoinAlgorithm, JoinSummary, REPLAN_HYSTERESIS};

/// What an aborted attempt already paid for by the observation point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SunkWork {
    /// Both table scans ran to completion: the HDFS scan volume and the
    /// DB-side prep (table/index scan) are sunk. Always true at the
    /// controller's observation point; `false` models a hypothetical
    /// earlier switch.
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
/// precondition for a restart to find it in cache.
fn consumes_bf_db(alg: JoinAlgorithm) -> bool {
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
        // Cache hit: neither the key inserts nor the cross-cluster ship.
        s.bloom_keys_inserted = 0;
        s.bloom_cross_bytes = 0;
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
        self.estimate(algorithm, &residual(summary, algorithm, sunk), scale)
    }
}

/// The controller's decision rule at paper scale: a restart is worthwhile
/// iff the candidate's remaining time beats the incumbent's remaining time
/// by more than the replan hysteresis margin (switching has fixed costs —
/// teardown, fresh task sets — that a marginal win never recoups).
pub fn replan_break_even(
    current_remaining: &CostBreakdown,
    candidate_remaining: &CostBreakdown,
) -> bool {
    candidate_remaining.total_s * REPLAN_HYSTERESIS < current_remaining.total_s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table-1-shaped volumes for a repartition(BF)-class run.
    fn summary() -> JoinSummary {
        JoinSummary {
            hdfs_tuples_shuffled: 591_000_000,
            hdfs_shuffle_bytes: 591_000_000 * 58,
            db_tuples_sent: 165_000_000,
            db_data_tuples: 165_000_000,
            cross_db_data_bytes: 165_000_000 * 12,
            cross_bytes: 165_000_000 * 12,
            cross_db_to_jen_bytes: 165_000_000 * 12,
            intra_hdfs_bytes: 591_000_000 * 58,
            hdfs_bytes_scanned: 170_000_000_000,
            hdfs_rows_raw: 15_000_000_000,
            hdfs_rows_after_pred: 6_000_000_000,
            hdfs_rows_after_bloom: 600_000_000,
            db_index_rows: 160_000_000,
            db_index_bytes: 160_000_000 * 12,
            t_prime_rows: 160_000_000,
            bloom_keys_inserted: 16_000_000,
            bloom_cross_bytes: 16 << 20,
            fabric_msgs: 591_000_000 / 4096,
            batch_rows: 4096,
            ..JoinSummary::default()
        }
    }

    #[test]
    fn nothing_sunk_matches_plain_estimate() {
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        for alg in [
            JoinAlgorithm::Repartition { bloom: true },
            JoinAlgorithm::Zigzag,
            JoinAlgorithm::Broadcast,
        ] {
            let full = m.estimate(alg, &summary(), &id);
            let rem = m.estimate_remaining(alg, &summary(), &id, &SunkWork::default());
            assert_eq!(full, rem, "{alg:?}");
        }
    }

    #[test]
    fn sunk_scans_shrink_the_restart() {
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let alg = JoinAlgorithm::Repartition { bloom: true };
        let full = m.estimate(alg, &summary(), &id);
        let rem = m.estimate_remaining(
            alg,
            &summary(),
            &id,
            &SunkWork {
                scans_done: true,
                bloom_reusable: false,
            },
        );
        assert!(
            rem.total_s < full.total_s,
            "restart {:.1}s must beat full {:.1}s",
            rem.total_s,
            full.total_s
        );
        // phase structure survives the zeroing — same names, same count
        let names: Vec<_> = full.phases.iter().map(|p| p.name).collect();
        let rnames: Vec<_> = rem.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, rnames);
    }

    #[test]
    fn bloom_reuse_discounts_consumers_only() {
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let sunk_scans = SunkWork {
            scans_done: true,
            bloom_reusable: false,
        };
        let sunk_all = SunkWork {
            scans_done: true,
            bloom_reusable: true,
        };
        // a Bloom consumer gets cheaper with the filter in cache
        let alg = JoinAlgorithm::Repartition { bloom: true };
        let without = m.estimate_remaining(alg, &summary(), &id, &sunk_scans);
        let with = m.estimate_remaining(alg, &summary(), &id, &sunk_all);
        assert!(with.total_s < without.total_s);
        // a non-consumer sees no difference at all
        let alg = JoinAlgorithm::Broadcast;
        let without = m.estimate_remaining(alg, &summary(), &id, &sunk_scans);
        let with = m.estimate_remaining(alg, &summary(), &id, &sunk_all);
        assert_eq!(without, with);
    }

    #[test]
    fn at_observation_tracks_the_aborted_strategy() {
        assert_eq!(
            SunkWork::at_observation(JoinAlgorithm::Zigzag),
            SunkWork {
                scans_done: true,
                bloom_reusable: true
            }
        );
        assert_eq!(
            SunkWork::at_observation(JoinAlgorithm::Repartition { bloom: false }),
            SunkWork {
                scans_done: true,
                bloom_reusable: false
            }
        );
    }

    #[test]
    fn break_even_applies_hysteresis() {
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let sunk = SunkWork::at_observation(JoinAlgorithm::Repartition { bloom: true });
        let incumbent = m.estimate_remaining(
            JoinAlgorithm::Repartition { bloom: false },
            &summary(),
            &id,
            &sunk,
        );
        let candidate = m.estimate_remaining(
            JoinAlgorithm::Repartition { bloom: true },
            &summary(),
            &id,
            &sunk,
        );
        // a marginal win (just under the incumbent) never clears the bar
        let marginal = CostBreakdown {
            phases: vec![],
            total_s: incumbent.total_s * 0.99,
        };
        assert!(!replan_break_even(&incumbent, &marginal));
        // the decision is consistent with the raw ratio either way
        assert_eq!(
            replan_break_even(&incumbent, &candidate),
            candidate.total_s * REPLAN_HYSTERESIS < incumbent.total_s
        );
    }
}
