//! Unit tests of [`hybrid_core::costmodel::replan`].

use hybrid_core::costmodel::{replan_break_even, CostBreakdown, CostModel, ScaleFactors, SunkWork};
use hybrid_core::{JoinAlgorithm, JoinSummary, REPLAN_HYSTERESIS};

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
