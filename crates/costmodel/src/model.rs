//! Unit tests of [`hybrid_core::costmodel::model`].

use hybrid_common::trace::Stage;
use hybrid_core::costmodel::{CostModel, OverlapProfile, ScaleFactors};
use hybrid_core::{JoinAlgorithm, JoinSummary};

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic summary at paper scale for the Table 1 configuration
    /// (σT=0.1, σL=0.4, SL'=0.1, ST'=0.2) on the Parquet format.
    fn paper_summary(shuffled: u64, db_sent: u64, after_bloom_fraction: f64) -> JoinSummary {
        let l_prime_rows = 6.0e9; // σL=0.4 of 15B
        JoinSummary {
            hdfs_tuples_shuffled: shuffled,
            db_tuples_sent: db_sent,
            hdfs_tuples_sent: 0,
            hdfs_shuffle_bytes: shuffled * 58,
            cross_db_data_bytes: db_sent * 12,
            cross_hdfs_data_bytes: 0,
            bloom_cross_bytes: 16 << 20,
            keyset_cross_bytes: 0,
            db_data_tuples: db_sent,
            perf_keys_tuples: 0,
            perf_keys_cross_bytes: 0,
            perf_bitmap_cross_bytes: 0,
            // default 4096-row batch framing of the shuffle volume
            fabric_msgs: shuffled / 4096,
            batch_rows: 4096,
            cross_bytes: db_sent * 12,
            cross_db_to_jen_bytes: db_sent * 12,
            cross_jen_to_db_bytes: 0,
            intra_hdfs_bytes: shuffled * 58,
            intra_db_bytes: 0,
            hdfs_bytes_scanned: 170_000_000_000, // projected Parquet read
            hdfs_rows_raw: 15_000_000_000,
            hdfs_rows_after_pred: l_prime_rows as u64,
            hdfs_rows_after_bloom: (l_prime_rows * after_bloom_fraction) as u64,
            hdfs_blocks_skipped: 0,
            db_rows_scanned: 0,
            db_index_rows: 160_000_000,
            db_scan_bytes: 0,
            db_index_bytes: 160_000_000 * 12,
            t_prime_rows: 160_000_000,
            bloom_keys_inserted: 16_000_000,
            shuffle_max_over_mean_x1000: 0,
            spill_bytes_written: 0,
            spill_bytes_read: 0,
            mem_high_water: 0,
        }
    }

    #[test]
    fn shuffle_skew_inflates_shuffle_bound_strategies_only() {
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let balanced = paper_summary(5_854_000_000, 165_000_000, 1.0);
        let mut skewed = balanced;
        skewed.shuffle_max_over_mean_x1000 = 4000; // straggler holds 4× mean
        let rep = JoinAlgorithm::Repartition { bloom: false };
        let rep_balanced = m.estimate(rep, &balanced, &id).total_s;
        let rep_skewed = m.estimate(rep, &skewed, &id).total_s;
        assert!(
            rep_skewed > rep_balanced * 1.5,
            "skew should slow repartition: {rep_balanced:.0}s -> {rep_skewed:.0}s"
        );
        // broadcast never shuffles L': with no shuffle counters set its
        // estimate must not move at all.
        let mut bc = paper_summary(0, 165_000_000 * 30, 1.0);
        bc.hdfs_shuffle_bytes = 0;
        let bc_balanced = m.estimate(JoinAlgorithm::Broadcast, &bc, &id).total_s;
        let mut bc_skewed = bc;
        bc_skewed.shuffle_max_over_mean_x1000 = 4000;
        // broadcast's phase structure uses l_local_probe_s / db_export_s,
        // none of which carry the skew factor
        let bc_after = m
            .estimate(JoinAlgorithm::Broadcast, &bc_skewed, &id)
            .total_s;
        assert_eq!(bc_balanced, bc_after);
    }

    #[test]
    fn table1_ordering_and_factors() {
        // Table 1's exact tuple counts; Fig. 8 reports zigzag up to 2.1×
        // faster than repartition and up to 1.8× over repartition(BF).
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let rep = m.estimate(
            JoinAlgorithm::Repartition { bloom: false },
            &paper_summary(5_854_000_000, 165_000_000, 1.0),
            &id,
        );
        let rep_bf = m.estimate(
            JoinAlgorithm::Repartition { bloom: true },
            &paper_summary(591_000_000, 165_000_000, 0.1),
            &id,
        );
        let zz = m.estimate(
            JoinAlgorithm::Zigzag,
            &paper_summary(591_000_000, 30_000_000, 0.1),
            &id,
        );
        assert!(
            zz.total_s < rep_bf.total_s && rep_bf.total_s < rep.total_s,
            "zigzag {:.0}s, repBF {:.0}s, rep {:.0}s",
            zz.total_s,
            rep_bf.total_s,
            rep.total_s
        );
        let vs_rep = rep.total_s / zz.total_s;
        let vs_bf = rep_bf.total_s / zz.total_s;
        assert!(
            (1.8..3.2).contains(&vs_rep),
            "zigzag vs rep factor {vs_rep:.2}"
        );
        assert!(
            (1.3..2.2).contains(&vs_bf),
            "zigzag vs repBF factor {vs_bf:.2}"
        );
        // magnitudes in the paper's 100–700 s band
        assert!(rep.total_s < 700.0 && zz.total_s > 50.0);
    }

    #[test]
    fn scan_anchors_visible_in_estimates() {
        // text format: scanning 1TB dominates; parquet: the ~100s floor.
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let mut s = paper_summary(0, 0, 1.0);
        s.hdfs_bytes_scanned = 1_000_000_000_000;
        let text = m.estimate(JoinAlgorithm::Repartition { bloom: false }, &s, &id);
        assert!(
            (200.0..300.0).contains(&text.total_s),
            "text floor {:.0}",
            text.total_s
        );
        let mut s = paper_summary(0, 0, 1.0);
        s.hdfs_bytes_scanned = 170_000_000_000;
        let parquet = m.estimate(JoinAlgorithm::Repartition { bloom: false }, &s, &id);
        assert!(
            (90.0..150.0).contains(&parquet.total_s),
            "parquet floor {:.0}",
            parquet.total_s
        );
    }

    #[test]
    fn scaling_from_experiment_size_matches_identity_at_paper_size() {
        let m = CostModel::paper();
        // volumes measured at 1/10000 scale
        let mut small = paper_summary(585_400, 16_500, 1.0);
        small.hdfs_bytes_scanned = 17_000_000;
        small.hdfs_rows_raw = 1_500_000;
        small.hdfs_rows_after_pred = 600_000;
        small.hdfs_rows_after_bloom = 600_000;
        small.t_prime_rows = 16_000;
        small.db_index_bytes = 16_000 * 12;
        small.bloom_keys_inserted = 1_600;
        small.hdfs_shuffle_bytes = 585_400 * 58;
        small.cross_db_data_bytes = 16_500 * 12;
        small.bloom_cross_bytes = (16 << 20) / 10_000;
        let scaled = m.estimate(
            JoinAlgorithm::Repartition { bloom: false },
            &small,
            &ScaleFactors::to_paper(160_000, 1_500_000, 1_600),
        );
        let big = m.estimate(
            JoinAlgorithm::Repartition { bloom: false },
            &paper_summary(5_854_000_000, 165_000_000, 1.0),
            &ScaleFactors::identity(),
        );
        let ratio = scaled.total_s / big.total_s;
        assert!(
            (0.9..1.1).contains(&ratio),
            "scale mismatch ratio {ratio:.3}"
        );
    }

    #[test]
    fn db_side_deteriorates_steeply_with_ingested_volume() {
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let mut times = Vec::new();
        for sigma_l in [0.001f64, 0.01, 0.1, 0.2] {
            let mut s = paper_summary(0, 0, 1.0);
            s.hdfs_tuples_sent = (15.0e9 * sigma_l) as u64;
            s.cross_hdfs_data_bytes = s.hdfs_tuples_sent * 58;
            let t = m.estimate(JoinAlgorithm::DbSide { bloom: false }, &s, &id);
            times.push(t.total_s);
        }
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // σL=0.2 at least 4x slower than σL=0.001 (paper: off the chart)
        assert!(times[3] > times[0] * 4.0, "{times:?}");
    }

    #[test]
    fn broadcast_beats_repartition_only_for_tiny_t_prime() {
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        // σT = 0.001 → T' = 1.6M rows broadcast to 30 workers
        let t_tiny = 1_600_000u64;
        let mut bc = paper_summary(0, t_tiny * 30, 1.0);
        bc.t_prime_rows = t_tiny;
        let mut rp = paper_summary(5_854_000_000, t_tiny, 1.0);
        rp.t_prime_rows = t_tiny;
        let bc_t = m.estimate(JoinAlgorithm::Broadcast, &bc, &id).total_s;
        let rp_t = m
            .estimate(JoinAlgorithm::Repartition { bloom: false }, &rp, &id)
            .total_s;
        assert!(bc_t < rp_t, "broadcast {bc_t:.0} vs repartition {rp_t:.0}");

        // σT = 0.01 → broadcast volume 10x: repartition wins
        let t_small = 16_000_000u64;
        let mut bc = paper_summary(0, t_small * 30, 1.0);
        bc.t_prime_rows = t_small;
        let mut rp = paper_summary(591_000_000, t_small, 1.0);
        rp.t_prime_rows = t_small;
        let bc_t = m.estimate(JoinAlgorithm::Broadcast, &bc, &id).total_s;
        let rp_t = m
            .estimate(JoinAlgorithm::Repartition { bloom: false }, &rp, &id)
            .total_s;
        assert!(rp_t < bc_t, "repartition {rp_t:.0} vs broadcast {bc_t:.0}");
    }

    #[test]
    fn measured_overlap_equals_assumed_on_empty_profile() {
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let s = paper_summary(591_000_000, 30_000_000, 0.1);
        for alg in [
            JoinAlgorithm::Repartition { bloom: false },
            JoinAlgorithm::Repartition { bloom: true },
            JoinAlgorithm::Zigzag,
            JoinAlgorithm::Broadcast,
            JoinAlgorithm::DbSide { bloom: true },
            JoinAlgorithm::SemiJoin,
            JoinAlgorithm::PerfJoin,
        ] {
            let assumed = m.estimate(alg, &s, &id);
            let measured = m.estimate_measured(alg, &s, &id, &OverlapProfile::assumed());
            assert_eq!(assumed, measured, "{alg:?}");
        }
    }

    #[test]
    fn measured_overlap_never_beats_assumed() {
        use hybrid_common::trace::Span;
        // A timeline where scan and shuffle barely overlap: the measured
        // estimate must be at least the assumed (perfect-overlap) one.
        let t = hybrid_common::trace::Timeline {
            spans: vec![
                Span {
                    worker: "jen-0".into(),
                    stage: Stage::Scan,
                    t_start: 0,
                    t_end: 100,
                    bytes: 0,
                    tuples: 0,
                },
                Span {
                    worker: "jen-0".into(),
                    stage: Stage::ShuffleSend,
                    t_start: 90,
                    t_end: 190,
                    bytes: 0,
                    tuples: 0,
                },
                Span {
                    worker: "jen-0".into(),
                    stage: Stage::HashBuild,
                    t_start: 190,
                    t_end: 250,
                    bytes: 0,
                    tuples: 0,
                },
            ],
            ..Default::default()
        };
        let profile = OverlapProfile::from_timeline(&t);
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let s = paper_summary(5_854_000_000, 165_000_000, 1.0);
        let alg = JoinAlgorithm::Repartition { bloom: false };
        let assumed = m.estimate(alg, &s, &id);
        let measured = m.estimate_measured(alg, &s, &id, &profile);
        assert!(
            measured.total_s >= assumed.total_s,
            "measured {:.1}s < assumed {:.1}s",
            measured.total_s,
            assumed.total_s
        );
        // and the poorly-overlapped shuffle must actually cost extra
        assert!(measured.total_s > assumed.total_s);
    }

    #[test]
    fn spill_volume_inflates_estimate() {
        // A run that evicted its build side pays the spill write + re-read;
        // the same run fully resident carries no "spill I/O" phase at all.
        let m = CostModel::paper();
        let id = ScaleFactors::identity();
        let resident = paper_summary(5_854_000_000, 165_000_000, 1.0);
        let mut spilled = resident;
        spilled.spill_bytes_written = 340_000_000_000; // ~L' bytes out...
        spilled.spill_bytes_read = 340_000_000_000; // ...and back in
        spilled.mem_high_water = 1 << 30;
        let alg = JoinAlgorithm::Repartition { bloom: false };
        let fast = m.estimate(alg, &resident, &id);
        let slow = m.estimate(alg, &spilled, &id);
        assert!(!fast.phases.iter().any(|p| p.name == "spill I/O"));
        let spill_phase = slow
            .phases
            .iter()
            .find(|p| p.name == "spill I/O")
            .expect("spilled run must carry a spill phase");
        assert!(
            (slow.total_s - fast.total_s - spill_phase.seconds).abs() < 1e-9,
            "spill must add exactly its own phase"
        );
        assert!(
            slow.total_s > fast.total_s + 100.0,
            "680 GB of spill traffic must cost real time: {:.0}s -> {:.0}s",
            fast.total_s,
            slow.total_s
        );
    }

    #[test]
    fn messages_are_priced_from_paper_scale_rows_per_batch() {
        let m = CostModel::paper();
        let f = ScaleFactors::to_paper(160_000, 1_500_000, 1_600);
        // 1/10 000 of Table 1's repartition shuffle, framed into the few,
        // mostly under-full messages a reduced-scale run sends
        let mut s = paper_summary(585_400, 16_500, 1.0);
        s.fabric_msgs = 2_000;
        let message_s = |s: &JoinSummary| {
            let b = m.estimate(JoinAlgorithm::Repartition { bloom: false }, s, &f);
            let phase = b
                .phases
                .iter()
                .find(|p| p.name == "coordination + message overhead")
                .expect("every plan pays coordination and messages");
            phase.seconds - m.cluster.fixed_overhead_s
        };
        s.batch_rows = 1;
        let per_tuple = message_s(&s);
        s.batch_rows = 4096;
        let batched = message_s(&s);
        // one message per paper-scale tuple on each link: 5.854 B shuffled
        // plus 165 M exported, × 1 µs
        let paper_tuples = 585_400.0 * f.l + 16_500.0 * f.t;
        assert!((per_tuple - paper_tuples * m.cluster.per_msg_overhead_s).abs() < 1e-6);
        assert!((per_tuple / batched - 4096.0).abs() < 1e-6);
        // the measured message count does not enter the price
        s.fabric_msgs *= 1_000;
        assert_eq!(message_s(&s), batched);
    }

    #[test]
    fn cross_cluster_rows_pay_messages_too() {
        let m = CostModel::paper();
        let f = ScaleFactors::to_paper(160_000, 1_500_000, 1_600);
        // no HDFS shuffle at all: T' exported (as broadcast copies) and L'
        // ingested into the database
        let mut s = paper_summary(0, 16_500 * 30, 1.0);
        s.hdfs_tuples_sent = 585_400;
        s.cross_hdfs_data_bytes = 585_400 * 40;
        for alg in [
            JoinAlgorithm::DbSide { bloom: false },
            JoinAlgorithm::DbSide { bloom: true },
            JoinAlgorithm::Broadcast,
        ] {
            s.batch_rows = 4096;
            let batched = m.estimate(alg, &s, &f).total_s;
            s.batch_rows = 1;
            let per_tuple = m.estimate(alg, &s, &f).total_s;
            assert!(
                per_tuple > batched + 1.0,
                "{alg}: one row per message must cost more ({per_tuple:.1}s vs {batched:.1}s)"
            );
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = CostModel::paper();
        let b = m.estimate(
            JoinAlgorithm::Zigzag,
            &paper_summary(591_000_000, 30_000_000, 0.1),
            &ScaleFactors::identity(),
        );
        let sum: f64 = b.phases.iter().map(|p| p.seconds).sum();
        assert!((sum - b.total_s).abs() < 1e-9);
        assert!(b.phases.len() >= 4);
    }
}
