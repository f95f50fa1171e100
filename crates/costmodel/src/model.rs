//! Phase-structured time estimation per join algorithm.

use crate::cluster::ClusterSpec;
use crate::overlap::{blend, OverlapProfile};
use crate::scale::ScaleFactors;
use hybrid_common::trace::Stage;
use hybrid_core::{JoinAlgorithm, JoinSummary};

/// One named contribution to a run's estimated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub name: &'static str,
    pub seconds: f64,
}

/// A run's estimated time and its composition.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// The phases as they contribute to the total (overlapped stages appear
    /// as a single `max(...)`-valued phase).
    pub phases: Vec<Phase>,
    pub total_s: f64,
}

impl CostBreakdown {
    fn from_phases(phases: Vec<Phase>) -> CostBreakdown {
        let total_s = phases.iter().map(|p| p.seconds).sum();
        CostBreakdown { phases, total_s }
    }
}

/// The cost model: a [`ClusterSpec`] applied to measured volumes.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    pub cluster: ClusterSpec,
}

/// Paper-scale intermediate quantities derived from one run.
#[derive(Debug, Clone, Copy)]
struct Volumes {
    scan_io_s: f64,
    process_s: f64,
    shuffle_s: f64,
    build_s: f64,
    probe_s: f64,
    l_local_probe_s: f64,
    db_prep_s: f64,
    bf_build_s: f64,
    bf_exchange_s: f64,
    bf_apply_db_s: f64,
    keyset_exchange_s: f64,
    perf_keys_s: f64,
    perf_bitmap_s: f64,
    db_export_s: f64,
    db_ingest_s: f64,
    db_shuffle_s: f64,
    db_join_s: f64,
    /// Per-message fabric overhead — shrinks ~1/batch_rows while every
    /// row-denominated volume above stays fixed.
    msg_overhead_s: f64,
    /// Local spill traffic (hybrid hash join under a memory budget): every
    /// evicted build byte is written once and read back once. Zero for
    /// runs that stayed resident, so budget-free estimates are unchanged.
    spill_io_s: f64,
}

impl CostModel {
    pub fn paper() -> CostModel {
        CostModel {
            cluster: ClusterSpec::paper(),
        }
    }

    fn volumes(&self, s: &JoinSummary, f: &ScaleFactors) -> Volumes {
        let c = &self.cluster;
        let scan_bytes = s.hdfs_bytes_scanned as f64 * f.l;
        let rows_raw = s.hdfs_rows_raw as f64 * f.l;
        let shuffled = s.hdfs_tuples_shuffled as f64 * f.l;
        let shuffle_bytes = s.hdfs_shuffle_bytes as f64 * f.l;
        let l_after_bloom = s.hdfs_rows_after_bloom as f64 * f.l;
        let l_after_pred = s.hdfs_rows_after_pred as f64 * f.l;
        // export volume: the db_data stream only — the PERF baseline's key
        // and bitmap streams are charged separately. Synthetic summaries
        // that fill only the Table-1 total fall back to it.
        let db_sent = if s.db_data_tuples > 0 {
            s.db_data_tuples as f64 * f.t
        } else {
            s.db_tuples_sent as f64 * f.t
        };
        let db_sent_bytes = s.cross_db_data_bytes as f64 * f.t;
        let hdfs_sent = s.hdfs_tuples_sent as f64 * f.l;
        let hdfs_sent_bytes = s.cross_hdfs_data_bytes as f64 * f.l;
        let t_prime = s.t_prime_rows as f64 * f.t;
        // The hottest JEN worker bounds every per-worker phase that handles
        // shuffled data: with max/mean = k, the straggler finishes k× after
        // a balanced worker would. Summaries without the counter (or from
        // algorithms with no shuffle) report 0 and keep the balanced model.
        let skew = s.shuffle_max_over_mean_x1000.max(1000) as f64 / 1000.0;
        Volumes {
            scan_io_s: scan_bytes / c.hdfs_scan_bw,
            process_s: rows_raw / c.jen_process_rate,
            shuffle_s: (shuffled / c.jen_shuffle_rate).max(shuffle_bytes / c.intra_hdfs_bw) * skew,
            build_s: l_after_bloom / c.jen_join_rate * skew,
            probe_s: db_sent / c.jen_join_rate * skew,
            l_local_probe_s: l_after_pred / c.jen_join_rate,
            db_prep_s: (s.db_scan_bytes + s.db_index_bytes) as f64 * f.t / c.db_scan_bw,
            bf_build_s: s.bloom_keys_inserted as f64 * f.t / c.bloom_build_rate,
            bf_exchange_s: s.bloom_cross_bytes as f64 * f.keys / c.cross_bw,
            bf_apply_db_s: t_prime / c.bloom_build_rate,
            keyset_exchange_s: s.keyset_cross_bytes as f64 * f.keys / c.cross_bw,
            perf_keys_s: (s.perf_keys_tuples as f64 * f.t / c.db_export_rate)
                .max(s.perf_keys_cross_bytes as f64 * f.t / c.cross_bw),
            perf_bitmap_s: s.perf_bitmap_cross_bytes as f64 * f.t / c.cross_bw,
            db_export_s: (db_sent / c.db_export_rate).max(db_sent_bytes / c.cross_bw),
            db_ingest_s: (hdfs_sent / c.db_ingest_rate).max(hdfs_sent_bytes / c.cross_bw),
            db_shuffle_s: s.intra_db_bytes as f64 * f.l / c.intra_db_bw,
            db_join_s: (t_prime + hdfs_sent) / c.db_join_rate,
            // paper-scale rows in full batches on every row-carrying link:
            // the HDFS shuffle, the db_data export (broadcast copies
            // included) and the ingestion into the database. The measured
            // message count does not scale, since most per-destination
            // batches are under-full at reduced scale; an unknown batch size
            // pays one message per row
            msg_overhead_s: (shuffled + db_sent + hdfs_sent) / s.batch_rows.max(1) as f64
                * c.per_msg_overhead_s,
            // spill volume tracks the build side, i.e. the HDFS scale factor
            spill_io_s: (s.spill_bytes_written + s.spill_bytes_read) as f64 * f.l / c.spill_bw,
        }
    }

    /// The phase structure of one algorithm: sequential contributions plus
    /// concurrent groups whose combination rule depends on the overlap
    /// model (assumed `max` vs measured blend).
    fn phase_specs(&self, algorithm: JoinAlgorithm, v: &Volumes) -> Vec<PhaseSpec> {
        let scan = (v.scan_io_s.max(v.process_s), Some(Stage::Scan));
        let overhead = PhaseSpec::seq(
            "coordination + message overhead",
            self.cluster.fixed_overhead_s + v.msg_overhead_s,
        );
        let mut specs = match algorithm {
            JoinAlgorithm::DbSide { bloom } => {
                let mut specs = Vec::new();
                if bloom {
                    // BF_DB must exist before the HDFS scan starts.
                    specs.push(PhaseSpec::seq(
                        "db prep + BF_DB build/send",
                        v.db_prep_s + v.bf_build_s + v.bf_exchange_s,
                    ));
                    specs.push(PhaseSpec::overlap(
                        "hdfs scan ∥ ingest into DB",
                        vec![scan, (v.db_ingest_s, Some(Stage::ShuffleRecv))],
                    ));
                } else {
                    // T' prep overlaps the HDFS-side work entirely.
                    specs.push(PhaseSpec::overlap(
                        "hdfs scan ∥ ingest into DB ∥ db prep",
                        vec![
                            scan,
                            (v.db_ingest_s, Some(Stage::ShuffleRecv)),
                            (v.db_prep_s, None),
                        ],
                    ));
                }
                specs.push(PhaseSpec::seq(
                    "in-DB shuffle + join + aggregate",
                    v.db_shuffle_s + v.db_join_s,
                ));
                specs.push(overhead);
                specs
            }
            JoinAlgorithm::Broadcast => vec![
                PhaseSpec::overlap(
                    "hdfs scan ∥ T' broadcast ∥ local join",
                    vec![
                        scan,
                        (v.db_prep_s + v.db_export_s, Some(Stage::ShuffleSend)),
                        (v.l_local_probe_s, Some(Stage::Probe)),
                    ],
                ),
                overhead,
            ],
            JoinAlgorithm::Repartition { bloom: false } => vec![
                PhaseSpec::overlap(
                    "hdfs scan ∥ shuffle ∥ build ∥ T' send",
                    vec![
                        scan,
                        (v.shuffle_s, Some(Stage::ShuffleSend)),
                        (v.build_s, Some(Stage::HashBuild)),
                        (v.db_prep_s + v.db_export_s, None),
                    ],
                ),
                PhaseSpec::seq("probe + aggregate", v.probe_s),
                overhead,
            ],
            JoinAlgorithm::Repartition { bloom: true } => vec![
                PhaseSpec::seq(
                    "db prep + BF_DB build/send",
                    v.db_prep_s + v.bf_build_s + v.bf_exchange_s,
                ),
                PhaseSpec::overlap(
                    "hdfs scan ∥ shuffle ∥ build ∥ T' send",
                    vec![
                        scan,
                        (v.shuffle_s, Some(Stage::ShuffleSend)),
                        (v.build_s, Some(Stage::HashBuild)),
                        (v.db_export_s, None),
                    ],
                ),
                PhaseSpec::seq("probe + aggregate", v.probe_s),
                overhead,
            ],
            JoinAlgorithm::Zigzag => vec![
                PhaseSpec::seq(
                    "db prep + BF exchanges",
                    v.db_prep_s + v.bf_build_s + v.bf_exchange_s,
                ),
                PhaseSpec::overlap(
                    "hdfs scan ∥ shuffle ∥ build BF_H",
                    vec![
                        scan,
                        (v.shuffle_s, Some(Stage::ShuffleSend)),
                        (v.build_s, Some(Stage::HashBuild)),
                    ],
                ),
                PhaseSpec::seq("apply BF_H + T'' send", v.bf_apply_db_s + v.db_export_s),
                PhaseSpec::seq("probe + aggregate", v.probe_s),
                overhead,
            ],
            JoinAlgorithm::SemiJoin => vec![
                PhaseSpec::seq("db prep + key-set send", v.db_prep_s + v.keyset_exchange_s),
                PhaseSpec::overlap(
                    "hdfs scan ∥ shuffle ∥ build ∥ T' send",
                    vec![
                        scan,
                        (v.shuffle_s, Some(Stage::ShuffleSend)),
                        (v.build_s, Some(Stage::HashBuild)),
                        (v.db_export_s, None),
                    ],
                ),
                PhaseSpec::seq("probe + aggregate", v.probe_s),
                overhead,
            ],
            JoinAlgorithm::PerfJoin => vec![
                // key routing overlaps the scan/shuffle phase, but the
                // duplicated-per-tuple key stream pays the DB export path
                PhaseSpec::overlap(
                    "hdfs scan ∥ shuffle ∥ build ∥ T' keys send",
                    vec![
                        scan,
                        (v.shuffle_s, Some(Stage::ShuffleSend)),
                        (v.build_s, Some(Stage::HashBuild)),
                        (v.db_prep_s + v.perf_keys_s, None),
                    ],
                ),
                PhaseSpec::seq("positional bitmap replies", v.perf_bitmap_s),
                PhaseSpec::seq("matching T' send", v.db_export_s),
                PhaseSpec::seq("probe + aggregate", v.probe_s),
                overhead,
            ],
        };
        // Only runs that actually spilled carry the extra I/O phase, so
        // budget-free breakdowns keep their exact shape and totals.
        if v.spill_io_s > 0.0 {
            specs.push(PhaseSpec::seq("spill I/O", v.spill_io_s));
        }
        specs
    }

    /// Estimate paper-scale wall-clock seconds for one measured run,
    /// assuming perfect overlap of concurrent phases.
    ///
    /// The composition mirrors how the real engines overlap work:
    /// * JEN's scan, the L' shuffle, and hash-table building run
    ///   concurrently (Fig. 7) → they appear as one `max(...)` phase;
    /// * pipelined cross-cluster sends overlap the producing scan;
    /// * phases with true data dependencies (BF exchanges, the zigzag
    ///   `T''` shipment that must wait for `BF_H`) are sequential.
    pub fn estimate(
        &self,
        algorithm: JoinAlgorithm,
        summary: &JoinSummary,
        scale: &ScaleFactors,
    ) -> CostBreakdown {
        self.estimate_measured(algorithm, summary, scale, &OverlapProfile::assumed())
    }

    /// Like [`CostModel::estimate`], but concurrent phases combine using
    /// **measured** overlap fractions from a run's Timeline: each
    /// non-dominant component contributes the `(1 − f)` share of its time
    /// that did not overlap the dominant one. Pairs the profile never
    /// observed fall back to the assumed full overlap, so
    /// `estimate_measured(.., &OverlapProfile::assumed())` equals
    /// `estimate(..)` exactly — the A/B baseline.
    pub fn estimate_measured(
        &self,
        algorithm: JoinAlgorithm,
        summary: &JoinSummary,
        scale: &ScaleFactors,
        profile: &OverlapProfile,
    ) -> CostBreakdown {
        let v = self.volumes(summary, scale);
        let phases = self
            .phase_specs(algorithm, &v)
            .into_iter()
            .map(|spec| Phase {
                name: spec.name,
                seconds: blend(&spec.parts, profile),
            })
            .collect();
        CostBreakdown::from_phases(phases)
    }
}

/// One phase before the overlap rule is applied: a sequential contribution
/// is a single-part group (blend of one part is just its time).
struct PhaseSpec {
    name: &'static str,
    parts: Vec<(f64, Option<Stage>)>,
}

impl PhaseSpec {
    fn seq(name: &'static str, seconds: f64) -> PhaseSpec {
        PhaseSpec {
            name,
            parts: vec![(seconds, None)],
        }
    }

    fn overlap(name: &'static str, parts: Vec<(f64, Option<Stage>)>) -> PhaseSpec {
        PhaseSpec { name, parts }
    }
}

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
