//! Phase-structured time estimation per join algorithm.

use super::cluster::ClusterSpec;
use super::overlap::{blend, OverlapProfile};
use super::scale::ScaleFactors;
use crate::{JoinAlgorithm, JoinSummary};
use hybrid_common::trace::Stage;

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
