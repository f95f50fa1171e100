//! Unit tests of [`hybrid_core::costmodel::cluster`].

use hybrid_core::costmodel::ClusterSpec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_paper_numbers() {
        let c = ClusterSpec::paper();
        // 1 TB text scan ≈ 240 s
        let text_scan = 1.0e12 / c.hdfs_scan_bw;
        assert!((225.0..245.0).contains(&text_scan), "text scan {text_scan}");
        // 15 B-row process floor ≈ 100 s
        let process = 15.0e9 / c.jen_process_rate;
        assert!((90.0..110.0).contains(&process), "process floor {process}");
    }

    #[test]
    fn rates_positive() {
        let c = ClusterSpec::paper();
        for v in [
            c.hdfs_scan_bw,
            c.jen_process_rate,
            c.intra_hdfs_bw,
            c.jen_shuffle_rate,
            c.cross_bw,
            c.db_export_rate,
            c.db_ingest_rate,
            c.db_scan_bw,
            c.intra_db_bw,
            c.db_join_rate,
            c.jen_join_rate,
            c.bloom_build_rate,
            c.per_msg_overhead_s,
            c.spill_bw,
        ] {
            assert!(v > 0.0);
        }
    }
}
