//! Per-run statistics: the counters behind Table 1 and the cost model.

use hybrid_common::batch::Batch;
use hybrid_common::metrics::MetricsSnapshot;
use hybrid_common::trace::Timeline;

/// Digest of one join run's data movement and scan work, extracted from the
/// metrics registry after the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinSummary {
    // --- Table 1 counters ---
    /// HDFS tuples shuffled between JEN workers (repartition/zigzag).
    pub hdfs_tuples_shuffled: u64,
    /// Database tuples shipped across the inter-cluster switch.
    pub db_tuples_sent: u64,
    /// HDFS tuples shipped across the switch (DB-side join ingestion).
    pub hdfs_tuples_sent: u64,
    // --- per-stream byte volumes (feed the cost model) ---
    /// Bytes of filtered HDFS tuples shuffled between JEN workers.
    pub hdfs_shuffle_bytes: u64,
    /// Bytes of database tuples crossing the switch (T' / T'').
    pub cross_db_data_bytes: u64,
    /// Bytes of HDFS tuples crossing the switch (DB-side ingestion).
    pub cross_hdfs_data_bytes: u64,
    /// Bloom filter bytes crossing the switch (both directions).
    pub bloom_cross_bytes: u64,
    /// Exact-key-set bytes (semi-join baseline).
    pub keyset_cross_bytes: u64,
    /// Database tuples on the `db_data` stream only (excludes key streams).
    pub db_data_tuples: u64,
    /// PERF join: ordered T' keys shipped (tuples / bytes) and positional
    /// bitmap reply bytes.
    pub perf_keys_tuples: u64,
    pub perf_keys_cross_bytes: u64,
    pub perf_bitmap_cross_bytes: u64,
    // --- message counts ---
    /// Fabric messages across all link classes (every `send` is one
    /// message, so a `Data` message carries one batch). Row totals above
    /// are batch-size-invariant; this count shrinks ~1/batch_rows as
    /// batches grow. It does not grow with rows at reduced scale, where
    /// most per-destination batches are under-full, so the cost model
    /// prices messages from rows and [`JoinSummary::batch_rows`] instead.
    pub fabric_msgs: u64,
    /// Rows per `Data` message the run was configured with
    /// (`SystemConfig::batch_rows`); 0 when unknown.
    pub batch_rows: u64,
    // --- bytes per link class ---
    pub cross_bytes: u64,
    pub cross_db_to_jen_bytes: u64,
    pub cross_jen_to_db_bytes: u64,
    pub intra_hdfs_bytes: u64,
    pub intra_db_bytes: u64,
    // --- scan work ---
    pub hdfs_bytes_scanned: u64,
    pub hdfs_rows_raw: u64,
    pub hdfs_rows_after_pred: u64,
    pub hdfs_rows_after_bloom: u64,
    pub hdfs_blocks_skipped: u64,
    pub db_rows_scanned: u64,
    pub db_index_rows: u64,
    pub db_scan_bytes: u64,
    pub db_index_bytes: u64,
    /// Rows of `T'` (after local predicates + projection), counted once.
    pub t_prime_rows: u64,
    // --- bloom work ---
    pub bloom_keys_inserted: u64,
    // --- shuffle balance ---
    /// Max JEN worker build-side shuffle load over the mean, ×1000
    /// (1000 = perfectly balanced; 0 = the algorithm has no shuffle).
    pub shuffle_max_over_mean_x1000: u64,
    // --- memory governor ---
    /// Bytes written to local spill runs (partition evictions plus
    /// recursive repartitioning; 0 = the build side stayed resident).
    pub spill_bytes_written: u64,
    /// Bytes read back from local spill runs at join time.
    pub spill_bytes_read: u64,
    /// High-water mark of resident build bytes on any single JEN worker
    /// (`mem.high_water`; 0 when the run had no memory budget).
    pub mem_high_water: u64,
}

impl JoinSummary {
    /// Extract a summary from a metrics snapshot taken after a run that
    /// started from reset counters.
    pub fn from_snapshot(s: &MetricsSnapshot) -> JoinSummary {
        let get = |k: &str| s.get(k).copied().unwrap_or(0);
        JoinSummary {
            hdfs_tuples_shuffled: get("net.intra_hdfs.stream.hdfs_shuffle.tuples"),
            db_tuples_sent: get("net.cross.db_to_jen.tuples"),
            hdfs_tuples_sent: get("net.cross.jen_to_db.tuples"),
            hdfs_shuffle_bytes: get("net.intra_hdfs.stream.hdfs_shuffle.bytes"),
            cross_db_data_bytes: get("net.cross.stream.db_data.bytes"),
            cross_hdfs_data_bytes: get("net.cross.stream.hdfs_data.bytes"),
            bloom_cross_bytes: get("net.cross.stream.db_bloom.bytes")
                + get("net.cross.stream.hdfs_bloom.bytes"),
            keyset_cross_bytes: get("net.cross.stream.db_keyset.bytes"),
            db_data_tuples: get("net.cross.stream.db_data.tuples"),
            perf_keys_tuples: get("net.cross.stream.perf_keys.tuples"),
            perf_keys_cross_bytes: get("net.cross.stream.perf_keys.bytes"),
            perf_bitmap_cross_bytes: get("net.cross.stream.perf_bitmap.bytes"),
            fabric_msgs: get("net.intra_hdfs.msgs")
                + get("net.cross.msgs")
                + get("net.intra_db.msgs"),
            // not a counter: the run fills it from its config
            batch_rows: 0,
            cross_bytes: get("net.cross.bytes"),
            cross_db_to_jen_bytes: get("net.cross.db_to_jen.bytes"),
            cross_jen_to_db_bytes: get("net.cross.jen_to_db.bytes"),
            intra_hdfs_bytes: get("net.intra_hdfs.bytes"),
            intra_db_bytes: get("net.intra_db.bytes"),
            hdfs_bytes_scanned: get("jen.scan.bytes_read"),
            hdfs_rows_raw: get("jen.scan.rows_raw"),
            hdfs_rows_after_pred: get("jen.scan.rows_after_pred"),
            hdfs_rows_after_bloom: get("jen.scan.rows_after_bloom"),
            hdfs_blocks_skipped: get("jen.scan.blocks_skipped"),
            db_rows_scanned: get("db.scan.rows"),
            db_index_rows: get("db.index.rows"),
            db_scan_bytes: get("db.scan.bytes"),
            db_index_bytes: get("db.index.bytes"),
            t_prime_rows: get("core.t_prime_rows"),
            bloom_keys_inserted: get("db.bloom.keys_inserted") + get("jen.bloom.keys_inserted"),
            shuffle_max_over_mean_x1000: get("net.shuffle.max_over_mean_x1000"),
            spill_bytes_written: get("jen.spill.bytes_written"),
            spill_bytes_read: get("jen.spill.bytes_read"),
            mem_high_water: get("mem.high_water"),
        }
    }
}

/// The outcome of one algorithm run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Final `(group, agg…)` batch, sorted by group key.
    pub result: Batch,
    /// Movement/scan digest for the run.
    pub summary: JoinSummary,
    /// Raw metric counters (diagnostics, cost-model input).
    pub snapshot: MetricsSnapshot,
    /// Phase spans of the run (Fig. 7 view), with per-link `net.*` totals.
    pub timeline: Timeline,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn snapshot_extraction_defaults_to_zero() {
        let s: MetricsSnapshot = BTreeMap::new();
        let j = JoinSummary::from_snapshot(&s);
        assert_eq!(j, JoinSummary::default());
    }

    #[test]
    fn snapshot_extraction_reads_counters() {
        let mut s: MetricsSnapshot = BTreeMap::new();
        s.insert("net.intra_hdfs.stream.hdfs_shuffle.tuples".into(), 591);
        s.insert("net.cross.db_to_jen.tuples".into(), 30);
        s.insert("jen.scan.bytes_read".into(), 421);
        s.insert("db.bloom.keys_inserted".into(), 5);
        s.insert("jen.bloom.keys_inserted".into(), 7);
        s.insert("net.intra_hdfs.msgs".into(), 100);
        s.insert("net.cross.msgs".into(), 40);
        s.insert("net.intra_db.msgs".into(), 2);
        let j = JoinSummary::from_snapshot(&s);
        assert_eq!(j.hdfs_tuples_shuffled, 591);
        assert_eq!(j.db_tuples_sent, 30);
        assert_eq!(j.hdfs_bytes_scanned, 421);
        assert_eq!(j.bloom_keys_inserted, 12);
        assert_eq!(j.fabric_msgs, 142);
    }
}
