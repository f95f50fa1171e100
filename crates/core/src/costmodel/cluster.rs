//! The modeled cluster: the paper's testbed (§5, *Experimental Setup*).

/// Aggregate hardware rates of the two clusters.
///
/// "Anchored" rates come straight from numbers the paper reports; "fitted"
/// rates are software-path costs (per-tuple UDF/socket/hash work) chosen so
/// the model reproduces the published relative behavior, and are documented
/// as such.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// JEN workers / HDFS DataNodes (paper: 30).
    pub jen_nodes: usize,
    /// DB2 DPF workers (paper: 30, six per server).
    pub db_workers: usize,

    /// **Anchored.** Aggregate HDFS read bandwidth, bytes/s. The paper's
    /// 1 TB text scan takes ~240 s warm or cold (§5.4) ⇒ ~4.3 GB/s across
    /// 30 DataNodes × 4 disks.
    pub hdfs_scan_bw: f64,

    /// **Anchored (floor).** Aggregate JEN record-processing rate, rows/s.
    /// The single process thread per worker parses, filters and routes
    /// every record (§4.4); the ~100 s end-to-end floors of the Parquet
    /// curves (e.g. Fig. 11 at σL = 0.001) against a 38 s pure-I/O scan
    /// put this near 15 B rows / 100 s = 150 M rows/s for 30 nodes.
    pub jen_process_rate: f64,

    /// Aggregate intra-HDFS network bandwidth, bytes/s (30 × 1 GbE).
    pub intra_hdfs_bw: f64,

    /// **Fitted.** Aggregate shuffle path rate, tuples/s: serialize, send,
    /// receive and hash-build per shuffled tuple. 15 M tuples/s reproduces
    /// the ~2× zigzag-vs-repartition spread of Fig. 8 given Table 1's
    /// 5 854 M shuffled tuples.
    pub jen_shuffle_rate: f64,

    /// Inter-cluster switch bandwidth, bytes/s (20 Gbit ⇒ 2.5 GB/s).
    pub cross_bw: f64,

    /// **Fitted.** Tuples/s the database can *export* through its C-UDF +
    /// socket path (repartition/zigzag sends of `T'`/`T''`). Low per-tuple
    /// rates here are what make zigzag's `BF_H` reduction of the DB
    /// transfer matter (Fig. 8's 1.8× over repartition(BF)).
    pub db_export_rate: f64,

    /// **Fitted.** Tuples/s the database can *ingest* via the `read_hdfs`
    /// UDF across all workers (DB-side joins). Sets the steep σL slope of
    /// Figs. 11–13.
    pub db_ingest_rate: f64,

    /// Aggregate DB table/index access bandwidth, bytes/s (5 servers × 11
    /// data disks).
    pub db_scan_bw: f64,

    /// Aggregate DB interconnect bandwidth, bytes/s (5 servers × 10 GbE).
    pub intra_db_bw: f64,

    /// Aggregate in-database join/aggregation rate, rows/s.
    pub db_join_rate: f64,

    /// Aggregate JEN hash-probe/aggregate rate, rows/s (8 cores/node).
    pub jen_join_rate: f64,

    /// Bloom filter build/apply rate, keys/s (hashing only; application
    /// during scans is already covered by `jen_process_rate`).
    pub bloom_build_rate: f64,

    /// Fixed per-query coordination overhead, seconds (connection setup,
    /// catalog/NameNode round-trips, result return).
    pub fixed_overhead_s: f64,

    /// **Fitted.** Per-message fabric overhead, seconds: framing,
    /// syscall/dispatch and receiver wake-up paid once per message
    /// regardless of payload. At the default 4096-row batches the paper's
    /// 5.9 B-tuple shuffle is ~1.4 M messages (~1.4 s, noise); at
    /// one-tuple-per-message framing the same run would pay ~5 900 s —
    /// this term is why the engine ships columnar batches.
    pub per_msg_overhead_s: f64,

    /// Aggregate local spill bandwidth, bytes/s: sequential run files on
    /// the JEN workers' local disks (30 nodes × 4 disks, but spill runs
    /// share the spindles with the HDFS scan, so the usable rate is below
    /// `hdfs_scan_bw`). Charged once per spilled byte written and once per
    /// byte read back when a memory budget forces the hybrid hash join to
    /// evict build partitions.
    pub spill_bw: f64,
}

impl ClusterSpec {
    /// The paper's testbed.
    pub fn paper() -> ClusterSpec {
        ClusterSpec {
            jen_nodes: 30,
            db_workers: 30,
            hdfs_scan_bw: 4.3e9,
            jen_process_rate: 150e6,
            intra_hdfs_bw: 3.75e9,
            jen_shuffle_rate: 15e6,
            cross_bw: 2.5e9,
            db_export_rate: 0.7e6,
            db_ingest_rate: 5e6,
            db_scan_bw: 5e9,
            intra_db_bw: 6.25e9,
            db_join_rate: 150e6,
            jen_join_rate: 300e6,
            bloom_build_rate: 200e6,
            fixed_overhead_s: 8.0,
            per_msg_overhead_s: 1.0e-6,
            spill_bw: 3.0e9,
        }
    }
}
