//! Predicted volumes: what a join algorithm would move, from a query's
//! pre-execution estimates — the input the cost model prices a plan on
//! before it runs.

use super::replan::consumes_bf_db;
use crate::advisor::QueryEstimates;
use crate::{JoinAlgorithm, JoinSummary};

/// The volumes `algorithm` would move on a query with estimates `est`.
///
/// Exactly the [`JoinSummary`] fields [`super::CostModel`] reads are
/// filled; every other field is 0. Every plan scans `L` once and produces
/// `T'` once. On top of that:
/// * the Bloom-consuming plans build `BF_DB` over `T'`, multicast it to
///   every JEN worker, and keep the `S_L'` share of `L'`;
/// * the DB-side joins ingest the surviving `L'` into the database;
/// * broadcast exports one copy of `T'` per JEN worker;
/// * the repartition family shuffles the surviving `L'` — all but the
///   `1/n` each worker keeps — and exports `T'` once; zigzag first builds
///   `BF_H` over the shuffled `L'`, ships it to the database, and exports
///   only the `S_T'` share of `T'`.
///
/// The JEN hash join of the repartition family builds the straggler's
/// shuffled share and probes with `T'`: `shuffle_skew` × the mean, or
/// `joined_shuffle_skew` × the mean once `BF_DB` has filtered `L'`;
/// broadcast builds all of `T'` on every worker and probes with the local
/// `L'`. When a per-worker build exceeds `mem_budget_per_worker`, the
/// excess and the matching probe share are spilled once and read back
/// once. Semi-join and PERF are not predicted: their summary carries only
/// the common scan work.
pub fn predict(est: &QueryEstimates, algorithm: JoinAlgorithm) -> JoinSummary {
    let n = est.num_jen_workers.max(1) as f64;
    let (t_rows, t_bytes) = (est.t_prime_rows as f64, est.t_prime_bytes as f64);
    let (l_rows, l_bytes) = (est.l_prime_rows as f64, est.l_prime_bytes as f64);
    let bloom = consumes_bf_db(algorithm);
    // the share of L' that survives BF_DB
    let kept = if bloom { est.sl.clamp(0.0, 1.0) } else { 1.0 };
    let mut s = JoinSummary {
        hdfs_bytes_scanned: est.l_bytes_read,
        hdfs_rows_raw: est.l_rows,
        hdfs_rows_after_pred: est.l_prime_rows,
        hdfs_rows_after_bloom: (l_rows * kept) as u64,
        t_prime_rows: est.t_prime_rows,
        db_index_bytes: est.db_prep_bytes,
        batch_rows: est.batch_rows,
        ..JoinSummary::default()
    };
    if bloom {
        s.bloom_keys_inserted = est.t_prime_rows;
        s.bloom_cross_bytes = est.bloom_bytes * n as u64;
    }
    // per-worker (build, probe) bytes of a JEN-side hash join
    let jen_join = match algorithm {
        JoinAlgorithm::DbSide { .. } => {
            s.hdfs_tuples_sent = s.hdfs_rows_after_bloom;
            s.cross_hdfs_data_bytes = (l_bytes * kept) as u64;
            None
        }
        JoinAlgorithm::Broadcast => {
            s.db_data_tuples = (t_rows * n) as u64;
            s.cross_db_data_bytes = (t_bytes * n) as u64;
            Some((t_bytes, l_bytes / n))
        }
        JoinAlgorithm::Repartition { .. } | JoinAlgorithm::Zigzag => {
            let zigzag = algorithm == JoinAlgorithm::Zigzag;
            let skew = if bloom {
                est.joined_shuffle_skew
            } else {
                est.shuffle_skew
            };
            let skew = skew.clamp(1.0, n);
            let off_worker = (n - 1.0) / n;
            s.hdfs_tuples_shuffled = (l_rows * kept * off_worker) as u64;
            s.hdfs_shuffle_bytes = (l_bytes * kept * off_worker) as u64;
            s.shuffle_max_over_mean_x1000 = (skew * 1000.0) as u64;
            let exported = if zigzag { est.st.clamp(0.0, 1.0) } else { 1.0 };
            s.db_data_tuples = (t_rows * exported) as u64;
            s.cross_db_data_bytes = (t_bytes * exported) as u64;
            if zigzag {
                s.bloom_keys_inserted += s.hdfs_rows_after_bloom;
                s.bloom_cross_bytes += est.bloom_bytes * n as u64;
            }
            Some((l_bytes * kept / n * skew, t_bytes * exported / n))
        }
        JoinAlgorithm::SemiJoin | JoinAlgorithm::PerfJoin => None,
    };
    if let (Some((build, probe)), Some(budget)) = (jen_join, est.mem_budget_per_worker) {
        let excess = build - budget as f64;
        if excess > 0.0 {
            let spilled = n * (excess + probe * excess / build);
            s.spill_bytes_written = spilled as u64;
            s.spill_bytes_read = spilled as u64;
        }
    }
    s
}
