//! Sampling-based query estimation.
//!
//! The advisor (§5.5 rules) needs `T'`/`L'` sizes and the join-key
//! selectivities *before* running the query. A real warehouse reads these
//! from catalog statistics; this module derives them the way a planner
//! without statistics would — by sampling:
//!
//! * **database side**: every worker evaluates the local predicate over
//!   its partition, so `T'` and its key set are exact (an index-only plan
//!   in the real system). A row sample of `T` cannot stand in: `S_L'` is
//!   the share of `L'`'s distinct keys that `T'` holds, and a sample holds
//!   only a fraction of `T'`'s keys;
//! * **HDFS side**: a handful of blocks, spread across the file, are
//!   decoded and filtered;
//! * **join-key selectivities**: the overlap of `T'`'s key set with the
//!   sampled surviving `L'` keys. Sampling shrinks the `L'` set, so the
//!   overlap fractions are noisy — good enough to steer the advisor, and
//!   clearly documented as estimates.
//!
//! [`run_auto`] chains it all: estimate → advise → execute.

use crate::adapt::run_adaptive;
use crate::advisor::{advise, DimEstimates, QueryEstimates, StarEstimates};
use crate::algorithms::JoinAlgorithm;
use crate::multiway::StarQuery;
use crate::query::HybridQuery;
use crate::stats::RunOutput;
use crate::system::HybridSystem;
use hybrid_common::error::Result;
use hybrid_common::hash::agreed_shuffle_partition;
use hybrid_storage::{decode, BlockReader};
use std::collections::HashSet;

/// Sampling-derived statistics for one query.
#[derive(Debug, Clone, Copy)]
pub struct SampledStats {
    pub sigma_t: f64,
    pub sigma_l: f64,
    pub st: f64,
    pub sl: f64,
    /// Estimated `T'` rows across the cluster.
    pub t_prime_rows: f64,
    /// Estimated `L'` rows across the cluster.
    pub l_prime_rows: f64,
    /// Estimated average wire width of a projected `T'` row, bytes.
    pub t_row_bytes: f64,
    pub l_row_bytes: f64,
    /// Estimated rows of `L` (sampled rows per block × block count).
    pub l_rows: f64,
    /// Estimated bytes the `L` scan reads: the sampled blocks' bytes for
    /// the columns the scan needs, × block count.
    pub l_bytes_read: f64,
    /// Bytes the database reads to produce `T'` (its access path's, exact).
    pub db_prep_bytes: f64,
    /// Rows per fabric data message of the sampled system.
    pub batch_rows: u64,
    /// Estimated shuffle imbalance of the surviving `L'` keys under the
    /// agreed hash: hottest JEN worker's share over the mean (1.0 =
    /// uniform). Derived from the same block sample as `sigma_l`, counting
    /// *rows* per target worker — duplicates matter, they are what a hot
    /// key is made of.
    pub shuffle_skew: f64,
    /// The same imbalance over only the sampled `L'` rows whose key `T'`
    /// holds: what the shuffle of a `BF_DB`-filtered `L'` routes.
    pub joined_shuffle_skew: f64,
}

impl SampledStats {
    /// Convert to the advisor's input. `mem_budget_per_worker` is the
    /// build-side budget a JEN worker will run under (see
    /// [`crate::system::HybridSystem::mem_budget_per_worker`]); `None` =
    /// unbounded.
    pub fn to_estimates(
        &self,
        query: &HybridQuery,
        num_jen_workers: usize,
        mem_budget_per_worker: Option<u64>,
    ) -> QueryEstimates {
        QueryEstimates {
            t_prime_bytes: (self.t_prime_rows * self.t_row_bytes) as u64,
            l_prime_bytes: (self.l_prime_rows * self.l_row_bytes) as u64,
            t_prime_rows: self.t_prime_rows as u64,
            l_prime_rows: self.l_prime_rows as u64,
            l_rows: self.l_rows as u64,
            l_bytes_read: self.l_bytes_read as u64,
            db_prep_bytes: self.db_prep_bytes as u64,
            st: self.st,
            sl: self.sl,
            num_jen_workers,
            bloom_bytes: query.bloom.wire_bytes() as u64,
            shuffle_skew: self.shuffle_skew,
            joined_shuffle_skew: self.joined_shuffle_skew,
            mem_budget_per_worker,
            batch_rows: self.batch_rows,
        }
    }
}

/// Estimate the query's selectivities by sampling both tables.
///
/// `sample_blocks` bounds how many HDFS blocks are decoded (they are taken
/// at even strides through the file so clustered data does not bias the
/// estimate).
pub fn sample_stats(
    sys: &HybridSystem,
    query: &HybridQuery,
    sample_blocks: usize,
) -> Result<SampledStats> {
    query.validate()?;

    // --- database side: exact ---
    let mut t_passed = 0usize;
    let mut t_bytes = 0usize;
    let mut t_total_rows = 0usize;
    let mut t_keys: HashSet<i64> = HashSet::new();
    for w in 0..sys.db.num_workers() {
        let partition = sys.db.worker(w).partition(&query.db_table)?;
        t_total_rows += partition.num_rows();
        let mask = query.db_pred.eval_predicate(partition)?;
        let survivors = partition.project(&query.db_proj)?.filter(&mask)?;
        t_passed += survivors.num_rows();
        t_bytes += survivors.serialized_bytes();
        let keys = survivors.column(query.db_key)?;
        for row in 0..survivors.num_rows() {
            t_keys.insert(keys.key_at(row)?);
        }
    }

    // --- HDFS side ---
    let meta = sys.coordinator.lookup_table(&query.hdfs_table)?;
    let blocks = sys.hdfs.read().file_blocks(&meta.path)?;
    let n_blocks = blocks.len();
    let picked = sample_blocks.clamp(1, n_blocks.max(1));
    let mut l_sampled = 0usize;
    let mut l_passed = 0usize;
    let mut l_bytes = 0usize;
    let mut l_read_bytes = 0usize;
    let l_read = query.hdfs_scan(true).read_cols();
    let mut l_keys: HashSet<i64> = HashSet::new();
    let num_jen = sys.config.jen_workers.max(1);
    let mut worker_loads = vec![0u64; num_jen];
    let mut joined_loads = vec![0u64; num_jen];
    for i in 0..picked {
        let idx = i * n_blocks / picked;
        let block = &blocks[idx];
        let reader = sys.jen_workers[0].datanode();
        let bytes = sys
            .hdfs
            .read()
            .read_block_into(block.id, reader, &sys.metrics)?;
        l_read_bytes +=
            BlockReader::open(meta.format, &meta.schema, &bytes)?.bytes_read(&l_read)?;
        let decoded = decode(meta.format, &meta.schema, &bytes, None)?;
        let mask = query.hdfs_pred.eval_predicate(&decoded.batch)?;
        let survivors = decoded.batch.filter(&mask)?.project(&query.hdfs_proj)?;
        l_sampled += decoded.batch.num_rows();
        l_passed += survivors.num_rows();
        l_bytes += survivors.serialized_bytes();
        let keys = survivors.column(query.hdfs_key)?;
        for row in 0..survivors.num_rows() {
            let key = keys.key_at(row)?;
            l_keys.insert(key);
            let worker = agreed_shuffle_partition(key, num_jen);
            worker_loads[worker] += 1;
            joined_loads[worker] += u64::from(t_keys.contains(&key));
        }
    }
    // total L rows ≈ rows per sampled block × block count
    let l_total_rows = if l_sampled == 0 {
        0.0
    } else {
        (l_sampled as f64 / picked as f64) * n_blocks as f64
    };

    let sigma_t = ratio(t_passed, t_total_rows);
    let sigma_l = ratio(l_passed, l_sampled);
    let inter = t_keys.intersection(&l_keys).count() as f64;
    Ok(SampledStats {
        sigma_t,
        sigma_l,
        st: if t_keys.is_empty() {
            1.0
        } else {
            inter / t_keys.len() as f64
        },
        sl: if l_keys.is_empty() {
            1.0
        } else {
            inter / l_keys.len() as f64
        },
        t_prime_rows: sigma_t * t_total_rows as f64,
        l_prime_rows: sigma_l * l_total_rows,
        t_row_bytes: avg(t_bytes, t_passed),
        l_row_bytes: avg(l_bytes, l_passed),
        l_rows: l_total_rows,
        l_bytes_read: l_read_bytes as f64 / picked as f64 * n_blocks as f64,
        db_prep_bytes: sys.db_access_bytes(&query.db_table, &query.db_pred, &query.db_proj)? as f64,
        batch_rows: sys.config.batch_rows as u64,
        shuffle_skew: max_over_mean(&worker_loads),
        joined_shuffle_skew: max_over_mean(&joined_loads),
    })
}

/// The hottest worker's load over the mean load (1.0 when nothing loads).
pub fn max_over_mean(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    match loads.iter().max() {
        Some(&max) if total > 0 => max as f64 * loads.len() as f64 / total as f64,
        _ => 1.0,
    }
}

/// Estimate a star query's inputs for the multiway advisor.
///
/// Dimensions are counted **exactly** — each DB worker evaluates the full
/// filter + projection (dimension tables are small by definition, and a
/// real optimizer would read these numbers from catalog statistics) and
/// their selected key sets are retained. The fact side samples
/// `sample_blocks` strided HDFS blocks like [`sample_stats`]; each
/// dimension's `pass_fraction` is the fraction of sampled fact survivors
/// whose foreign key lands in that dimension's selected key set.
pub fn sample_star_stats(
    sys: &HybridSystem,
    star: &StarQuery,
    sample_blocks: usize,
) -> Result<StarEstimates> {
    star.validate()?;
    let k = star.dims.len();

    // --- dimensions: exact counts + selected key sets ---
    let mut dim_rows = vec![0u64; k];
    let mut dim_bytes = vec![0u64; k];
    let mut dim_keys: Vec<HashSet<i64>> = vec![HashSet::new(); k];
    for (i, dq) in star.dims.iter().enumerate() {
        for w in 0..sys.db.num_workers() {
            let part = sys
                .db
                .worker(w)
                .scan_filter_project(&dq.table, &dq.pred, &dq.proj)?;
            dim_rows[i] += part.num_rows() as u64;
            dim_bytes[i] += part.serialized_bytes() as u64;
            let keys = part.column(dq.key)?;
            for row in 0..part.num_rows() {
                dim_keys[i].insert(keys.key_at(row)?);
            }
        }
    }

    // --- fact: strided block sample ---
    let meta = sys.coordinator.lookup_table(&star.fact_table)?;
    let blocks = sys.hdfs.read().file_blocks(&meta.path)?;
    let n_blocks = blocks.len();
    let picked = sample_blocks.clamp(1, n_blocks.max(1));
    let mut l_sampled = 0usize;
    let mut l_passed = 0usize;
    let mut l_bytes = 0usize;
    let mut fk_hits = vec![0u64; k];
    for i in 0..picked {
        let idx = i * n_blocks / picked;
        let reader = sys.jen_workers[0].datanode();
        let bytes = sys
            .hdfs
            .read()
            .read_block_into(blocks[idx].id, reader, &sys.metrics)?;
        let decoded = decode(meta.format, &meta.schema, &bytes, None)?;
        let mask = star.fact_pred.eval_predicate(&decoded.batch)?;
        let survivors = decoded.batch.filter(&mask)?.project(&star.fact_proj)?;
        l_sampled += decoded.batch.num_rows();
        l_passed += survivors.num_rows();
        l_bytes += survivors.serialized_bytes();
        for (axis, hits) in fk_hits.iter_mut().enumerate() {
            let keys = survivors.column(star.fact_keys[axis])?;
            for row in 0..survivors.num_rows() {
                if dim_keys[axis].contains(&keys.key_at(row)?) {
                    *hits += 1;
                }
            }
        }
    }
    let l_total_rows = if l_sampled == 0 {
        0.0
    } else {
        (l_sampled as f64 / picked as f64) * n_blocks as f64
    };
    let sigma_l = ratio(l_passed, l_sampled);
    let fact_prime_rows = sigma_l * l_total_rows;
    let fact_prime_bytes = fact_prime_rows * avg(l_bytes, l_passed);

    Ok(StarEstimates {
        fact_prime_bytes: fact_prime_bytes as u64,
        fact_prime_rows: fact_prime_rows as u64,
        dims: (0..k)
            .map(|i| DimEstimates {
                dim_prime_bytes: dim_bytes[i],
                dim_prime_rows: dim_rows[i],
                pass_fraction: if l_passed == 0 {
                    1.0
                } else {
                    fk_hits[i] as f64 / l_passed as f64
                },
            })
            .collect(),
        num_jen_workers: sys.config.jen_workers,
    })
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn avg(bytes: usize, rows: usize) -> f64 {
    if rows == 0 {
        // conservative default width when nothing survived the sample
        16.0
    } else {
        bytes as f64 / rows as f64
    }
}

/// Estimate, let the advisor choose, and execute — the "just run my query"
/// entry point a downstream user wants. Returns the sampled statistics
/// alongside the choice and the run output, so callers can audit *why*
/// the advisor picked what it picked (and feed dashboards without
/// re-sampling). Execution goes through [`run_adaptive`]: on a system with
/// `replan_threshold` set, the same sampled estimates arm the mid-query
/// replan controller; with the threshold unset this is plain
/// [`crate::run`], byte for byte.
pub fn run_auto(
    sys: &mut HybridSystem,
    query: &HybridQuery,
) -> Result<(JoinAlgorithm, RunOutput, SampledStats)> {
    let stats = sample_stats(sys, query, 8)?;
    let est = stats.to_estimates(query, sys.config.jen_workers, sys.mem_budget_per_worker());
    let choice = advise(&est);
    let out = run_adaptive(sys, query, choice, &est)?;
    Ok((choice, out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    // The estimation tests that exercise generated workloads live in the
    // cross-crate integration suite (`tests/estimation.rs`); here we cover
    // the arithmetic edges.

    #[test]
    fn ratio_and_avg_guards() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 2), 0.5);
        assert_eq!(avg(0, 0), 16.0);
        assert_eq!(avg(64, 4), 16.0);
    }

    #[test]
    fn sampling_missing_table_errors() {
        let sys = HybridSystem::new(SystemConfig::paper_shape(1, 1)).unwrap();
        let query = crate::query::HybridQuery {
            db_table: "nope".into(),
            hdfs_table: "nope".into(),
            db_pred: hybrid_common::expr::Expr::col_le(0, 1),
            db_proj: vec![0],
            db_key: 0,
            hdfs_pred: hybrid_common::expr::Expr::col_le(0, 1),
            hdfs_proj: vec![0],
            hdfs_key: 0,
            post_predicate: None,
            group_expr: hybrid_common::expr::Expr::col(0),
            aggs: vec![hybrid_common::ops::AggSpec::Count],
            bloom: hybrid_bloom::BloomParams::new(64, 2).unwrap(),
        };
        assert!(sample_stats(&sys, &query, 4).is_err());
    }
}
