//! A generated workload: tables + the paper's query, ready to run.

use crate::spec::WorkloadSpec;
use crate::tables::{self, dim_cols, l_cols, t_cols, thresholds, Thresholds};
use hybrid_bloom::BloomParams;
use hybrid_common::batch::Batch;
use hybrid_common::error::Result;
use hybrid_common::expr::Expr;
use hybrid_common::ops::AggSpec;
use hybrid_core::advisor::{DimEstimates, QueryEstimates, StarEstimates};
use hybrid_core::estimation::max_over_mean;
use hybrid_core::multiway::{DimQuery, StarQuery};
use hybrid_core::{HybridQuery, HybridSystem};
use hybrid_storage::FileFormat;
use std::collections::HashSet;

/// The generated tables, thresholds, and query for one experiment config.
///
/// End-to-end:
///
/// ```
/// use hybrid_core::{run, HybridSystem, JoinAlgorithm, SystemConfig};
/// use hybrid_datagen::WorkloadSpec;
/// use hybrid_storage::FileFormat;
///
/// let workload = WorkloadSpec::tiny().generate().unwrap();
/// let mut system = HybridSystem::new(SystemConfig::paper_shape(2, 3)).unwrap();
/// workload.load_into(&mut system, FileFormat::Columnar).unwrap();
/// let out = run(&mut system, &workload.query(), JoinAlgorithm::Zigzag).unwrap();
/// assert!(out.result.num_rows() > 0);
/// assert!(out.summary.hdfs_tuples_shuffled > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    pub spec: WorkloadSpec,
    pub t: Batch,
    pub l: Batch,
    /// Star-schema dimension tables (empty for two-table specs).
    pub dims: Vec<Batch>,
    pub thresholds: Thresholds,
    bloom: BloomParams,
}

impl WorkloadSpec {
    /// Generate the tables and derive the query thresholds.
    pub fn generate(&self) -> Result<Workload> {
        let plan = self.key_plan()?;
        let dims = (0..self.dimensions.len())
            .map(|i| tables::generate_dim(self, i))
            .collect::<Result<Vec<_>>>()?;
        Ok(Workload {
            spec: self.clone(),
            t: tables::generate_t(self, &plan)?,
            l: tables::generate_l(self, &plan)?,
            dims,
            thresholds: thresholds(&plan),
            // the paper's ratio: 8 bits/key, 2 hashes (~5% FPR), sized for
            // the key universe
            bloom: BloomParams::paper_default(plan.universe()),
        })
    }
}

impl Workload {
    /// The paper's experiment query (§5):
    ///
    /// ```sql
    /// select extract_group(L.groupByExtractCol), count(*)
    /// from T, L
    /// where T.corPred <= a and T.indPred <= b
    ///   and L.corPred <= c and L.indPred <= d
    ///   and T.joinKey = L.joinKey
    ///   and days(T.predAfterJoin) - days(L.predAfterJoin) between 0 and 1
    /// group by extract_group(L.groupByExtractCol)
    /// ```
    pub fn query(&self) -> HybridQuery {
        let th = self.thresholds;
        // canonical joined layout: (T.joinKey, T.date) ++ (L.joinKey, L.date, L.grp)
        let date_diff = Expr::col(1).sub(Expr::col(3));
        HybridQuery {
            db_table: "T".into(),
            hdfs_table: "L".into(),
            db_pred: Expr::col_le(t_cols::COR_PRED, th.t_cor)
                .and(Expr::col_le(t_cols::IND_PRED, th.t_ind)),
            db_proj: vec![t_cols::JOIN_KEY, t_cols::DATE],
            db_key: 0,
            hdfs_pred: Expr::col_le(l_cols::COR_PRED, th.l_cor)
                .and(Expr::col_le(l_cols::IND_PRED, th.l_ind)),
            hdfs_proj: vec![l_cols::JOIN_KEY, l_cols::DATE, l_cols::GROUP],
            hdfs_key: 0,
            post_predicate: Some(
                date_diff
                    .clone()
                    .ge(Expr::lit_i64(0))
                    .and(date_diff.le(Expr::lit_i64(1))),
            ),
            group_expr: Expr::ExtractGroup(Box::new(Expr::col(4))),
            aggs: vec![AggSpec::Count],
            bloom: self.bloom,
        }
    }

    /// The star-schema query over the fact table `L` and the DB
    /// dimensions `D0..Dk`:
    ///
    /// ```sql
    /// select extract_group(L.groupByExtractCol), count(*), sum(D0.dimAttr)
    /// from L, D0, ..
    /// where L.corPred <= c and L.indPred <= d
    ///   and D<i>.dimPred <= p<i> and L.fk<i> = D<i>.dimKey  (for each i)
    ///   and D0.dimAttr - Dk.dimAttr between -950 and 950
    /// group by extract_group(L.groupByExtractCol)
    /// ```
    ///
    /// All expressions are phrased over the canonical joined layout
    /// `fact' ++ dim_0' ++ … ++ dim_{k-1}'`.
    pub fn star_query(&self) -> StarQuery {
        let th = self.thresholds;
        let k = self.spec.dimensions.len();
        let fact_proj: Vec<usize> = (0..k).map(l_cols::fk).chain([l_cols::GROUP]).collect();
        let dims = self
            .spec
            .dimensions
            .iter()
            .enumerate()
            .map(|(i, d)| DimQuery {
                table: format!("D{i}"),
                pred: Expr::col_le(dim_cols::PRED, tables::dim_pred_threshold(d)),
                proj: vec![dim_cols::KEY, dim_cols::ATTR],
                key: 0,
            })
            .collect();
        // dim i's attr sits at canonical column (k+1) + 2i + 1
        let attr = |i: usize| (k + 1) + 2 * i + 1;
        let diff = Expr::col(attr(0)).sub(Expr::col(attr(k.saturating_sub(1))));
        StarQuery {
            fact_table: "L".into(),
            fact_pred: Expr::col_le(l_cols::COR_PRED, th.l_cor)
                .and(Expr::col_le(l_cols::IND_PRED, th.l_ind)),
            fact_proj,
            fact_keys: (0..k).collect(),
            dims,
            post_predicate: Some(
                diff.clone()
                    .ge(Expr::lit_i64(-950))
                    .and(diff.le(Expr::lit_i64(950))),
            ),
            group_expr: Expr::ExtractGroup(Box::new(Expr::col(k))),
            aggs: vec![AggSpec::Count, AggSpec::SumI64(attr(0))],
        }
    }

    /// Load `T` into the database (distributed on `uniqKey`, with the
    /// paper's two covering indexes), every dimension into the database
    /// (distributed on `dimKey`), and `L` onto HDFS in `format`.
    pub fn load_into(&self, sys: &mut HybridSystem, format: FileFormat) -> Result<()> {
        sys.load_db_table("T", t_cols::UNIQ_KEY, self.t.clone())?;
        // the paper's indexes: (corPred, indPred) and (corPred, indPred, joinKey)
        sys.create_db_index("T", &[t_cols::COR_PRED, t_cols::IND_PRED])?;
        sys.create_db_index("T", &[t_cols::COR_PRED, t_cols::IND_PRED, t_cols::JOIN_KEY])?;
        for (i, dim) in self.dims.iter().enumerate() {
            sys.load_db_table(&format!("D{i}"), dim_cols::KEY, dim.clone())?;
        }
        sys.load_hdfs_table("L", format, self.l.schema().clone(), &self.l)
    }

    /// Advisor inputs derived from the generator's ground truth: exact
    /// `T'`/`L'` rows and wire bytes, the spec's join-key selectivities,
    /// and the shuffle skew, for a query on `sys`, where this workload is
    /// loaded — the bytes the `L` scan reads are those of the stored file.
    /// Ground truth carries no memory budget: callers running under a
    /// governor set the field from their system's pool.
    pub fn estimates(&self, sys: &HybridSystem) -> Result<QueryEstimates> {
        let q = self.query();
        let n = sys.config.jen_workers;
        let t_prime = self
            .t
            .project(&q.db_proj)?
            .filter(&q.db_pred.eval_predicate(&self.t)?)?;
        let l_mask = q.hdfs_pred.eval_predicate(&self.l)?;
        let l_prime = self.l.project(&q.hdfs_proj)?.filter(&l_mask)?;
        let t_keys = t_prime.column(q.db_key)?;
        let joined = (0..t_prime.num_rows())
            .map(|row| t_keys.key_at(row))
            .collect::<Result<HashSet<i64>>>()?;
        Ok(QueryEstimates {
            t_prime_bytes: t_prime.serialized_bytes() as u64,
            l_prime_bytes: l_prime.serialized_bytes() as u64,
            t_prime_rows: t_prime.num_rows() as u64,
            l_prime_rows: l_prime.num_rows() as u64,
            l_rows: self.l.num_rows() as u64,
            l_bytes_read: sys.hdfs_bytes_read("L", &q.hdfs_scan(true).read_cols())?,
            db_prep_bytes: sys.db_access_bytes("T", &q.db_pred, &q.db_proj)?,
            st: self.spec.st,
            sl: self.spec.sl,
            num_jen_workers: n,
            bloom_bytes: self.bloom.wire_bytes() as u64,
            shuffle_skew: self.routed_skew(&l_mask, n, |_| true),
            // what the shuffle of a BF_DB-filtered L' routes
            joined_shuffle_skew: self.routed_skew(&l_mask, n, |key| joined.contains(&key)),
            mem_budget_per_worker: None,
            batch_rows: sys.config.batch_rows as u64,
        })
    }

    /// Multiway advisor inputs derived from the generator's ground truth.
    pub fn star_estimates(&self, num_jen_workers: usize) -> StarEstimates {
        let k = self.spec.dimensions.len();
        // k FK i32s + the ~40-byte group string survive fact projection
        let fact_row = 40 + 4 * k as u64;
        StarEstimates {
            fact_prime_bytes: (self.spec.l_rows as f64 * self.spec.sigma_l) as u64 * fact_row,
            fact_prime_rows: (self.spec.l_rows as f64 * self.spec.sigma_l) as u64,
            dims: self
                .spec
                .dimensions
                .iter()
                .map(|d| DimEstimates {
                    // i32 key + i64 attr per selected dimension row
                    dim_prime_bytes: d.selected_keys() as u64 * 12,
                    dim_prime_rows: d.selected_keys() as u64,
                    pass_fraction: d.pass_fraction(),
                })
                .collect(),
            num_jen_workers,
        }
    }

    /// Ground-truth shuffle imbalance: route every `L'` row (rows passing
    /// L's local predicates) with the agreed hash over `num_jen_workers`
    /// partitions and report max-worker load over mean load. 1.0 = perfectly
    /// balanced; a single-key table yields `num_jen_workers`.
    pub fn shuffle_skew(&self, num_jen_workers: usize) -> f64 {
        let mask = self
            .query()
            .hdfs_pred
            .eval_predicate(&self.l)
            .expect("generated predicate evaluates over generated L");
        self.routed_skew(&mask, num_jen_workers, |_| true)
    }

    /// Max-over-mean load of the rows of `L` that `l_mask` passes and
    /// whose key `keep` accepts.
    fn routed_skew(
        &self,
        l_mask: &[bool],
        num_jen_workers: usize,
        keep: impl Fn(i64) -> bool,
    ) -> f64 {
        use hybrid_common::hash::agreed_shuffle_partition;
        let n = num_jen_workers.max(1);
        let keys = self
            .l
            .column(l_cols::JOIN_KEY)
            .expect("L has a join-key column")
            .as_i32()
            .expect("joinKey is i32");
        let mut loads = vec![0u64; n];
        for (&key, pass) in keys.iter().zip(l_mask) {
            let key = i64::from(key);
            if *pass && keep(key) {
                loads[agreed_shuffle_partition(key, n)] += 1;
            }
        }
        max_over_mean(&loads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_core::reference::run_reference;
    use hybrid_core::{run, JoinAlgorithm, SystemConfig};

    #[test]
    fn generated_query_validates() {
        let w = WorkloadSpec::tiny().generate().unwrap();
        w.query().validate().unwrap();
        assert_eq!(w.t.num_rows(), 2_000);
        assert_eq!(w.l.num_rows(), 12_000);
    }

    #[test]
    fn query_has_nonempty_result() {
        let w = WorkloadSpec::tiny().generate().unwrap();
        let out = run_reference(&w.t, &w.l, &w.query()).unwrap();
        assert!(out.num_rows() > 0, "workload query produced nothing");
        // groups are extract_group outputs in range
        let groups = out.column(0).unwrap().as_i64().unwrap();
        assert!(groups.iter().all(|&g| (0..8).contains(&g)));
    }

    #[test]
    fn end_to_end_zigzag_matches_reference() {
        let w = WorkloadSpec::tiny().generate().unwrap();
        let mut cfg = SystemConfig::paper_shape(2, 3);
        cfg.rows_per_block = 1000;
        let mut sys = HybridSystem::new(cfg).unwrap();
        w.load_into(&mut sys, FileFormat::Columnar).unwrap();
        let expected = run_reference(&w.t, &w.l, &w.query()).unwrap();
        let out = run(&mut sys, &w.query(), JoinAlgorithm::Zigzag).unwrap();
        assert_eq!(out.result, expected);
    }

    #[test]
    fn star_query_validates_and_ground_truth_is_seed_stable() {
        use hybrid_core::{batch_checksum, run_star_reference};
        let w = WorkloadSpec::tiny_star(3).generate().unwrap();
        w.star_query().validate().unwrap();
        let a = run_star_reference(&w.l, &w.dims, &w.star_query()).unwrap();
        assert!(a.num_rows() > 0, "star workload query produced nothing");
        // regeneration from the same spec must reproduce the exact ground
        // truth — count, bytes, and checksum
        let w2 = WorkloadSpec::tiny_star(3).generate().unwrap();
        let b = run_star_reference(&w2.l, &w2.dims, &w2.star_query()).unwrap();
        assert_eq!(a, b, "ground truth must be seed-deterministic");
        assert_eq!(batch_checksum(&a), batch_checksum(&b));
    }

    #[test]
    fn star_ground_truth_count_matches_the_analytic_expectation() {
        use hybrid_core::run_star_reference;
        // strip the post-join predicate and aggregate a bare count, so the
        // reference count is exactly the join cardinality the spec's
        // analytic model predicts
        let w = WorkloadSpec::tiny_star(2).generate().unwrap();
        let mut star = w.star_query();
        star.post_predicate = None;
        star.aggs = vec![AggSpec::Count];
        let out = run_star_reference(&w.l, &w.dims, &star).unwrap();
        let counts = out.column(1).unwrap().as_i64().unwrap();
        let joined: i64 = counts.iter().sum();
        let expect = w.spec.expected_star_rows();
        assert!(
            (joined as f64 - expect).abs() / expect < 0.05,
            "ground truth {joined} vs analytic {expect}"
        );
    }

    #[test]
    fn shuffle_skew_reflects_key_distribution() {
        use crate::spec::KeySkew;
        let uniform = WorkloadSpec::tiny().generate().unwrap();
        let flat = uniform.shuffle_skew(4);
        assert!(flat < 2.0, "uniform keys should roughly balance: {flat}");
        let single = WorkloadSpec {
            skew: KeySkew::SingleKey,
            ..WorkloadSpec::tiny()
        }
        .generate()
        .unwrap();
        let worst = single.shuffle_skew(4);
        assert!(
            (worst - 4.0).abs() < 1e-9,
            "one key on 4 workers is 4.0: {worst}"
        );
        assert!(estimates(&single).shuffle_skew > 3.9);
    }

    /// Ground-truth estimates of `w` loaded on a 2 + 4 system.
    fn estimates(w: &Workload) -> QueryEstimates {
        let mut sys = HybridSystem::new(SystemConfig::paper_shape(2, 4)).unwrap();
        w.load_into(&mut sys, FileFormat::Columnar).unwrap();
        w.estimates(&sys).unwrap()
    }

    #[test]
    fn estimates_scale_with_selectivities() {
        let mut spec = WorkloadSpec::tiny();
        spec.sigma_l = 0.1;
        let w = spec.generate().unwrap();
        let low = estimates(&w);
        spec.sigma_l = 0.4;
        let high = estimates(&spec.generate().unwrap());
        assert!(high.l_prime_bytes > low.l_prime_bytes * 3);
        assert_eq!(low.num_jen_workers, 4);
        // the ground truth is exact: what the query's scans produce
        let q = w.query();
        let l_prime =
            w.l.filter(&q.hdfs_pred.eval_predicate(&w.l).unwrap())
                .unwrap();
        assert_eq!(low.l_prime_rows, l_prime.num_rows() as u64);
        let l_prime = l_prime.project(&q.hdfs_proj).unwrap();
        assert_eq!(low.l_prime_bytes, l_prime.serialized_bytes() as u64);
        assert_eq!(low.l_rows, w.l.num_rows() as u64);
        assert!(low.l_bytes_read > 0 && low.t_prime_rows > 0);
    }
}
