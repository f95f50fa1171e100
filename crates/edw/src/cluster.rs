//! The parallel database cluster: table loading, global Bloom filter
//! construction, and the distributed join + aggregation executor.

use crate::optimizer::{self, DbJoinChoice, DbJoinSpec};
use crate::worker::DbWorker;
use hybrid_bloom::{BloomFilter, BloomParams};
use hybrid_common::batch::Batch;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::expr::Expr;
use hybrid_common::hash::db_partition;
use hybrid_common::ids::DbWorkerId;
use hybrid_common::metrics::Metrics;
use hybrid_common::ops::{partition_by_key, HashAggregator, HashJoiner, JoinAggregator};

/// Intra-DB traffic uses the same metric names as `hybrid_net::LinkClass::
/// IntraDb` so the cost model sees one coherent `net.*` namespace, even
/// though in-database exchanges never leave this crate.
const INTRA_DB_BYTES: &str = "net.intra_db.bytes";
const INTRA_DB_TUPLES: &str = "net.intra_db.tuples";

/// The shared-nothing parallel database.
#[derive(Debug)]
pub struct DbCluster {
    workers: Vec<DbWorker>,
    metrics: Metrics,
}

impl DbCluster {
    /// Create a cluster of `num_workers` database agents (the paper runs 30,
    /// six per physical server).
    pub fn new(num_workers: usize, metrics: Metrics) -> Result<DbCluster> {
        if num_workers == 0 {
            return Err(HybridError::config("database needs at least one worker"));
        }
        Ok(DbCluster {
            workers: (0..num_workers)
                .map(|i| DbWorker::new(DbWorkerId(i), metrics.clone()))
                .collect(),
            metrics,
        })
    }

    /// A clone of this cluster that shares the loaded partitions and
    /// indexes (cheap `Arc` bumps per table) but meters every scan, Bloom
    /// build and intra-DB exchange into `metrics`. The query service hands
    /// one to each in-flight query so concurrent executions never
    /// interleave counters.
    pub fn session(&self, metrics: Metrics) -> DbCluster {
        DbCluster {
            workers: self
                .workers
                .iter()
                .map(|w| w.session(metrics.clone()))
                .collect(),
            metrics,
        }
    }

    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn worker(&self, i: usize) -> &DbWorker {
        &self.workers[i]
    }

    /// Load a table, hash-distributing rows on `dist_col` with the DB's
    /// internal partitioning hash (the paper distributes `T` on `uniqKey`).
    pub fn load_table(&mut self, name: &str, dist_col: usize, data: Batch) -> Result<()> {
        let parts = partition_by_key(&data, dist_col, self.workers.len(), db_partition)?;
        for (w, p) in self.workers.iter_mut().zip(parts) {
            w.store_partition(name, p);
        }
        Ok(())
    }

    /// Build a covering index on every worker's partition of `table`.
    pub fn create_index(&mut self, table: &str, base_cols: &[usize]) -> Result<()> {
        for w in &mut self.workers {
            w.add_index(table, base_cols)?;
        }
        Ok(())
    }

    /// Step 1 of every algorithm: apply local predicates + projection on
    /// each worker, yielding `T'` as one batch per worker.
    pub fn scan_filter_project(
        &self,
        table: &str,
        pred: &Expr,
        proj: &[usize],
    ) -> Result<Vec<Batch>> {
        self.workers
            .iter()
            .map(|w| w.scan_filter_project(table, pred, proj))
            .collect()
    }

    /// The full `cal_filter` → `combine_filter` pipeline (§4.1.1): each
    /// worker builds a local Bloom filter over its surviving join keys; all
    /// local filters travel to one worker (metered on the DB interconnect)
    /// and are OR-merged into the global `BF_DB`.
    pub fn build_global_bloom(
        &self,
        table: &str,
        pred: &Expr,
        key_col: usize,
        params: BloomParams,
    ) -> Result<BloomFilter> {
        let mut global = BloomFilter::new(params);
        for (i, w) in self.workers.iter().enumerate() {
            let local = w.build_local_bloom(table, pred, key_col, BloomFilter::new(params))?;
            if i != 0 {
                // local filters are sent to a single worker (worker 0)
                use hybrid_bloom::ApproxMembership;
                self.metrics.add(INTRA_DB_BYTES, local.wire_bytes() as u64);
            }
            global.merge(&local)?;
        }
        Ok(global)
    }

    /// The DB-side final join: join per-worker `left` (database data,
    /// usually `T'`) with per-worker `right` (the HDFS data landed on each
    /// worker), then apply the post-join predicate, group and aggregate.
    ///
    /// The physical plan (broadcast either side or repartition both) is
    /// chosen by [`optimizer::choose`]; all data movement between workers is
    /// metered as intra-DB traffic. Returns the final result (computed on
    /// worker 0) and the chosen plan.
    pub fn join_and_aggregate(
        &self,
        left: &[Batch],
        right: &[Batch],
        spec: &DbJoinSpec,
    ) -> Result<(Batch, DbJoinChoice)> {
        let n = self.workers.len();
        if left.len() != n || right.len() != n {
            return Err(HybridError::exec(format!(
                "join inputs have {} / {} partitions for {n} workers",
                left.len(),
                right.len()
            )));
        }
        let left_bytes: usize = left.iter().map(Batch::serialized_bytes).sum();
        let right_bytes: usize = right.iter().map(Batch::serialized_bytes).sum();
        let choice = optimizer::choose(left_bytes, right_bytes, n);

        let (local_left, local_right): (Vec<Batch>, Vec<Batch>) = match choice {
            DbJoinChoice::BroadcastLeft => {
                self.meter_broadcast(left);
                let all_left = concat_all(left)?;
                (vec![all_left; n], right.to_vec())
            }
            DbJoinChoice::BroadcastRight => {
                self.meter_broadcast(right);
                let all_right = concat_all(right)?;
                (left.to_vec(), vec![all_right; n])
            }
            DbJoinChoice::Repartition => {
                let l = self.repartition(left, spec.left_key)?;
                let r = self.repartition(right, spec.right_key)?;
                (l, r)
            }
        };

        // Per-worker: build on left, probe with right (joined layout =
        // left ++ right), residual predicate, partial aggregation.
        let mut partials: Vec<Batch> = Vec::with_capacity(n);
        for (left, right) in local_left.into_iter().zip(&local_right) {
            let mut joiner = HashJoiner::new(left.schema().clone(), spec.left_key);
            joiner.build(left)?;
            let mut sink =
                JoinAggregator::new(spec.post_predicate.as_ref(), &spec.group_expr, &spec.aggs);
            sink.probe(&joiner, right, spec.right_key)?;
            partials.push(sink.finish());
        }

        // Final aggregation on worker 0; other workers ship their partials.
        let mut final_agg = HashAggregator::new(spec.aggs.clone());
        for (w, partial) in partials.iter().enumerate() {
            if w != 0 {
                self.metrics
                    .add(INTRA_DB_BYTES, partial.serialized_bytes() as u64);
                self.metrics.add(INTRA_DB_TUPLES, partial.num_rows() as u64);
            }
            final_agg.merge_partial(partial)?;
        }
        Ok((final_agg.finish(), choice))
    }

    fn meter_broadcast(&self, side: &[Batch]) {
        let n = self.workers.len() as u64;
        for b in side {
            self.metrics
                .add(INTRA_DB_BYTES, b.serialized_bytes() as u64 * (n - 1));
            self.metrics
                .add(INTRA_DB_TUPLES, b.num_rows() as u64 * (n - 1));
        }
    }

    /// Hash-repartition per-worker batches on `key_col`, metering rows that
    /// change workers.
    fn repartition(&self, side: &[Batch], key_col: usize) -> Result<Vec<Batch>> {
        let n = self.workers.len();
        let mut received: Vec<Vec<Batch>> = vec![Vec::with_capacity(n); n];
        for (src, batch) in side.iter().enumerate() {
            let parts = partition_by_key(batch, key_col, n, db_partition)?;
            for (dst, part) in parts.into_iter().enumerate() {
                if dst != src && part.num_rows() > 0 {
                    self.metrics
                        .add(INTRA_DB_BYTES, part.serialized_bytes() as u64);
                    self.metrics.add(INTRA_DB_TUPLES, part.num_rows() as u64);
                }
                received[dst].push(part);
            }
        }
        side.iter()
            .zip(received)
            .map(|(b, parts)| Batch::concat(b.schema().clone(), &parts))
            .collect()
    }
}

fn concat_all(side: &[Batch]) -> Result<Batch> {
    let schema = side
        .first()
        .ok_or_else(|| HybridError::exec("cannot concat zero partitions"))?
        .schema()
        .clone();
    Batch::concat(schema, side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::ops::AggSpec;
    use hybrid_common::schema::Schema;

    fn t_schema() -> Schema {
        Schema::from_pairs(&[
            ("uniqKey", DataType::I64),
            ("joinKey", DataType::I32),
            ("corPred", DataType::I32),
        ])
    }

    fn t_data(rows: usize) -> Batch {
        Batch::new(
            t_schema(),
            vec![
                Column::I64((0..rows as i64).collect()),
                Column::I32((0..rows).map(|i| (i % 20) as i32).collect()),
                Column::I32((0..rows).map(|i| (i % 100) as i32).collect()),
            ],
        )
        .unwrap()
    }

    fn cluster(n: usize) -> DbCluster {
        let mut c = DbCluster::new(n, Metrics::new()).unwrap();
        c.load_table("T", 0, t_data(500)).unwrap();
        c
    }

    #[test]
    fn load_partitions_all_rows() {
        let c = cluster(4);
        let total: usize = (0..4)
            .map(|i| c.worker(i).partition("T").unwrap().num_rows())
            .sum();
        assert_eq!(total, 500);
        // distribution is on uniqKey: roughly even
        for i in 0..4 {
            let r = c.worker(i).partition("T").unwrap().num_rows();
            assert!(r > 60 && r < 190, "worker {i} has {r} rows");
        }
    }

    #[test]
    fn scan_filter_project_runs_per_worker() {
        let c = cluster(3);
        let pred = Expr::col_le(2, 49); // half of corPred values
        let parts = c.scan_filter_project("T", &pred, &[1]).unwrap();
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 250);
    }

    #[test]
    fn global_bloom_covers_all_surviving_keys_and_meters_merge() {
        let m = Metrics::new();
        let mut c = DbCluster::new(5, m.clone()).unwrap();
        c.load_table("T", 0, t_data(500)).unwrap();
        let pred = Expr::col_le(2, 19); // keys 0..20 survive via corPred=i%100
        let params = BloomParams::new(1 << 14, 2).unwrap();
        let bf = c.build_global_bloom("T", &pred, 1, params).unwrap();
        use hybrid_bloom::ApproxMembership;
        for k in 0..20i64 {
            assert!(bf.may_contain(k));
        }
        // 4 local filters shipped to worker 0
        assert_eq!(m.get("net.intra_db.bytes"), 4 * (8 + (1 << 14) / 8) as u64);
    }

    fn spec() -> DbJoinSpec {
        DbJoinSpec {
            left_key: 1,
            right_key: 0,
            post_predicate: None,
            // group by the right side's second column (offset: left has 3 cols)
            group_expr: Expr::col(4),
            aggs: vec![AggSpec::Count],
        }
    }

    fn right_side(c: &DbCluster, keys: &[i32]) -> Vec<Batch> {
        // distribute `keys` rows arbitrarily across workers (round-robin)
        let schema = Schema::from_pairs(&[("k", DataType::I32), ("g", DataType::I32)]);
        let n = c.num_workers();
        let mut per: Vec<(Vec<i32>, Vec<i32>)> = vec![(vec![], vec![]); n];
        for (i, &k) in keys.iter().enumerate() {
            per[i % n].0.push(k);
            per[i % n].1.push(k % 3);
        }
        per.into_iter()
            .map(|(k, g)| Batch::new(schema.clone(), vec![Column::I32(k), Column::I32(g)]).unwrap())
            .collect()
    }

    #[test]
    fn join_and_aggregate_matches_single_node_reference() {
        let c = cluster(4);
        let pred = Expr::col_le(2, 99); // everything
        let left = c.scan_filter_project("T", &pred, &[0, 1, 2]).unwrap();
        let right = right_side(&c, &[0, 1, 2, 3, 0, 0, 19, 19]);
        let (result, _) = c.join_and_aggregate(&left, &right, &spec()).unwrap();

        // reference: single-worker cluster computes the same query
        let mut c1 = DbCluster::new(1, Metrics::new()).unwrap();
        c1.load_table("T", 0, t_data(500)).unwrap();
        let left1 = c1.scan_filter_project("T", &pred, &[0, 1, 2]).unwrap();
        let right1 = right_side(&c1, &[0, 1, 2, 3, 0, 0, 19, 19]);
        let (expected, _) = c1.join_and_aggregate(&left1, &right1, &spec()).unwrap();

        assert_eq!(result, expected);
        assert!(result.num_rows() > 0);
    }

    #[test]
    fn small_right_side_gets_broadcast() {
        let c = cluster(4);
        let left = c
            .scan_filter_project("T", &Expr::col_le(2, 99), &[0, 1, 2])
            .unwrap();
        let right = right_side(&c, &[1, 2]);
        let (_, choice) = c.join_and_aggregate(&left, &right, &spec()).unwrap();
        assert_eq!(choice, DbJoinChoice::BroadcastRight);
    }

    #[test]
    fn comparable_sides_get_repartitioned_and_metered() {
        let m = Metrics::new();
        let mut c = DbCluster::new(4, m.clone()).unwrap();
        c.load_table("T", 0, t_data(500)).unwrap();
        let left = c
            .scan_filter_project("T", &Expr::col_le(2, 99), &[0, 1, 2])
            .unwrap();
        let keys: Vec<i32> = (0..400).map(|i| i % 20).collect();
        let right = right_side(&c, &keys);
        m.reset();
        let (_, choice) = c.join_and_aggregate(&left, &right, &spec()).unwrap();
        assert_eq!(choice, DbJoinChoice::Repartition);
        assert!(m.get("net.intra_db.tuples") > 0);
    }

    #[test]
    fn post_predicate_filters_joined_rows() {
        let c = cluster(2);
        let left = c
            .scan_filter_project("T", &Expr::col_le(2, 99), &[0, 1, 2])
            .unwrap();
        let right = right_side(&c, &[0, 1]);
        let mut s = spec();
        // impossible predicate: joined uniqKey (col 0) < 0
        s.post_predicate = Some(Expr::col(0).le(Expr::lit_i64(-1)));
        let (result, _) = c.join_and_aggregate(&left, &right, &s).unwrap();
        assert_eq!(result.num_rows(), 0);
    }

    #[test]
    fn partition_count_mismatch_errors() {
        let c = cluster(3);
        let left = c
            .scan_filter_project("T", &Expr::col_le(2, 99), &[0, 1, 2])
            .unwrap();
        let right = right_side(&c, &[1]);
        assert!(c.join_and_aggregate(&left[..2], &right, &spec()).is_err());
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(DbCluster::new(0, Metrics::new()).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::ops::AggSpec;
    use hybrid_common::schema::Schema;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The distributed join + aggregation is invariant to the worker
        /// count: any cluster size produces the single-worker answer.
        #[test]
        fn join_result_invariant_to_cluster_size(
            t_keys in proptest::collection::vec(0i32..12, 1..40),
            r_keys in proptest::collection::vec(0i32..12, 0..40),
            workers in 2usize..6,
        ) {
            let t_schema = Schema::from_pairs(&[
                ("uniqKey", DataType::I64),
                ("joinKey", DataType::I32),
            ]);
            let t_data = Batch::new(
                t_schema,
                vec![
                    Column::I64((0..t_keys.len() as i64).collect()),
                    Column::I32(t_keys.clone()),
                ],
            )
            .unwrap();
            let r_schema = Schema::from_pairs(&[("k", DataType::I32), ("g", DataType::I32)]);
            let make_right = |n: usize| -> Vec<Batch> {
                // deal rows round-robin over n workers
                let mut per: Vec<(Vec<i32>, Vec<i32>)> = vec![(vec![], vec![]); n];
                for (i, &k) in r_keys.iter().enumerate() {
                    per[i % n].0.push(k);
                    per[i % n].1.push(k % 3);
                }
                per.into_iter()
                    .map(|(k, g)| {
                        Batch::new(r_schema.clone(), vec![Column::I32(k), Column::I32(g)])
                            .unwrap()
                    })
                    .collect()
            };
            let spec = DbJoinSpec {
                left_key: 1,
                right_key: 0,
                post_predicate: None,
                group_expr: Expr::col(3),
                aggs: vec![AggSpec::Count],
            };

            let run_with = |n: usize| {
                let mut c = DbCluster::new(n, Metrics::new()).unwrap();
                c.load_table("T", 0, t_data.clone()).unwrap();
                let left = c
                    .scan_filter_project("T", &Expr::col_le(1, 100), &[0, 1])
                    .unwrap();
                let spec = DbJoinSpec { left_key: 1, ..spec.clone() };
                c.join_and_aggregate(&left, &make_right(n), &spec).unwrap().0
            };

            let reference = run_with(1);
            let distributed = run_with(workers);
            prop_assert_eq!(reference, distributed);
        }
    }
}
