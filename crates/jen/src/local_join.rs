//! The per-worker local join, with optional spilling.
//!
//! [`LocalJoiner`] is what a JEN worker uses for its repartition-based
//! local join: an in-memory hash join by default (the paper's JEN), or a
//! [`HybridHashJoiner`] when the engine is configured with a build-side
//! memory budget — a row limit, a byte budget from the system's
//! [`BufferPool`](hybrid_common::mempool::BufferPool), or both — the
//! paper's stated future work, reachable through `HybridSystem`
//! configuration.

use crate::spill::HybridHashJoiner;
use hybrid_common::batch::{Batch, BatchBuilder};
use hybrid_common::error::Result;
use hybrid_common::mempool::WorkerBudget;
use hybrid_common::metrics::Metrics;
use hybrid_common::ops::HashJoiner;
use hybrid_common::schema::Schema;

/// How many spill partitions the hybrid join fans out to (per depth).
const SPILL_PARTITIONS: usize = 8;

/// A local join that is in-memory when it fits and hybrid-hash otherwise.
/// The hybrid variant is boxed: it carries spill bookkeeping that would
/// otherwise bloat every in-memory joiner.
pub enum LocalJoiner {
    InMemory(HashJoiner),
    Hybrid(Box<HybridHashJoiner>),
}

impl LocalJoiner {
    /// `memory_limit_rows = None` plus an uncapped (or absent) `budget`
    /// reproduces the paper's all-in-memory JEN; a row limit and/or a
    /// byte-capped [`WorkerBudget`] enables the hybrid hash join with
    /// dynamic partition eviction past the configured residency.
    pub fn new(
        build_schema: Schema,
        build_key: usize,
        memory_limit_rows: Option<usize>,
        budget: Option<WorkerBudget>,
        metrics: Metrics,
    ) -> Result<LocalJoiner> {
        let byte_capped = budget.as_ref().is_some_and(|b| b.cap_bytes().is_some());
        Ok(if memory_limit_rows.is_none() && !byte_capped {
            LocalJoiner::InMemory(HashJoiner::new(build_schema, build_key))
        } else {
            LocalJoiner::Hybrid(Box::new(HybridHashJoiner::new(
                build_schema,
                build_key,
                memory_limit_rows,
                budget.filter(|b| b.cap_bytes().is_some()),
                SPILL_PARTITIONS,
                metrics,
            )?))
        })
    }

    /// Add a build-side batch (shuffled HDFS data).
    pub fn build(&mut self, batch: Batch) -> Result<()> {
        match self {
            LocalJoiner::InMemory(j) => j.build(batch),
            LocalJoiner::Hybrid(g) => g.add_build(batch),
        }
    }

    /// Probe with every batch, handing `sink` each in-memory joiner with
    /// each probe batch and the probe key — the [`JoinAggregator`] path,
    /// which folds matches without materialising the join.
    ///
    /// [`JoinAggregator`]: hybrid_common::ops::JoinAggregator
    pub fn probe_into(
        self,
        probes: Vec<Batch>,
        probe_key: usize,
        mut sink: impl FnMut(&HashJoiner, &Batch, usize) -> Result<()>,
    ) -> Result<()> {
        match self {
            LocalJoiner::InMemory(j) => probes.iter().try_for_each(|p| sink(&j, p, probe_key)),
            LocalJoiner::Hybrid(mut g) => {
                for p in probes {
                    g.add_probe(p, probe_key)?;
                }
                g.finish_into(sink)
            }
        }
    }

    /// Probe with every batch and return the join output (`build_row ++
    /// probe_row`) as one batch, each output column gathered once across
    /// all probe batches.
    pub fn probe_all(
        self,
        probe_schema: &Schema,
        probes: Vec<Batch>,
        probe_key: usize,
    ) -> Result<Batch> {
        let build_schema = match &self {
            LocalJoiner::InMemory(j) => {
                return HashJoiner::probe_star(&[j], probe_schema, &probes, &[probe_key]);
            }
            LocalJoiner::Hybrid(g) => g.build_schema(),
        };
        // a spilled join's partitions come and go: append each one's matches
        let mut out = BatchBuilder::new(build_schema.join(probe_schema));
        self.probe_into(probes, probe_key, |joiner, probe, key| {
            joiner.probe_append(probe, key, &mut out)
        })?;
        Ok(out.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::expr::Expr;
    use hybrid_common::ops::{AggSpec, JoinAggregator};

    fn build_schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::I32)])
    }

    fn probe_schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::I32), ("v", DataType::I64)])
    }

    fn batch_build(keys: &[i32]) -> Batch {
        Batch::new(build_schema(), vec![Column::I32(keys.to_vec())]).unwrap()
    }

    fn batch_probe(keys: &[i32]) -> Batch {
        Batch::new(
            probe_schema(),
            vec![
                Column::I32(keys.to_vec()),
                Column::I64(keys.iter().map(|&k| i64::from(k) * 10).collect()),
            ],
        )
        .unwrap()
    }

    fn sorted_rows(b: &Batch) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = (0..b.num_rows())
            .map(|r| b.row(r).iter().map(|d| d.to_string()).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn in_memory_and_hybrid_agree() {
        let build: Vec<Batch> = (0..4).map(|i| batch_build(&[i, i + 10, i])).collect();
        let probes: Vec<Batch> = (0..3).map(|i| batch_probe(&[i, 11, 99])).collect();
        let joiner = |limit: Option<usize>, m: Metrics| {
            let mut j = LocalJoiner::new(build_schema(), 0, limit, None, m).unwrap();
            for b in build.clone() {
                j.build(b).unwrap();
            }
            j
        };

        let mem_out = joiner(None, Metrics::new())
            .probe_all(&probe_schema(), probes.clone(), 0)
            .unwrap();
        let m = Metrics::new();
        let hybrid_out = joiner(Some(2), m.clone())
            .probe_all(&probe_schema(), probes.clone(), 0)
            .unwrap();
        assert_eq!(sorted_rows(&mem_out), sorted_rows(&hybrid_out));
        assert!(m.get("jen.spill.activations") > 0, "limit of 2 must spill");

        // the same through the join-aggregate sink: group by the probe
        // key, keep rows with v > 0, count and sum v
        let pred = Expr::col(2).ge(Expr::lit_i64(1));
        let aggs = [AggSpec::Count, AggSpec::SumI64(2)];
        let folded = |limit: Option<usize>, m: Metrics| {
            let mut sink = JoinAggregator::new(Some(&pred), &Expr::col(1), &aggs);
            joiner(limit, m)
                .probe_into(probes.clone(), 0, |j, p, key| sink.probe(j, p, key))
                .unwrap();
            (sink.survivors(), sink.finish())
        };
        let m = Metrics::new();
        let (mem_rows, mem_agg) = folded(None, Metrics::new());
        let (hybrid_rows, hybrid_agg) = folded(Some(2), m.clone());
        assert!(m.get("jen.spill.activations") > 0, "limit of 2 must spill");
        assert_eq!(hybrid_agg, mem_agg);
        assert_eq!(hybrid_rows, mem_rows);
        let mut expected = JoinAggregator::new(Some(&pred), &Expr::col(1), &aggs);
        expected.consume(&mem_out).unwrap();
        assert_eq!(mem_rows, expected.survivors());
        assert!(mem_rows > 0);
        assert_eq!(mem_agg, expected.finish());
    }

    #[test]
    fn uncapped_budget_stays_in_memory() {
        use hybrid_common::mempool::BufferPool;
        let pool = BufferPool::new(None, Metrics::new());
        let q = pool.reserve_remaining("q").unwrap();
        let j = LocalJoiner::new(
            build_schema(),
            0,
            None,
            Some(q.worker_share(4)),
            Metrics::new(),
        )
        .unwrap();
        assert!(matches!(j, LocalJoiner::InMemory(_)));
    }

    #[test]
    fn empty_probes_yield_empty_output_with_joined_schema() {
        let mut j = LocalJoiner::new(build_schema(), 0, None, None, Metrics::new()).unwrap();
        j.build(batch_build(&[1])).unwrap();
        let out = j.probe_all(&probe_schema(), vec![], 0).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema().len(), 3);
    }
}
