//! The join-aggregate sink: the post-join tail of every partial aggregate.
//!
//! In each HDFS-side strategy of the paper a JEN worker probes its hash
//! table, applies the residual `predAfterJoin`, and aggregates partially, so
//! only a small partial result leaves the worker (§3.2–§3.4). The sink does
//! that without materialising the join: it takes the probe's matching row
//! pairs and works in three stages.
//!
//! 1. Gather only the columns the post-join predicate reads, and evaluate it.
//! 2. Compact the pairs to the rows that survive.
//! 3. Gather only the group and aggregate columns for the survivors, and
//!    fold them into a [`HashAggregator`].
//!
//! A star join probes all its dimension tables at once
//! ([`JoinAggregator::probe_star`]): the matches are tuples of one fact row
//! and one build row per dimension, and the binary probe is the case of
//! one table. A batch that is already joined (a spilled star join's last
//! intermediate) runs through the same three stages, so predicate → group
//! → aggregate exists once.

use crate::batch::{Batch, SelectionVector};
use crate::error::Result;
use crate::expr::Expr;
use crate::ops::hash_join::{gather, probe_pairs, HashJoiner, JoinPairs};
use crate::ops::{AggSpec, HashAggregator};

/// Folds joined rows — probe matches or a materialised batch — into one
/// worker's partial aggregate. Expressions address the joined layout
/// `build ++ probe`.
///
/// ```
/// use hybrid_common::batch::{Batch, Column};
/// use hybrid_common::datum::DataType;
/// use hybrid_common::expr::Expr;
/// use hybrid_common::ops::{AggSpec, HashJoiner, JoinAggregator};
/// use hybrid_common::schema::Schema;
///
/// let schema = Schema::from_pairs(&[("k", DataType::I32), ("v", DataType::I64)]);
/// let mut joiner = HashJoiner::new(schema.clone(), 0);
/// let build = vec![Column::I32(vec![1, 2]), Column::I64(vec![10, 20])];
/// joiner.build(Batch::new(schema.clone(), build).unwrap()).unwrap();
/// let probe = vec![Column::I32(vec![2, 2, 1]), Column::I64(vec![5, 6, 7])];
/// let probe = Batch::new(schema, probe).unwrap();
/// // group by the probe's `v`, keep rows whose build `v` is 20, sum build `v`
/// let mut sink = JoinAggregator::new(
///     Some(&Expr::col(1).eq(Expr::lit_i64(20))),
///     &Expr::col(3),
///     &[AggSpec::SumI64(1)],
/// );
/// sink.probe(&joiner, &probe, 0).unwrap();
/// assert_eq!(sink.survivors(), 2);
/// let out = sink.finish();
/// assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &[5, 6]);
/// assert_eq!(out.column(1).unwrap().as_i64().unwrap(), &[20, 20]);
/// ```
#[derive(Debug)]
pub struct JoinAggregator {
    /// Joined columns the post-join predicate reads, ascending.
    pred_cols: Vec<usize>,
    /// The predicate, rewritten onto the gather of `pred_cols`.
    predicate: Option<Expr>,
    /// Joined columns the group expression and aggregates read, ascending.
    tail_cols: Vec<usize>,
    /// The group expression, rewritten onto the gather of `tail_cols`.
    group_expr: Expr,
    /// Aggregates over the gather of `tail_cols`.
    agg: HashAggregator,
    survivors: u64,
}

impl JoinAggregator {
    pub fn new(post_predicate: Option<&Expr>, group_expr: &Expr, aggs: &[AggSpec]) -> Self {
        let pred_cols: Vec<usize> = post_predicate
            .map(|p| p.referenced_columns().into_iter().collect())
            .unwrap_or_default();
        let mut tail = group_expr.referenced_columns();
        tail.extend(aggs.iter().filter_map(|a| a.column()));
        let tail_cols: Vec<usize> = tail.into_iter().collect();
        JoinAggregator {
            predicate: post_predicate.map(|p| narrow(p, &pred_cols)),
            group_expr: narrow(group_expr, &tail_cols),
            agg: HashAggregator::new(
                aggs.iter()
                    .map(|a| a.map_column(|c| position(&tail_cols, c)))
                    .collect(),
            ),
            pred_cols,
            tail_cols,
            survivors: 0,
        }
    }

    /// Probe `joiner` with one batch and fold its matches.
    pub fn probe(&mut self, joiner: &HashJoiner, probe: &Batch, probe_key: usize) -> Result<()> {
        self.probe_star(&[joiner], probe, &[probe_key])
    }

    /// Probe every table of `joiners` with one batch — table `axis` by
    /// probe column `probe_keys[axis]` — and fold the joined tuples.
    /// Expressions address the layout `build_{k-1} ++ … ++ build_0 ++
    /// probe`, which a chain of binary joins would have materialised.
    pub fn probe_star(
        &mut self,
        joiners: &[&HashJoiner],
        probe: &Batch,
        probe_keys: &[usize],
    ) -> Result<()> {
        let pairs = probe_pairs(joiners, probe, probe_keys)?;
        self.fold(&mut Matches {
            joiners,
            probe,
            pairs,
        })
    }

    /// Fold a batch that is already in the joined layout.
    pub fn consume(&mut self, joined: &Batch) -> Result<()> {
        self.fold(&mut Joined {
            batch: joined,
            sel: None,
        })
    }

    /// Rows folded so far: the joined rows that passed the predicate.
    pub fn survivors(&self) -> u64 {
        self.survivors
    }

    /// The partial aggregate, as [`HashAggregator::finish`] emits it.
    pub fn finish(self) -> Batch {
        self.agg.finish()
    }

    fn fold(&mut self, rows: &mut impl JoinedRows) -> Result<()> {
        if let Some(p) = &self.predicate {
            let mask = p.eval_predicate(&rows.gather(&self.pred_cols)?)?;
            rows.retain(&mask);
        }
        let tail = rows.gather(&self.tail_cols)?;
        let groups = self.group_expr.eval_i64(&tail)?;
        self.agg.update(&groups, &tail)?;
        self.survivors += tail.num_rows() as u64;
        Ok(())
    }
}

/// Where joined column `c` lands in the gather of `cols`.
fn position(cols: &[usize], c: usize) -> usize {
    cols.binary_search(&c)
        .expect("every referenced column is gathered")
}

/// `expr` with each column rewritten to its position in `cols`.
fn narrow(expr: &Expr, cols: &[usize]) -> Expr {
    expr.remap_columns(&|c| Some(position(cols, c)))
        .expect("the mapping is total")
}

/// Joined rows the sink reads a few columns at a time.
trait JoinedRows {
    /// The listed joined columns for every current row; one row per joined
    /// row even when `cols` is empty.
    fn gather(&self, cols: &[usize]) -> Result<Batch>;
    /// Keep the rows whose `mask` entry is true.
    fn retain(&mut self, mask: &[bool]);
}

/// One probe batch's matches, joined lazily.
struct Matches<'a> {
    joiners: &'a [&'a HashJoiner],
    probe: &'a Batch,
    pairs: JoinPairs,
}

impl JoinedRows for Matches<'_> {
    fn gather(&self, cols: &[usize]) -> Result<Batch> {
        gather(self.joiners, self.probe, &self.pairs, cols)
    }

    fn retain(&mut self, mask: &[bool]) {
        self.pairs.retain(mask);
    }
}

/// A materialised joined batch and the rows of it still selected.
struct Joined<'a> {
    batch: &'a Batch,
    sel: Option<SelectionVector>,
}

impl JoinedRows for Joined<'_> {
    fn gather(&self, cols: &[usize]) -> Result<Batch> {
        let narrow = self.batch.project(cols)?;
        Ok(match &self.sel {
            Some(sel) => narrow.take_sel(sel),
            None => narrow,
        })
    }

    fn retain(&mut self, mask: &[bool]) {
        debug_assert!(self.sel.is_none(), "one predicate per fold");
        self.sel = Some(SelectionVector::from_mask(mask));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Column;
    use crate::datum::{DataType, Datum};
    use crate::schema::Schema;

    fn keys(k: &[i32]) -> Batch {
        Batch::new(
            Schema::from_pairs(&[("k", DataType::I32)]),
            vec![Column::I32(k.to_vec())],
        )
        .unwrap()
    }

    fn joiner(k: &[i32]) -> HashJoiner {
        let mut j = HashJoiner::new(keys(&[]).schema().clone(), 0);
        j.build(keys(k)).unwrap();
        j
    }

    /// `count(*)` under a literal group reads no column at all: the narrow
    /// gather is column-free and must still carry one row per pair.
    #[test]
    fn column_free_tail_counts_every_pair() {
        let group = Expr::ExtractGroup(Box::new(Expr::Lit(Datum::Utf8("g7".into()))));
        let mut sink = JoinAggregator::new(None, &group, &[AggSpec::Count]);
        sink.probe(&joiner(&[1, 1]), &keys(&[1, 2, 1, 1]), 0)
            .unwrap();
        assert_eq!(sink.survivors(), 6);
        let out = sink.finish();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(1).unwrap().as_i64().unwrap(), &[6]);
    }

    #[test]
    fn literal_predicate_keeps_all_or_nothing() {
        for (bound, want) in [(2, 3u64), (0, 0)] {
            let pred = Expr::lit_i64(1).le(Expr::lit_i64(bound));
            let mut sink = JoinAggregator::new(Some(&pred), &Expr::col(1), &[AggSpec::Count]);
            sink.probe(&joiner(&[4, 5]), &keys(&[4, 5, 4]), 0).unwrap();
            assert_eq!(sink.survivors(), want);
            let joined = joiner(&[4, 5]).probe(&keys(&[4, 5, 4]), 0).unwrap();
            let mut consumed = JoinAggregator::new(Some(&pred), &Expr::col(1), &[AggSpec::Count]);
            consumed.consume(&joined).unwrap();
            assert_eq!(consumed.finish(), sink.finish());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::batch::Column;
    use crate::datum::{DataType, Datum};
    use crate::schema::Schema;
    use proptest::prelude::*;

    /// `(key, value, tag)`: the tag becomes a `Utf8` group source on the
    /// build side (some values not `url_`-shaped) and a date on the probe.
    type Row = (i32, i64, u8);

    fn build_batch(rows: &[Row]) -> Batch {
        let tag = |t: u8| {
            if t % 3 == 0 {
                format!("junk{t}")
            } else {
                format!("url_{t}/x")
            }
        };
        Batch::new(
            Schema::from_pairs(&[
                ("bk", DataType::I32),
                ("bv", DataType::I64),
                ("bs", DataType::Utf8),
            ]),
            vec![
                Column::I32(rows.iter().map(|r| r.0).collect()),
                Column::I64(rows.iter().map(|r| r.1).collect()),
                Column::Utf8(rows.iter().map(|r| tag(r.2)).collect()),
            ],
        )
        .unwrap()
    }

    fn probe_batch(rows: &[Row]) -> Batch {
        Batch::new(
            Schema::from_pairs(&[
                ("pk", DataType::I32),
                ("pv", DataType::I64),
                ("pd", DataType::Date),
            ]),
            vec![
                Column::I32(rows.iter().map(|r| r.0).collect()),
                Column::I64(rows.iter().map(|r| r.1).collect()),
                Column::Date(rows.iter().map(|r| i32::from(r.2)).collect()),
            ],
        )
        .unwrap()
    }

    /// Several batches per side, duplicate keys, empty batches and empty
    /// sides.
    fn side() -> impl Strategy<Value = Vec<Vec<Row>>> {
        proptest::collection::vec(
            proptest::collection::vec((0i32..6, -50i64..50, 0u8..6), 0..10),
            0..4,
        )
    }

    /// Query shapes over the joined layout `(bk, bv, bs) ++ (pk, pv, pd)`.
    fn shape(pick: u8, t: i64) -> (Option<Expr>, Expr, Vec<AggSpec>) {
        let spanning = Expr::col(1).sub(Expr::col(4)).ge(Expr::lit_i64(t));
        let literal = Expr::lit_i64(t).le(Expr::lit_i64(0));
        let constant = Expr::ExtractGroup(Box::new(Expr::Lit(Datum::Utf8("g7".into()))));
        let every = vec![
            AggSpec::Count,
            AggSpec::SumI64(1),
            AggSpec::MinI64(0),
            AggSpec::MaxI64(1),
            AggSpec::SumI64(4),
            AggSpec::MinI64(5),
            AggSpec::MaxI64(4),
        ];
        match pick {
            0 => (
                Some(spanning),
                Expr::ExtractGroup(Box::new(Expr::col(2))),
                every,
            ),
            1 => (Some(literal), Expr::col(5), vec![AggSpec::Count]),
            2 => (Some(spanning), constant, vec![AggSpec::Count]),
            3 => (None, constant, vec![AggSpec::Count]),
            4 => (Some(literal), constant, every),
            _ => (None, Expr::col(3), every),
        }
    }

    proptest! {
        /// The sink's partial aggregate equals probe → filter → aggregate
        /// over the materialised join, whether it probes itself or
        /// consumes the materialised batches.
        #[test]
        fn sink_equals_materialised_join(
            build in side(),
            probe in side(),
            pick in 0u8..6,
            t in -60i64..60,
        ) {
            let (pred, group, aggs) = shape(pick, t);
            let mut joiner = HashJoiner::new(build_batch(&[]).schema().clone(), 0);
            for rows in &build {
                joiner.build(build_batch(rows)).unwrap();
            }
            let probes: Vec<Batch> = probe.iter().map(|rows| probe_batch(rows)).collect();

            let mut expected = HashAggregator::new(aggs.clone());
            let mut passed = 0u64;
            let mut sink = JoinAggregator::new(pred.as_ref(), &group, &aggs);
            let mut consumed = JoinAggregator::new(pred.as_ref(), &group, &aggs);
            for p in &probes {
                let joined = joiner.probe(p, 0).unwrap();
                consumed.consume(&joined).unwrap();
                let kept = match &pred {
                    Some(e) => joined.filter(&e.eval_predicate(&joined).unwrap()).unwrap(),
                    None => joined,
                };
                passed += kept.num_rows() as u64;
                expected.update(&group.eval_i64(&kept).unwrap(), &kept).unwrap();
                sink.probe(&joiner, p, 0).unwrap();
            }
            prop_assert_eq!(sink.survivors(), passed);
            prop_assert_eq!(consumed.survivors(), passed);
            let expected = expected.finish();
            prop_assert_eq!(&consumed.finish(), &expected);
            prop_assert_eq!(sink.finish(), expected);
        }
    }
}

#[cfg(test)]
mod star_proptests {
    use super::*;
    use crate::batch::Column;
    use crate::datum::{DataType, Datum};
    use crate::schema::Schema;
    use proptest::prelude::*;

    /// Dimension `axis` is `(key, value, tag)`; its key type is `I32`,
    /// `I64` and `Date` on axes 0, 1 and 2, and the tag a `Utf8` column.
    fn dim_batch(axis: usize, rows: &[(i32, i64, u8)]) -> Batch {
        let key_type = [DataType::I32, DataType::I64, DataType::Date][axis];
        let keys: Vec<i32> = rows.iter().map(|r| r.0).collect();
        let key = match key_type {
            DataType::I32 => Column::I32(keys),
            DataType::I64 => Column::I64(keys.into_iter().map(i64::from).collect()),
            _ => Column::Date(keys),
        };
        Batch::new(
            Schema::from_pairs(&[("k", key_type), ("v", DataType::I64), ("s", DataType::Utf8)]),
            vec![
                key,
                Column::I64(rows.iter().map(|r| r.1).collect()),
                Column::Utf8(
                    rows.iter()
                        .map(|r| format!("url_{}/d{axis}", r.2))
                        .collect(),
                ),
            ],
        )
        .unwrap()
    }

    /// The fact: one foreign key per dimension, typed to match, and a value.
    fn fact_batch(rows: &[(i32, i32, i32, i64)]) -> Batch {
        Batch::new(
            Schema::from_pairs(&[
                ("f0", DataType::I32),
                ("f1", DataType::I64),
                ("f2", DataType::Date),
                ("fv", DataType::I64),
            ]),
            vec![
                Column::I32(rows.iter().map(|r| r.0).collect()),
                Column::I64(rows.iter().map(|r| i64::from(r.1)).collect()),
                Column::Date(rows.iter().map(|r| r.2).collect()),
                Column::I64(rows.iter().map(|r| r.3).collect()),
            ],
        )
        .unwrap()
    }

    /// Build batches per dimension: several, duplicate keys, and now and
    /// then a dimension with no rows at all.
    fn dims() -> impl Strategy<Value = Vec<Vec<Vec<(i32, i64, u8)>>>> {
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0i32..5, -40i64..40, 0u8..4), 0..6),
                0..3,
            ),
            3..=3,
        )
    }

    fn facts() -> impl Strategy<Value = Vec<Vec<(i32, i32, i32, i64)>>> {
        proptest::collection::vec(
            proptest::collection::vec((0i32..6, 0i32..6, 0i32..6, -40i64..40), 0..10),
            0..3,
        )
    }

    /// Query shapes over the joined layout `dim_{k-1} ++ … ++ dim_0 ++
    /// fact`, where dimension `a` starts at `3 (k - 1 - a)` and the fact at
    /// `3k`.
    fn shape(k: usize, pick: u8, t: i64) -> (Option<Expr>, Expr, Vec<AggSpec>) {
        let dim = |a: usize, c: usize| Expr::col(3 * (k - 1 - a) + c);
        let fact_v = Expr::col(3 * k + 3);
        // dimension 0 against the last dimension, or the fact when k = 1
        let other = if k > 1 { dim(k - 1, 1) } else { fact_v.clone() };
        let spanning = dim(0, 1).sub(other).ge(Expr::lit_i64(t));
        let constant = Expr::ExtractGroup(Box::new(Expr::Lit(Datum::Utf8("g7".into()))));
        let every = vec![
            AggSpec::Count,
            AggSpec::SumI64(3 * (k - 1) + 1),
            AggSpec::MinI64(3 * k + 3),
            AggSpec::MaxI64(1),
        ];
        match pick {
            0 => (
                Some(spanning),
                Expr::ExtractGroup(Box::new(dim(k - 1, 2))),
                every,
            ),
            1 => (None, constant, vec![AggSpec::Count]),
            2 => (Some(spanning), constant, vec![AggSpec::Count]),
            _ => (None, Expr::ExtractGroup(Box::new(dim(0, 2))), every),
        }
    }

    proptest! {
        /// One k-way probe equals the chain of binary joins it replaces:
        /// folded into the sink it leaves the same partial aggregate and
        /// survivor count as `HashJoiner::probe` chained into `consume`,
        /// and materialised it yields the chain's rows in the chain's
        /// order.
        #[test]
        fn k_way_probe_equals_the_chained_joins(
            k in 1usize..4,
            dims in dims(),
            facts in facts(),
            pick in 0u8..4,
            t in -50i64..50,
        ) {
            let joiners: Vec<HashJoiner> = (0..k)
                .map(|axis| {
                    let mut j = HashJoiner::new(dim_batch(axis, &[]).schema().clone(), 0);
                    for rows in &dims[axis] {
                        j.build(dim_batch(axis, rows)).unwrap();
                    }
                    j
                })
                .collect();
            let refs: Vec<&HashJoiner> = joiners.iter().collect();
            let fact_keys: Vec<usize> = (0..k).collect();
            let probes: Vec<Batch> = facts.iter().map(|rows| fact_batch(rows)).collect();
            let (pred, group, aggs) = shape(k, pick, t);

            let mut chained = JoinAggregator::new(pred.as_ref(), &group, &aggs);
            let mut sink = JoinAggregator::new(pred.as_ref(), &group, &aggs);
            let mut chain_out = Vec::new();
            for p in &probes {
                // each binary join prepends its three build columns
                let mut cur = p.clone();
                for (axis, j) in joiners.iter().enumerate() {
                    cur = j.probe(&cur, 3 * axis + axis).unwrap();
                }
                chained.consume(&cur).unwrap();
                chain_out.push(cur);
                sink.probe_star(&refs, p, &fact_keys).unwrap();
            }
            prop_assert_eq!(sink.survivors(), chained.survivors());
            prop_assert_eq!(sink.finish(), chained.finish());

            let fact_schema = fact_batch(&[]).schema().clone();
            let joined = HashJoiner::probe_star(&refs, &fact_schema, &probes, &fact_keys).unwrap();
            let schema = refs.iter().fold(fact_schema, |acc, j| j.build_schema().join(&acc));
            prop_assert_eq!(joined, Batch::concat(schema, &chain_out).unwrap());
        }
    }
}
