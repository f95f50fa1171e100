//! Hash-based group-by aggregation.
//!
//! Both engines end the paper's query with `group by extract_group(...)`
//! plus `count(*)`. JEN computes **partial** aggregates on every worker and
//! merges them on a designated worker (§3.2–§3.4 step "compute final
//! aggregation"); the EDW does the same across DB workers. The merge works
//! because all supported aggregates are commutative monoids over `i64`.

use crate::batch::{Batch, Column};
use crate::datum::DataType;
use crate::error::{HybridError, Result};
use crate::schema::{Field, Schema};
use std::collections::HashMap;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggSpec {
    /// `count(*)`
    Count,
    /// `sum(col)` over an integer column of the input batch.
    SumI64(usize),
    /// `min(col)` / `max(col)` over an integer column.
    MinI64(usize),
    MaxI64(usize),
}

impl AggSpec {
    /// The input column this aggregate reads (`None` for `count(*)`).
    pub fn column(self) -> Option<usize> {
        match self {
            AggSpec::Count => None,
            AggSpec::SumI64(c) | AggSpec::MinI64(c) | AggSpec::MaxI64(c) => Some(c),
        }
    }

    /// The same aggregate over input column `f(column)`.
    pub fn map_column(self, f: impl Fn(usize) -> usize) -> AggSpec {
        match self {
            AggSpec::Count => AggSpec::Count,
            AggSpec::SumI64(c) => AggSpec::SumI64(f(c)),
            AggSpec::MinI64(c) => AggSpec::MinI64(f(c)),
            AggSpec::MaxI64(c) => AggSpec::MaxI64(f(c)),
        }
    }

    fn init(self) -> i64 {
        match self {
            AggSpec::Count => 0,
            AggSpec::SumI64(_) => 0,
            AggSpec::MinI64(_) => i64::MAX,
            AggSpec::MaxI64(_) => i64::MIN,
        }
    }

    fn update(self, acc: i64, batch: &Batch, row: usize) -> Result<i64> {
        Ok(match self {
            AggSpec::Count => acc + 1,
            AggSpec::SumI64(c) => acc + batch.column(c)?.key_at(row)?,
            AggSpec::MinI64(c) => acc.min(batch.column(c)?.key_at(row)?),
            AggSpec::MaxI64(c) => acc.max(batch.column(c)?.key_at(row)?),
        })
    }

    /// Merge two partial accumulator values.
    fn merge(self, a: i64, b: i64) -> i64 {
        match self {
            AggSpec::Count | AggSpec::SumI64(_) => a + b,
            AggSpec::MinI64(_) => a.min(b),
            AggSpec::MaxI64(_) => a.max(b),
        }
    }
}

/// A streaming hash aggregator: feed `(group_keys, batch)` pairs, read out a
/// `(group, value…)` batch, or merge partial outputs from other workers.
#[derive(Debug)]
pub struct HashAggregator {
    aggs: Vec<AggSpec>,
    groups: HashMap<i64, Vec<i64>>,
}

impl HashAggregator {
    pub fn new(aggs: Vec<AggSpec>) -> HashAggregator {
        HashAggregator {
            aggs,
            groups: HashMap::new(),
        }
    }

    /// Consume a batch. `group_keys[i]` is the (already computed) group of
    /// row `i` — typically `Expr::ExtractGroup(...).eval_i64(batch)`.
    pub fn update(&mut self, group_keys: &[i64], batch: &Batch) -> Result<()> {
        if group_keys.len() != batch.num_rows() {
            return Err(HybridError::SchemaMismatch(format!(
                "{} group keys for a batch of {} rows",
                group_keys.len(),
                batch.num_rows()
            )));
        }
        for (row, &g) in group_keys.iter().enumerate() {
            let accs = self
                .groups
                .entry(g)
                .or_insert_with(|| self.aggs.iter().map(|a| a.init()).collect());
            for (acc, agg) in accs.iter_mut().zip(&self.aggs) {
                *acc = agg.update(*acc, batch, row)?;
            }
        }
        Ok(())
    }

    /// Merge another worker's partial output (a batch produced by
    /// [`HashAggregator::finish`] with the same agg list).
    pub fn merge_partial(&mut self, partial: &Batch) -> Result<()> {
        if partial.schema().len() != 1 + self.aggs.len() {
            return Err(HybridError::SchemaMismatch(format!(
                "partial aggregate of width {} does not match {} aggregates",
                partial.schema().len(),
                self.aggs.len()
            )));
        }
        let keys = partial.column(0)?;
        for row in 0..partial.num_rows() {
            let g = keys.key_at(row)?;
            let accs = self
                .groups
                .entry(g)
                .or_insert_with(|| self.aggs.iter().map(|a| a.init()).collect());
            for (i, agg) in self.aggs.iter().enumerate() {
                let v = partial.column(i + 1)?.key_at(row)?;
                accs[i] = agg.merge(accs[i], v);
            }
        }
        Ok(())
    }

    /// Number of groups seen so far.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Emit the result batch `(group, agg1, agg2, …)` sorted by group key —
    /// sorted so results compare deterministically across all algorithms.
    pub fn finish(self) -> Batch {
        let mut entries: Vec<(i64, Vec<i64>)> = self.groups.into_iter().collect();
        entries.sort_unstable_by_key(|(g, _)| *g);
        let mut fields = vec![Field::new("group", DataType::I64)];
        fields.extend((0..self.aggs.len()).map(|i| Field::new(format!("agg{i}"), DataType::I64)));
        let schema = Schema::new(fields);
        let mut cols: Vec<Vec<i64>> = vec![Vec::with_capacity(entries.len()); 1 + self.aggs.len()];
        for (g, accs) in entries {
            cols[0].push(g);
            for (i, v) in accs.into_iter().enumerate() {
                cols[i + 1].push(v);
            }
        }
        Batch::new(schema, cols.into_iter().map(Column::I64).collect())
            .expect("aggregator output is well-formed by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(vals: &[i64]) -> Batch {
        Batch::new(
            Schema::from_pairs(&[("v", DataType::I64)]),
            vec![Column::I64(vals.to_vec())],
        )
        .unwrap()
    }

    #[test]
    fn count_groups() {
        let mut agg = HashAggregator::new(vec![AggSpec::Count]);
        agg.update(&[1, 2, 1, 1], &batch(&[0, 0, 0, 0])).unwrap();
        let out = agg.finish();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &[1, 2]);
        assert_eq!(out.column(1).unwrap().as_i64().unwrap(), &[3, 1]);
    }

    #[test]
    fn sum_min_max() {
        let mut agg = HashAggregator::new(vec![
            AggSpec::SumI64(0),
            AggSpec::MinI64(0),
            AggSpec::MaxI64(0),
        ]);
        agg.update(&[7, 7, 8], &batch(&[5, -2, 100])).unwrap();
        let out = agg.finish();
        assert_eq!(out.column(0).unwrap().as_i64().unwrap(), &[7, 8]);
        assert_eq!(out.column(1).unwrap().as_i64().unwrap(), &[3, 100]); // sums
        assert_eq!(out.column(2).unwrap().as_i64().unwrap(), &[-2, 100]); // mins
        assert_eq!(out.column(3).unwrap().as_i64().unwrap(), &[5, 100]); // maxs
    }

    #[test]
    fn partial_merge_equals_global() {
        // two workers aggregate halves; merging partials == aggregating all
        let groups = [1i64, 2, 3, 1, 2, 1];
        let values = [10i64, 20, 30, 40, 50, 60];

        let mut global = HashAggregator::new(vec![AggSpec::Count, AggSpec::SumI64(0)]);
        global.update(&groups, &batch(&values)).unwrap();
        let expected = global.finish();

        let mut w1 = HashAggregator::new(vec![AggSpec::Count, AggSpec::SumI64(0)]);
        w1.update(&groups[..3], &batch(&values[..3])).unwrap();
        let mut w2 = HashAggregator::new(vec![AggSpec::Count, AggSpec::SumI64(0)]);
        w2.update(&groups[3..], &batch(&values[3..])).unwrap();

        let mut merged = HashAggregator::new(vec![AggSpec::Count, AggSpec::SumI64(0)]);
        merged.merge_partial(&w1.finish()).unwrap();
        merged.merge_partial(&w2.finish()).unwrap();
        assert_eq!(merged.finish(), expected);
    }

    #[test]
    fn empty_aggregation() {
        let agg = HashAggregator::new(vec![AggSpec::Count]);
        let out = agg.finish();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema().len(), 2);
    }

    #[test]
    fn mismatched_group_keys_error() {
        let mut agg = HashAggregator::new(vec![AggSpec::Count]);
        assert!(agg.update(&[1, 2], &batch(&[0])).is_err());
    }

    #[test]
    fn every_aggregate_column_has_its_own_name() {
        let mut agg = HashAggregator::new(vec![AggSpec::Count; 5]);
        agg.update(&[1], &batch(&[0])).unwrap();
        let out = agg.finish();
        let names: std::collections::BTreeSet<&str> = out
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names.len(), 6);
        assert_eq!(out.schema().index_of("agg4").unwrap(), 5);
    }

    #[test]
    fn merge_width_checked() {
        let mut agg = HashAggregator::new(vec![AggSpec::Count, AggSpec::SumI64(0)]);
        let narrow = HashAggregator::new(vec![AggSpec::Count]).finish();
        assert!(agg.merge_partial(&narrow).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Merging arbitrary partitions of the input equals one-shot
        /// aggregation (the partial-aggregation correctness property that
        /// every HDFS-side join relies on).
        #[test]
        fn partial_aggregation_is_partition_invariant(
            rows in proptest::collection::vec((0i64..10, -100i64..100), 0..80),
            split in 0usize..80,
        ) {
            let split = split.min(rows.len());
            let groups: Vec<i64> = rows.iter().map(|(g, _)| *g).collect();
            let values: Vec<i64> = rows.iter().map(|(_, v)| *v).collect();

            let aggs = || vec![AggSpec::Count, AggSpec::SumI64(0), AggSpec::MinI64(0), AggSpec::MaxI64(0)];

            let mut global = HashAggregator::new(aggs());
            global.update(&groups, &batch(&values)).unwrap();
            let expected = global.finish();

            let mut a = HashAggregator::new(aggs());
            a.update(&groups[..split], &batch(&values[..split])).unwrap();
            let mut b = HashAggregator::new(aggs());
            b.update(&groups[split..], &batch(&values[split..])).unwrap();
            let mut merged = HashAggregator::new(aggs());
            merged.merge_partial(&a.finish()).unwrap();
            merged.merge_partial(&b.finish()).unwrap();
            prop_assert_eq!(merged.finish(), expected);
        }
    }

    fn batch(vals: &[i64]) -> Batch {
        Batch::new(
            Schema::from_pairs(&[("v", DataType::I64)]),
            vec![Column::I64(vals.to_vec())],
        )
        .unwrap()
    }
}
