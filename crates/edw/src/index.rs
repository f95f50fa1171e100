//! Covering indexes with prefix range access.
//!
//! A covering index over base columns `(c0, c1, …)` materializes exactly
//! those columns, sorted by `c0`. Queries whose predicate and outputs touch
//! only indexed columns run **index-only**: they never read the base table,
//! and a leading-column `c0 <= bound` predicate prunes the scan to a sorted
//! prefix via binary search.
//!
//! The paper's experiment setup builds two such indexes on `T`:
//! `(corPred, indPred)` and `(corPred, indPred, joinKey)` — the latter
//! enabling the index-only Bloom filter build (§5, *Dataset*).

use hybrid_common::batch::Batch;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::expr::Expr;

/// A covering index over one worker's partition of a table.
#[derive(Debug, Clone)]
pub struct CoveringIndex {
    /// The base-table column indexes this index covers, in index order.
    base_cols: Vec<usize>,
    /// The materialized index rows: projected to `base_cols`, sorted by the
    /// first indexed column.
    data: Batch,
}

impl CoveringIndex {
    /// Build an index on `base_cols` of `partition`. The first listed column
    /// must be an integer type (it is the sort key).
    pub fn build(partition: &Batch, base_cols: &[usize]) -> Result<CoveringIndex> {
        if base_cols.is_empty() {
            return Err(HybridError::config("index needs at least one column"));
        }
        let projected = partition.project(base_cols)?;
        // sort rows by leading column value
        let lead = projected.column(0)?;
        let mut order: Vec<u32> = (0..projected.num_rows() as u32).collect();
        let mut lead_vals = Vec::with_capacity(projected.num_rows());
        for row in 0..projected.num_rows() {
            lead_vals.push(lead.key_at(row)?);
        }
        order.sort_by_key(|&r| lead_vals[r as usize]);
        let data = projected.take(&order);
        Ok(CoveringIndex {
            base_cols: base_cols.to_vec(),
            data,
        })
    }

    /// The base columns covered, in index order.
    pub fn base_cols(&self) -> &[usize] {
        &self.base_cols
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.num_rows()
    }

    pub fn is_empty(&self) -> bool {
        self.data.num_rows() == 0
    }

    /// Does this index cover every column in `cols`?
    pub fn covers(&self, cols: impl IntoIterator<Item = usize>) -> bool {
        cols.into_iter().all(|c| self.base_cols.contains(&c))
    }

    /// Map a base-table column index to this index's column position.
    pub fn position_of(&self, base_col: usize) -> Option<usize> {
        self.base_cols.iter().position(|&c| c == base_col)
    }

    /// Rewrite a base-table expression onto the index schema, if covered.
    pub fn remap(&self, expr: &Expr) -> Option<Expr> {
        expr.remap_columns(&|c| self.position_of(c))
    }

    /// The sorted prefix of entries whose leading column is `<= bound`,
    /// found by binary search. Returns `(rows_touched, batch)` where
    /// `rows_touched` is the prefix length (the index access cost).
    pub fn prefix_le(&self, bound: i64) -> Result<(usize, Batch)> {
        let lo = self.prefix_len(bound)?;
        let rows: Vec<u32> = (0..lo as u32).collect();
        Ok((lo, self.data.take(&rows)))
    }

    /// Number of leading entries whose lead column is `<= bound`.
    pub fn prefix_len(&self, bound: i64) -> Result<usize> {
        let lead = self.data.column(0)?;
        // binary search for the first entry > bound
        let mut lo = 0usize;
        let mut hi = self.data.num_rows();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if lead.key_at(mid)? <= bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// The whole index as a batch (full index scan).
    pub fn full(&self) -> &Batch {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::schema::Schema;

    fn partition() -> Batch {
        Batch::new(
            Schema::from_pairs(&[
                ("uniqKey", DataType::I64),
                ("joinKey", DataType::I32),
                ("corPred", DataType::I32),
                ("indPred", DataType::I32),
            ]),
            vec![
                Column::I64(vec![100, 101, 102, 103, 104]),
                Column::I32(vec![7, 8, 9, 10, 11]),
                Column::I32(vec![50, 10, 30, 20, 40]),
                Column::I32(vec![1, 2, 3, 4, 5]),
            ],
        )
        .unwrap()
    }

    fn index() -> CoveringIndex {
        // (corPred, indPred, joinKey) — the paper's BF-building index
        CoveringIndex::build(&partition(), &[2, 3, 1]).unwrap()
    }

    #[test]
    fn sorted_by_leading_column() {
        let idx = index();
        assert_eq!(idx.len(), 5);
        let lead = idx.full().column(0).unwrap().as_i32().unwrap();
        assert_eq!(lead, &[10, 20, 30, 40, 50]);
        // joinKey travels with its row
        let jk = idx.full().column(2).unwrap().as_i32().unwrap();
        assert_eq!(jk, &[8, 10, 9, 11, 7]);
    }

    #[test]
    fn prefix_le_binary_search() {
        let idx = index();
        let (n, b) = idx.prefix_le(30).unwrap();
        assert_eq!(n, 3);
        assert_eq!(b.column(0).unwrap().as_i32().unwrap(), &[10, 20, 30]);
        let (n, _) = idx.prefix_le(9).unwrap();
        assert_eq!(n, 0);
        let (n, _) = idx.prefix_le(1000).unwrap();
        assert_eq!(n, 5);
        let (n, _) = idx.prefix_le(10).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn covers_and_remap() {
        let idx = index();
        assert!(idx.covers([2, 3]));
        assert!(idx.covers([1]));
        assert!(!idx.covers([0]));
        // corPred <= 30 && indPred <= 3 remaps onto index cols 0 and 1
        let pred = Expr::col_le(2, 30).and(Expr::col_le(3, 3));
        let remapped = idx.remap(&pred).unwrap();
        let cols: Vec<usize> = remapped.referenced_columns().into_iter().collect();
        assert_eq!(cols, vec![0, 1]);
        // uncovered column fails
        assert!(idx.remap(&Expr::col_le(0, 5)).is_none());
    }

    #[test]
    fn empty_partition_index() {
        let empty = Batch::empty(partition().schema().clone());
        let idx = CoveringIndex::build(&empty, &[2, 3]).unwrap();
        assert!(idx.is_empty());
        let (n, b) = idx.prefix_le(100).unwrap();
        assert_eq!(n, 0);
        assert_eq!(b.num_rows(), 0);
    }

    #[test]
    fn no_columns_rejected() {
        assert!(CoveringIndex::build(&partition(), &[]).is_err());
    }

    #[test]
    fn duplicate_leading_values_all_included() {
        let b = Batch::new(
            Schema::from_pairs(&[("c", DataType::I32)]),
            vec![Column::I32(vec![5, 5, 5, 6])],
        )
        .unwrap();
        let idx = CoveringIndex::build(&b, &[0]).unwrap();
        let (n, _) = idx.prefix_le(5).unwrap();
        assert_eq!(n, 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hybrid_common::batch::{Batch, Column};
    use hybrid_common::datum::DataType;
    use hybrid_common::schema::Schema;
    use proptest::prelude::*;

    proptest! {
        /// The index access path (prefix range + residual filter) returns
        /// the same multiset of rows as filtering the base partition — the
        /// core correctness property behind the EDW's index-only plans.
        #[test]
        fn prefix_access_equals_full_filter(
            rows in proptest::collection::vec((0i32..50, 0i32..50), 0..80),
            bound in 0i64..50,
        ) {
            let schema = Schema::from_pairs(&[("a", DataType::I32), ("b", DataType::I32)]);
            let (a, b): (Vec<i32>, Vec<i32>) = rows.into_iter().unzip();
            let partition = Batch::new(schema, vec![Column::I32(a), Column::I32(b)]).unwrap();
            let idx = CoveringIndex::build(&partition, &[0, 1]).unwrap();
            let (touched, prefix) = idx.prefix_le(bound).unwrap();
            // every returned row satisfies the bound, and the count matches
            // a direct filter of the partition
            let lead = prefix.column(0).unwrap().as_i32().unwrap();
            prop_assert!(lead.iter().all(|&v| i64::from(v) <= bound));
            let expected = partition
                .column(0)
                .unwrap()
                .as_i32()
                .unwrap()
                .iter()
                .filter(|&&v| i64::from(v) <= bound)
                .count();
            prop_assert_eq!(prefix.num_rows(), expected);
            prop_assert_eq!(touched, expected);
            // and the (a, b) multiset survives the index round trip
            let mut idx_pairs: Vec<(i32, i32)> = (0..prefix.num_rows())
                .map(|r| {
                    (
                        prefix.column(0).unwrap().as_i32().unwrap()[r],
                        prefix.column(1).unwrap().as_i32().unwrap()[r],
                    )
                })
                .collect();
            idx_pairs.sort_unstable();
            let mut base_pairs: Vec<(i32, i32)> = (0..partition.num_rows())
                .filter(|&r| i64::from(partition.column(0).unwrap().as_i32().unwrap()[r]) <= bound)
                .map(|r| {
                    (
                        partition.column(0).unwrap().as_i32().unwrap()[r],
                        partition.column(1).unwrap().as_i32().unwrap()[r],
                    )
                })
                .collect();
            base_pairs.sort_unstable();
            prop_assert_eq!(idx_pairs, base_pairs);
        }
    }
}
