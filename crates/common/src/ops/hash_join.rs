//! In-memory equi-hash-join.
//!
//! Build over one input, probe with the other, exactly as JEN does in the
//! zigzag join (§4.4): the build side is chosen by the caller (JEN builds on
//! the filtered HDFS data because it arrives first; the DB optimizer builds
//! on whichever side is smaller).

use crate::batch::{Batch, Column};
use crate::error::{HybridError, Result};
use crate::schema::Schema;
use std::collections::HashMap;

/// A hash join: `build` batches are indexed by key; `probe` batches stream
/// through and emit `build_row ++ probe_row` outputs.
///
/// ```
/// use hybrid_common::batch::{Batch, Column};
/// use hybrid_common::datum::DataType;
/// use hybrid_common::ops::HashJoiner;
/// use hybrid_common::schema::Schema;
///
/// let schema = Schema::from_pairs(&[("k", DataType::I32)]);
/// let mut joiner = HashJoiner::new(schema.clone(), 0);
/// joiner.build(Batch::new(schema.clone(), vec![Column::I32(vec![1, 2, 2])]).unwrap()).unwrap();
/// let probe = Batch::new(schema, vec![Column::I32(vec![2, 3])]).unwrap();
/// let out = joiner.probe(&probe, 0).unwrap();
/// assert_eq!(out.num_rows(), 2); // key 2 matches twice, key 3 never
/// ```
#[derive(Debug)]
pub struct HashJoiner {
    build_schema: Schema,
    key_col: usize,
    /// key -> (batch index, row index) list
    table: HashMap<i64, Vec<(u32, u32)>>,
    batches: Vec<Batch>,
    rows: usize,
}

/// The matches of one probe batch, in probe-row order: build row
/// `build[i]` (batch index, row index) joins probe row `probe[i]`.
#[derive(Debug, Default)]
pub(crate) struct JoinPairs {
    build: Vec<(u32, u32)>,
    probe: Vec<u32>,
}

impl JoinPairs {
    pub(crate) fn len(&self) -> usize {
        self.probe.len()
    }

    /// Keep the pairs whose `mask` entry is true, in order. Branch-free
    /// like [`SelectionVector::from_mask`](crate::batch::SelectionVector):
    /// every pair is written, and the cursor advances by the mask bit.
    pub(crate) fn retain(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len());
        let mut k = 0usize;
        for (i, &keep) in mask.iter().enumerate() {
            self.build[k] = self.build[i];
            self.probe[k] = self.probe[i];
            k += keep as usize;
        }
        self.build.truncate(k);
        self.probe.truncate(k);
    }
}

impl HashJoiner {
    /// Create a joiner that builds on batches of `build_schema`, keyed by
    /// column `key_col` of the build side.
    pub fn new(build_schema: Schema, key_col: usize) -> HashJoiner {
        HashJoiner {
            build_schema,
            key_col,
            table: HashMap::new(),
            batches: Vec::new(),
            rows: 0,
        }
    }

    /// Number of build rows indexed so far.
    pub fn build_rows(&self) -> usize {
        self.rows
    }

    /// Schema of the build side, the left part of every joined row.
    pub fn build_schema(&self) -> &Schema {
        &self.build_schema
    }

    /// Add a build-side batch (may be called many times as shuffled data
    /// arrives).
    pub fn build(&mut self, batch: Batch) -> Result<()> {
        if batch.schema() != &self.build_schema {
            return Err(HybridError::SchemaMismatch(
                "build batch schema differs from joiner's".into(),
            ));
        }
        let key_col = batch.column(self.key_col)?;
        let batch_idx = self.batches.len() as u32;
        for row in 0..batch.num_rows() {
            let key = key_col.key_at(row)?;
            self.table
                .entry(key)
                .or_default()
                .push((batch_idx, row as u32));
        }
        self.rows += batch.num_rows();
        self.batches.push(batch);
        Ok(())
    }

    /// Probe with a batch; returns `build_row ++ probe_row` matches.
    ///
    /// `probe_key_col` indexes into the probe batch.
    pub fn probe(&self, probe: &Batch, probe_key_col: usize) -> Result<Batch> {
        let pairs = self.probe_pairs(probe, probe_key_col)?;
        let every: Vec<usize> = (0..self.build_schema.len() + probe.schema().len()).collect();
        self.gather(&pairs, probe, &every)
    }

    /// The probe loop: every matching `(build row, probe row)` pair, probe
    /// rows outer and each key's build rows in insertion order inner.
    pub(crate) fn probe_pairs(&self, probe: &Batch, probe_key_col: usize) -> Result<JoinPairs> {
        let keys = probe.column(probe_key_col)?.keys_i64()?;
        let mut pairs = JoinPairs::default();
        for (prow, key) in keys.iter().enumerate() {
            if let Some(matches) = self.table.get(key) {
                pairs.build.extend_from_slice(matches);
                pairs
                    .probe
                    .extend(std::iter::repeat(prow as u32).take(matches.len()));
            }
        }
        Ok(pairs)
    }

    /// Materialise columns `cols` of the joined layout `build ++ probe` for
    /// every pair, column at a time. The batch has one row per pair even
    /// when `cols` is empty.
    pub(crate) fn gather(&self, pairs: &JoinPairs, probe: &Batch, cols: &[usize]) -> Result<Batch> {
        let width = self.build_schema.len();
        let mut fields = Vec::with_capacity(cols.len());
        let mut columns = Vec::with_capacity(cols.len());
        for &c in cols {
            if c < width {
                let field = self.build_schema.field(c)?;
                let parts: Vec<&Column> = self.batches.iter().map(|b| &b.columns()[c]).collect();
                columns.push(Column::gather_parts(field.data_type, &parts, &pairs.build)?);
                fields.push(field.clone());
            } else {
                columns.push(probe.column(c - width)?.take(&pairs.probe));
                fields.push(probe.schema().field(c - width)?.clone());
            }
        }
        Batch::with_rows(Schema::new(fields), columns, pairs.len())
    }

    /// Distinct build keys (used for semi-join shipping in the baseline).
    pub fn distinct_keys(&self) -> Vec<i64> {
        let mut keys: Vec<i64> = self.table.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Column;
    use crate::datum::{DataType, Datum};

    fn build_batch(keys: &[i32], vals: &[i64]) -> Batch {
        Batch::new(
            Schema::from_pairs(&[("bk", DataType::I32), ("bv", DataType::I64)]),
            vec![Column::I32(keys.to_vec()), Column::I64(vals.to_vec())],
        )
        .unwrap()
    }

    fn probe_batch(keys: &[i32], tags: &[&str]) -> Batch {
        Batch::new(
            Schema::from_pairs(&[("pk", DataType::I32), ("pt", DataType::Utf8)]),
            vec![
                Column::I32(keys.to_vec()),
                Column::Utf8(tags.iter().map(|s| s.to_string()).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_matches() {
        let mut j = HashJoiner::new(build_batch(&[], &[]).schema().clone(), 0);
        j.build(build_batch(&[1, 2, 2], &[10, 20, 21])).unwrap();
        let out = j
            .probe(&probe_batch(&[2, 3, 1], &["a", "b", "c"]), 0)
            .unwrap();
        // key 2 matches two build rows, key 3 none, key 1 one.
        assert_eq!(out.num_rows(), 3);
        let mut rows: Vec<(i64, String)> = (0..3)
            .map(|r| {
                let row = out.row(r);
                (
                    row[1].as_i64().unwrap(),
                    row[3].as_str().unwrap().to_string(),
                )
            })
            .collect();
        rows.sort();
        assert_eq!(
            rows,
            vec![(10, "c".into()), (20, "a".into()), (21, "a".into())]
        );
    }

    #[test]
    fn multiple_build_batches() {
        let schema = build_batch(&[], &[]).schema().clone();
        let mut j = HashJoiner::new(schema, 0);
        j.build(build_batch(&[1], &[10])).unwrap();
        j.build(build_batch(&[2], &[20])).unwrap();
        assert_eq!(j.build_rows(), 2);
        let out = j.probe(&probe_batch(&[1, 2], &["x", "y"]), 0).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn empty_sides() {
        let schema = build_batch(&[], &[]).schema().clone();
        let j = HashJoiner::new(schema.clone(), 0);
        let out = j.probe(&probe_batch(&[1, 2], &["x", "y"]), 0).unwrap();
        assert_eq!(out.num_rows(), 0);
        // joined schema still correct
        assert_eq!(out.schema().len(), 4);

        let mut j = HashJoiner::new(schema, 0);
        j.build(build_batch(&[1], &[10])).unwrap();
        let out = j.probe(&probe_batch(&[], &[]), 0).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn schema_mismatch_on_build() {
        let mut j = HashJoiner::new(build_batch(&[], &[]).schema().clone(), 0);
        assert!(j.build(probe_batch(&[1], &["x"])).is_err());
    }

    #[test]
    fn distinct_keys_sorted() {
        let mut j = HashJoiner::new(build_batch(&[], &[]).schema().clone(), 0);
        j.build(build_batch(&[5, 1, 5, 3], &[0, 0, 0, 0])).unwrap();
        assert_eq!(j.distinct_keys(), vec![1, 3, 5]);
    }

    #[test]
    fn join_preserves_all_columns() {
        let mut j = HashJoiner::new(build_batch(&[], &[]).schema().clone(), 0);
        j.build(build_batch(&[7], &[70])).unwrap();
        let out = j.probe(&probe_batch(&[7], &["t"]), 0).unwrap();
        assert_eq!(
            out.row(0),
            vec![
                Datum::I32(7),
                Datum::I64(70),
                Datum::I32(7),
                Datum::Utf8("t".into())
            ]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::batch::Column;
    use crate::datum::DataType;
    use proptest::prelude::*;
    use std::collections::HashMap as Map;

    proptest! {
        /// Join output multiplicity equals the product of per-key
        /// multiplicities — the defining property of an inner join.
        #[test]
        fn multiplicities_match_nested_loop(
            build_keys in proptest::collection::vec(0i32..20, 0..60),
            probe_keys in proptest::collection::vec(0i32..20, 0..60),
        ) {
            let bschema = Schema::from_pairs(&[("k", DataType::I32)]);
            let mut j = HashJoiner::new(bschema.clone(), 0);
            j.build(Batch::new(bschema, vec![Column::I32(build_keys.clone())]).unwrap()).unwrap();
            let pschema = Schema::from_pairs(&[("k", DataType::I32)]);
            let probe = Batch::new(pschema, vec![Column::I32(probe_keys.clone())]).unwrap();
            let out = j.probe(&probe, 0).unwrap();

            let mut bcount: Map<i32, usize> = Map::new();
            for k in &build_keys { *bcount.entry(*k).or_default() += 1; }
            let expected: usize = probe_keys.iter()
                .map(|k| bcount.get(k).copied().unwrap_or(0))
                .sum();
            prop_assert_eq!(out.num_rows(), expected);
            // and every output row has equal keys on both sides
            for r in 0..out.num_rows() {
                let row = out.row(r);
                prop_assert_eq!(row[0].as_i64(), row[1].as_i64());
            }
        }
    }
}
