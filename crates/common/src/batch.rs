//! Columnar batches — the unit of data flow in both engines.
//!
//! A [`Batch`] is a set of equally-long typed [`Column`]s. Operators consume
//! and produce batches; the simulated network ships batches and meters their
//! [`Batch::serialized_bytes`]. This mirrors how JEN pipelines record batches
//! between its read / process / send threads (paper §4.4) without paying for
//! per-row boxing.

use crate::datum::{DataType, Datum};
use crate::error::{HybridError, Result};
use crate::schema::Schema;
use std::borrow::Cow;

/// A list of row indexes into a [`Batch`], in ascending order — the
/// branch-light alternative to a `Vec<bool>` mask for filtering.
///
/// Vectorized operators build one with [`SelectionVector::from_mask`] (a
/// single pass with no per-row branch: the index is written unconditionally
/// and the cursor advances by the mask bit) and apply it with
/// [`Batch::take_sel`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectionVector(Vec<u32>);

impl SelectionVector {
    /// Selection of every row in `0..rows`.
    pub fn identity(rows: usize) -> SelectionVector {
        SelectionVector((0..rows as u32).collect())
    }

    /// Build from a boolean mask without branching on each row: slot `k`
    /// is overwritten until a kept row advances the cursor.
    pub fn from_mask(mask: &[bool]) -> SelectionVector {
        let mut sel = vec![0u32; mask.len()];
        let mut k = 0usize;
        for (i, &keep) in mask.iter().enumerate() {
            sel[k] = i as u32;
            k += keep as usize;
        }
        sel.truncate(k);
        SelectionVector(sel)
    }

    /// Wrap an explicit (ascending) index list.
    pub fn from_indexes(rows: Vec<u32>) -> SelectionVector {
        SelectionVector(rows)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    I32(Vec<i32>),
    I64(Vec<i64>),
    Date(Vec<i32>),
    Utf8(Vec<String>),
}

impl Column {
    pub fn len(&self) -> usize {
        match self {
            Column::I32(v) | Column::Date(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Utf8(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            Column::I32(_) => DataType::I32,
            Column::I64(_) => DataType::I64,
            Column::Date(_) => DataType::Date,
            Column::Utf8(_) => DataType::Utf8,
        }
    }

    /// Allocate an empty column of the given type with `capacity` reserved.
    pub fn with_capacity(dt: DataType, capacity: usize) -> Column {
        match dt {
            DataType::I32 => Column::I32(Vec::with_capacity(capacity)),
            DataType::I64 => Column::I64(Vec::with_capacity(capacity)),
            DataType::Date => Column::Date(Vec::with_capacity(capacity)),
            DataType::Utf8 => Column::Utf8(Vec::with_capacity(capacity)),
        }
    }

    /// The value at `row` as a [`Datum`] (edge-of-system use only).
    pub fn datum(&self, row: usize) -> Datum {
        match self {
            Column::I32(v) => Datum::I32(v[row]),
            Column::I64(v) => Datum::I64(v[row]),
            Column::Date(v) => Datum::Date(v[row]),
            Column::Utf8(v) => Datum::Utf8(v[row].clone()),
        }
    }

    /// View as `&[i32]` (shared by `I32` and `Date`).
    pub fn as_i32(&self) -> Result<&[i32]> {
        match self {
            Column::I32(v) | Column::Date(v) => Ok(v),
            other => Err(HybridError::TypeMismatch {
                expected: "i32",
                found: other.data_type().name(),
            }),
        }
    }

    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            Column::I64(v) => Ok(v),
            other => Err(HybridError::TypeMismatch {
                expected: "i64",
                found: other.data_type().name(),
            }),
        }
    }

    pub fn as_utf8(&self) -> Result<&[String]> {
        match self {
            Column::Utf8(v) => Ok(v),
            other => Err(HybridError::TypeMismatch {
                expected: "utf8",
                found: other.data_type().name(),
            }),
        }
    }

    /// The join-key view: any integer column widened to `i64`.
    ///
    /// Join keys in the paper are 4-byte ints, but the engines accept either
    /// integer width, so the hash-join key path is written once over `i64`.
    pub fn key_at(&self, row: usize) -> Result<i64> {
        match self {
            Column::I32(v) | Column::Date(v) => Ok(i64::from(v[row])),
            Column::I64(v) => Ok(v[row]),
            Column::Utf8(_) => Err(HybridError::TypeMismatch {
                expected: "integer join key",
                found: "utf8",
            }),
        }
    }

    /// The whole column as `i64` join keys: borrows `I64` storage directly,
    /// widens `I32`/`Date` once per batch. Amortizes the per-row type match
    /// of [`Column::key_at`] across vectorized operators.
    pub fn keys_i64(&self) -> Result<Cow<'_, [i64]>> {
        match self {
            Column::I32(v) | Column::Date(v) => {
                Ok(Cow::Owned(v.iter().map(|&x| i64::from(x)).collect()))
            }
            Column::I64(v) => Ok(Cow::Borrowed(v)),
            Column::Utf8(_) => Err(HybridError::TypeMismatch {
                expected: "integer join key",
                found: "utf8",
            }),
        }
    }

    /// Append the value at `row` of `src` (same type) onto `self`.
    pub fn push_from(&mut self, src: &Column, row: usize) -> Result<()> {
        match (self, src) {
            (Column::I32(d), Column::I32(s)) => d.push(s[row]),
            (Column::I64(d), Column::I64(s)) => d.push(s[row]),
            (Column::Date(d), Column::Date(s)) => d.push(s[row]),
            (Column::Utf8(d), Column::Utf8(s)) => d.push(s[row].clone()),
            (d, s) => {
                return Err(HybridError::TypeMismatch {
                    expected: d.data_type().name(),
                    found: s.data_type().name(),
                })
            }
        }
        Ok(())
    }

    /// Keep only the rows whose index appears in `rows` (in order).
    pub fn take(&self, rows: &[u32]) -> Column {
        match self {
            Column::I32(v) => Column::I32(rows.iter().map(|&r| v[r as usize]).collect()),
            Column::I64(v) => Column::I64(rows.iter().map(|&r| v[r as usize]).collect()),
            Column::Date(v) => Column::Date(rows.iter().map(|&r| v[r as usize]).collect()),
            Column::Utf8(v) => Column::Utf8(rows.iter().map(|&r| v[r as usize].clone()).collect()),
        }
    }

    /// Gather-append the listed rows of `src` (same type) onto `self` —
    /// the column-at-a-time form of repeated [`Column::push_from`].
    pub fn extend_take(&mut self, src: &Column, rows: &[u32]) -> Result<()> {
        match (self, src) {
            (Column::I32(d), Column::I32(s)) | (Column::Date(d), Column::Date(s)) => {
                d.extend(rows.iter().map(|&r| s[r as usize]));
            }
            (Column::I64(d), Column::I64(s)) => d.extend(rows.iter().map(|&r| s[r as usize])),
            (Column::Utf8(d), Column::Utf8(s)) => {
                d.extend(rows.iter().map(|&r| s[r as usize].clone()));
            }
            (d, s) => {
                return Err(HybridError::TypeMismatch {
                    expected: d.data_type().name(),
                    found: s.data_type().name(),
                })
            }
        }
        Ok(())
    }

    /// Gather-append `refs` — `(part, row)` pairs — from `parts`, columns
    /// of `self`'s type split across batches (a hash join's build side
    /// arrives as many).
    pub(crate) fn extend_gather_parts(
        &mut self,
        parts: &[&Column],
        refs: &[(u32, u32)],
    ) -> Result<()> {
        match self {
            Column::I32(d) | Column::Date(d) => {
                let src = parts
                    .iter()
                    .map(|c| c.as_i32())
                    .collect::<Result<Vec<_>>>()?;
                d.extend(refs.iter().map(|&(p, r)| src[p as usize][r as usize]));
            }
            Column::I64(d) => {
                let src = parts
                    .iter()
                    .map(|c| c.as_i64())
                    .collect::<Result<Vec<_>>>()?;
                d.extend(refs.iter().map(|&(p, r)| src[p as usize][r as usize]));
            }
            Column::Utf8(d) => {
                let src = parts
                    .iter()
                    .map(|c| c.as_utf8())
                    .collect::<Result<Vec<_>>>()?;
                d.extend(
                    refs.iter()
                        .map(|&(p, r)| src[p as usize][r as usize].clone()),
                );
            }
        }
        Ok(())
    }

    /// Append all of `src` (same type) onto `self`.
    pub fn extend_from(&mut self, src: &Column) -> Result<()> {
        match (self, src) {
            (Column::I32(d), Column::I32(s)) | (Column::Date(d), Column::Date(s)) => {
                d.extend_from_slice(s);
            }
            (Column::I64(d), Column::I64(s)) => d.extend_from_slice(s),
            (Column::Utf8(d), Column::Utf8(s)) => d.extend_from_slice(s),
            (d, s) => {
                return Err(HybridError::TypeMismatch {
                    expected: d.data_type().name(),
                    found: s.data_type().name(),
                })
            }
        }
        Ok(())
    }

    /// Serialized payload bytes of this column (fixed width or string bytes).
    pub fn serialized_bytes(&self) -> usize {
        match self {
            Column::I32(v) | Column::Date(v) => v.len() * 4,
            Column::I64(v) => v.len() * 8,
            Column::Utf8(v) => v.iter().map(|s| 4 + s.len()).sum(),
        }
    }
}

/// A horizontal slice of a table: one column vector per schema field.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Batch {
    /// Build a batch, validating column count, types, and lengths. The row
    /// count is the first column's length, so a batch without columns is
    /// empty.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Batch> {
        let rows = columns.first().map_or(0, Column::len);
        Batch::with_rows(schema, columns, rows)
    }

    /// Build a batch of exactly `rows` rows. Unlike [`Batch::new`] this
    /// keeps the row count of a batch with no columns — the narrow gather
    /// for an expression that reads none (`count(*)`, a literal group or
    /// predicate) still has one row per joined pair, and a scan's
    /// predicate input still has one row per stored row.
    pub fn with_rows(schema: Schema, columns: Vec<Column>, rows: usize) -> Result<Batch> {
        if schema.len() != columns.len() {
            return Err(HybridError::SchemaMismatch(format!(
                "schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        for (i, c) in columns.iter().enumerate() {
            let expected = schema.field(i)?.data_type;
            if c.data_type() != expected {
                return Err(HybridError::TypeMismatch {
                    expected: expected.name(),
                    found: c.data_type().name(),
                });
            }
            if c.len() != rows {
                return Err(HybridError::SchemaMismatch(format!(
                    "column {i} has {} rows, expected {rows}",
                    c.len()
                )));
            }
        }
        Ok(Batch {
            schema,
            columns,
            rows,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Batch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, 0))
            .collect();
        Batch {
            schema,
            columns,
            rows: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column(&self, index: usize) -> Result<&Column> {
        self.columns
            .get(index)
            .ok_or(HybridError::ColumnOutOfBounds {
                index,
                width: self.columns.len(),
            })
    }

    /// The row at `row` as datums (edge-of-system / tests only).
    pub fn row(&self, row: usize) -> Vec<Datum> {
        self.columns.iter().map(|c| c.datum(row)).collect()
    }

    /// Project to the given column indexes.
    pub fn project(&self, indexes: &[usize]) -> Result<Batch> {
        let schema = self.schema.project(indexes)?;
        let mut columns = Vec::with_capacity(indexes.len());
        for &i in indexes {
            columns.push(self.column(i)?.clone());
        }
        Ok(Batch {
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// Keep only the listed rows.
    pub fn take(&self, rows: &[u32]) -> Batch {
        debug_assert!(rows.iter().all(|&r| (r as usize) < self.rows));
        let columns = self.columns.iter().map(|c| c.take(rows)).collect();
        Batch {
            schema: self.schema.clone(),
            columns,
            rows: rows.len(),
        }
    }

    /// Keep only rows where `mask` is true. `mask.len()` must equal rows.
    pub fn filter(&self, mask: &[bool]) -> Result<Batch> {
        if mask.len() != self.rows {
            return Err(HybridError::SchemaMismatch(format!(
                "mask of {} entries applied to batch of {} rows",
                mask.len(),
                self.rows
            )));
        }
        Ok(self.take_sel(&SelectionVector::from_mask(mask)))
    }

    /// Keep only the selected rows (column-at-a-time gather).
    pub fn take_sel(&self, sel: &SelectionVector) -> Batch {
        self.take(sel.as_slice())
    }

    /// Concatenate many same-schema batches into one (column-at-a-time).
    pub fn concat(schema: Schema, batches: &[Batch]) -> Result<Batch> {
        let total: usize = batches.iter().map(Batch::num_rows).sum();
        let mut columns: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, total))
            .collect();
        for b in batches {
            if b.schema != schema {
                return Err(HybridError::SchemaMismatch(
                    "concat over mismatched schemas".into(),
                ));
            }
            for (dst, src) in columns.iter_mut().zip(&b.columns) {
                dst.extend_from(src)?;
            }
        }
        Ok(Batch {
            schema,
            columns,
            rows: total,
        })
    }

    /// Total wire size: per-column payloads (used by the metered fabric).
    pub fn serialized_bytes(&self) -> usize {
        self.columns.iter().map(Column::serialized_bytes).sum()
    }

    /// Split into chunks of at most `chunk_rows` rows (network batching).
    pub fn chunks(&self, chunk_rows: usize) -> Vec<Batch> {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        if self.rows <= chunk_rows {
            return vec![self.clone()];
        }
        let mut out = Vec::with_capacity(self.rows.div_ceil(chunk_rows));
        let mut start = 0usize;
        while start < self.rows {
            let end = (start + chunk_rows).min(self.rows);
            let rows: Vec<u32> = (start as u32..end as u32).collect();
            out.push(self.take(&rows));
            start = end;
        }
        out
    }
}

/// Incrementally builds a [`Batch`] row by row from a source batch
/// (used by partitioning operators that scatter rows to destinations).
#[derive(Debug)]
pub struct BatchBuilder {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl BatchBuilder {
    pub fn new(schema: Schema) -> BatchBuilder {
        BatchBuilder::with_capacity(schema, 64)
    }

    /// A builder with room for `rows` rows in every column.
    pub fn with_capacity(schema: Schema, rows: usize) -> BatchBuilder {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, rows))
            .collect();
        BatchBuilder {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Append row `row` of `src` (which must share the schema's types).
    pub fn push_row(&mut self, src: &Batch, row: usize) -> Result<()> {
        for (dst, col) in self.columns.iter_mut().zip(src.columns()) {
            dst.push_from(col, row)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Gather-append the listed rows of `src` (column-at-a-time form of
    /// repeated [`BatchBuilder::push_row`]).
    pub fn append_rows(&mut self, src: &Batch, rows: &[u32]) -> Result<()> {
        for (dst, col) in self.columns.iter_mut().zip(src.columns()) {
            dst.extend_take(col, rows)?;
        }
        self.rows += rows.len();
        Ok(())
    }

    /// Append `rows` rows column-at-a-time: `fill` must append exactly
    /// that many values onto every column.
    pub(crate) fn append_columns(
        &mut self,
        rows: usize,
        fill: impl FnOnce(&mut [Column]) -> Result<()>,
    ) -> Result<()> {
        fill(&mut self.columns)?;
        debug_assert!(self.columns.iter().all(|c| c.len() == self.rows + rows));
        self.rows += rows;
        Ok(())
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn finish(self) -> Batch {
        Batch {
            schema: self.schema,
            columns: self.columns,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn b() -> Batch {
        let schema = Schema::from_pairs(&[
            ("k", DataType::I32),
            ("v", DataType::I64),
            ("s", DataType::Utf8),
        ]);
        Batch::new(
            schema,
            vec![
                Column::I32(vec![1, 2, 3, 4]),
                Column::I64(vec![10, 20, 30, 40]),
                Column::Utf8(vec!["a".into(), "bb".into(), "ccc".into(), "".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_arity_type_length() {
        let schema = Schema::from_pairs(&[("k", DataType::I32)]);
        assert!(Batch::new(schema.clone(), vec![]).is_err());
        assert!(Batch::new(schema.clone(), vec![Column::I64(vec![1])]).is_err());
        let two = Schema::from_pairs(&[("a", DataType::I32), ("b", DataType::I32)]);
        assert!(Batch::new(two, vec![Column::I32(vec![1, 2]), Column::I32(vec![1])]).is_err());
        assert!(Batch::new(schema, vec![Column::I32(vec![5])]).is_ok());
    }

    #[test]
    fn filter_take_project() {
        let batch = b();
        let f = batch.filter(&[true, false, true, false]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.column(0).unwrap().as_i32().unwrap(), &[1, 3]);
        let p = batch.project(&[2, 0]).unwrap();
        assert_eq!(p.schema().field(0).unwrap().name, "s");
        assert_eq!(p.column(1).unwrap().as_i32().unwrap(), &[1, 2, 3, 4]);
        let t = batch.take(&[3, 0]);
        assert_eq!(t.column(1).unwrap().as_i64().unwrap(), &[40, 10]);
    }

    #[test]
    fn filter_wrong_mask_len_errors() {
        assert!(b().filter(&[true]).is_err());
    }

    #[test]
    fn serialized_bytes_counts_strings() {
        let batch = b();
        // 4*4 (i32) + 4*8 (i64) + 4*(4+len): lens 1,2,3,0 => 16+32+(16+6)=70
        assert_eq!(batch.serialized_bytes(), 70);
    }

    #[test]
    fn concat_roundtrip() {
        let batch = b();
        let parts = batch.chunks(3);
        assert_eq!(parts.len(), 2);
        let whole = Batch::concat(batch.schema().clone(), &parts).unwrap();
        assert_eq!(whole, batch);
    }

    #[test]
    fn concat_rejects_mismatched_schema() {
        let other = Batch::empty(Schema::from_pairs(&[("z", DataType::I32)]));
        assert!(Batch::concat(b().schema().clone(), &[b(), other]).is_err());
    }

    #[test]
    fn with_rows_keeps_the_count_of_a_columnless_batch() {
        let none = Schema::from_pairs(&[]);
        assert_eq!(Batch::new(none.clone(), vec![]).unwrap().num_rows(), 0);
        assert_eq!(Batch::with_rows(none, vec![], 3).unwrap().num_rows(), 3);
        let one = Schema::from_pairs(&[("k", DataType::I32)]);
        assert!(Batch::with_rows(one, vec![Column::I32(vec![1])], 2).is_err());
    }

    #[test]
    fn gather_parts_reads_across_batches() {
        let gather = |dt, parts: &[&Column], refs: &[(u32, u32)]| {
            let mut out = Column::with_capacity(dt, 0);
            out.extend_gather_parts(parts, refs).map(|()| out)
        };
        let a = Column::Utf8(vec!["a".into(), "b".into()]);
        let b = Column::Utf8(vec!["c".into()]);
        let got = gather(DataType::Utf8, &[&a, &b], &[(1, 0), (0, 1), (1, 0)]).unwrap();
        assert_eq!(got, Column::Utf8(vec!["c".into(), "b".into(), "c".into()]));
        let x = Column::Date(vec![5, 6]);
        let got = gather(DataType::Date, &[&x], &[(0, 1)]).unwrap();
        assert_eq!(got, Column::Date(vec![6]));
        assert!(gather(DataType::I64, &[&x], &[]).is_err());
        // appending keeps what is already there
        let mut out = Column::Date(vec![1]);
        out.extend_gather_parts(&[&x], &[(0, 0)]).unwrap();
        assert_eq!(out, Column::Date(vec![1, 5]));
    }

    #[test]
    fn key_at_widens_integers() {
        let batch = b();
        assert_eq!(batch.column(0).unwrap().key_at(2).unwrap(), 3);
        assert_eq!(batch.column(1).unwrap().key_at(1).unwrap(), 20);
        assert!(batch.column(2).unwrap().key_at(0).is_err());
    }

    #[test]
    fn selection_from_mask_matches_filter() {
        let batch = b();
        let mask = [true, false, true, true];
        let sel = SelectionVector::from_mask(&mask);
        assert_eq!(sel.as_slice(), &[0, 2, 3]);
        assert_eq!(batch.take_sel(&sel), batch.filter(&mask).unwrap());
        assert!(SelectionVector::from_mask(&[]).is_empty());
        assert_eq!(SelectionVector::identity(3).as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn keys_i64_widens_like_key_at() {
        let batch = b();
        for col in [0usize, 1] {
            let c = batch.column(col).unwrap();
            let keys = c.keys_i64().unwrap();
            for row in 0..batch.num_rows() {
                assert_eq!(keys[row], c.key_at(row).unwrap());
            }
        }
        assert!(batch.column(2).unwrap().keys_i64().is_err());
    }

    #[test]
    fn append_rows_matches_push_row() {
        let batch = b();
        let rows = [3u32, 1, 1];
        let mut gathered = BatchBuilder::new(batch.schema().clone());
        gathered.append_rows(&batch, &rows).unwrap();
        let mut pushed = BatchBuilder::new(batch.schema().clone());
        for &r in &rows {
            pushed.push_row(&batch, r as usize).unwrap();
        }
        assert_eq!(gathered.finish(), pushed.finish());
    }

    #[test]
    fn extend_take_rejects_type_mismatch() {
        let mut dst = Column::I32(vec![]);
        assert!(dst.extend_take(&Column::I64(vec![1]), &[0]).is_err());
        assert!(dst.extend_from(&Column::I64(vec![1])).is_err());
    }

    #[test]
    fn empty_batch_has_schema_and_no_rows() {
        let e = Batch::empty(b().schema().clone());
        assert!(e.is_empty());
        assert_eq!(e.schema().len(), 3);
        assert_eq!(e.serialized_bytes(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary mixed-type batch: the row tuples are zipped into one
    /// column vector per type.
    fn arb_batch() -> impl Strategy<Value = Batch> {
        proptest::collection::vec((any::<i32>(), any::<i64>(), "[a-z]{0,5}"), 0..120).prop_map(
            |rows| {
                let schema = Schema::from_pairs(&[
                    ("k", DataType::I32),
                    ("v", DataType::I64),
                    ("s", DataType::Utf8),
                ]);
                let mut a = Vec::with_capacity(rows.len());
                let mut b = Vec::with_capacity(rows.len());
                let mut c = Vec::with_capacity(rows.len());
                for (x, y, z) in rows {
                    a.push(x);
                    b.push(y);
                    c.push(z);
                }
                Batch::new(
                    schema,
                    vec![Column::I32(a), Column::I64(b), Column::Utf8(c)],
                )
                .unwrap()
            },
        )
    }

    proptest! {
        /// Splitting into chunks of any size and concatenating restores the
        /// original batch bit for bit — the invariant the batched fabric
        /// relies on when it reframes a stream at `batch_rows`.
        #[test]
        fn split_concat_roundtrip(batch in arb_batch(), chunk in 1usize..300) {
            let parts = batch.chunks(chunk);
            for p in &parts {
                prop_assert!(p.num_rows() <= chunk);
            }
            let whole = Batch::concat(batch.schema().clone(), &parts).unwrap();
            prop_assert_eq!(whole, batch);
        }

        /// A selection-vector filter keeps exactly the masked rows, in
        /// order, and equals the mask-based filter.
        #[test]
        fn selection_filter_is_lossless(
            batch in arb_batch(),
            seed in any::<u64>(),
        ) {
            let mask: Vec<bool> = (0..batch.num_rows())
                .map(|i| (seed >> (i % 64)) & 1 == 1)
                .collect();
            let sel = SelectionVector::from_mask(&mask);
            let out = batch.take_sel(&sel);
            prop_assert_eq!(&out, &batch.filter(&mask).unwrap());
            prop_assert_eq!(out.num_rows(), mask.iter().filter(|&&m| m).count());
            // complement + original = a partition of the rows
            let inv: Vec<bool> = mask.iter().map(|&m| !m).collect();
            let rest = batch.take_sel(&SelectionVector::from_mask(&inv));
            prop_assert_eq!(out.num_rows() + rest.num_rows(), batch.num_rows());
            let glued = Batch::concat(batch.schema().clone(), &[out, rest]).unwrap();
            let mut order: Vec<u32> = SelectionVector::from_mask(&mask).as_slice().to_vec();
            order.extend_from_slice(SelectionVector::from_mask(&inv).as_slice());
            prop_assert_eq!(glued, batch.take(&order));
        }

        /// Gather-append (`append_rows`) equals row-at-a-time `push_row`
        /// for arbitrary row lists, duplicates included.
        #[test]
        fn gather_append_equals_push_row(
            batch in arb_batch(),
            picks in proptest::collection::vec(any::<u32>(), 0..80),
        ) {
            let rows: Vec<u32> = if batch.num_rows() == 0 {
                Vec::new()
            } else {
                picks.iter().map(|&p| p % batch.num_rows() as u32).collect()
            };
            let mut gathered = BatchBuilder::new(batch.schema().clone());
            gathered.append_rows(&batch, &rows).unwrap();
            let mut pushed = BatchBuilder::new(batch.schema().clone());
            for &r in &rows {
                pushed.push_row(&batch, r as usize).unwrap();
            }
            prop_assert_eq!(gathered.finish(), pushed.finish());
        }
    }
}
