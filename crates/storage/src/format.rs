//! Format dispatch: one entry point over both encodings.

use crate::columnar::{self, ColumnarReader};
use crate::text::{self, TextReader};
use hybrid_common::batch::{Batch, Column, SelectionVector};
use hybrid_common::error::{HybridError, Result};
use hybrid_common::schema::Schema;

/// The two on-HDFS layouts evaluated by the paper (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileFormat {
    /// Delimited rows; scans parse every byte.
    Text,
    /// Column chunks with statistics; scans read only projected chunks.
    Columnar,
}

impl FileFormat {
    pub fn name(self) -> &'static str {
        match self {
            FileFormat::Text => "text",
            FileFormat::Columnar => "columnar",
        }
    }
}

impl std::fmt::Display for FileFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of decoding one stored block.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeResult {
    pub batch: Batch,
    /// Payload bytes actually touched. For text this is the whole block;
    /// for columnar with a projection it is header + projected chunks only.
    pub bytes_read: usize,
}

/// Encode a batch in the given format.
pub fn encode(format: FileFormat, batch: &Batch) -> Vec<u8> {
    match format {
        FileFormat::Text => text::encode(batch),
        FileFormat::Columnar => columnar::encode(batch),
    }
}

/// Decode a block, with optional projection pushdown: [`BlockReader`] at
/// every row of the projected columns.
///
/// ```
/// use hybrid_common::batch::{Batch, Column};
/// use hybrid_common::datum::DataType;
/// use hybrid_common::schema::Schema;
/// use hybrid_storage::{decode, encode, FileFormat};
///
/// let schema = Schema::from_pairs(&[("k", DataType::I32), ("url", DataType::Utf8)]);
/// let batch = Batch::new(schema.clone(), vec![
///     Column::I32(vec![1, 2]),
///     Column::Utf8(vec!["url_1/a".into(), "url_1/b".into()]),
/// ]).unwrap();
///
/// let bytes = encode(FileFormat::Columnar, &batch);
/// // projection pushdown: only the key chunk is touched
/// let r = decode(FileFormat::Columnar, &schema, &bytes, Some(&[0])).unwrap();
/// assert_eq!(r.batch.schema().len(), 1);
/// assert!(r.bytes_read < bytes.len());
/// ```
pub fn decode(
    format: FileFormat,
    schema: &Schema,
    bytes: &[u8],
    projection: Option<&[usize]>,
) -> Result<DecodeResult> {
    let reader = BlockReader::open(format, schema, bytes)?;
    let all: Vec<usize>;
    let proj = match projection {
        Some(p) => p,
        None => {
            all = (0..schema.len()).collect();
            &all
        }
    };
    let columns = proj
        .iter()
        .map(|&col| reader.column(col, None))
        .collect::<Result<Vec<_>>>()?;
    let bytes_read = reader.bytes_read(proj)?;
    let batch = Batch::with_rows(schema.project(proj)?, columns, reader.rows())?;
    Ok(DecodeResult { batch, bytes_read })
}

/// One stored block opened for late materialisation: a scan decodes the
/// columns its predicate reads in full, and every other column only at the
/// rows that survive.
///
/// Whichever columns and rows are read, the whole structure of every chunk
/// that is read (columnar) or every field of the block (text) is checked, so a
/// block that [`decode`] rejects for a set of columns is rejected here too
/// when the same columns are read, at any selection.
///
/// ```
/// use hybrid_common::batch::{Batch, Column, SelectionVector};
/// use hybrid_common::datum::DataType;
/// use hybrid_common::schema::Schema;
/// use hybrid_storage::{encode, BlockReader, FileFormat};
///
/// let schema = Schema::from_pairs(&[("k", DataType::I32), ("url", DataType::Utf8)]);
/// let batch = Batch::new(schema.clone(), vec![
///     Column::I32(vec![1, 2, 3]),
///     Column::Utf8(vec!["url_1/a".into(), "url_1/b".into(), "url_2/c".into()]),
/// ]).unwrap();
///
/// for format in [FileFormat::Text, FileFormat::Columnar] {
///     let bytes = encode(format, &batch);
///     let reader = BlockReader::open(format, &schema, &bytes).unwrap();
///     assert_eq!(reader.rows(), 3);
///     let sel = SelectionVector::from_indexes(vec![0, 2]);
///     let urls = reader.column(1, Some(&sel)).unwrap();
///     assert_eq!(urls.as_utf8().unwrap(), ["url_1/a", "url_2/c"]);
/// }
/// ```
pub enum BlockReader<'a> {
    Text(TextReader<'a>),
    Columnar(ColumnarReader<'a>),
}

impl<'a> BlockReader<'a> {
    /// Open one block of `format`. Text parses the whole block here;
    /// columnar checks the header only.
    pub fn open(
        format: FileFormat,
        schema: &'a Schema,
        bytes: &'a [u8],
    ) -> Result<BlockReader<'a>> {
        Ok(match format {
            FileFormat::Text => BlockReader::Text(TextReader::open(schema, bytes)?),
            FileFormat::Columnar => BlockReader::Columnar(ColumnarReader::open(schema, bytes)?),
        })
    }

    pub fn rows(&self) -> usize {
        match self {
            BlockReader::Text(r) => r.rows(),
            BlockReader::Columnar(r) => r.rows(),
        }
    }

    /// Payload bytes that reading `cols` touches (see
    /// [`DecodeResult::bytes_read`]).
    pub fn bytes_read(&self, cols: &[usize]) -> Result<usize> {
        match self {
            BlockReader::Text(r) => Ok(r.bytes_read()),
            BlockReader::Columnar(r) => r.bytes_read(cols),
        }
    }

    /// Column `col` at the rows `sel` lists, or at every row for `None`.
    /// `sel` must be strictly ascending and below [`BlockReader::rows`].
    pub fn column(&self, col: usize, sel: Option<&SelectionVector>) -> Result<Column> {
        match self {
            BlockReader::Text(r) => r.column(col, sel),
            BlockReader::Columnar(r) => r.column(col, sel),
        }
    }
}

/// Reject a selection that is not strictly ascending within `rows`.
pub(crate) fn check_selection(sel: &SelectionVector, rows: usize) -> Result<()> {
    let idx = sel.as_slice();
    let ascending = idx.windows(2).all(|w| w[0] < w[1]);
    if ascending && idx.last().map_or(true, |&r| (r as usize) < rows) {
        Ok(())
    } else {
        Err(HybridError::exec(format!(
            "selection is not strictly ascending below {rows} rows"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;

    fn batch() -> Batch {
        Batch::new(
            Schema::from_pairs(&[("k", DataType::I32), ("s", DataType::Utf8)]),
            vec![
                Column::I32((0..100).collect()),
                Column::Utf8((0..100).map(|i| format!("url_{i}/page")).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn both_formats_roundtrip() {
        let b = batch();
        for fmt in [FileFormat::Text, FileFormat::Columnar] {
            let bytes = encode(fmt, &b);
            let r = decode(fmt, b.schema(), &bytes, None).unwrap();
            assert_eq!(r.batch, b, "format {fmt}");
        }
    }

    #[test]
    fn text_reads_everything_columnar_reads_projection() {
        let b = batch();
        let tb = encode(FileFormat::Text, &b);
        let cb = encode(FileFormat::Columnar, &b);
        let tr = decode(FileFormat::Text, b.schema(), &tb, Some(&[0])).unwrap();
        let cr = decode(FileFormat::Columnar, b.schema(), &cb, Some(&[0])).unwrap();
        assert_eq!(tr.bytes_read, tb.len());
        assert!(cr.bytes_read < cb.len() / 2);
        assert_eq!(tr.batch, cr.batch);
    }

    #[test]
    fn columnar_smaller_than_text_on_url_data() {
        // the paper's 2.4x parquet-vs-text ratio direction
        let b = batch();
        let tb = encode(FileFormat::Text, &b);
        let cb = encode(FileFormat::Columnar, &b);
        assert!(
            cb.len() < tb.len(),
            "columnar {} vs text {}",
            cb.len(),
            tb.len()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hybrid_common::datum::DataType;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const FORMATS: [FileFormat; 2] = [FileFormat::Text, FileFormat::Columnar];

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::I32),
            ("u", DataType::I64),
            ("d", DataType::Date),
            ("s", DataType::Utf8),
        ])
    }

    /// Strings over an alphabet dense in multi-byte characters, delimiters,
    /// escapes and newlines, so front coding shares prefixes that end
    /// inside and between characters.
    fn arb_batch() -> impl Strategy<Value = Batch> {
        (0..40usize).prop_flat_map(|n| {
            (
                proptest::collection::vec(any::<i32>(), n..=n),
                proptest::collection::vec(any::<i64>(), n..=n),
                proptest::collection::vec(any::<i32>(), n..=n),
                proptest::collection::vec("[ab|\\\néß中🦀]{0,6}", n..=n),
            )
                .prop_map(|(k, u, d, s)| {
                    let columns = vec![
                        Column::I32(k),
                        Column::I64(u),
                        Column::Date(d),
                        Column::Utf8(s),
                    ];
                    Batch::new(schema(), columns).unwrap()
                })
        })
    }

    /// The rows of `0..rows` whose bit in `bits` (cycled) is set.
    fn selection(bits: u64, rows: usize) -> SelectionVector {
        let keep = (0..rows).filter(|r| bits >> (r % 64) & 1 == 1);
        SelectionVector::from_indexes(keep.map(|r| r as u32).collect())
    }

    /// The columns whose bit in `bits` is set, ascending.
    fn read_set(bits: u8) -> Vec<usize> {
        (0..4).filter(|c| bits >> c & 1 == 1).collect()
    }

    /// Read `cols` through a reader at `sel`, as a late-materialising scan
    /// would: open, count bytes, then each column.
    fn read(format: FileFormat, bytes: &[u8], cols: &[usize], bits: u64) -> Result<()> {
        let schema = schema();
        let reader = BlockReader::open(format, &schema, bytes)?;
        reader.bytes_read(cols)?;
        // a corrupt header may claim billions of rows
        let sel = selection(bits, reader.rows().min(1 << 12));
        for &col in cols {
            reader.column(col, Some(&sel))?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn selected_column_equals_full_decode_then_take(b in arb_batch(), bits in any::<u64>()) {
            let sel = selection(bits, b.num_rows());
            for format in FORMATS {
                let bytes = encode(format, &b);
                let reader = BlockReader::open(format, b.schema(), &bytes).unwrap();
                prop_assert_eq!(reader.rows(), b.num_rows());
                let full = decode(format, b.schema(), &bytes, None).unwrap().batch;
                prop_assert_eq!(&full, &b);
                for col in 0..4 {
                    let want = full.column(col).unwrap().take(sel.as_slice());
                    prop_assert_eq!(reader.column(col, Some(&sel)).unwrap(), want);
                    prop_assert_eq!(&reader.column(col, None).unwrap(), full.column(col).unwrap());
                }
            }
        }

        #[test]
        fn hostile_blocks_fail_like_a_full_decode_and_never_panic(
            b in arb_batch(),
            flips in proptest::collection::vec((0..4096usize, 0..512usize), 0..4),
            cut in 0..8192usize,
            cols in 0..16u8,
            bits in any::<u64>(),
        ) {
            let cols = read_set(cols);
            for format in FORMATS {
                let mut bytes = encode(format, &b);
                if bytes.is_empty() {
                    continue;
                }
                // half the flips write a small value: a plausible length or
                // prefix count, the bytes front coding trusts most
                for &(at, value) in &flips {
                    let at = at % bytes.len();
                    bytes[at] = if value < 256 { value as u8 } else { value as u8 % 8 };
                }
                // truncate about half of the cases, at any length
                if cut < 4096 {
                    bytes.truncate(cut % (bytes.len() + 1));
                }
                let full = catch_unwind(|| decode(format, &schema(), &bytes, Some(&cols)));
                let Ok(full) = full else {
                    panic!("{format} decode panicked on {bytes:?}");
                };
                // no rows, some rows, every row: each must check every value
                for bits in [0, bits, u64::MAX] {
                    let read = catch_unwind(AssertUnwindSafe(|| read(format, &bytes, &cols, bits)));
                    let Ok(read) = read else {
                        panic!("{format} reader panicked on {bytes:?}");
                    };
                    prop_assert_eq!(full.is_err(), read.is_err(), "{} on {:?}: {:?} vs {:?}", format, bytes, full, read);
                }
            }
        }
    }
}
