//! Delimited text format.
//!
//! One row per line, fields separated by `|`, with backslash escaping for
//! the delimiter, newlines, and backslashes. This mirrors the paper's "1 TB
//! text format" baseline: a reader must scan and parse every byte even when
//! the query needs two of six columns.
//!
//! [`TextReader`] is the one decode loop. Opening a block splits each line
//! into field spans once, parses every integer field (an `I32` or `Date`
//! field must fit 32 bits) and UTF-8-checks every string field, so every
//! byte is still parsed and a malformed block fails at open. String fields
//! stay spans into the block until [`TextReader::column`] builds them, and
//! then only for the rows a selection keeps. [`decode`] is that reader at
//! every row.

use hybrid_common::batch::{Batch, Column, SelectionVector};
use hybrid_common::datum::DataType;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::schema::Schema;
use std::borrow::Cow;

const DELIM: u8 = b'|';
const ESCAPE: u8 = b'\\';

/// Encode a batch as delimited text.
pub fn encode(batch: &Batch) -> Vec<u8> {
    // Rough preallocation: fixed width + string payloads + delimiters.
    let mut out =
        Vec::with_capacity(batch.serialized_bytes() + batch.num_rows() * batch.schema().len());
    let cols = batch.columns();
    for row in 0..batch.num_rows() {
        for (i, col) in cols.iter().enumerate() {
            if i > 0 {
                out.push(DELIM);
            }
            match col {
                Column::I32(v) => push_int(&mut out, i64::from(v[row])),
                Column::Date(v) => push_int(&mut out, i64::from(v[row])),
                Column::I64(v) => push_int(&mut out, v[row]),
                Column::Utf8(v) => push_escaped(&mut out, v[row].as_bytes()),
            }
        }
        out.push(b'\n');
    }
    out
}

fn push_int(out: &mut Vec<u8>, v: i64) {
    let mut buf = itoa_buf(v);
    out.append(&mut buf);
}

fn itoa_buf(v: i64) -> Vec<u8> {
    // Small enough to not warrant a dependency.
    v.to_string().into_bytes()
}

fn push_escaped(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        if b == DELIM || b == ESCAPE || b == b'\n' {
            out.push(ESCAPE);
        }
        out.push(b);
    }
}

/// Decode text back into a batch of `schema`, optionally projecting.
///
/// The full payload is parsed either way — that is the point of the text
/// baseline — and the returned `bytes_read` in [`crate::DecodeResult`]
/// equals `bytes.len()`. A wrapper over [`TextReader`].
pub fn decode(schema: &Schema, bytes: &[u8], projection: Option<&[usize]>) -> Result<Batch> {
    Ok(crate::decode(crate::FileFormat::Text, schema, bytes, projection)?.batch)
}

/// One text block opened for reading: every line is split into fields
/// once, integer fields are parsed, and string fields are checked but kept
/// as byte spans until [`TextReader::column`] asks for them.
pub struct TextReader<'a> {
    bytes: &'a [u8],
    rows: usize,
    /// One entry per schema column.
    fields: Vec<Fields>,
}

/// The parsed values of an integer column, or the raw (still escaped) byte
/// spans of a string column.
enum Fields {
    Ints(Column),
    Spans(Vec<(usize, usize)>),
}

impl<'a> TextReader<'a> {
    /// Parse the whole block. Every field of every line is parsed or
    /// UTF-8-checked here, whichever columns are read later, so a malformed
    /// block fails at open with the first error in byte order.
    pub fn open(schema: &Schema, bytes: &'a [u8]) -> Result<TextReader<'a>> {
        let width = schema.len();
        let mut fields: Vec<Fields> = schema
            .fields()
            .iter()
            .map(|f| match f.data_type {
                DataType::Utf8 => Fields::Spans(Vec::with_capacity(128)),
                dt => Fields::Ints(Column::with_capacity(dt, 128)),
            })
            .collect();

        let mut rows = 0usize;
        let mut col_idx = 0usize;
        let mut start = 0usize;
        let mut i = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                ESCAPE => {
                    if i + 1 == bytes.len() {
                        return Err(HybridError::Storage(
                            "dangling escape at end of text payload".into(),
                        ));
                    }
                    i += 2;
                    continue;
                }
                DELIM => {
                    finish_field(&mut fields, col_idx, bytes, (start, i))?;
                    col_idx += 1;
                    if col_idx >= width {
                        return Err(HybridError::Storage(format!(
                            "row has more than {width} fields"
                        )));
                    }
                    start = i + 1;
                }
                b'\n' => {
                    if col_idx + 1 != width {
                        return Err(HybridError::Storage(format!(
                            "row has {} fields, expected {width}",
                            col_idx + 1
                        )));
                    }
                    finish_field(&mut fields, col_idx, bytes, (start, i))?;
                    col_idx = 0;
                    rows += 1;
                    start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if start != bytes.len() || col_idx != 0 {
            return Err(HybridError::Storage(
                "text payload missing final newline".into(),
            ));
        }
        Ok(TextReader {
            bytes,
            rows,
            fields,
        })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Payload bytes any read touches: the whole block.
    pub fn bytes_read(&self) -> usize {
        self.bytes.len()
    }

    /// Column `col` at the rows `sel` lists (every row for `None`). Only
    /// the listed string fields are unescaped and allocated.
    pub fn column(&self, col: usize, sel: Option<&SelectionVector>) -> Result<Column> {
        let fields = self.fields.get(col).ok_or(HybridError::ColumnOutOfBounds {
            index: col,
            width: self.fields.len(),
        })?;
        if let Some(sel) = sel {
            crate::format::check_selection(sel, self.rows)?;
        }
        match (fields, sel) {
            (Fields::Ints(c), None) => Ok(c.clone()),
            (Fields::Ints(c), Some(sel)) => Ok(c.take(sel.as_slice())),
            (Fields::Spans(spans), None) => spans
                .iter()
                .map(|&s| self.string(s))
                .collect::<Result<_>>()
                .map(Column::Utf8),
            (Fields::Spans(spans), Some(sel)) => sel
                .as_slice()
                .iter()
                .map(|&r| self.string(spans[r as usize]))
                .collect::<Result<_>>()
                .map(Column::Utf8),
        }
    }

    fn string(&self, (start, end): (usize, usize)) -> Result<String> {
        String::from_utf8(unescape(&self.bytes[start..end]).into_owned())
            .map_err(|_| HybridError::Storage("non-UTF8 text field".into()))
    }
}

/// Parse or check one field and record it in its column.
fn finish_field(
    fields: &mut [Fields],
    col_idx: usize,
    bytes: &[u8],
    span: (usize, usize),
) -> Result<()> {
    let width = fields.len();
    let field = unescape(&bytes[span.0..span.1]);
    match fields.get_mut(col_idx) {
        Some(Fields::Ints(Column::I32(v) | Column::Date(v))) => v.push(parse_i32(&field)?),
        Some(Fields::Ints(Column::I64(v))) => v.push(parse_int(&field)?),
        Some(Fields::Ints(Column::Utf8(_))) => unreachable!("string columns keep spans"),
        Some(Fields::Spans(spans)) => {
            if !field.is_ascii() && std::str::from_utf8(&field).is_err() {
                return Err(HybridError::Storage("non-UTF8 text field".into()));
            }
            spans.push(span);
        }
        None => {
            return Err(HybridError::ColumnOutOfBounds {
                index: col_idx,
                width,
            })
        }
    }
    Ok(())
}

/// Drop the escape byte before each escaped byte.
fn unescape(raw: &[u8]) -> Cow<'_, [u8]> {
    if !raw.contains(&ESCAPE) {
        return Cow::Borrowed(raw);
    }
    let mut out = Vec::with_capacity(raw.len());
    let mut bytes = raw.iter();
    while let Some(&b) = bytes.next() {
        out.push(if b == ESCAPE {
            *bytes.next().unwrap_or(&b)
        } else {
            b
        });
    }
    Cow::Owned(out)
}

fn parse_int(field: &[u8]) -> Result<i64> {
    // fast path: an optional minus sign and at most 18 digits, which cannot
    // overflow; anything else goes through `str::parse` and its errors
    let (negative, digits) = match field {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, field),
    };
    if (1..=18).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
        let v = digits
            .iter()
            .fold(0i64, |v, &d| v * 10 + i64::from(d - b'0'));
        return Ok(if negative { -v } else { v });
    }
    let s = std::str::from_utf8(field)
        .map_err(|_| HybridError::Storage("non-UTF8 numeric field".into()))?;
    s.parse::<i64>()
        .map_err(|_| HybridError::Storage(format!("bad integer field {s:?}")))
}

/// An `I32` or `Date` field: an integer that must fit 32 bits.
fn parse_i32(field: &[u8]) -> Result<i32> {
    i32::try_from(parse_int(field)?)
        .map_err(|_| HybridError::Storage("i32 text field out of range".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::datum::Datum;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::I32),
            ("u", DataType::I64),
            ("d", DataType::Date),
            ("s", DataType::Utf8),
        ])
    }

    fn batch() -> Batch {
        Batch::new(
            schema(),
            vec![
                Column::I32(vec![1, -2, 3]),
                Column::I64(vec![10, 20, -30]),
                Column::Date(vec![100, 0, 5]),
                Column::Utf8(vec![
                    "plain".into(),
                    "pipe|and\\slash".into(),
                    "new\nline".into(),
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_with_escapes() {
        let b = batch();
        let bytes = encode(&b);
        let decoded = decode(&schema(), &bytes, None).unwrap();
        assert_eq!(decoded, b);
    }

    #[test]
    fn projection_applies_after_full_parse() {
        let b = batch();
        let bytes = encode(&b);
        let decoded = decode(&schema(), &bytes, Some(&[3, 0])).unwrap();
        assert_eq!(decoded.schema().field(0).unwrap().name, "s");
        assert_eq!(decoded.num_rows(), 3);
        assert_eq!(decoded.row(1)[1], Datum::I32(-2));
    }

    #[test]
    fn empty_batch_roundtrip() {
        let b = Batch::empty(schema());
        let bytes = encode(&b);
        assert!(bytes.is_empty());
        let decoded = decode(&schema(), &bytes, None).unwrap();
        assert_eq!(decoded.num_rows(), 0);
    }

    #[test]
    fn malformed_rows_error() {
        // too few fields
        assert!(decode(&schema(), b"1|2|3\n", None).is_err());
        // too many fields
        assert!(decode(&schema(), b"1|2|3|x|9\n", None).is_err());
        // missing trailing newline
        assert!(decode(&schema(), b"1|2|3|x", None).is_err());
        // bad int
        assert!(decode(&schema(), b"zz|2|3|x\n", None).is_err());
        // dangling escape
        assert!(decode(&schema(), b"1|2|3|x\\", None).is_err());
    }

    #[test]
    fn out_of_range_32_bit_fields_are_errors() {
        let out_of_range = HybridError::Storage("i32 text field out of range".into());
        for dt in [DataType::I32, DataType::Date] {
            let s = Schema::from_pairs(&[("v", dt)]);
            for field in ["4294967297", "2147483648", "-2147483649"] {
                let line = format!("{field}\n");
                assert_eq!(decode(&s, line.as_bytes(), None), Err(out_of_range.clone()));
            }
            let edges = decode(&s, b"2147483647\n-2147483648\n", None).unwrap();
            assert_eq!(edges.num_rows(), 2);
        }
        let wide = Schema::from_pairs(&[("v", DataType::I64)]);
        let b = decode(&wide, b"4294967297\n", None).unwrap();
        assert_eq!(b.column(0).unwrap().as_i64().unwrap(), &[4_294_967_297]);
    }

    #[test]
    fn integer_fields_parse_like_str_parse() {
        let fields = [
            "",
            "-",
            "+",
            "0",
            "-0",
            "+7",
            "007",
            "-42",
            "1 ",
            " 1",
            "1_000",
            "１",
            "999999999999999999",
            "-999999999999999999",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
        ];
        for f in fields {
            let got = parse_int(f.as_bytes());
            match f.parse::<i64>() {
                Ok(v) => assert_eq!(got, Ok(v), "{f:?}"),
                Err(_) => assert_eq!(
                    got,
                    Err(HybridError::Storage(format!("bad integer field {f:?}"))),
                    "{f:?}"
                ),
            }
        }
    }

    #[test]
    fn text_is_wider_than_columnar_for_typical_rows() {
        // sanity: text carries delimiters + ascii digits
        let b = batch();
        assert!(encode(&b).len() > b.serialized_bytes() / 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_batch() -> impl Strategy<Value = Batch> {
        let rows = 0..50usize;
        rows.prop_flat_map(|n| {
            (
                proptest::collection::vec(any::<i32>(), n..=n),
                proptest::collection::vec(any::<i64>(), n..=n),
                proptest::collection::vec(any::<i32>(), n..=n),
                proptest::collection::vec("[ -~]{0,20}", n..=n), // printable ascii incl. | and backslash
            )
                .prop_map(|(a, b, c, d)| {
                    Batch::new(
                        Schema::from_pairs(&[
                            ("k", DataType::I32),
                            ("u", DataType::I64),
                            ("d", DataType::Date),
                            ("s", DataType::Utf8),
                        ]),
                        vec![
                            Column::I32(a),
                            Column::I64(b),
                            Column::Date(c),
                            Column::Utf8(d),
                        ],
                    )
                    .unwrap()
                })
        })
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_batches(b in arb_batch()) {
            let bytes = encode(&b);
            let decoded = decode(b.schema(), &bytes, None).unwrap();
            prop_assert_eq!(decoded, b);
        }
    }
}
