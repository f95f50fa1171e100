//! Parquet-like columnar format.
//!
//! Layout of one encoded row group:
//!
//! ```text
//! magic   u32  = b"HWCF"
//! ncols   u32
//! nrows   u32
//! directory: ncols × { offset u32, len u32 }     (absolute, from byte 0)
//! chunks:   ncols column chunks
//! ```
//!
//! Column chunk payloads, after Parquet's encodings:
//!
//! * integer columns (`I32`, `I64`, `Date`): `min, max` statistics and a
//!   frame-of-reference `base` (zigzag varints), then one packed stream of
//!   the offsets `value − base` — random 20-bit values like the workload's
//!   `corPred` take 20 bits, not a 3-byte varint;
//! * string columns (`DELTA_BYTE_ARRAY`): front coding split into streams —
//!   the packed lengths of the prefix each value shares with its
//!   predecessor, the packed lengths of the suffixes, then the suffixes
//!   back to back in one blob behind its varint length.
//!
//! A packed stream is a width byte `w` and `nrows` values of `w` bits,
//! little-endian and least significant bit first, in exactly
//! ⌈nrows·w / 8⌉ bytes. The directory enables true **projection
//! pushdown**: [`decode`] touches only the chunks the query needs, which is
//! what makes the columnar scan anchor (38 s vs 240 s) possible.
//!
//! [`ColumnarReader`] is the one decode path. It opens a row group by its
//! header and decodes one chunk per [`ColumnarReader::column`] call. Each
//! call checks the whole chunk's structure before returning anything, so
//! a read at any selection fails exactly when a full decode does:
//!
//! * integers: every stream length is exact, and the window
//!   `[base, base + 2^w − 1]` fits the column type, which range-checks
//!   every value at once; a selection is then read by direct index;
//! * strings: one pass over the lengths (each prefix at most the previous
//!   value's length, the suffixes tiling the blob exactly) and one UTF-8
//!   check of the blob. An ASCII blob has a character boundary everywhere,
//!   so values are rebuilt only up to the last kept row; a non-ASCII chunk
//!   rebuilds every value to check that no prefix ends inside a character.
//!
//! Front coding rebuilds each string in one reused buffer and allocates a
//! `String` only for a kept row, so a late-materialising scan pays for the
//! URLs of the rows that survive its predicate and Bloom filter, not for
//! every row of the block. [`decode`] is that reader at every row.

use crate::varint;
use hybrid_common::batch::{Batch, Column, SelectionVector};
use hybrid_common::datum::DataType;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::schema::Schema;

const MAGIC: u32 = u32::from_le_bytes(*b"HWCF");
const HEADER_LEN: usize = 12;

/// The most rows a zero-width stream may stand for. A stream of width
/// `w ≥ 1` bounds its row count by its own length; one of width 0 has no
/// bytes, so without this cap a corrupt header could make a constant
/// column claim four billion rows. Longer streams are packed at width 1.
const MAX_ZERO_WIDTH_ROWS: usize = 1 << 16;

/// Widest packed string length: a chunk is addressed by `u32` offsets, so
/// no prefix or suffix is longer than `u32::MAX` bytes.
const MAX_LEN_WIDTH: u32 = 32;

const I32_RANGE: (i64, i64) = (i32::MIN as i64, i32::MAX as i64);
const I64_RANGE: (i64, i64) = (i64::MIN, i64::MAX);

/// Encode a batch as one columnar row group.
pub fn encode(batch: &Batch) -> Vec<u8> {
    let ncols = batch.columns().len();
    let data_start = HEADER_LEN + ncols * 8;
    // a guess of four bytes a value; string blobs grow it
    let mut out = Vec::with_capacity(data_start + batch.num_rows() * ncols * 4 + ncols * 24);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(ncols as u32).to_le_bytes());
    out.extend_from_slice(&(batch.num_rows() as u32).to_le_bytes());
    out.resize(data_start, 0);
    for (c, col) in batch.columns().iter().enumerate() {
        let start = out.len();
        match col {
            Column::I32(v) | Column::Date(v) => encode_ints(&mut out, v, I32_RANGE.1),
            Column::I64(v) => encode_ints(&mut out, v, I64_RANGE.1),
            Column::Utf8(v) => encode_strings(&mut out, v),
        }
        let (entry, len) = (HEADER_LEN + c * 8, out.len() - start);
        out[entry..entry + 4].copy_from_slice(&(start as u32).to_le_bytes());
        out[entry + 4..entry + 8].copy_from_slice(&(len as u32).to_le_bytes());
    }
    out
}

/// Statistics, then `base` and the packed offsets. `base` is the minimum,
/// lowered where needed so that the whole window `[base, base + 2^w − 1]`
/// fits under `type_max` — the reader's one range check per chunk.
fn encode_ints<T: Copy + Into<i64>>(out: &mut Vec<u8>, v: &[T], type_max: i64) {
    let (min, max) = int_stats(v.iter().map(|&x| x.into()));
    varint::write_i64(out, min);
    varint::write_i64(out, max);
    let (w, base) = if v.is_empty() {
        (0, 0)
    } else {
        // max ≥ min, so the wrapped difference is the exact range
        let w = stream_width(max.wrapping_sub(min) as u64, v.len());
        let lowest_base = i128::from(type_max) - i128::from(mask(w));
        (w, i128::from(min).min(lowest_base) as i64)
    };
    varint::write_i64(out, base);
    out.push(w as u8);
    pack(
        out,
        w,
        v.iter().map(|&x| x.into().wrapping_sub(base) as u64),
    );
}

/// One pass over the strings finds each shared prefix; the packed streams
/// follow, then the suffixes are copied straight into the blob.
fn encode_strings(out: &mut Vec<u8>, v: &[String]) {
    let mut prefixes: Vec<u32> = Vec::with_capacity(v.len());
    let (mut max_prefix, mut max_suffix, mut blob_len) = (0usize, 0usize, 0usize);
    let mut prev: &str = "";
    for s in v {
        let shared = common_prefix_len(prev, s);
        prefixes.push(shared as u32);
        max_prefix = max_prefix.max(shared);
        max_suffix = max_suffix.max(s.len() - shared);
        blob_len += s.len() - shared;
        prev = s;
    }
    let wp = stream_width(max_prefix as u64, v.len());
    out.push(wp as u8);
    pack(out, wp, prefixes.iter().map(|&p| u64::from(p)));
    let ws = stream_width(max_suffix as u64, v.len());
    out.push(ws as u8);
    let suffix_lens = v
        .iter()
        .zip(&prefixes)
        .map(|(s, &p)| (s.len() - p as usize) as u64);
    pack(out, ws, suffix_lens);
    varint::write_u64(out, blob_len as u64);
    out.reserve(blob_len);
    for (s, &p) in v.iter().zip(&prefixes) {
        out.extend_from_slice(&s.as_bytes()[p as usize..]);
    }
}

fn int_stats(values: impl Iterator<Item = i64>) -> (i64, i64) {
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    let mut any = false;
    for v in values {
        min = min.min(v);
        max = max.max(v);
        any = true;
    }
    if any {
        (min, max)
    } else {
        (0, -1) // canonical empty: min > max
    }
}

fn common_prefix_len(a: &str, b: &str) -> usize {
    // Count matching bytes, then back off to a char boundary of `b`.
    let n = a
        .as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count();
    let mut n = n;
    while !b.is_char_boundary(n) {
        n -= 1;
    }
    n
}

/// The width that packs every value up to `max`, and at least 1 bit once
/// `rows` exceeds [`MAX_ZERO_WIDTH_ROWS`].
fn stream_width(max: u64, rows: usize) -> u32 {
    (u64::BITS - max.leading_zeros()).max(u32::from(rows > MAX_ZERO_WIDTH_ROWS))
}

/// The low `w` bits set.
fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}

/// Append each value's low `w` bits, least significant first, in exactly
/// ⌈n·w / 8⌉ bytes. Every value must fit in `w` bits.
fn pack(out: &mut Vec<u8>, w: u32, values: impl Iterator<Item = u64>) {
    if w == 0 {
        return;
    }
    // `used` bits of `acc` are filled; always below 64 between values
    let (mut acc, mut used) = (0u64, 0u32);
    for v in values {
        acc |= v << used;
        used += w;
        if used >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            used -= 64;
            // the bits of `v` that did not fit; none when it ended exactly
            acc = if used == 0 { 0 } else { v >> (w - used) };
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..used.div_ceil(8) as usize]);
}

/// One packed stream of a chunk, its length already checked against the
/// row count, so [`Packed::get`] reads any row below it.
struct Packed<'a> {
    bytes: &'a [u8],
    w: u32,
    mask: u64,
}

impl<'a> Packed<'a> {
    /// Read the width byte at `*pos` (at most `max_w`) and the stream of
    /// `rows` values behind it, advancing `*pos` past both.
    fn read(chunk: &'a [u8], pos: &mut usize, rows: usize, max_w: u32) -> Result<Packed<'a>> {
        let w = u32::from(
            *chunk
                .get(*pos)
                .ok_or_else(|| HybridError::Storage("packed stream width missing".into()))?,
        );
        *pos += 1;
        if w > max_w {
            return Err(HybridError::Storage(format!(
                "packed stream width {w} exceeds {max_w}"
            )));
        }
        if w == 0 && rows > MAX_ZERO_WIDTH_ROWS {
            return Err(HybridError::Storage(format!(
                "zero-width stream claims {rows} rows"
            )));
        }
        // rows < 2^32 and w ≤ 64, so the bit count fits a u64
        let len = (rows as u64 * u64::from(w)).div_ceil(8);
        let bytes = usize::try_from(len)
            .ok()
            .and_then(|len| chunk.get(*pos..)?.get(..len))
            .ok_or_else(|| HybridError::Storage("packed stream truncated".into()))?;
        *pos += bytes.len();
        Ok(Packed {
            bytes,
            w,
            mask: mask(w),
        })
    }

    /// Value `i`, which must be below the stream's row count.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        let bit = i * self.w as usize;
        let (at, shift) = (bit / 8, (bit % 8) as u32);
        let rest = self.bytes.get(at..).unwrap_or_default();
        // nine bytes hold any value of up to 64 bits at any bit offset
        let v = match rest.first_chunk::<9>() {
            Some(b) => {
                let (low, high) = (u64::from_le_bytes(b[..8].try_into().unwrap()), b[8]);
                (low >> shift) | (u64::from(high) << 1 << (63 - shift))
            }
            // the stream's last bytes: no padding follows them
            None => {
                (rest
                    .iter()
                    .rev()
                    .fold(0u128, |v, &b| v << 8 | u128::from(b))
                    >> shift) as u64
            }
        };
        v & self.mask
    }

    /// Every value of a stream at most 32 bits wide, in order: the bulk
    /// read of a whole chunk.
    fn unpack(&self, rows: usize) -> Vec<u32> {
        macro_rules! by_width {
            ($($w:literal)*) => {
                match self.w {
                    $($w => unpack::<$w>(self.bytes, rows),)*
                    w => unreachable!("bulk unpack of a {w}-bit stream"),
                }
            };
        }
        by_width!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
    }
}

/// [`Packed::unpack`] at a width known at compile time: eight values
/// take exactly `W` bytes, so each group of eight is read at constant
/// offsets from one 40-byte window.
fn unpack<const W: usize>(bytes: &[u8], rows: usize) -> Vec<u32> {
    let mut out = vec![0u32; rows.next_multiple_of(8)];
    if W > 0 {
        let mask = u64::MAX >> (64 - W);
        let mut tail = [0u8; 40];
        for (group, dst) in out.chunks_exact_mut(8).enumerate() {
            let rest = bytes.get(group * W..).unwrap_or_default();
            let window = match rest.first_chunk::<40>() {
                Some(window) => window,
                // the stream's last groups: no padding follows them
                None => {
                    tail.fill(0);
                    tail[..rest.len().min(W)].copy_from_slice(&rest[..rest.len().min(W)]);
                    &tail
                }
            };
            for (j, v) in dst.iter_mut().enumerate() {
                let bit = j * W;
                let word = u64::from_le_bytes(window[bit / 8..bit / 8 + 8].try_into().unwrap());
                *v = ((word >> (bit % 8)) & mask) as u32;
            }
        }
    }
    out.truncate(rows);
    out
}

/// Per-chunk integer statistics readable without decoding the values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStats {
    pub min: i64,
    pub max: i64,
    pub rows: usize,
}

struct Directory {
    ncols: usize,
    nrows: usize,
}

fn read_header(bytes: &[u8]) -> Result<Directory> {
    if bytes.len() < HEADER_LEN {
        return Err(HybridError::Storage(
            "columnar payload shorter than header".into(),
        ));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(HybridError::Storage("bad columnar magic".into()));
    }
    let ncols = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let nrows = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    if bytes.len() < HEADER_LEN + ncols * 8 {
        return Err(HybridError::Storage("columnar directory truncated".into()));
    }
    Ok(Directory { ncols, nrows })
}

fn chunk_slice<'a>(bytes: &'a [u8], dir: &Directory, col: usize) -> Result<&'a [u8]> {
    if col >= dir.ncols {
        return Err(HybridError::ColumnOutOfBounds {
            index: col,
            width: dir.ncols,
        });
    }
    let entry = HEADER_LEN + col * 8;
    let offset = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap()) as usize;
    let len = u32::from_le_bytes(bytes[entry + 4..entry + 8].try_into().unwrap()) as usize;
    bytes
        .get(offset..offset + len)
        .ok_or_else(|| HybridError::Storage("columnar chunk out of bounds".into()))
}

/// Decode a row group, reading **only** the projected columns.
///
/// Returns the batch and the number of payload bytes actually touched
/// (header + directory + projected chunks) — the projection-pushdown I/O
/// saving measured by the cost model. A wrapper over [`ColumnarReader`].
pub fn decode(
    schema: &Schema,
    bytes: &[u8],
    projection: Option<&[usize]>,
) -> Result<(Batch, usize)> {
    let r = crate::decode(crate::FileFormat::Columnar, schema, bytes, projection)?;
    Ok((r.batch, r.bytes_read))
}

/// One row group opened for reading. The header is checked once; each
/// column chunk is decoded on demand by [`ColumnarReader::column`].
pub struct ColumnarReader<'a> {
    schema: &'a Schema,
    bytes: &'a [u8],
    dir: Directory,
}

impl<'a> ColumnarReader<'a> {
    /// Check the header and that the row group has `schema`'s width.
    pub fn open(schema: &'a Schema, bytes: &'a [u8]) -> Result<ColumnarReader<'a>> {
        let dir = read_header(bytes)?;
        if dir.ncols != schema.len() {
            return Err(HybridError::SchemaMismatch(format!(
                "columnar payload has {} columns, schema {}",
                dir.ncols,
                schema.len()
            )));
        }
        Ok(ColumnarReader { schema, bytes, dir })
    }

    pub fn rows(&self) -> usize {
        self.dir.nrows
    }

    /// Payload bytes that reading `cols` touches: header, directory and
    /// each listed chunk.
    pub fn bytes_read(&self, cols: &[usize]) -> Result<usize> {
        cols.iter()
            .try_fold(HEADER_LEN + self.dir.ncols * 8, |n, &col| {
                Ok(n + chunk_slice(self.bytes, &self.dir, col)?.len())
            })
    }

    /// Decode column `col` at the rows `sel` lists (every row for `None`).
    /// The whole chunk's structure is checked either way; only the kept
    /// values are read.
    pub fn column(&self, col: usize, sel: Option<&SelectionVector>) -> Result<Column> {
        let chunk = chunk_slice(self.bytes, &self.dir, col)?;
        let dt = self.schema.field(col)?.data_type;
        if let Some(sel) = sel {
            crate::format::check_selection(sel, self.dir.nrows)?;
        }
        let sel = sel.map(SelectionVector::as_slice);
        let nrows = self.dir.nrows;
        Ok(match dt {
            DataType::I32 => Column::I32(decode_ints(chunk, nrows, sel, I32_RANGE, |v| v as i32)?),
            DataType::Date => {
                Column::Date(decode_ints(chunk, nrows, sel, I32_RANGE, |v| v as i32)?)
            }
            DataType::I64 => Column::I64(decode_ints(chunk, nrows, sel, I64_RANGE, |v| v)?),
            DataType::Utf8 => Column::Utf8(decode_strings(chunk, nrows, sel)?),
        })
    }
}

/// Check an integer chunk's structure, then read the rows `sel` lists by
/// index. `narrow` casts a value already checked to lie in `range`, the
/// column type's inclusive range.
fn decode_ints<T>(
    chunk: &[u8],
    nrows: usize,
    sel: Option<&[u32]>,
    range: (i64, i64),
    narrow: impl Fn(i64) -> T,
) -> Result<Vec<T>> {
    let mut pos = 0usize;
    let _min = varint::read_i64(chunk, &mut pos)?;
    let _max = varint::read_i64(chunk, &mut pos)?;
    let base = varint::read_i64(chunk, &mut pos)?;
    let offsets = Packed::read(chunk, &mut pos, nrows, 64)?;
    if pos != chunk.len() {
        return Err(HybridError::Storage(
            "integer chunk longer than its stream".into(),
        ));
    }
    let top = i128::from(base) + i128::from(mask(offsets.w));
    if base < range.0 || top > i128::from(range.1) {
        return Err(HybridError::Storage(
            "integer chunk window exceeds its column type".into(),
        ));
    }
    // in range by the window check: base + offset never overflows `T`
    let value = |i: usize| narrow(base.wrapping_add(offsets.get(i) as i64));
    Ok(match sel {
        None if offsets.w <= 32 => {
            let offsets = offsets.unpack(nrows).into_iter();
            offsets
                .map(|o| narrow(base.wrapping_add(i64::from(o))))
                .collect()
        }
        None => (0..nrows).map(value).collect(),
        Some(sel) => sel.iter().map(|&r| value(r as usize)).collect(),
    })
}

/// Check a string chunk's structure in one pass over its lengths, then
/// rebuild the rows `sel` keeps (ascending, below `nrows`).
fn decode_strings(chunk: &[u8], nrows: usize, sel: Option<&[u32]>) -> Result<Vec<String>> {
    let mut pos = 0usize;
    let prefixes = Packed::read(chunk, &mut pos, nrows, MAX_LEN_WIDTH)?.unpack(nrows);
    let mut ends = Packed::read(chunk, &mut pos, nrows, MAX_LEN_WIDTH)?.unpack(nrows);
    let blob_len = varint::read_u64(chunk, &mut pos)?;
    let blob = chunk
        .get(pos..)
        .filter(|blob| blob.len() as u64 == blob_len)
        .ok_or_else(|| {
            HybridError::Storage("string blob length disagrees with its chunk".into())
        })?;
    let text = std::str::from_utf8(blob)
        .map_err(|_| HybridError::Storage("non-UTF8 string suffix".into()))?;
    // Each suffix length becomes the blob offset past it. Rows and lengths
    // are below 2^32, so the sums fit; the blob is shorter than 2^32, so a
    // sum that a `u32` would truncate fails the tiling check before use.
    let (mut prev_len, mut end) = (0usize, 0usize);
    for (&shared, len) in prefixes.iter().zip(&mut ends) {
        if shared as usize > prev_len {
            return Err(HybridError::Storage("front-coding prefix overrun".into()));
        }
        prev_len = shared as usize + *len as usize;
        end += *len as usize;
        *len = end as u32;
    }
    if end != blob.len() {
        return Err(HybridError::Storage(
            "string suffixes do not tile their blob".into(),
        ));
    }

    let mut values = FrontCoded {
        prefixes: &prefixes,
        ends: &ends,
        text,
        value: String::new(),
        next: 0,
        pieces: Vec::new(),
    };
    let mut out = Vec::with_capacity(sel.map_or(nrows, <[u32]>::len));
    match sel {
        // Every value of an ASCII blob is ASCII, so its prefixes end on
        // character boundaries: only the kept rows need rebuilding.
        Some(sel) if text.is_ascii() => {
            for &row in sel {
                out.push(values.rebuild(row as usize)?.to_owned());
            }
        }
        // Otherwise each row's prefix is checked against its predecessor.
        _ => {
            let mut kept = sel.map(|sel| sel.iter().peekable());
            for row in 0..nrows {
                let value = values.rebuild(row)?;
                if kept
                    .as_mut()
                    .map_or(true, |k| k.next_if_eq(&&(row as u32)).is_some())
                {
                    out.push(value.to_owned());
                }
            }
        }
    }
    Ok(out)
}

/// The values of a string chunk whose lengths are checked, rebuilt in
/// ascending row order in one reused buffer.
struct FrontCoded<'a> {
    prefixes: &'a [u32],
    /// The blob offset past each row's suffix.
    ends: &'a [u32],
    text: &'a str,
    /// The value of row `next - 1` (empty before row 0).
    value: String,
    next: usize,
    /// `(blob offset, length)` of the suffix bytes the row being rebuilt
    /// takes from skipped rows, last row first.
    pieces: Vec<(usize, usize)>,
}

impl FrontCoded<'_> {
    fn suffix_start(&self, row: usize) -> usize {
        row.checked_sub(1).map_or(0, |r| self.ends[r] as usize)
    }

    /// The value of `row`, which is at or past `next`. The rows skipped
    /// on the way are walked back from `row` without being rebuilt: the
    /// bytes `row` shares with them come from the suffix of a skipped row
    /// only where its prefix is shorter than what is shared past it, and
    /// from the value of row `next - 1` below the shortest such prefix.
    fn rebuild(&mut self, row: usize) -> Result<&str> {
        let mut shared = self.prefixes[row] as usize;
        self.pieces.clear();
        for skipped in (self.next..row).rev() {
            let prefix = self.prefixes[skipped] as usize;
            if prefix < shared {
                let at = self.suffix_start(skipped);
                self.pieces.push((at, shared - prefix));
                shared = prefix;
            }
        }
        if !self.value.is_char_boundary(shared) {
            return Err(HybridError::Storage("front-coding prefix overrun".into()));
        }
        self.value.truncate(shared);
        let own = (self.suffix_start(row), self.ends[row] as usize);
        let pieces = self.pieces.iter().rev().map(|&(at, n)| (at, at + n));
        for (start, end) in pieces.chain([own]) {
            let suffix = self
                .text
                .get(start..end)
                .ok_or_else(|| HybridError::Storage("non-UTF8 string suffix".into()))?;
            self.value.push_str(suffix);
        }
        self.next = row + 1;
        Ok(&self.value)
    }
}

/// Read the min/max statistics of an integer column chunk without decoding
/// its values. Returns `None` for string columns or empty chunks.
///
/// JEN's scanner uses this for chunk skipping: a predicate `col <= t`
/// eliminates the whole block when `min > t`.
pub fn column_stats(schema: &Schema, bytes: &[u8], col: usize) -> Result<Option<ChunkStats>> {
    let dir = read_header(bytes)?;
    let dt = schema.field(col)?.data_type;
    if dt == DataType::Utf8 {
        return Ok(None);
    }
    let chunk = chunk_slice(bytes, &dir, col)?;
    let mut pos = 0usize;
    let min = varint::read_i64(chunk, &mut pos)?;
    let max = varint::read_i64(chunk, &mut pos)?;
    if min > max {
        return Ok(None); // canonical empty chunk
    }
    Ok(Some(ChunkStats {
        min,
        max,
        rows: dir.nrows,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

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
                Column::I32(vec![5, -1, 400]),
                Column::I64(vec![1 << 40, 0, -9]),
                Column::Date(vec![100, 101, 99]),
                Column::Utf8(vec![
                    "url_12/alpha".into(),
                    "url_12/alpine".into(),
                    "url_7/x".into(),
                ]),
            ],
        )
        .unwrap()
    }

    /// The byte range of column `col`'s chunk in an encoded row group.
    fn chunk_range(bytes: &[u8], col: usize) -> std::ops::Range<usize> {
        let entry = HEADER_LEN + col * 8;
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let start = word(entry);
        start..start + word(entry + 4)
    }

    /// `(base, width, position of the width byte)` of integer chunk `col`.
    fn int_header(bytes: &[u8], col: usize) -> (i64, u32, usize) {
        let mut pos = chunk_range(bytes, col).start;
        varint::read_i64(bytes, &mut pos).unwrap(); // min
        varint::read_i64(bytes, &mut pos).unwrap(); // max
        let base = varint::read_i64(bytes, &mut pos).unwrap();
        (base, u32::from(bytes[pos]), pos)
    }

    /// Positions of a string chunk's prefix width byte, suffix width byte
    /// and blob-length varint, for `rows` rows.
    fn string_layout(bytes: &[u8], col: usize, rows: usize) -> (usize, usize, usize) {
        let prefix_at = chunk_range(bytes, col).start;
        let stream_len = |at: usize| (rows * usize::from(bytes[at])).div_ceil(8);
        let suffix_at = prefix_at + 1 + stream_len(prefix_at);
        (prefix_at, suffix_at, suffix_at + 1 + stream_len(suffix_at))
    }

    /// Column `col` of `bytes` must fail with a `Storage` error naming
    /// `want` — read in full, at no rows and at row 0 alike.
    fn assert_corrupt(schema: &Schema, bytes: &[u8], col: usize, want: &str) {
        let err = decode(schema, bytes, Some(&[col])).unwrap_err();
        assert!(
            matches!(&err, HybridError::Storage(m) if m.contains(want)),
            "expected Storage({want}), got {err:?}"
        );
        let reader = ColumnarReader::open(schema, bytes).unwrap();
        for rows in [vec![], vec![0]] {
            let sel = SelectionVector::from_indexes(rows);
            assert_eq!(reader.column(col, Some(&sel)).unwrap_err(), err);
        }
    }

    #[test]
    fn integer_chunks_pack_in_the_narrowest_window_inside_the_type() {
        let cases = [
            (Column::I32(vec![]), 0, 0),       // empty chunk
            (Column::I32(vec![7; 100]), 0, 7), // constant column
            (
                Column::I32(vec![i32::MIN, 0, i32::MAX]),
                32,
                i64::from(i32::MIN),
            ),
            (Column::I64(vec![i64::MIN, -1, i64::MAX]), 64, i64::MIN),
            // base + 3 would pass i32::MAX at base = min, so base drops by one
            (
                Column::I32(vec![i32::MAX - 2, i32::MAX]),
                2,
                i64::from(i32::MAX) - 3,
            ),
            (Column::Date(vec![100, 101, 99]), 2, 99),
        ];
        for (col, w, base) in cases {
            let s = Schema::from_pairs(&[("v", col.data_type())]);
            let b = Batch::new(s.clone(), vec![col]).unwrap();
            let bytes = encode(&b);
            let (got_base, got_w, _) = int_header(&bytes, 0);
            assert_eq!((got_w, got_base), (w, base), "{b:?}");
            let reader = ColumnarReader::open(&s, &bytes).unwrap();
            let col = b.column(0).unwrap();
            assert_eq!(&reader.column(0, None).unwrap(), col);
            let odd: Vec<u32> = (1..b.num_rows() as u32).step_by(2).collect();
            let sel = SelectionVector::from_indexes(odd.clone());
            assert_eq!(reader.column(0, Some(&sel)).unwrap(), col.take(&odd));
        }
    }

    #[test]
    fn zero_width_streams_are_capped() {
        let s = Schema::from_pairs(&[("k", DataType::I32), ("s", DataType::Utf8)]);
        let n = MAX_ZERO_WIDTH_ROWS + 1;
        let long = Batch::new(
            s.clone(),
            vec![
                Column::I32(vec![5; n]),
                Column::Utf8(vec![String::new(); n]),
            ],
        )
        .unwrap();
        let bytes = encode(&long);
        assert_eq!(int_header(&bytes, 0).1, 1);
        assert_eq!(decode(&s, &bytes, None).unwrap().0, long);
        // one constant row whose header claims one row too many
        let one = Batch::new(
            s.clone(),
            vec![Column::I32(vec![5]), Column::Utf8(vec![String::new()])],
        )
        .unwrap();
        let mut bytes = encode(&one);
        bytes[8..12].copy_from_slice(&(n as u32).to_le_bytes());
        assert_corrupt(&s, &bytes, 0, "zero-width stream");
        assert_corrupt(&s, &bytes, 1, "zero-width stream");
    }

    #[test]
    fn corrupt_integer_width_and_base_are_errors() {
        let b = batch();
        let clean = encode(&b);
        let (_, w, at) = int_header(&clean, 0);
        assert_eq!(w, 9); // -1..=400
        for (width, want) in [
            (65, "width 65 exceeds 64"),
            (8, "longer than its stream"),
            (20, "packed stream truncated"),
        ] {
            let mut bytes = clean.clone();
            bytes[at] = width;
            assert_corrupt(&schema(), &bytes, 0, want);
        }

        let s = Schema::from_pairs(&[("k", DataType::I32)]);
        let b = Batch::new(s.clone(), vec![Column::I32(vec![i32::MAX - 2, i32::MAX])]).unwrap();
        let mut bytes = encode(&b);
        let (base, _, at) = int_header(&bytes, 0);
        // the base varint is the five bytes before the width byte
        assert_eq!(varint::zigzag(base) & 0x7F, u64::from(bytes[at - 5] & 0x7F));
        bytes[at - 5] += 2; // base + 1: the window now ends past i32::MAX
        assert_corrupt(&s, &bytes, 0, "window exceeds its column type");
    }

    #[test]
    fn corrupt_string_lengths_and_blob_length_are_errors() {
        let s = Schema::from_pairs(&[("s", DataType::Utf8)]);
        let urls = ["url_1/a", "url_1/b", "url_2/c"].map(String::from).to_vec();
        let b = Batch::new(s.clone(), vec![Column::Utf8(urls)]).unwrap();
        let clean = encode(&b);
        let (prefix_at, suffix_at, blob_len_at) = string_layout(&clean, 0, 3);
        assert_eq!((clean[prefix_at], clean[suffix_at]), (3, 3)); // [0, 6, 4], [7, 1, 3]

        // row 0 claims a 7-byte prefix of nothing
        let mut bytes = clean.clone();
        bytes[prefix_at + 1] = 0xFF;
        assert_corrupt(&s, &bytes, 0, "front-coding prefix overrun");
        // suffix lengths [7, 1, 0] leave the blob's last 3 bytes unread
        assert_eq!(clean[suffix_at + 1], 0b11_001_111);
        let mut bytes = clean.clone();
        bytes[suffix_at + 1] = 0b00_001_111;
        assert_corrupt(&s, &bytes, 0, "do not tile their blob");
        // [7, 7, 3] run past it
        let mut bytes = clean.clone();
        bytes[suffix_at + 1] = 0b11_111_111;
        assert_corrupt(&s, &bytes, 0, "do not tile their blob");
        let mut bytes = clean.clone();
        bytes[suffix_at] = 33;
        assert_corrupt(&s, &bytes, 0, "width 33 exceeds 32");
        // the blob length disagrees with the bytes left in the chunk
        assert_eq!(usize::from(clean[blob_len_at]), 11);
        for len in [10, 12] {
            let mut bytes = clean.clone();
            bytes[blob_len_at] = len;
            assert_corrupt(&s, &bytes, 0, "blob length disagrees");
        }
    }

    #[test]
    fn prefix_ending_inside_a_character_is_an_error() {
        let s = Schema::from_pairs(&[("s", DataType::Utf8)]);
        let b = Batch::new(s.clone(), vec![Column::Utf8(vec!["é".into(), "éa".into()])]).unwrap();
        let mut bytes = encode(&b);
        // prefix lengths [0, 2] at 2 bits each: 0b10_00; [0, 1] is 0b01_00
        let (prefix_at, _, _) = string_layout(&bytes, 0, 2);
        assert_eq!((bytes[prefix_at], bytes[prefix_at + 1]), (2, 0b1000));
        bytes[prefix_at + 1] = 0b0100;
        // every row is rebuilt for a non-ASCII blob, so a read of row 0
        // alone fails too
        assert_corrupt(&s, &bytes, 0, "front-coding prefix overrun");
        assert_eq!(
            decode(&s, &bytes, None).unwrap_err(),
            HybridError::Storage("front-coding prefix overrun".into())
        );
    }

    #[test]
    fn roundtrip_full() {
        let b = batch();
        let bytes = encode(&b);
        let (decoded, read) = decode(&schema(), &bytes, None).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(read, bytes.len());
    }

    #[test]
    fn projection_reads_fewer_bytes() {
        let b = batch();
        let bytes = encode(&b);
        let (decoded, read) = decode(&schema(), &bytes, Some(&[0])).unwrap();
        assert_eq!(decoded.schema().len(), 1);
        assert_eq!(decoded.column(0).unwrap().as_i32().unwrap(), &[5, -1, 400]);
        assert!(
            read < bytes.len(),
            "projected read {read} of {}",
            bytes.len()
        );
    }

    #[test]
    fn stats_readable_without_decode() {
        let b = batch();
        let bytes = encode(&b);
        let s = column_stats(&schema(), &bytes, 0).unwrap().unwrap();
        assert_eq!((s.min, s.max, s.rows), (-1, 400, 3));
        let s = column_stats(&schema(), &bytes, 2).unwrap().unwrap();
        assert_eq!((s.min, s.max), (99, 101));
        assert!(column_stats(&schema(), &bytes, 3).unwrap().is_none());
    }

    #[test]
    fn empty_batch_roundtrip_and_stats() {
        let b = Batch::empty(schema());
        let bytes = encode(&b);
        let (decoded, _) = decode(&schema(), &bytes, None).unwrap();
        assert_eq!(decoded.num_rows(), 0);
        assert!(column_stats(&schema(), &bytes, 0).unwrap().is_none());
    }

    #[test]
    fn front_coding_compresses_shared_prefixes() {
        let urls: Vec<String> = (0..1000)
            .map(|i| format!("url_42/very/long/common/path/segment/item{i}"))
            .collect();
        let s = Schema::from_pairs(&[("s", DataType::Utf8)]);
        let b = Batch::new(s.clone(), vec![Column::Utf8(urls)]).unwrap();
        let bytes = encode(&b);
        assert!(
            bytes.len() * 3 < b.serialized_bytes(),
            "front coding only reached {} of {}",
            bytes.len(),
            b.serialized_bytes()
        );
        let (decoded, _) = decode(&s, &bytes, None).unwrap();
        assert_eq!(decoded, b);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(decode(&schema(), b"", None).is_err());
        assert!(decode(&schema(), b"XXXXYYYYZZZZ", None).is_err());
        let short_schema = Schema::from_pairs(&[("k", DataType::I32)]);
        let bytes = encode(&batch());
        assert!(decode(&short_schema, &bytes, None).is_err());
        // truncating the payload loses chunk bytes
        let b = batch();
        let bytes = encode(&b);
        assert!(decode(&schema(), &bytes[..bytes.len() - 4], None).is_err());
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let s = Schema::from_pairs(&[("s", DataType::Utf8)]);
        let b = Batch::new(
            s.clone(),
            vec![Column::Utf8(vec![
                "héllo".into(),
                "héllò".into(),
                "日本語".into(),
            ])],
        )
        .unwrap();
        let (decoded, _) = decode(&s, &encode(&b), None).unwrap();
        assert_eq!(decoded, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_batch() -> impl Strategy<Value = Batch> {
        (0..40usize).prop_flat_map(|n| {
            (
                proptest::collection::vec(any::<i32>(), n..=n),
                proptest::collection::vec(any::<i64>(), n..=n),
                proptest::collection::vec(".{0,12}", n..=n), // arbitrary unicode
            )
                .prop_map(|(a, b, c)| {
                    Batch::new(
                        Schema::from_pairs(&[
                            ("k", DataType::I32),
                            ("u", DataType::I64),
                            ("s", DataType::Utf8),
                        ]),
                        vec![Column::I32(a), Column::I64(b), Column::Utf8(c)],
                    )
                    .unwrap()
                })
        })
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(b in arb_batch()) {
            let bytes = encode(&b);
            let (decoded, read) = decode(b.schema(), &bytes, None).unwrap();
            prop_assert_eq!(&decoded, &b);
            prop_assert_eq!(read, bytes.len());
        }

        #[test]
        fn projection_matches_full_decode(b in arb_batch(), cols in proptest::collection::vec(0usize..3, 1..3)) {
            let bytes = encode(&b);
            let (full, _) = decode(b.schema(), &bytes, None).unwrap();
            let (projected, _) = decode(b.schema(), &bytes, Some(&cols)).unwrap();
            prop_assert_eq!(projected, full.project(&cols).unwrap());
        }

        #[test]
        fn packed_streams_roundtrip_at_every_width(
            w in 0u32..65,
            values in proptest::collection::vec(any::<u64>(), 0..70),
        ) {
            let values: Vec<u64> = values.iter().map(|&v| v & mask(w)).collect();
            let mut bytes = vec![w as u8];
            pack(&mut bytes, w, values.iter().copied());
            prop_assert_eq!(bytes.len(), 1 + (values.len() * w as usize).div_ceil(8));
            let mut pos = 0;
            let packed = Packed::read(&bytes, &mut pos, values.len(), 64).unwrap();
            prop_assert_eq!(pos, bytes.len());
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(packed.get(i), v);
            }
            if w <= 32 {
                let bulk: Vec<u64> = packed.unpack(values.len()).into_iter().map(u64::from).collect();
                prop_assert_eq!(bulk, values);
            }
        }

        #[test]
        fn selected_ascii_strings_equal_full_decode_then_take(
            strings in proptest::collection::vec("[ab/]{0,8}", 0..80),
            bits in any::<u64>(),
        ) {
            // an ASCII chunk rebuilds only the kept rows, taking bytes from
            // the skipped rows between them
            let s = Schema::from_pairs(&[("s", DataType::Utf8)]);
            let b = Batch::new(s.clone(), vec![Column::Utf8(strings)]).unwrap();
            let bytes = encode(&b);
            let reader = ColumnarReader::open(&s, &bytes).unwrap();
            let rows: Vec<u32> = (0..b.num_rows() as u32).filter(|r| bits >> (r % 64) & 1 == 1).collect();
            let sel = SelectionVector::from_indexes(rows.clone());
            prop_assert_eq!(reader.column(0, Some(&sel)).unwrap(), b.column(0).unwrap().take(&rows));
        }

        #[test]
        fn stats_bound_values(b in arb_batch()) {
            let bytes = encode(&b);
            if b.num_rows() > 0 {
                let s = column_stats(b.schema(), &bytes, 0).unwrap().unwrap();
                let vals = b.column(0).unwrap().as_i32().unwrap();
                for &v in vals {
                    prop_assert!(i64::from(v) >= s.min && i64::from(v) <= s.max);
                }
            }
        }
    }
}
