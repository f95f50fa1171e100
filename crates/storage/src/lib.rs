//! HDFS file formats: delimited text and a Parquet-like columnar format.
//!
//! The paper evaluates every join on two layouts of the log table `L` (§5.4):
//!
//! * **text** — 1 TB of delimited rows. Scans must read and parse every byte
//!   of every row regardless of which columns the query needs;
//! * **Parquet + Snappy** — 421 GB columnar. The JEN I/O layer pushes
//!   projections down, reading only the needed column chunks.
//!
//! This crate reproduces that axis with two real encoders:
//!
//! * [`text`] — escaped, pipe-delimited rows; decoding always touches the
//!   full payload ([`DecodeResult::bytes_read`] equals the file size);
//! * [`columnar`] — per-column chunks with a directory, bit-packed
//!   frame-of-reference integers, split-stream front-coded strings, and
//!   per-chunk min/max statistics.
//!   Decoding with a projection reads only the projected chunks, and the
//!   min/max stats allow chunk skipping under `col <= v` predicates.
//!
//! The `bytes_read` accounting feeds the cost model: the paper's observed
//! 240 s (text) vs 38 s (columnar, projected) scan gap is driven exactly by
//! this quantity.

pub mod columnar;
pub mod format;
pub mod text;
pub mod varint;

pub use format::{decode, encode, BlockReader, DecodeResult, FileFormat};
