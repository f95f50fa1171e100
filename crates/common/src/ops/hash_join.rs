//! In-memory equi-hash-join.
//!
//! Build over one input, probe with the other, exactly as JEN does in the
//! zigzag join (§4.4): the build side is chosen by the caller (JEN builds on
//! the filtered HDFS data because it arrives first; the DB optimizer builds
//! on whichever side is smaller).
//!
//! The table is flat. Distinct keys live in an open-addressing index
//! (linear probing, at most half full) hashed with
//! [`join_table_hash`], and each key owns one contiguous run of build-row
//! references in insertion order. `build` only appends: it assigns each row
//! its key's id. The first probe after a build seals the layout with one
//! stable counting sort of the rows by key id, so a lookup is one index
//! probe plus a slice — no per-key heap allocation, and a key's duplicates
//! are read sequentially.
//!
//! A probe may run through several tables at once: a star join's fact
//! batch looks up one foreign key per dimension ([`HashJoiner::probe_star`]),
//! and the binary join is the one-table case of the same loop.

use crate::batch::{Batch, BatchBuilder, Column};
use crate::error::{HybridError, Result};
use crate::hash::join_table_hash;
use crate::schema::Schema;
use std::sync::OnceLock;

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
    batches: Vec<Batch>,
    /// Distinct key -> key id, ids dense in first-seen order.
    index: KeyIndex,
    /// The key id of every build row, in insertion order.
    row_ids: Vec<u32>,
    /// Each key's build refs, contiguous; laid out by the first probe
    /// after a build.
    sealed: OnceLock<Sealed>,
}

/// The probe-side layout: key id `i`'s build refs — (batch index, row
/// index), in insertion order — are `refs[starts[i]..starts[i + 1]]`.
#[derive(Debug)]
struct Sealed {
    starts: Vec<u32>,
    refs: Vec<(u32, u32)>,
}

/// Open-addressing map from distinct key to dense id (linear probing, load
/// at most one half, capacity a power of two).
#[derive(Debug, Default)]
struct KeyIndex {
    slots: Vec<Slot>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: i64,
    /// [`FREE`] marks an empty slot.
    id: u32,
}

const FREE: u32 = u32::MAX;

impl KeyIndex {
    /// The slot holding `key`, or else the free slot where it would go.
    fn slot_of(&self, key: i64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = join_table_hash(key) as usize & mask;
        while self.slots[at].id != FREE && self.slots[at].key != key {
            at = (at + 1) & mask;
        }
        at
    }

    fn get(&self, key: i64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let slot = self.slots[self.slot_of(key)];
        (slot.id != FREE).then_some(slot.id)
    }

    /// The id of `key`, which becomes id `len` if it is new.
    fn get_or_insert(&mut self, key: i64) -> u32 {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let at = self.slot_of(key);
        if self.slots[at].id == FREE {
            self.slots[at] = Slot {
                key,
                id: self.len as u32,
            };
            self.len += 1;
        }
        self.slots[at].id
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot { key: 0, id: FREE }; cap]);
        for slot in old.into_iter().filter(|s| s.id != FREE) {
            let at = self.slot_of(slot.key);
            self.slots[at] = slot;
        }
    }

    fn keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.slots.iter().filter(|s| s.id != FREE).map(|s| s.key)
    }
}

/// Joined tuples of one probe batch against `k` tables, in order: probe
/// row `probe[t]` joins build row `build[axis][t]` of table `axis`.
#[derive(Debug)]
pub(crate) struct JoinPairs {
    probe: Vec<u32>,
    build: Vec<Vec<(u32, u32)>>,
}

impl JoinPairs {
    pub(crate) fn len(&self) -> usize {
        self.probe.len()
    }

    /// Keep the tuples whose `mask` entry is true, in order. Branch-free
    /// like [`SelectionVector::from_mask`](crate::batch::SelectionVector):
    /// every tuple is written, and the cursor advances by the mask bit.
    pub(crate) fn retain(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len());
        retain_by(&mut self.probe, mask);
        for refs in &mut self.build {
            retain_by(refs, mask);
        }
    }
}

fn retain_by<T: Copy>(v: &mut Vec<T>, mask: &[bool]) {
    let mut k = 0usize;
    for (i, &keep) in mask.iter().enumerate() {
        v[k] = v[i];
        k += keep as usize;
    }
    v.truncate(k);
}

impl HashJoiner {
    /// Create a joiner that builds on batches of `build_schema`, keyed by
    /// column `key_col` of the build side.
    pub fn new(build_schema: Schema, key_col: usize) -> HashJoiner {
        HashJoiner {
            build_schema,
            key_col,
            batches: Vec::new(),
            index: KeyIndex::default(),
            row_ids: Vec::new(),
            sealed: OnceLock::new(),
        }
    }

    /// Number of build rows indexed so far.
    pub fn build_rows(&self) -> usize {
        self.row_ids.len()
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
        let keys = batch.column(self.key_col)?.keys_i64()?;
        self.row_ids.reserve(keys.len());
        for &key in keys.iter() {
            self.row_ids.push(self.index.get_or_insert(key));
        }
        self.sealed.take();
        self.batches.push(batch);
        Ok(())
    }

    /// The probe-side layout, sealed on first use: a stable counting sort
    /// of the build rows by key id.
    fn sealed(&self) -> &Sealed {
        self.sealed.get_or_init(|| {
            // starts[i] first holds the end of key i's run; placing rows
            // back to front moves it down to the run's start
            let mut starts = vec![0u32; self.index.len + 1];
            for &id in &self.row_ids {
                starts[id as usize] += 1;
            }
            let mut end = 0u32;
            for s in &mut starts {
                end += *s;
                *s = end;
            }
            let mut refs = vec![(0u32, 0u32); self.row_ids.len()];
            let mut row_ids = self.row_ids.iter().rev();
            for (b, batch) in self.batches.iter().enumerate().rev() {
                for r in (0..batch.num_rows()).rev() {
                    let id = *row_ids.next().expect("one id per build row") as usize;
                    starts[id] -= 1;
                    refs[starts[id] as usize] = (b as u32, r as u32);
                }
            }
            Sealed { starts, refs }
        })
    }

    /// Probe with a batch; returns `build_row ++ probe_row` matches.
    ///
    /// `probe_key_col` indexes into the probe batch.
    pub fn probe(&self, probe: &Batch, probe_key_col: usize) -> Result<Batch> {
        HashJoiner::probe_star(
            &[self],
            probe.schema(),
            std::slice::from_ref(probe),
            &[probe_key_col],
        )
    }

    /// The join of `probes` (of `probe_schema`) through every table of
    /// `joiners`, table `axis` looked up by probe column
    /// `probe_keys[axis]`, as one batch in the layout `build_{k-1} ++ … ++
    /// build_0 ++ probe` — the layout a chain of [`HashJoiner::probe`]
    /// calls produces, in the same row order. Each output column is
    /// gathered once, across all probe batches.
    pub fn probe_star(
        joiners: &[&HashJoiner],
        probe_schema: &Schema,
        probes: &[Batch],
        probe_keys: &[usize],
    ) -> Result<Batch> {
        let pairs: Vec<JoinPairs> = probes
            .iter()
            .map(|p| probe_pairs(joiners, p, probe_keys))
            .collect::<Result<_>>()?;
        let rows = pairs.iter().map(JoinPairs::len).sum();
        let schema = joiners
            .iter()
            .fold(probe_schema.clone(), |acc, j| j.build_schema.join(&acc));
        let every: Vec<usize> = (0..schema.len()).collect();
        let mut out = BatchBuilder::with_capacity(schema, rows);
        for (probe, pairs) in probes.iter().zip(&pairs) {
            out.append_columns(pairs.len(), |columns| {
                extend_joined(columns, joiners, probe, pairs, &every)
            })?;
        }
        Ok(out.finish())
    }

    /// Append the `build_row ++ probe_row` matches of `probe` onto `out`:
    /// the appending form of [`HashJoiner::probe`], for joins whose tables
    /// come and go while one output accumulates (a spilled join's
    /// partitions).
    pub fn probe_append(
        &self,
        probe: &Batch,
        probe_key_col: usize,
        out: &mut BatchBuilder,
    ) -> Result<()> {
        let pairs = probe_pairs(&[self], probe, &[probe_key_col])?;
        let every: Vec<usize> = (0..self.build_schema.len() + probe.schema().len()).collect();
        out.append_columns(pairs.len(), |columns| {
            extend_joined(columns, &[self], probe, &pairs, &every)
        })
    }

    /// Distinct build keys (used for semi-join shipping in the baseline).
    pub fn distinct_keys(&self) -> Vec<i64> {
        let mut keys: Vec<i64> = self.index.keys().collect();
        keys.sort_unstable();
        keys
    }
}

/// The probe loop: every joined tuple of `probe` through `joiners`, table
/// `axis` looked up by probe column `probe_keys[axis]`. Tuples come out
/// probe row first, then table 0's matches, then table 1's, …; each key's
/// build rows in insertion order. Axis 0 expands the probe rows; each later
/// axis expands the tuples that survived the axes before it.
pub(crate) fn probe_pairs(
    joiners: &[&HashJoiner],
    probe: &Batch,
    probe_keys: &[usize],
) -> Result<JoinPairs> {
    debug_assert!(!joiners.is_empty() && joiners.len() == probe_keys.len());
    let mut pairs = JoinPairs {
        probe: Vec::new(),
        build: Vec::new(),
    };
    for (axis, (joiner, &key_col)) in joiners.iter().zip(probe_keys).enumerate() {
        let keys = probe.column(key_col)?.keys_i64()?;
        let sealed = joiner.sealed();
        let tuples = if axis == 0 {
            probe.num_rows()
        } else {
            pairs.len()
        };
        let mut next = JoinPairs {
            probe: Vec::with_capacity(tuples),
            build: vec![Vec::with_capacity(tuples); axis + 1],
        };
        // tuples of one probe row are adjacent: look its key up once
        let mut last: Option<(u32, &[(u32, u32)])> = None;
        for t in 0..tuples {
            let prow = if axis == 0 { t as u32 } else { pairs.probe[t] };
            let matches = match last {
                Some((p, m)) if p == prow => m,
                _ => {
                    let m = match joiner.index.get(keys[prow as usize]) {
                        Some(id) => {
                            let id = id as usize;
                            &sealed.refs[sealed.starts[id] as usize..sealed.starts[id + 1] as usize]
                        }
                        None => &[][..],
                    };
                    last = Some((prow, m));
                    m
                }
            };
            if matches.is_empty() {
                continue;
            }
            next.probe
                .extend(std::iter::repeat(prow).take(matches.len()));
            for (dst, src) in next.build.iter_mut().zip(&pairs.build) {
                dst.extend(std::iter::repeat(src[t]).take(matches.len()));
            }
            next.build[axis].extend_from_slice(matches);
        }
        pairs = next;
    }
    Ok(pairs)
}

/// Where joined column `c` of the layout `build_{k-1} ++ … ++ build_0 ++
/// probe` lives: `(Some(axis), column)` in table `axis`'s build side, or
/// `(None, column)` in the probe batch.
fn locate(joiners: &[&HashJoiner], mut c: usize) -> (Option<usize>, usize) {
    for (axis, j) in joiners.iter().enumerate().rev() {
        let width = j.build_schema.len();
        if c < width {
            return (Some(axis), c);
        }
        c -= width;
    }
    (None, c)
}

/// Append columns `cols` of the joined layout for every tuple of `pairs`,
/// one onto each of `out`.
fn extend_joined(
    out: &mut [Column],
    joiners: &[&HashJoiner],
    probe: &Batch,
    pairs: &JoinPairs,
    cols: &[usize],
) -> Result<()> {
    for (dst, &c) in out.iter_mut().zip(cols) {
        match locate(joiners, c) {
            (Some(axis), bc) => {
                let parts: Vec<&Column> = joiners[axis]
                    .batches
                    .iter()
                    .map(|b| &b.columns()[bc])
                    .collect();
                dst.extend_gather_parts(&parts, &pairs.build[axis])?;
            }
            (None, pc) => dst.extend_take(probe.column(pc)?, &pairs.probe)?,
        }
    }
    Ok(())
}

/// Columns `cols` of the joined layout for every tuple of `pairs`. The
/// batch has one row per tuple even when `cols` is empty.
pub(crate) fn gather(
    joiners: &[&HashJoiner],
    probe: &Batch,
    pairs: &JoinPairs,
    cols: &[usize],
) -> Result<Batch> {
    let mut fields = Vec::with_capacity(cols.len());
    for &c in cols {
        fields.push(match locate(joiners, c) {
            (Some(axis), bc) => joiners[axis].build_schema.field(bc)?.clone(),
            (None, pc) => probe.schema().field(pc)?.clone(),
        });
    }
    let mut columns: Vec<Column> = fields
        .iter()
        .map(|f| Column::with_capacity(f.data_type, pairs.len()))
        .collect();
    extend_joined(&mut columns, joiners, probe, pairs, cols)?;
    Batch::with_rows(Schema::new(fields), columns, pairs.len())
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
    fn build_after_probe_reseals() {
        let mut j = HashJoiner::new(build_batch(&[], &[]).schema().clone(), 0);
        j.build(build_batch(&[1, 2], &[10, 20])).unwrap();
        assert_eq!(
            j.probe(&probe_batch(&[1], &["x"]), 0).unwrap().num_rows(),
            1
        );
        j.build(build_batch(&[1, 3], &[11, 30])).unwrap();
        let out = j.probe(&probe_batch(&[1, 3], &["x", "y"]), 0).unwrap();
        let vals: Vec<i64> = (0..out.num_rows())
            .map(|r| out.row(r)[1].as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![10, 11, 30]);
        assert_eq!(j.distinct_keys(), vec![1, 2, 3]);
    }

    #[test]
    fn many_distinct_keys_grow_the_index() {
        let mut j = HashJoiner::new(build_batch(&[], &[]).schema().clone(), 0);
        for part in 0..3 {
            let keys: Vec<i32> = (0..3000).map(|i| i * 3 + part).collect();
            let vals: Vec<i64> = keys.iter().map(|&k| i64::from(k) * 10).collect();
            j.build(build_batch(&keys, &vals)).unwrap();
        }
        let keys: Vec<i32> = (-5..9005).rev().collect();
        let tags = vec!["t"; keys.len()];
        let out = j.probe(&probe_batch(&keys, &tags), 0).unwrap();
        assert_eq!(out.num_rows(), 9000);
        for r in 0..out.num_rows() {
            let row = out.row(r);
            assert_eq!(row[1].as_i64().unwrap(), row[2].as_i64().unwrap() * 10);
            assert_eq!(row[2].as_i64().unwrap(), 8999 - r as i64);
        }
        assert_eq!(j.distinct_keys().len(), 9000);
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
    use std::collections::BTreeSet;
    use std::collections::HashMap as Map;

    /// A key column of type `pick % 3` (`I32`, `I64`, `Date`) holding
    /// `keys`, clamped into the type's range.
    fn key_column(pick: u8, keys: &[i64]) -> (DataType, Column) {
        let narrow = |k: i64| k.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
        match pick % 3 {
            0 => (
                DataType::I32,
                Column::I32(keys.iter().map(|&k| narrow(k)).collect()),
            ),
            1 => (DataType::I64, Column::I64(keys.to_vec())),
            _ => (
                DataType::Date,
                Column::Date(keys.iter().map(|&k| narrow(k)).collect()),
            ),
        }
    }

    fn key_batch(pick: u8, keys: &[i64]) -> Batch {
        let (dt, col) = key_column(pick, keys);
        Batch::new(Schema::from_pairs(&[("k", dt)]), vec![col]).unwrap()
    }

    /// Keys from a small pool with the extremes of every key type, so
    /// duplicates are common; `one_key` collapses every key onto the first.
    fn keys(one_key: bool, picks: &[u8]) -> Vec<i64> {
        const POOL: [i64; 10] = [
            i64::MIN,
            i64::MAX,
            i32::MIN as i64,
            i32::MAX as i64,
            -7,
            -1,
            0,
            1,
            42,
            1 << 40,
        ];
        picks
            .iter()
            .map(|&p| POOL[if one_key { 0 } else { p as usize % POOL.len() }])
            .collect()
    }

    proptest! {
        /// The flat table's probe emits exactly the nested-loop join's
        /// `(build ref, probe row)` pairs: probe rows outer, each key's
        /// build rows in insertion order inner — across build batches,
        /// duplicate and extreme keys, one-key and empty builds.
        #[test]
        fn flat_table_equals_nested_loop_in_insertion_order(
            pick in 0u8..3,
            one_key in 0u8..4,
            build in proptest::collection::vec(proptest::collection::vec(0u8..10, 0..12), 0..4),
            probe in proptest::collection::vec(0u8..10, 0..24),
        ) {
            let one_key = one_key == 0;
            let builds: Vec<Vec<i64>> = build.iter().map(|b| keys(one_key, b)).collect();
            let probe_keys = keys(one_key, &probe);
            let mut j = HashJoiner::new(key_batch(pick, &[]).schema().clone(), 0);
            for b in &builds {
                j.build(key_batch(pick, b)).unwrap();
            }
            // what the column holds, after clamping into the key type
            let stored = |k: &[i64]| key_column(pick, k).1.keys_i64().unwrap().into_owned();
            let builds: Vec<Vec<i64>> = builds.iter().map(|b| stored(b)).collect();
            let probe_keys = stored(&probe_keys);

            let pairs = probe_pairs(&[&j], &key_batch(pick, &probe_keys), &[0]).unwrap();
            let mut expected = Vec::new();
            for (p, pk) in probe_keys.iter().enumerate() {
                for (b, batch) in builds.iter().enumerate() {
                    for (r, bk) in batch.iter().enumerate() {
                        if bk == pk {
                            expected.push(((b as u32, r as u32), p as u32));
                        }
                    }
                }
            }
            let got: Vec<((u32, u32), u32)> =
                pairs.build[0].iter().copied().zip(pairs.probe.iter().copied()).collect();
            prop_assert_eq!(got, expected);
            prop_assert_eq!(j.build_rows(), builds.iter().map(Vec::len).sum::<usize>());
            let distinct: BTreeSet<i64> = builds.iter().flatten().copied().collect();
            prop_assert_eq!(j.distinct_keys(), distinct.into_iter().collect::<Vec<_>>());
        }
    }

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
