//! PERF join baseline — Li & Ross (CIKM '95), discussed in the paper's §6.
//!
//! PERF replaces the second semi-join value transfer with a **bitmap of
//! positions**: the first table ships its join keys *in tuple-scan order*
//! (duplicates included), the other side replies with one bit per received
//! key ("this position has a partner"), and the sender then selects exactly
//! the matching tuples by position — no values travel back, and no false
//! positives occur.
//!
//! The paper's criticism — "unlike Bloom join, it doesn't work well in
//! parallel settings, when there are lots of duplicated values" — falls out
//! of the construction: the forward transfer is one key **per tuple** of
//! `T'` (a Bloom filter's size is independent of duplication), and in a
//! partitioned cluster every key must be routed to the worker that owns its
//! hash partition before it can be tested. The ablation tests quantify
//! both effects against the zigzag join.
//!
//! Flow implemented here (the zigzag-compatible parallel adaptation):
//!
//! 1. JEN scans `L` under local predicates and shuffles `L'` by the agreed
//!    hash (as in the repartition join), so each worker owns a key range;
//! 2. DB workers route their `T'` join keys — in order, duplicates kept —
//!    to the owning JEN workers (`PerfKeys`);
//! 3. each JEN worker replies to each DB worker with a positional bitmap
//!    over the keys that worker sent it (`PerfBitmap`);
//! 4. DB workers reassemble the bitmaps (keyed by which JEN worker sent
//!    them — arrival order is arbitrary under parallel execution), select
//!    the matching `T'` tuples, and ship only those (`DbData`), exactly
//!    like the zigzag join's `T''`;
//! 5. local joins + aggregation as in the repartition join.

use crate::algorithms::{
    add_final_aggregation_steps, db_route_to_jen, db_scan_step, db_tasks, jen_probe_aggregate,
    jen_shuffle_l, jen_tasks, local_joiner, run_to_result, salted_replicate_route, Driver, TaskSet,
};
use crate::query::HybridQuery;
use crate::system::HybridSystem;
use hybrid_common::batch::{Batch, Column};
use hybrid_common::datum::DataType;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::hash::agreed_shuffle_partition;
use hybrid_common::ids::{DbWorkerId, JenWorkerId};
use hybrid_common::schema::Schema;
use hybrid_common::trace::Stage;
use hybrid_jen::pipeline::scan_blocks_batched;
use hybrid_net::{Endpoint, StreamTag};
use std::collections::HashSet;

pub(crate) fn execute(sys: &mut HybridSystem, query: &HybridQuery) -> Result<Batch> {
    let sys = &*sys;
    let driver = &Driver::from_config(&sys.config);
    let num_db = sys.config.db_workers;
    let num_jen = sys.config.jen_workers;

    let plan = &sys.coordinator.plan_scan(&query.hdfs_table)?;
    let scan_spec = &query.hdfs_scan(false);
    let l_schema = &plan.table.schema.project(&query.hdfs_proj)?;
    let key_schema = &Schema::from_pairs(&[("joinKey", DataType::I64)]);

    let mut db = TaskSet::new("db", db_tasks(sys, driver)?);
    let mut jen = TaskSet::new("jen", jen_tasks(sys, driver)?);

    // Step 0: T' per DB worker.
    db.step(10, move |w, st| {
        st.part = Some(db_scan_step(sys, query, driver, w)?);
        Ok(())
    });

    // Step 1: JEN scans and shuffles L' (repartition-style), block by
    // block; each worker then owns the keys of its hash partition.
    //
    // PERF's protocol is *positional*: steps 2–4 ship key lists and
    // bitmaps whose meaning is each tuple's ordinal within a worker's
    // received hash partition. So the per-row loops below are kept as the
    // faithful baseline the vectorized algorithms are measured against.
    jen.step(20, move |w, st| {
        let (l_blocks, _) = {
            let _permit = driver.compute_permit();
            let worker = &sys.jen_workers[w];
            scan_blocks_batched(worker, &plan.table, &plan.blocks[w], scan_spec, None)?
        };
        // PERF is never salted: the positional-bitmap protocol requires
        // each JEN worker to own *all* L' keys of its hash partition, which
        // splitting a hot key across salt workers would break.
        jen_shuffle_l(sys, query, st, w, &l_blocks, l_schema, None)
    });

    // Step 2: DB workers ship their T' key columns in tuple order,
    // duplicates included — PERF's forward transfer grows with |T'|, not
    // with the number of distinct keys.
    db.step(30, move |w, st| {
        let part = st.part.take().expect("T' scanned in step 10");
        let span = sys.tracer.start(format!("db-{w}"), Stage::ShuffleSend);
        let keys = part.column(query.db_key)?;
        let mut per_dest: Vec<Vec<i64>> = vec![Vec::new(); num_jen];
        for row in 0..part.num_rows() {
            let k = keys.key_at(row)?;
            per_dest[agreed_shuffle_partition(k, num_jen)].push(k);
        }
        let rows = part.num_rows() as u64;
        for (dst_idx, dest_keys) in per_dest.into_iter().enumerate() {
            let dst = Endpoint::Jen(JenWorkerId(dst_idx));
            let batch = Batch::new(key_schema.clone(), vec![Column::I64(dest_keys)])?;
            st.mailbox.send_data(dst, StreamTag::PerfKeys, &batch)?;
            st.mailbox.send_eos(dst, StreamTag::PerfKeys)?;
        }
        span.done(0, rows);
        st.part = Some(part);
        Ok(())
    });

    // Step 3: each JEN worker assembles its owned key set (local partition
    // + received shuffle) into the local joiner, and answers every DB
    // worker's key stream with a positional bitmap.
    jen.step(40, move |w, st| {
        let worker = &sys.jen_workers[w];
        let label = worker.span_label();
        let recv_span = sys.tracer.start(label.clone(), Stage::ShuffleRecv);
        let shuffled = st
            .mailbox
            .take_stream(StreamTag::HdfsShuffle, num_jen - 1)?;
        let recv_rows: u64 = shuffled.batches.iter().map(|b| b.num_rows() as u64).sum();
        recv_span.done(0, recv_rows);
        let local = st
            .local_part
            .take()
            .unwrap_or_else(|| Batch::empty(l_schema.clone()));
        let built_rows = local.num_rows() as u64 + recv_rows;
        sys.metrics
            .add(&format!("net.shuffle.rows.jen-{w}"), built_rows);
        let mut owned_keys: HashSet<i64> = HashSet::new();
        {
            let _permit = driver.compute_permit();
            let build_span = sys.tracer.start(label, Stage::HashBuild);
            let mut joiner = local_joiner(sys, l_schema.clone(), query.hdfs_key)?;
            collect_keys(&local, query.hdfs_key, &mut owned_keys)?;
            joiner.build(local)?;
            for b in shuffled.batches {
                collect_keys(&b, query.hdfs_key, &mut owned_keys)?;
                joiner.build(b)?;
            }
            build_span.done(0, built_rows);
            st.joiner = Some(joiner);
        }

        // Bitmap replies: deliveries from one sender arrive in send order,
        // so concatenating a sender's batches reproduces its routing order
        // and the bitmap positions align.
        let key_data = st.mailbox.take_stream(StreamTag::PerfKeys, num_db)?;
        let mut per_sender: Vec<Vec<bool>> = vec![Vec::new(); num_db];
        for (batch, from) in key_data.batches.iter().zip(&key_data.batch_senders) {
            let d = match from {
                Endpoint::Db(id) => id.index(),
                other => {
                    return Err(HybridError::exec(format!(
                        "PERF keys from non-DB endpoint {other}"
                    )))
                }
            };
            let keys = batch.column(0)?;
            for row in 0..batch.num_rows() {
                per_sender[d].push(owned_keys.contains(&keys.key_at(row)?));
            }
        }
        for (d, bits) in per_sender.into_iter().enumerate() {
            let dst = Endpoint::Db(DbWorkerId(d));
            st.mailbox
                .send_bloom(dst, StreamTag::PerfBitmap, pack_bits(&bits))?;
            st.mailbox.send_eos(dst, StreamTag::PerfBitmap)?;
        }
        Ok(())
    });

    // Step 4: DB workers reassemble bitmaps into per-position matches and
    // ship exactly the matching tuples.
    db.step(50, move |w, st| {
        let replies = st.mailbox.take_stream(StreamTag::PerfBitmap, num_jen)?;
        // bitmaps arrive in arbitrary order under parallel execution:
        // index them by the JEN worker that owns each hash partition
        let mut by_owner: Vec<Option<&Vec<u8>>> = vec![None; num_jen];
        for (bytes, from) in replies.blooms.iter().zip(&replies.bloom_senders) {
            match from {
                Endpoint::Jen(id) => by_owner[id.index()] = Some(bytes),
                other => {
                    return Err(HybridError::exec(format!(
                        "PERF bitmap from non-JEN endpoint {other}"
                    )))
                }
            }
        }
        let mut bitmaps: Vec<BitReader> = Vec::with_capacity(num_jen);
        for (owner, bytes) in by_owner.into_iter().enumerate() {
            bitmaps.push(BitReader::new(bytes.ok_or_else(|| {
                HybridError::exec(format!(
                    "PERF join missing the bitmap of jen-worker-{owner}"
                ))
            })?));
        }
        let part = st.part.take().expect("T' kept from step 30");
        let keys = part.column(query.db_key)?;
        let mut mask = Vec::with_capacity(part.num_rows());
        for row in 0..part.num_rows() {
            let owner = agreed_shuffle_partition(keys.key_at(row)?, num_jen);
            mask.push(bitmaps[owner].next()?);
        }
        let t_second = part.filter(&mask)?;
        sys.metrics
            .add("db.perf.t_rows_after_bitmap", t_second.num_rows() as u64);
        let route = salted_replicate_route(num_jen, query.db_key, None);
        db_route_to_jen(sys, st, w, &t_second, StreamTag::DbData, route)?;
        Ok(())
    });

    // Step 5: probe + aggregate (identical to the repartition epilogue).
    jen.step(60, move |w, st| {
        jen_probe_aggregate(sys, query, driver, st, w)
    });

    add_final_aggregation_steps(sys, &query.aggs, &mut jen, &mut db, 70)?;

    run_to_result(driver, db, jen)
}

fn collect_keys(batch: &Batch, key_col: usize, out: &mut HashSet<i64>) -> Result<()> {
    let keys = batch.column(key_col)?;
    for row in 0..batch.num_rows() {
        out.insert(keys.key_at(row)?);
    }
    Ok(())
}

/// Pack booleans LSB-first into bytes — the PERF bitmap wire format.
fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Sequential reader over a packed bitmap.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    fn next(&mut self) -> Result<bool> {
        let byte = self
            .bytes
            .get(self.pos / 8)
            .ok_or_else(|| HybridError::exec("PERF bitmap shorter than the key stream"))?;
        let bit = (byte >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_packing_roundtrip() {
        let bits = vec![
            true, false, true, true, false, false, false, true, true, false,
        ];
        let bytes = pack_bits(&bits);
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &bits {
            assert_eq!(r.next().unwrap(), b);
        }
    }

    #[test]
    fn bit_reader_overrun_errors() {
        let bytes = pack_bits(&[true]);
        let mut r = BitReader::new(&bytes);
        for _ in 0..8 {
            r.next().unwrap();
        }
        assert!(r.next().is_err());
    }

    #[test]
    fn empty_bitmap() {
        assert!(pack_bits(&[]).is_empty());
        let mut r = BitReader::new(&[]);
        assert!(r.next().is_err());
    }
}
