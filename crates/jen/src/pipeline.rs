//! The Fig. 7 scan pipeline: reading and processing overlap.
//!
//! The paper dedicates a read thread per disk and a separate process thread
//! that parses, filters, applies the database Bloom filter and routes rows
//! to send buffers, all running concurrently (§4.4). This module reproduces
//! the structure with a dedicated **read thread** that pulls raw block bytes
//! from (simulated) HDFS through a small bounded queue while the **process
//! thread** decodes and filters — so I/O genuinely overlaps compute, block
//! `k+1` being fetched while block `k` is parsed.
//!
//! The result is bit-identical to [`JenWorker::scan_blocks`]; the
//! integration tests assert exactly that.

use crate::worker::{JenWorker, ScanSpec, ScanStats};
use crossbeam::channel::bounded;
use hybrid_bloom::BloomFilter;
use hybrid_common::batch::Batch;
use hybrid_common::error::Result;
use hybrid_common::ids::BlockId;
use hybrid_hdfs::TableMeta;
use std::sync::Arc;

/// How many raw blocks may sit between the read and process threads.
/// Small, like a real double-buffered reader: enough to hide latency, not
/// enough to buffer the table.
const READ_QUEUE_DEPTH: usize = 4;

/// Pipelined variant of [`JenWorker::scan_blocks`]: a read thread streams
/// raw blocks to the calling thread, which decodes/filters/projects. The
/// filtered, projected output of each surviving block comes back as its
/// own columnar batch, in block order — the shape the batched shuffle
/// consumes: routing starts on block `k` while block `k+1` is still being
/// fetched, and no whole-share copy is ever materialized.
pub fn scan_blocks_batched(
    worker: &JenWorker,
    table: &TableMeta,
    blocks: &[BlockId],
    spec: &ScanSpec,
    bloom: Option<&BloomFilter>,
) -> Result<(Vec<Batch>, ScanStats)> {
    let read_cols = spec.read_cols();
    let mut stats = ScanStats::default();
    let mut parts: Vec<Batch> = Vec::with_capacity(blocks.len());
    let span = worker
        .tracer()
        .start(worker.span_label(), hybrid_common::trace::Stage::Scan);

    std::thread::scope(|scope| -> Result<()> {
        let (tx, rx) = bounded::<Result<Arc<Vec<u8>>>>(READ_QUEUE_DEPTH);
        let hdfs = worker.hdfs().clone();
        let metrics = worker.metrics().clone();
        let datanode = worker.datanode();
        let block_list: Vec<BlockId> = blocks.to_vec();

        // The read thread: one block at a time, back-pressured by the queue.
        scope.spawn(move || {
            for block in block_list {
                let res = hdfs.read().read_block_into(block, datanode, &metrics);
                let failed = res.is_err();
                if tx.send(res).is_err() || failed {
                    return; // process side hung up, or read error delivered
                }
            }
        });

        // The process thread (this thread): decode, filter, bloom, project.
        while let Ok(delivery) = rx.recv() {
            let bytes = delivery?;
            if let Some(batch) =
                worker.process_block(table, &bytes, &read_cols, spec, bloom, &mut stats)?
            {
                parts.push(batch);
            }
        }
        Ok(())
    })?;

    span.done(stats.bytes_read as u64, stats.rows_raw as u64);
    worker.report(&stats);
    Ok((parts, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::error::HybridError;
    use hybrid_common::expr::Expr;
    use hybrid_common::ids::JenWorkerId;
    use hybrid_common::metrics::Metrics;
    use hybrid_common::schema::Schema;
    use hybrid_hdfs::HdfsCluster;
    use hybrid_storage::{encode, FileFormat};
    use parking_lot::RwLock;

    fn schema() -> Schema {
        Schema::from_pairs(&[("joinKey", DataType::I32), ("corPred", DataType::I32)])
    }

    fn setup(format: FileFormat, nblocks: usize) -> (JenWorker, TableMeta, Vec<BlockId>) {
        let metrics = Metrics::new();
        let mut hdfs = HdfsCluster::new(2, 1, metrics.clone()).unwrap();
        let blocks: Vec<Vec<u8>> = (0..nblocks)
            .map(|i| {
                let base = (i * 50) as i32;
                let b = Batch::new(
                    schema(),
                    vec![
                        Column::I32((base..base + 50).collect()),
                        Column::I32((base..base + 50).collect()),
                    ],
                )
                .unwrap();
                encode(format, &b)
            })
            .collect();
        hdfs.write_file("/L", blocks).unwrap();
        let ids: Vec<BlockId> = hdfs
            .file_blocks("/L")
            .unwrap()
            .iter()
            .map(|b| b.id)
            .collect();
        let meta = TableMeta {
            name: "L".into(),
            path: "/L".into(),
            format,
            schema: schema(),
        };
        (
            JenWorker::new(JenWorkerId(0), Arc::new(RwLock::new(hdfs)), metrics),
            meta,
            ids,
        )
    }

    fn spec() -> ScanSpec {
        ScanSpec {
            pred: Expr::col_le(1, 120),
            proj: vec![0],
            bloom_key: None,
        }
    }

    /// The batched scan's blocks, concatenated into one share.
    fn scan_concat(w: &JenWorker, meta: &TableMeta, ids: &[BlockId]) -> Result<(Batch, ScanStats)> {
        let (parts, stats) = scan_blocks_batched(w, meta, ids, &spec(), None)?;
        let schema = meta.schema.project(&spec().proj)?;
        Ok((Batch::concat(schema, &parts)?, stats))
    }

    #[test]
    fn pipelined_equals_sequential() {
        for format in [FileFormat::Text, FileFormat::Columnar] {
            let (w, meta, ids) = setup(format, 8);
            let (seq, seq_stats) = w.scan_blocks(&meta, &ids, &spec(), None).unwrap();
            let (pip, pip_stats) = scan_concat(&w, &meta, &ids).unwrap();
            assert_eq!(seq, pip, "format {format}");
            assert_eq!(seq_stats, pip_stats);
        }
    }

    #[test]
    fn many_blocks_deeper_than_queue() {
        // more blocks than READ_QUEUE_DEPTH exercises back-pressure
        let (w, meta, ids) = setup(FileFormat::Columnar, 32);
        let (out, stats) = scan_concat(&w, &meta, &ids).unwrap();
        assert_eq!(out.num_rows(), 121);
        assert!(stats.blocks_skipped > 0);
    }

    #[test]
    fn read_error_propagates() {
        let (w, meta, ids) = setup(FileFormat::Text, 4);
        // kill both replicas' nodes: reads fail
        {
            let hdfs = w.hdfs().clone();
            let mut guard = hdfs.write();
            guard.kill_datanode(hybrid_common::ids::DataNodeId(0));
            guard.kill_datanode(hybrid_common::ids::DataNodeId(1));
        }
        let err = scan_concat(&w, &meta, &ids).unwrap_err();
        assert!(matches!(err, HybridError::Storage(_)));
    }

    #[test]
    fn empty_block_list() {
        let (w, meta, _) = setup(FileFormat::Text, 2);
        let (out, stats) = scan_concat(&w, &meta, &[]).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(stats, ScanStats::default());
    }

    /// A worker with no blocks still starts a read thread, which hangs up
    /// at once while the process side waits in `recv`. A lost hang-up
    /// wake-up in the channel would block that scan forever.
    #[test]
    fn zero_block_scans_never_hang() {
        let (w, meta, _) = setup(FileFormat::Columnar, 1);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let scans = std::thread::spawn(move || {
            for _ in 0..2_000 {
                let (parts, stats) = scan_blocks_batched(&w, &meta, &[], &spec(), None).unwrap();
                assert!(parts.is_empty());
                assert_eq!(stats, ScanStats::default());
            }
            let _ = done_tx.send(());
        });
        let waited = done_rx.recv_timeout(std::time::Duration::from_secs(60));
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = waited {
            panic!("a zero-block scan hung waiting for its read thread");
        }
        scans.join().expect("zero-block scans failed");
    }
}
