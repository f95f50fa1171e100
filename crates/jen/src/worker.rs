//! A JEN worker: scan-based processing of its assigned HDFS blocks.

use hybrid_bloom::{member_sel, ApproxMembership, BloomFilter};
use hybrid_common::batch::{Batch, Column, SelectionVector};
use hybrid_common::error::Result;
use hybrid_common::expr::Expr;
use hybrid_common::ids::{BlockId, DataNodeId, JenWorkerId};
use hybrid_common::metrics::Metrics;
use hybrid_common::trace::{Stage, Tracer};
use hybrid_hdfs::{HdfsCluster, TableMeta};
use hybrid_storage::{columnar, BlockReader, FileFormat};
use parking_lot::RwLock;
use std::sync::Arc;

/// What one scan should do to every block (paper step: "scan HDFS table,
/// apply local predicates, projection and `BF_DB`").
#[derive(Debug, Clone)]
pub struct ScanSpec {
    /// Local predicate over the table's base schema.
    pub pred: Expr,
    /// Output columns (base-schema indexes).
    pub proj: Vec<usize>,
    /// Join-key column (base-schema index) a Bloom filter applies to, if any.
    pub bloom_key: Option<usize>,
}

impl ScanSpec {
    /// Columns a scan reads from storage: predicate inputs, outputs, and
    /// the Bloom-filter key.
    pub(crate) fn read_cols(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .pred
            .referenced_columns()
            .into_iter()
            .chain(self.proj.iter().copied())
            .chain(self.bloom_key)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// Counters from one worker's scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    pub blocks_read: usize,
    pub blocks_skipped: usize,
    pub bytes_read: usize,
    pub rows_raw: usize,
    pub rows_after_pred: usize,
    pub rows_after_bloom: usize,
}

/// A JEN worker, co-located with DataNode `id` (one worker per DataNode).
pub struct JenWorker {
    id: JenWorkerId,
    hdfs: Arc<RwLock<HdfsCluster>>,
    metrics: Metrics,
    tracer: Tracer,
}

impl JenWorker {
    pub fn new(id: JenWorkerId, hdfs: Arc<RwLock<HdfsCluster>>, metrics: Metrics) -> JenWorker {
        JenWorker::with_tracer(id, hdfs, metrics, Tracer::new())
    }

    /// Like [`JenWorker::new`], but recording phase spans into a shared
    /// tracer (the system hands every worker the same one, so a run's
    /// timeline shows all workers on one clock).
    pub fn with_tracer(
        id: JenWorkerId,
        hdfs: Arc<RwLock<HdfsCluster>>,
        metrics: Metrics,
        tracer: Tracer,
    ) -> JenWorker {
        JenWorker {
            id,
            hdfs,
            metrics,
            tracer,
        }
    }

    pub fn id(&self) -> JenWorkerId {
        self.id
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Worker label used in timeline spans, e.g. `jen-2`.
    pub fn span_label(&self) -> String {
        format!("jen-{}", self.id.index())
    }

    /// The DataNode this worker is co-located with.
    pub fn datanode(&self) -> DataNodeId {
        DataNodeId(self.id.index())
    }

    /// Scan `blocks` of `table`, applying the spec and an optional database
    /// Bloom filter. Returns the filtered, projected rows of this worker's
    /// share plus the scan statistics.
    ///
    /// Per block: (columnar only) skip via chunk min/max when a `col <= b`
    /// predicate excludes it; otherwise decode the predicate's columns,
    /// apply `BF_DB` to the survivors, and build the projected columns only
    /// for the rows that remain.
    pub fn scan_blocks(
        &self,
        table: &TableMeta,
        blocks: &[BlockId],
        spec: &ScanSpec,
        bloom: Option<&BloomFilter>,
    ) -> Result<(Batch, ScanStats)> {
        let read_cols = spec.read_cols();
        let out_schema = table.schema.project(&spec.proj)?;
        let mut stats = ScanStats::default();
        let mut parts: Vec<Batch> = Vec::with_capacity(blocks.len());
        let span = self.tracer.start(self.span_label(), Stage::Scan);
        for &block in blocks {
            let bytes = self
                .hdfs
                .read()
                .read_block_into(block, self.datanode(), &self.metrics)?;
            match self.process_block(table, &bytes, &read_cols, spec, bloom, &mut stats)? {
                Some(batch) => parts.push(batch),
                None => continue,
            }
        }
        span.done(stats.bytes_read as u64, stats.rows_raw as u64);
        self.report(&stats);
        let out = Batch::concat(out_schema, &parts)?;
        Ok((out, stats))
    }

    /// Scan one raw block, late-materialising. `None` means the block was
    /// skipped entirely via columnar statistics.
    ///
    /// 1. (columnar only) skip the block when a `col <= b` conjunct's chunk
    ///    min exceeds `b`;
    /// 2. decode the predicate's columns at every row;
    /// 3. evaluate the predicate into a selection;
    /// 4. with `BF_DB`, read the key column at that selection and narrow
    ///    the selection to the keys the filter may contain;
    /// 5. decode each projected column at the final selection only, reusing
    ///    a column steps 2 or 4 already decoded.
    ///
    /// Every chunk of `read_cols` (columnar) or every field of the block
    /// (text) is still checked in full, so a malformed block fails as a
    /// full decode of `read_cols` would.
    pub(crate) fn process_block(
        &self,
        table: &TableMeta,
        bytes: &[u8],
        read_cols: &[usize],
        spec: &ScanSpec,
        bloom: Option<&BloomFilter>,
        stats: &mut ScanStats,
    ) -> Result<Option<Batch>> {
        if table.format == FileFormat::Columnar {
            // chunk skipping: any `col <= bound` conjunct whose chunk min
            // exceeds the bound kills the whole block
            for (col, bound) in spec.pred.le_conjuncts() {
                if let Some(cs) = columnar::column_stats(&table.schema, bytes, col)? {
                    if cs.min > bound {
                        stats.blocks_skipped += 1;
                        return Ok(None);
                    }
                }
            }
        }
        let reader = BlockReader::open(table.format, &table.schema, bytes)?;
        let rows = reader.rows();
        stats.blocks_read += 1;
        stats.bytes_read += reader.bytes_read(read_cols)?;
        stats.rows_raw += rows;

        // the predicate over its own columns, decoded in full; a predicate
        // that reads none still sees `rows` rows
        let pred_cols: Vec<usize> = spec.pred.referenced_columns().into_iter().collect();
        let pred_input = Batch::with_rows(
            table.schema.project(&pred_cols)?,
            pred_cols
                .iter()
                .map(|&c| reader.column(c, None))
                .collect::<Result<_>>()?,
            rows,
        )?;
        let pred = spec
            .pred
            .remap_columns(&|c| pred_cols.binary_search(&c).ok())
            .expect("pred_cols lists every column the predicate reads");
        let mut sel = SelectionVector::from_mask(&pred.eval_predicate(&pred_input)?);
        stats.rows_after_pred += sel.len();

        // column `col` at `sel`: a take from the predicate's input when it
        // holds `col`, else a walk of the column's chunk
        let at = |col: usize, sel: &SelectionVector| -> Result<Column> {
            match pred_cols.binary_search(&col) {
                Ok(i) => Ok(pred_input.column(i)?.take(sel.as_slice())),
                Err(_) => reader.column(col, Some(sel)),
            }
        };
        // the Bloom key read at the predicate's survivors, and the rows of
        // it the filter kept
        let mut bloom_keys: Option<(usize, Column, SelectionVector)> = None;
        if let (Some(key), Some(bf)) = (spec.bloom_key, bloom) {
            let keys = at(key, &sel)?;
            let rows_in = sel.len() as u64;
            let span = self.tracer.start(self.span_label(), Stage::BloomApply);
            let keep = member_sel(&keys.keys_i64()?, bf);
            sel = SelectionVector::from_indexes(
                keep.as_slice()
                    .iter()
                    .map(|&i| sel.as_slice()[i as usize])
                    .collect(),
            );
            span.done(0, rows_in);
            bloom_keys = Some((key, keys, keep));
        }
        stats.rows_after_bloom += sel.len();

        let mut columns = Vec::with_capacity(spec.proj.len());
        for &col in &spec.proj {
            columns.push(match &bloom_keys {
                Some((key, keys, keep)) if *key == col => keys.take(keep.as_slice()),
                _ => at(col, &sel)?,
            });
        }
        // without a filter the Bloom key is read only to be checked
        if let (Some(key), None) = (spec.bloom_key, bloom) {
            if pred_cols.binary_search(&key).is_err() && !spec.proj.contains(&key) {
                reader.column(key, Some(&SelectionVector::default()))?;
            }
        }
        Ok(Some(Batch::with_rows(
            table.schema.project(&spec.proj)?,
            columns,
            sel.len(),
        )?))
    }

    pub(crate) fn report(&self, stats: &ScanStats) {
        let m = &self.metrics;
        m.add("jen.scan.blocks_read", stats.blocks_read as u64);
        m.add("jen.scan.blocks_skipped", stats.blocks_skipped as u64);
        m.add("jen.scan.bytes_read", stats.bytes_read as u64);
        m.add("jen.scan.rows_raw", stats.rows_raw as u64);
        m.add("jen.scan.rows_after_pred", stats.rows_after_pred as u64);
        m.add("jen.scan.rows_after_bloom", stats.rows_after_bloom as u64);
    }

    pub(crate) fn hdfs(&self) -> &Arc<RwLock<HdfsCluster>> {
        &self.hdfs
    }

    /// Collect the join keys of this worker's filtered block batches into
    /// a Bloom filter (zigzag step 3b: "compute `BF_H`"). `key_col` indexes
    /// into each batch (the already-projected scan output). One BloomBuild
    /// span and one metering add cover the whole share; each block's key
    /// column is widened once and inserted vectorized.
    pub fn build_bloom_from_blocks(
        &self,
        blocks: &[Batch],
        key_col: usize,
        mut filter: BloomFilter,
    ) -> Result<BloomFilter> {
        let span = self.tracer.start(self.span_label(), Stage::BloomBuild);
        let mut rows = 0u64;
        for batch in blocks {
            let keys = batch.column(key_col)?.keys_i64()?;
            filter.insert_all(&keys);
            rows += batch.num_rows() as u64;
        }
        span.done(filter.wire_bytes() as u64, rows);
        self.metrics.add("jen.bloom.keys_inserted", rows);
        Ok(filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_bloom::filter_batch;
    use hybrid_bloom::BloomParams;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::schema::Schema;
    use hybrid_storage::encode;

    fn l_schema() -> Schema {
        Schema::from_pairs(&[
            ("joinKey", DataType::I32),
            ("corPred", DataType::I32),
            ("indPred", DataType::I32),
            ("url", DataType::Utf8),
        ])
    }

    fn l_block(key_lo: i32, n: i32) -> Batch {
        Batch::new(
            l_schema(),
            vec![
                Column::I32((key_lo..key_lo + n).collect()),
                Column::I32((key_lo..key_lo + n).collect()), // corPred == joinKey
                Column::I32((0..n).map(|i| i % 4).collect()),
                Column::Utf8((0..n).map(|i| format!("url_{i}/x")).collect()),
            ],
        )
        .unwrap()
    }

    fn setup(format: FileFormat) -> (JenWorker, TableMeta, Vec<BlockId>, Metrics) {
        let metrics = Metrics::new();
        let mut hdfs = HdfsCluster::new(2, 1, metrics.clone()).unwrap();
        let blocks: Vec<Vec<u8>> = (0..4)
            .map(|i| encode(format, &l_block(i * 100, 100)))
            .collect();
        hdfs.write_file("/w/L", blocks).unwrap();
        let ids: Vec<BlockId> = hdfs
            .file_blocks("/w/L")
            .unwrap()
            .iter()
            .map(|b| b.id)
            .collect();
        let meta = TableMeta {
            name: "L".into(),
            path: "/w/L".into(),
            format,
            schema: l_schema(),
        };
        let worker = JenWorker::new(JenWorkerId(0), Arc::new(RwLock::new(hdfs)), metrics.clone());
        (worker, meta, ids, metrics)
    }

    fn spec() -> ScanSpec {
        ScanSpec {
            pred: Expr::col_le(1, 149).and(Expr::col_le(2, 1)), // corPred<=149, indPred<=1
            proj: vec![0, 3],
            bloom_key: Some(0),
        }
    }

    #[test]
    fn scan_filters_and_projects_text() {
        let (w, meta, ids, _) = setup(FileFormat::Text);
        let (out, stats) = w.scan_blocks(&meta, &ids, &spec(), None).unwrap();
        // corPred <= 149: blocks 0 (100 rows) and half of block 1, then
        // indPred <= 1 halves again
        assert_eq!(stats.rows_raw, 400);
        assert_eq!(stats.rows_after_pred, 75 + 1);
        assert_eq!(out.num_rows(), 76);
        assert_eq!(out.schema().len(), 2);
        assert_eq!(out.schema().field(1).unwrap().name, "url");
        assert_eq!(stats.blocks_skipped, 0);
    }

    #[test]
    fn columnar_skips_blocks_via_stats() {
        let (w, meta, ids, _) = setup(FileFormat::Columnar);
        let (out, stats) = w.scan_blocks(&meta, &ids, &spec(), None).unwrap();
        // blocks 2 and 3 have corPred min 200/300 > 149: skipped outright
        assert_eq!(stats.blocks_skipped, 2);
        assert_eq!(stats.blocks_read, 2);
        assert_eq!(stats.rows_raw, 200);
        assert_eq!(out.num_rows(), 76);
    }

    #[test]
    fn columnar_reads_fewer_bytes_than_text() {
        let (wt, mt, idst, _) = setup(FileFormat::Text);
        let (wc, mc, idsc, _) = setup(FileFormat::Columnar);
        let (_, st) = wt.scan_blocks(&mt, &idst, &spec(), None).unwrap();
        let (_, sc) = wc.scan_blocks(&mc, &idsc, &spec(), None).unwrap();
        assert!(
            sc.bytes_read * 2 < st.bytes_read,
            "columnar {} vs text {}",
            sc.bytes_read,
            st.bytes_read
        );
    }

    #[test]
    fn bloom_filter_prunes_rows() {
        let (w, meta, ids, _) = setup(FileFormat::Columnar);
        let mut bf = BloomFilter::new(BloomParams::new(1 << 14, 2).unwrap());
        // only keys 0..10 may join
        for k in 0..10 {
            bf.insert(k);
        }
        let (out, stats) = w.scan_blocks(&meta, &ids, &spec(), Some(&bf)).unwrap();
        assert!(stats.rows_after_bloom < stats.rows_after_pred);
        // all surviving keys are in the filter (no false negatives ever)
        let keys = out.column(0).unwrap().as_i32().unwrap();
        for &k in keys {
            assert!(bf.may_contain(i64::from(k)));
        }
        // true members with indPred<=1 pass: keys 0..10 with indPred<=1 → 5 rows minimum
        assert!(stats.rows_after_bloom >= 5);
    }

    #[test]
    fn metrics_reported() {
        let (w, meta, ids, m) = setup(FileFormat::Columnar);
        w.scan_blocks(&meta, &ids, &spec(), None).unwrap();
        assert_eq!(m.get("jen.scan.blocks_skipped"), 2);
        assert!(m.get("jen.scan.bytes_read") > 0);
        assert_eq!(m.get("jen.scan.rows_after_pred"), 76);
    }

    #[test]
    fn build_bloom_from_covers_batch_keys() {
        let (w, meta, ids, m) = setup(FileFormat::Columnar);
        let (out, _) = w.scan_blocks(&meta, &ids, &spec(), None).unwrap();
        let bf = w
            .build_bloom_from_blocks(
                std::slice::from_ref(&out),
                0,
                BloomFilter::new(BloomParams::new(1 << 14, 2).unwrap()),
            )
            .unwrap();
        let keys = out.column(0).unwrap().as_i32().unwrap();
        for &k in keys {
            assert!(bf.may_contain(i64::from(k)));
        }
        assert_eq!(m.get("jen.bloom.keys_inserted"), out.num_rows() as u64);
    }

    #[test]
    fn projection_only_scan_without_bloom_key() {
        let (w, meta, ids, _) = setup(FileFormat::Columnar);
        let s = ScanSpec {
            pred: Expr::col_le(1, 99),
            proj: vec![3],
            bloom_key: None,
        };
        let (out, _) = w.scan_blocks(&meta, &ids, &s, None).unwrap();
        assert_eq!(out.num_rows(), 100);
        assert_eq!(out.schema().len(), 1);
    }

    /// The scan as decode → predicate → `filter` → `filter_batch` →
    /// `project`, from public pieces only.
    fn oracle(
        meta: &TableMeta,
        bytes: &[u8],
        spec: &ScanSpec,
        bloom: Option<&BloomFilter>,
        stats: &mut ScanStats,
    ) -> Option<Batch> {
        if meta.format == FileFormat::Columnar {
            for (col, bound) in spec.pred.le_conjuncts() {
                let cs = columnar::column_stats(&meta.schema, bytes, col).unwrap();
                if cs.is_some_and(|cs| cs.min > bound) {
                    stats.blocks_skipped += 1;
                    return None;
                }
            }
        }
        let read_cols = spec.read_cols();
        let decoded =
            hybrid_storage::decode(meta.format, &meta.schema, bytes, Some(&read_cols)).unwrap();
        stats.blocks_read += 1;
        stats.bytes_read += decoded.bytes_read;
        // a full decode gives a batch its rows even when no column is read
        let full = hybrid_storage::decode(meta.format, &meta.schema, bytes, None).unwrap();
        stats.rows_raw += full.batch.num_rows();
        let mask = spec.pred.eval_predicate(&full.batch).unwrap();
        let mut batch = full.batch.filter(&mask).unwrap();
        stats.rows_after_pred += batch.num_rows();
        if let (Some(key), Some(bf)) = (spec.bloom_key, bloom) {
            batch = filter_batch(&batch, key, bf).unwrap().0;
        }
        stats.rows_after_bloom += batch.num_rows();
        Some(batch.project(&spec.proj).unwrap())
    }

    #[test]
    fn late_materialising_scan_equals_decode_filter_project() {
        // strings with multi-byte characters and the text delimiter
        let block = |lo: i32| {
            let mut columns = l_block(lo, 100).columns().to_vec();
            columns[3] = Column::Utf8((0..100).map(|i| format!("url_{}/é|{i}", i % 7)).collect());
            Batch::new(l_schema(), columns).unwrap()
        };
        let mut bf = BloomFilter::new(BloomParams::new(1 << 12, 2).unwrap());
        (0..400).step_by(3).for_each(|k| bf.insert(k));
        let always = |v: i64| Expr::lit_i64(0).le(Expr::lit_i64(v));
        let preds = [
            // disjoint from the projections below, with a skippable bound
            Expr::col_le(1, 149).and(Expr::col_le(2, 1)),
            // overlaps them: the key, and the string column through the UDF
            Expr::col_le(0, 250),
            Expr::ExtractGroup(Box::new(Expr::col(3))).le(Expr::lit_i64(3)),
            // reads no column: all rows or none
            always(1),
            always(-1),
        ];
        let shapes = [
            (vec![0, 3], Some(0)), // key inside the projection
            (vec![3], Some(0)),    // key outside it
            (vec![3, 1], None),
            (vec![], Some(2)),
        ];
        for format in [FileFormat::Text, FileFormat::Columnar] {
            let (w, meta, _, _) = setup(format);
            let blocks: Vec<Vec<u8>> = (0..4).map(|i| encode(format, &block(i * 100))).collect();
            for pred in &preds {
                for (proj, bloom_key) in &shapes {
                    let spec = ScanSpec {
                        pred: pred.clone(),
                        proj: proj.clone(),
                        bloom_key: *bloom_key,
                    };
                    let read_cols = spec.read_cols();
                    for bloom in [None, Some(&bf)] {
                        let (mut got, mut want) = (ScanStats::default(), ScanStats::default());
                        for bytes in &blocks {
                            let out = w
                                .process_block(&meta, bytes, &read_cols, &spec, bloom, &mut got)
                                .unwrap();
                            let expected = oracle(&meta, bytes, &spec, bloom, &mut want);
                            assert_eq!(
                                out,
                                expected,
                                "{format} {spec:?} bloom {}",
                                bloom.is_some()
                            );
                        }
                        assert_eq!(got, want, "{format} {spec:?} bloom {}", bloom.is_some());
                    }
                }
            }
        }
    }

    #[test]
    fn empty_block_list_gives_empty_batch() {
        let (w, meta, _, _) = setup(FileFormat::Text);
        let (out, stats) = w.scan_blocks(&meta, &[], &spec(), None).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(stats.blocks_read, 0);
    }
}
