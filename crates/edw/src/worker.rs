//! One shared-nothing database worker (a DB2 DPF agent).

use crate::index::CoveringIndex;
use hybrid_bloom::BloomFilter;
use hybrid_common::batch::Batch;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::expr::Expr;
use hybrid_common::ids::DbWorkerId;
use hybrid_common::metrics::Metrics;
use std::collections::HashMap;
use std::sync::Arc;

/// A database worker: owns one hash partition of every loaded table plus
/// any covering indexes built over them.
///
/// Partitions and indexes are stored behind `Arc` so that a service-layer
/// *session* ([`DbWorker::session`]) can share the loaded data with the
/// root worker while metering into its own registry — loading a table is
/// expensive, cloning a worker for a session is a handful of refcounts.
#[derive(Debug)]
pub struct DbWorker {
    id: DbWorkerId,
    /// table name -> this worker's partition
    partitions: HashMap<String, Arc<Batch>>,
    /// table name -> indexes over the local partition
    indexes: HashMap<String, Vec<Arc<CoveringIndex>>>,
    metrics: Metrics,
}

impl DbWorker {
    pub fn new(id: DbWorkerId, metrics: Metrics) -> DbWorker {
        DbWorker {
            id,
            partitions: HashMap::new(),
            indexes: HashMap::new(),
            metrics,
        }
    }

    /// A clone of this worker that shares its (immutable) partitions and
    /// indexes but meters all access into `metrics` instead of the root
    /// registry.
    pub fn session(&self, metrics: Metrics) -> DbWorker {
        DbWorker {
            id: self.id,
            partitions: self.partitions.clone(),
            indexes: self.indexes.clone(),
            metrics,
        }
    }

    pub fn id(&self) -> DbWorkerId {
        self.id
    }

    pub(crate) fn store_partition(&mut self, table: &str, partition: Batch) {
        self.partitions
            .insert(table.to_string(), Arc::new(partition));
        self.indexes.remove(table); // stale indexes die with the old data
    }

    pub fn partition(&self, table: &str) -> Result<&Batch> {
        self.partitions
            .get(table)
            .map(Arc::as_ref)
            .ok_or_else(|| HybridError::exec(format!("{}: no table {table:?}", self.id)))
    }

    pub(crate) fn add_index(&mut self, table: &str, base_cols: &[usize]) -> Result<()> {
        let partition = self.partition(table)?.clone();
        let idx = CoveringIndex::build(&partition, base_cols)?;
        self.indexes
            .entry(table.to_string())
            .or_default()
            .push(Arc::new(idx));
        Ok(())
    }

    fn indexes_for(&self, table: &str) -> &[Arc<CoveringIndex>] {
        self.indexes.get(table).map_or(&[], Vec::as_slice)
    }

    /// Pick an index that covers `needed` columns, preferring one whose
    /// leading column is used by a `col <= bound` conjunct of `pred` (so the
    /// prefix range access prunes work).
    fn choose_index(
        &self,
        table: &str,
        needed: &[usize],
        lead_candidates: &[usize],
    ) -> Option<&CoveringIndex> {
        let mut best: Option<&CoveringIndex> = None;
        for idx in self.indexes_for(table).iter().map(Arc::as_ref) {
            if !idx.covers(needed.iter().copied()) {
                continue;
            }
            let lead_is_pruned = lead_candidates.contains(&idx.base_cols()[0]);
            match best {
                None => best = Some(idx),
                Some(b) => {
                    let b_pruned = lead_candidates.contains(&b.base_cols()[0]);
                    // prefer prunable lead, then narrower index
                    if (lead_is_pruned && !b_pruned)
                        || (lead_is_pruned == b_pruned
                            && idx.base_cols().len() < b.base_cols().len())
                    {
                        best = Some(idx);
                    }
                }
            }
        }
        best
    }

    /// Evaluate `pred` over the local partition of `table` and project to
    /// `proj` (base-table column indexes). Uses an index-only plan when a
    /// covering index exists; falls back to a full partition scan.
    ///
    /// Metering: `db.scan.rows` / `db.scan.bytes` for base-table access,
    /// `db.index.rows` / `db.index.bytes` for index-only access.
    pub fn scan_filter_project(&self, table: &str, pred: &Expr, proj: &[usize]) -> Result<Batch> {
        if let Some(idx) = self.access_index(table, pred, proj) {
            let remapped = idx
                .remap(pred)
                .expect("covering index covers predicate columns");
            // prefix-prune when the lead column has a `<= bound` conjunct
            let lead_base = idx.base_cols()[0];
            let (rows_touched, candidates) = match le_bound_for(pred, lead_base) {
                Some(bound) => idx.prefix_le(bound)?,
                None => (idx.len(), idx.full().clone()),
            };
            self.metrics.add("db.index.rows", rows_touched as u64);
            self.metrics
                .add("db.index.bytes", candidates.serialized_bytes() as u64);
            let mask = remapped.eval_predicate(&candidates)?;
            let filtered = candidates.filter(&mask)?;
            let index_proj: Vec<usize> = proj
                .iter()
                .map(|&c| idx.position_of(c).expect("covered"))
                .collect();
            return filtered.project(&index_proj);
        }

        let partition = self.partition(table)?;
        self.metrics
            .add("db.scan.rows", partition.num_rows() as u64);
        self.metrics
            .add("db.scan.bytes", partition.serialized_bytes() as u64);
        let mask = pred.eval_predicate(partition)?;
        partition.filter(&mask)?.project(proj)
    }

    /// The bytes [`DbWorker::scan_filter_project`] would read (and meter)
    /// for the same arguments — an index prefix or the whole partition —
    /// without reading them.
    pub fn access_bytes(&self, table: &str, pred: &Expr, proj: &[usize]) -> Result<u64> {
        let Some(idx) = self.access_index(table, pred, proj) else {
            return Ok(self.partition(table)?.serialized_bytes() as u64);
        };
        let rows = match le_bound_for(pred, idx.base_cols()[0]) {
            Some(bound) => idx.prefix_len(bound)?,
            None => idx.len(),
        };
        // the prefix's row share of the index (exact for fixed-width columns)
        let bytes = idx.full().serialized_bytes() as u64;
        Ok(bytes * rows as u64 / idx.len().max(1) as u64)
    }

    /// The covering index a scan of `table` under `pred` projecting `proj`
    /// uses, if any.
    fn access_index(&self, table: &str, pred: &Expr, proj: &[usize]) -> Option<&CoveringIndex> {
        let needed: Vec<usize> = pred
            .referenced_columns()
            .into_iter()
            .chain(proj.iter().copied())
            .collect();
        self.choose_index(table, &needed, &leading_le_columns(pred))
    }

    /// The `cal_filter`/`get_filter` UDF pair: build this worker's local
    /// Bloom filter over the join keys that survive `pred`.
    pub fn build_local_bloom(
        &self,
        table: &str,
        pred: &Expr,
        key_col: usize,
        mut filter: BloomFilter,
    ) -> Result<BloomFilter> {
        let keys = self.scan_filter_project(table, pred, &[key_col])?;
        let col = keys.column(0)?;
        for row in 0..keys.num_rows() {
            filter.insert(col.key_at(row)?);
        }
        self.metrics
            .add("db.bloom.keys_inserted", keys.num_rows() as u64);
        Ok(filter)
    }
}

/// Columns `c` for which `pred` contains a top-level conjunct `Col(c) <= lit`.
fn leading_le_columns(pred: &Expr) -> Vec<usize> {
    pred.le_conjuncts().iter().map(|(c, _)| *c).collect()
}

/// The `<=` bound on `col` if one exists among the top-level conjuncts.
fn le_bound_for(pred: &Expr, col: usize) -> Option<i64> {
    pred.le_conjuncts()
        .into_iter()
        .find(|(c, _)| *c == col)
        .map(|(_, b)| b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_bloom::{ApproxMembership, BloomParams};
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::schema::Schema;

    fn t_schema() -> Schema {
        Schema::from_pairs(&[
            ("uniqKey", DataType::I64),
            ("joinKey", DataType::I32),
            ("corPred", DataType::I32),
            ("indPred", DataType::I32),
        ])
    }

    fn t_partition() -> Batch {
        Batch::new(
            t_schema(),
            vec![
                Column::I64((0..100).collect()),
                Column::I32((0..100).map(|i| i % 10).collect()),
                Column::I32((0..100).map(|i| i % 50).collect()),
                Column::I32((0..100).map(|i| i % 4).collect()),
            ],
        )
        .unwrap()
    }

    fn worker(with_index: bool) -> (DbWorker, Metrics) {
        let m = Metrics::new();
        let mut w = DbWorker::new(DbWorkerId(0), m.clone());
        w.store_partition("T", t_partition());
        if with_index {
            w.add_index("T", &[2, 3, 1]).unwrap();
        }
        (w, m)
    }

    fn pred() -> Expr {
        // corPred <= 9 && indPred <= 1
        Expr::col_le(2, 9).and(Expr::col_le(3, 1))
    }

    #[test]
    fn scan_without_index_uses_table() {
        let (w, m) = worker(false);
        let out = w.scan_filter_project("T", &pred(), &[1]).unwrap();
        assert_eq!(m.get("db.scan.rows"), 100);
        assert_eq!(m.get("db.index.rows"), 0);
        assert!(out.num_rows() > 0);
        assert_eq!(out.schema().field(0).unwrap().name, "joinKey");
    }

    #[test]
    fn index_only_plan_touches_fewer_rows() {
        let (plain, _) = worker(false);
        let expected = plain.scan_filter_project("T", &pred(), &[1]).unwrap();

        let (w, m) = worker(true);
        let out = w.scan_filter_project("T", &pred(), &[1]).unwrap();
        assert_eq!(
            m.get("db.scan.rows"),
            0,
            "index-only plan must not scan the table"
        );
        // corPred <= 9 prunes to the sorted prefix: 20 of 100 rows
        assert_eq!(m.get("db.index.rows"), 20);
        // same multiset of join keys
        let mut a = out.column(0).unwrap().as_i32().unwrap().to_vec();
        let mut b = expected.column(0).unwrap().as_i32().unwrap().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn uncovered_projection_falls_back_to_table_scan() {
        let (w, m) = worker(true);
        // uniqKey (col 0) is not in the index
        let out = w.scan_filter_project("T", &pred(), &[0]).unwrap();
        assert!(m.get("db.scan.rows") > 0);
        assert!(out.num_rows() > 0);
    }

    #[test]
    fn local_bloom_contains_exactly_surviving_keys() {
        let (w, _) = worker(true);
        let bf = w
            .build_local_bloom(
                "T",
                &pred(),
                1,
                BloomFilter::new(BloomParams::new(1 << 14, 2).unwrap()),
            )
            .unwrap();
        // surviving keys are those with corPred<=9 && indPred<=1; compute
        // directly from the data
        let p = t_partition();
        let mask = pred().eval_predicate(&p).unwrap();
        let keys = p.column(1).unwrap().as_i32().unwrap();
        for (row, &keep) in mask.iter().enumerate() {
            if keep {
                assert!(bf.may_contain(i64::from(keys[row])));
            }
        }
        assert!(bf.insertions() > 0);
    }

    #[test]
    fn missing_table_errors() {
        let (w, _) = worker(false);
        assert!(w.scan_filter_project("NOPE", &pred(), &[0]).is_err());
    }

    #[test]
    fn le_conjunct_extraction() {
        let p = pred();
        assert_eq!(leading_le_columns(&p), vec![2, 3]);
        assert_eq!(le_bound_for(&p, 2), Some(9));
        assert_eq!(le_bound_for(&p, 1), None);
        // a `>=` conjunct is not a prefix bound
        let q = Expr::col(2).ge(Expr::lit_i64(3));
        assert!(leading_le_columns(&q).is_empty());
    }

    #[test]
    fn store_partition_invalidates_indexes() {
        let (mut w, m) = worker(true);
        w.store_partition("T", t_partition());
        w.scan_filter_project("T", &pred(), &[1]).unwrap();
        assert!(
            m.get("db.scan.rows") > 0,
            "index should be gone after reload"
        );
    }
}
