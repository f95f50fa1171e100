//! Semi-join baseline: ship the exact distinct join-key set instead of a
//! Bloom filter.
//!
//! The classic pre-Bloom technique (§6 cites Mackert & Lohman's comparison
//! of Bloom join vs semijoin): the database computes the *exact* set of
//! distinct `T'` join keys and ships it to the HDFS side, which filters `L`
//! with zero false positives but pays for a much larger transfer when the
//! key set is big. Everything after the key-set exchange mirrors the
//! repartition join. The ablation bench `bloom_vs_semijoin` quantifies the
//! trade.
//!
//! Under the parallel driver each DB worker collects its own distinct keys;
//! worker 0 gathers them (an intra-DB transfer), unions, and broadcasts the
//! same global sorted key set the sequential version shipped.

use crate::algorithms::{
    add_final_aggregation_steps, broadcast_route, db_route_to_jen, db_scan_step, db_tasks,
    jen_probe_aggregate, jen_recv_build, jen_shuffle_l, jen_tasks, run_to_result,
    salted_replicate_route, Driver, TaskSet,
};
use crate::query::HybridQuery;
use crate::skew::SaltRouter;
use crate::system::HybridSystem;
use hybrid_common::batch::{Batch, Column};
use hybrid_common::datum::DataType;
use hybrid_common::error::Result;
use hybrid_common::schema::Schema;
use hybrid_jen::pipeline::scan_blocks_batched;
use hybrid_jen::ScanSpec;
use hybrid_net::StreamTag;
use std::collections::HashSet;

/// Sorted distinct join keys of `batch[key_col]` as a single-column batch.
fn distinct_key_batch(schema: &Schema, batches: &[&Batch], key_col: usize) -> Result<Batch> {
    let mut distinct: HashSet<i64> = HashSet::new();
    for b in batches {
        distinct.extend(b.column(key_col)?.keys_i64()?.iter().copied());
    }
    let mut key_list: Vec<i64> = distinct.into_iter().collect();
    key_list.sort_unstable();
    Batch::new(schema.clone(), vec![Column::I64(key_list)])
}

pub(crate) fn execute(sys: &mut HybridSystem, query: &HybridQuery) -> Result<Batch> {
    let sys = &*sys;
    let driver = &Driver::from_config(&sys.config);
    let num_db = sys.config.db_workers;

    let plan = &sys.coordinator.plan_scan(&query.hdfs_table)?;
    let scan_spec = &ScanSpec {
        pred: query.hdfs_pred.clone(),
        proj: query.hdfs_proj.clone(),
        bloom_key: None,
    };
    let l_schema = &plan.table.schema.project(&query.hdfs_proj)?;
    let key_schema = &Schema::from_pairs(&[("joinKey", DataType::I64)]);
    // Hot-key routing for the post-keyset L' shuffle and the T' shipment.
    let salt = SaltRouter::detect(sys, query)?;
    let salt = salt.as_ref();

    let mut db = TaskSet::new("db", db_tasks(sys, driver)?);
    let mut jen = TaskSet::new("jen", jen_tasks(sys, driver)?);

    // Step 1: T' per DB worker; each worker's exact distinct key set.
    db.step(10, move |w, st| {
        let part = db_scan_step(sys, query, driver, w)?;
        st.keys = Some(distinct_key_batch(key_schema, &[&part], query.db_key)?);
        st.part = Some(part);
        Ok(())
    });

    // Step 2a: gather the local key sets at DB worker 0 (intra-DB traffic;
    // the cross-fabric key-set transfer below is what the ablation meters).
    db.step(12, move |w, st| {
        if w == 0 {
            return Ok(());
        }
        let keys = st.keys.take().expect("keys collected in step 10");
        let db0 = hybrid_net::Endpoint::Db(hybrid_common::ids::DbWorkerId(0));
        st.mailbox.send_data(db0, StreamTag::DbKeySet, &keys)?;
        st.mailbox.send_eos(db0, StreamTag::DbKeySet)
    });

    // Step 2b: worker 0 unions the key sets and ships the global sorted
    // key set to every JEN worker (this is what the Bloom filter replaces
    // — compare wire bytes in the ablation bench).
    db.step(14, move |w, st| {
        if w != 0 {
            return Ok(());
        }
        let own = st.keys.take().expect("keys collected in step 10");
        let got = st.mailbox.take_stream(StreamTag::DbKeySet, num_db - 1)?;
        let mut all: Vec<&Batch> = vec![&own];
        all.extend(got.batches.iter());
        let key_batch = distinct_key_batch(key_schema, &all, 0)?;
        let route = broadcast_route(sys.config.jen_workers);
        db_route_to_jen(sys, st, w, &key_batch, StreamTag::DbKeySet, route)?;
        Ok(())
    });

    // Step 3: DB workers route T' with the agreed hash (as in repartition).
    db.step(16, move |w, st| {
        let part = st.part.take().expect("T' scanned in step 10");
        let route = salted_replicate_route(sys.config.jen_workers, query.db_key, salt);
        db_route_to_jen(sys, st, w, &part, StreamTag::DbData, route)?;
        Ok(())
    });

    // Step 4: JEN workers scan, filter by the exact key set, and shuffle,
    // block batch by block batch.
    jen.step(20, move |w, st| {
        let got = st.mailbox.take_stream(StreamTag::DbKeySet, 1)?;
        let mut keys: HashSet<i64> = HashSet::new();
        for b in &got.batches {
            keys.extend(b.column(0)?.keys_i64()?.iter().copied());
        }
        let worker = &sys.jen_workers[w];
        let l_blocks = {
            let _permit = driver.compute_permit();
            let (blocks, _) =
                scan_blocks_batched(worker, &plan.table, &plan.blocks[w], scan_spec, None)?;
            // exact filtering — zero false positives — through the same
            // vectorized membership path the Bloom variants use
            blocks
                .iter()
                .map(|b| hybrid_bloom::filter_batch(b, query.hdfs_key, &keys).map(|(kept, _)| kept))
                .collect::<Result<Vec<Batch>>>()?
        };
        let rows_after: u64 = l_blocks.iter().map(|b| b.num_rows() as u64).sum();
        sys.metrics
            .add("jen.semijoin.rows_after_keyset", rows_after);
        jen_shuffle_l(sys, query, st, w, &l_blocks, l_schema, salt)
    });

    // Step 5: local joins exactly as in the repartition join — build and
    // probe as separate driver steps so injected kills can land at the
    // spill-write/spill-read boundary.
    jen.step(30, move |w, st| {
        jen_recv_build(sys, query, driver, st, w, l_schema)
    });
    jen.step(32, move |w, st| {
        jen_probe_aggregate(sys, query, driver, st, w)
    });

    add_final_aggregation_steps(sys, &query.aggs, &mut jen, &mut db, 40)?;

    run_to_result(driver, db, jen)
}
