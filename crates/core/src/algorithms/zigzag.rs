//! The zigzag join — the paper's contribution (§3.4, Figure 4).
//!
//! Bloom filters flow **both ways**:
//!
//! 1. DB workers filter/project `T'`, build local filters, merge them into
//!    the global `BF_DB` and send it to every JEN worker;
//! 2. JEN workers scan `L` under the local predicates *and* `BF_DB`,
//!    computing a local `BF_H` over the survivors while shuffling them by
//!    the agreed hash (scan ∥ shuffle ∥ BF-build, the Fig. 7 pipeline);
//! 3. local `BF_H`s merge at the designated worker and travel to every DB
//!    worker;
//! 4. DB workers apply `BF_H` to `T'`, shrinking it to `T''` — only tuples
//!    that actually join (modulo false positives) cross the switch;
//! 5. JEN workers build hash tables on the shuffled HDFS data (it arrived
//!    first, §4.4), probe with `T''`, apply the post-join predicate,
//!    aggregate partially, and return the final aggregate to the database.
//!
//! The zigzag join is the only algorithm that exploits the join-key
//! predicates on *both* sides on top of both local predicates.

use crate::algorithms::{
    add_final_aggregation_steps, db_route_to_jen, first_phase, jen_probe_aggregate, jen_recv_build,
    jen_shuffle_l, run_to_result, salted_replicate_route, Driver, Input,
};
use crate::query::HybridQuery;
use crate::skew::SaltRouter;
use crate::system::{HybridSystem, ZigzagReaccess};
use hybrid_bloom::{filter_batch, BloomFilter};
use hybrid_common::batch::Batch;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::trace::Stage;
use hybrid_net::{Endpoint, StreamTag};

pub(crate) fn execute(sys: &HybridSystem, query: &HybridQuery, input: Input) -> Result<Batch> {
    let driver = &Driver::from_config(&sys.config);
    let num_jen = sys.config.jen_workers;

    let designated = sys.coordinator.designated_worker()?;
    // Shared hot-key routing for the L' shuffle and the T'' shipment.
    let salt = SaltRouter::detect(sys, query)?;
    let salt = salt.as_ref();

    // Steps 1–2: T' per DB worker, global BF_DB, multicast to JEN workers.
    let (l_src, mut db, mut jen) = first_phase(sys, query, driver, input, Some(12))?;
    let (l_src, l_schema) = (&l_src, &l_src.schema);

    // Step 3: scan with BF_DB, build local BF_H, shuffle L' by the agreed
    // hash. 3a/3b/3c run per worker; in parallel mode shuffling genuinely
    // overlaps the other workers' scans.
    jen.step(20, move |w, st| {
        let bf_db = l_src.take_bloom(st)?;
        let worker = &sys.jen_workers[w];
        let (l_blocks, local_bf) = {
            let _permit = driver.compute_permit();
            let l_blocks = l_src.blocks(sys, query, st, w, bf_db.as_ref())?;
            // 3b: local BF_H over the filtered share, block by block (a
            // Bloom filter is a bit-set union, so per-block inserts produce
            // the same filter as one pass over the concatenation)
            let local_bf = worker.build_bloom_from_blocks(
                &l_blocks,
                query.hdfs_key,
                BloomFilter::new(query.bloom),
            )?;
            (l_blocks, local_bf)
        };
        if w == designated.index() {
            st.local_bf = Some(local_bf);
        } else {
            let to = Endpoint::Jen(designated);
            st.mailbox
                .send_bloom(to, StreamTag::HdfsBloom, local_bf.to_bytes())?;
            st.mailbox.send_eos(to, StreamTag::HdfsBloom)?;
        }
        // 3c: shuffle by the agreed hash; local partition stays put
        jen_shuffle_l(sys, query, st, w, &l_blocks, l_schema, salt)
    });

    // Step 4: merge local BF_H's at the designated worker; broadcast the
    // global BF_H to every DB worker.
    jen.step(25, move |w, st| {
        if w != designated.index() {
            return Ok(());
        }
        let mut bf_h = st
            .local_bf
            .take()
            .ok_or_else(|| HybridError::exec("designated worker produced no local BF_H"))?;
        let received = st.mailbox.take_stream(StreamTag::HdfsBloom, num_jen - 1)?;
        for bytes in &received.blooms {
            bf_h.merge(&BloomFilter::from_bytes(bytes)?)?;
        }
        let bytes = bf_h.to_bytes();
        for db_ep in sys.fabric.db_endpoints() {
            st.mailbox
                .send_bloom(db_ep, StreamTag::HdfsBloom, bytes.clone())?;
            st.mailbox.send_eos(db_ep, StreamTag::HdfsBloom)?;
        }
        Ok(())
    });

    // Steps 5–6: DB workers apply BF_H to T' and route the survivors T''
    // with the agreed hash. §3.4 leaves the T' access strategy to the
    // database optimizer: either the materialized step-1 output or an
    // index re-access of the base table — both are implemented, selected
    // by `SystemConfig::zigzag_reaccess`.
    db.step(30, move |w, st| {
        let got = st.mailbox.take_stream(StreamTag::HdfsBloom, 1)?;
        let bf = got
            .blooms
            .first()
            .map(|b| BloomFilter::from_bytes(b))
            .transpose()?
            .ok_or_else(|| HybridError::Net("BF_H never arrived".into()))?;
        let materialized = st.part.take().expect("T' scanned in step 10 or parked");
        let t_second = {
            let _permit = driver.compute_permit();
            let part = match sys.config.zigzag_reaccess {
                ZigzagReaccess::Materialize => materialized,
                ZigzagReaccess::IndexReaccess => {
                    // second access of T — index-only when the paper's
                    // covering indexes exist; metered as db.index./db.scan.
                    sys.db.worker(w).scan_filter_project(
                        &query.db_table,
                        &query.db_pred,
                        &query.db_proj,
                    )?
                }
            };
            let apply_span = sys.tracer.start(format!("db-{w}"), Stage::BloomApply);
            let (t_second, _) = filter_batch(&part, query.db_key, &bf)?;
            apply_span.done(0, part.num_rows() as u64);
            t_second
        };
        sys.metrics
            .add("db.bloom.t_rows_after_bfh", t_second.num_rows() as u64);
        let route = salted_replicate_route(sys.config.jen_workers, query.db_key, salt);
        db_route_to_jen(sys, st, w, &t_second, StreamTag::DbData, route)?;
        Ok(())
    });

    // Step 7: build on the shuffled HDFS data, then probe with T'' (layout
    // L' ++ T'), post-join predicate, partial aggregation. Split into two
    // driver steps so a fault plan can kill a worker between a grace
    // join's spill-write (build) and spill-read (probe).
    jen.step(40, move |w, st| {
        jen_recv_build(sys, query, driver, st, w, l_schema)
    });
    jen.step(42, move |w, st| {
        jen_probe_aggregate(sys, query, driver, st, w)
    });

    // Steps 8–9: final aggregation at the designated worker, result to DB.
    add_final_aggregation_steps(sys, &query.aggs, &mut jen, &mut db, 50)?;

    run_to_result(driver, db, jen)
}
