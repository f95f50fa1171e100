//! HDFS-side broadcast join — paper §3.2, Figure 2.
//!
//! Every DB worker broadcasts its filtered partition `T'_w` to every JEN
//! worker, so each JEN worker holds the complete `T'` and joins purely
//! locally against its share of the HDFS scan — no HDFS data is shuffled at
//! all. Group-by and aggregation are pushed down: only the small final
//! aggregate crosses back to the database.
//!
//! The paper finds this wins only when `T'` is very small (σT ≲ 0.001);
//! the Fig. 10 harness reproduces that crossover.

use crate::algorithms::{
    add_final_aggregation_steps, broadcast_route, db_route_to_jen, db_schema, first_phase,
    partial_aggregate, run_to_result, Driver, Input,
};
use crate::query::HybridQuery;
use crate::system::HybridSystem;
use hybrid_common::batch::Batch;
use hybrid_common::error::Result;
use hybrid_common::ops::{HashJoiner, JoinAggregator};
use hybrid_common::trace::Stage;
use hybrid_net::StreamTag;

pub(crate) fn execute(sys: &HybridSystem, query: &HybridQuery, input: Input) -> Result<Batch> {
    let driver = &Driver::from_config(&sys.config);
    let num_db = sys.config.db_workers;
    let t_schema = &db_schema(sys, &query.db_table, &query.db_proj)?;

    // Step 1: local predicates + projection on every DB worker.
    let (l_src, mut db, mut jen) = first_phase(sys, query, driver, input, None)?;
    let l_src = &l_src;

    // Step 2: every DB worker broadcasts its filtered partition to every
    // JEN worker (the paper's chosen "first transfer pattern", §4.3).
    db.step(20, move |w, st| {
        let part = st.part.take().expect("T' scanned in step 10 or parked");
        let route = broadcast_route(sys.config.jen_workers);
        db_route_to_jen(sys, st, w, &part, StreamTag::DbData, route)?;
        Ok(())
    });

    // Step 3: each JEN worker assembles T', scans its share of L, joins
    // locally, and computes a partial aggregate. A parked share that the
    // prescan reduced by BF_DB only lacks rows that could never join T'.
    jen.step(30, move |w, st| {
        let worker = &sys.jen_workers[w];
        let label = worker.span_label();
        let recv_span = sys.tracer.start(label.clone(), Stage::ShuffleRecv);
        let got = st.mailbox.take_stream(StreamTag::DbData, num_db)?;
        let recv_rows: u64 = got.batches.iter().map(|b| b.num_rows() as u64).sum();
        recv_span.done(0, recv_rows);

        let _permit = driver.compute_permit();
        // Build the hash table on the (small) broadcast T' — output layout
        // is the canonical T' ++ L', so the query expressions apply as-is.
        let build_span = sys.tracer.start(label.clone(), Stage::HashBuild);
        let mut joiner = HashJoiner::new(t_schema.clone(), query.db_key);
        for b in got.batches {
            joiner.build(b)?;
        }
        build_span.done(0, recv_rows);
        let l_share = l_src.blocks(sys, query, st, w, None)?;
        let mut sink = JoinAggregator::new(
            query.post_predicate.as_ref(),
            &query.group_expr,
            &query.aggs,
        );
        let probe_span = sys.tracer.start(label.clone(), Stage::Probe);
        for block in &l_share {
            sink.probe(&joiner, block, query.hdfs_key)?;
        }
        probe_span.done(0, l_share.iter().map(|b| b.num_rows() as u64).sum());
        st.partial = Some(partial_aggregate(sys, label, sink, &[])?);
        Ok(())
    });

    // Steps 4–5: final aggregation at the designated worker, result to DB.
    add_final_aggregation_steps(sys, &query.aggs, &mut jen, &mut db, 40)?;

    run_to_result(driver, db, jen)
}
