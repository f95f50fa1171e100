//! DB-side join (±Bloom filter) — paper §3.1, Figures 1 and 5.
//!
//! The strategy used by PolyBase / HAWQ / SQL-H / Big Data SQL: the HDFS
//! side applies local predicates, projection (and optionally the database's
//! Bloom filter), and ships the surviving rows **into the database**, where
//! the optimizer picks broadcast or repartition for the final join. JEN
//! workers are divided into one group per DB worker (Fig. 5) so ingestion
//! is parallel on both ends.

use crate::algorithms::{first_phase, Driver, Input};
use crate::query::HybridQuery;
use crate::system::HybridSystem;
use hybrid_common::batch::Batch;
use hybrid_common::error::Result;
use hybrid_common::ids::DbWorkerId;
use hybrid_common::trace::Stage;
use hybrid_edw::DbJoinSpec;
use hybrid_net::{Endpoint, StreamTag};

pub(crate) fn execute(
    sys: &HybridSystem,
    query: &HybridQuery,
    use_bloom: bool,
    input: Input,
) -> Result<Batch> {
    let driver = &Driver::from_config(&sys.config);
    let num_db = sys.config.db_workers;
    let num_jen = sys.config.jen_workers;

    // The coordinator groups workers: group[i] feeds DB worker i (Fig. 5).
    // Dead workers appear in no group and take no steps.
    let groups = sys.coordinator.group_workers_for_db(num_db);
    let mut db_of_jen: Vec<Option<usize>> = vec![None; num_jen];
    for (db_idx, group) in groups.iter().enumerate() {
        for wid in group {
            db_of_jen[wid.index()] = Some(db_idx);
        }
    }
    let expected: Vec<usize> = groups.iter().map(|g| g.len()).collect();

    // Steps 1–2: local predicates + projection on every DB worker, then the
    // global BF_DB, multicast to the JEN workers.
    let (l_src, mut db, mut jen) = first_phase(sys, query, driver, input, use_bloom.then_some(15))?;
    let (l_src, hdfs_out_schema) = (&l_src, &l_src.schema);

    // Step 3: JEN scans, filters, and sends to its group's DB worker.
    jen.step(20, move |w, st| {
        let Some(db_idx) = db_of_jen[w] else {
            // not in any group (dead or unassigned) — takes no part
            return Ok(());
        };
        let bloom = l_src.take_bloom(st)?;
        let worker = &sys.jen_workers[w];
        let batch = {
            let _permit = driver.compute_permit();
            let blocks = l_src.blocks(sys, query, st, w, bloom.as_ref())?;
            Batch::concat(hdfs_out_schema.clone(), &blocks)?
        };
        let dst = Endpoint::Db(DbWorkerId(db_idx));
        let span = sys.tracer.start(worker.span_label(), Stage::ShuffleSend);
        st.mailbox.send_data(dst, StreamTag::HdfsData, &batch)?;
        st.mailbox.send_eos(dst, StreamTag::HdfsData)?;
        span.done(batch.serialized_bytes() as u64, batch.num_rows() as u64);
        Ok(())
    });

    // Step 4: DB workers land their group's HDFS data.
    db.step(30, move |w, st| {
        let n = expected.get(w).copied().unwrap_or(0);
        st.landed = Some(if n == 0 {
            Batch::empty(hdfs_out_schema.clone())
        } else {
            let span = sys.tracer.start(format!("db-{w}"), Stage::ShuffleRecv);
            let got = st.mailbox.take_stream(StreamTag::HdfsData, n)?;
            let landed = Batch::concat(hdfs_out_schema.clone(), &got.batches)?;
            span.done(landed.serialized_bytes() as u64, landed.num_rows() as u64);
            landed
        });
        Ok(())
    });

    let (mut db_states, _jen_states) = driver.run_pair(db, jen)?;

    // Step 5: the database's own optimizer finishes the join + aggregation.
    // Canonical layout T' ++ L'' matches DbJoinSpec's left ++ right.
    let mut parts: Vec<Batch> = Vec::with_capacity(num_db);
    let mut landed: Vec<Batch> = Vec::with_capacity(num_db);
    for st in &mut db_states {
        parts.push(st.part.take().expect("T' scanned in step 10 or parked"));
        landed.push(st.landed.take().expect("HDFS data landed in step 30"));
    }
    let spec = DbJoinSpec {
        left_key: query.db_key,
        right_key: query.hdfs_key,
        post_predicate: query.post_predicate.clone(),
        group_expr: query.group_expr.clone(),
        aggs: query.aggs.clone(),
    };
    let join_span = sys.tracer.start("db", Stage::Probe);
    let (result, choice) = sys.db.join_and_aggregate(&parts, &landed, &spec)?;
    join_span.done(0, result.num_rows() as u64);
    sys.metrics
        .incr(&format!("db.join.plan.{choice:?}").to_lowercase());
    Ok(result)
}
