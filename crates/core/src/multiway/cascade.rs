//! Cascaded binary star join: a left-deep chain of broadcast/repartition
//! steps over the dimensions, in advisor-priced order.
//!
//! Step `i` joins dimension `steps[i].dim` into the worker's running
//! intermediate (its `StarRun`; at first the filtered fact scan):
//!
//! * **broadcast** — every DB worker ships its whole filtered dimension
//!   slice to every JEN worker; the intermediate stays put.
//! * **repartition** — DB workers hash-route the dimension by its key,
//!   JEN workers re-shuffle the intermediate by the matching foreign key
//!   with the same agreed hash (skew-salted when the key has detected
//!   heavy hitters), so every (intermediate, dimension) pair meets exactly
//!   once. The re-shuffle ships only the live columns: the foreign keys
//!   still to be joined and the columns the query's expressions read.
//!
//! Either way the step ends in a local hash join — dimension rows build,
//! the intermediate probes. Consecutive in-memory joins form one run: the
//! run probes once, k-way, where the next step re-shuffles (materialising
//! the join) or, for the last run, into the join-aggregate sink.
//!
//! Salt-role inversion: in a cascade step the *dimension* is the hash-build
//! side (its keys are near-unique — no build skew), while the skew lives in
//! the intermediate's foreign-key stream. So the re-shuffle splits hot-key
//! rows round-robin (`hash_route`) and the dimension replicates its
//! hot-key rows to the salt workers (`salted_replicate_route`) — the
//! mirror image of the two-table repartition join, same meets-exactly-once
//! guarantee.
//!
//! A broadcast step keeps a no-op re-shuffle step at its slot so driver
//! step ordinals — which the chaos layer's worker kills count — do not
//! depend on the advisor's per-step mode choices.

use super::{meter_shuffle, ordered_batches, StarInputs, StarQuery};
use crate::advisor::CascadeStep;
use crate::algorithms::{
    add_final_aggregation_steps, broadcast_route, db_route_to_jen, db_scan, db_tasks, hash_route,
    jen_tasks, run_to_result, salted_replicate_route, Driver, TaskSet,
};
use crate::skew::SaltRouter;
use crate::system::HybridSystem;
use hybrid_common::batch::Batch;
use hybrid_common::error::Result;
use hybrid_common::trace::Stage;
use hybrid_net::StreamTag;
use std::collections::HashSet;

pub(crate) fn execute(
    sys: &mut HybridSystem,
    star: &StarQuery,
    steps: &[CascadeStep],
) -> Result<Batch> {
    let sys = &*sys;
    let driver = &Driver::from_config(&sys.config);
    let num_jen = sys.config.jen_workers;
    let num_db = sys.config.db_workers;
    let inputs = &StarInputs::new(sys, star)?;
    let router = |hot: &HashSet<i64>| {
        let f = sys.config.salt_buckets.unwrap_or(1);
        (!hot.is_empty()).then(|| SaltRouter::with_hot_keys(hot.clone(), num_jen, f))
    };
    let routers: &Vec<Option<SaltRouter>> = &inputs.hot.iter().map(router).collect();
    let order: &Vec<usize> = &steps.iter().map(|s| s.dim).collect();

    let mut db = TaskSet::new("db", db_tasks(sys, driver)?);
    let mut jen = TaskSet::new("jen", jen_tasks(sys, driver)?);

    // Step 1: every JEN worker scans its fact share (per-block batches —
    // the intermediate stays block-framed until its first re-shuffle).
    jen.step(10, move |w, st| {
        st.star_run = inputs.scan_fact(sys, driver, w)?;
        Ok(())
    });

    for (i, step) in steps.iter().enumerate() {
        let base = 20 + 10 * i as u32;
        let (d, broadcast) = (step.dim, step.broadcast);
        let dq = &star.dims[d];

        // Step 2+3i: DB workers filter the dimension and ship it —
        // everywhere (broadcast) or hash-routed to the key's owner, hot-key
        // rows replicated to the salt workers that each hold a slice of the
        // split intermediate.
        db.step(base, move |w, st| {
            let part = db_scan(sys, driver, w, &dq.table, &dq.pred, &dq.proj)?;
            let stream = StreamTag::dim_data(i);
            let (rows, bytes) = if broadcast {
                db_route_to_jen(sys, st, w, &part, stream, broadcast_route(num_jen))?
            } else {
                let route = salted_replicate_route(num_jen, dq.key, routers[d].as_ref());
                db_route_to_jen(sys, st, w, &part, stream, route)?
            };
            meter_shuffle(sys, rows, bytes);
            Ok(())
        });

        // Step 3+3i: JEN workers re-shuffle the intermediate's live columns
        // by the step's foreign key. A broadcast step skips the shuffle but
        // keeps the step, so chaos kill ordinals stay mode-independent.
        jen.step(base + 2, move |w, st| {
            if broadcast {
                return Ok(());
            }
            let stream = StreamTag::cascade_shuffle(i);
            inputs.exchange(sys, st, w, &order[i..], stream, |layout| {
                hash_route(num_jen, layout.fk(star, d), routers[d].as_ref())
            })
        });

        // Step 4+3i: receive and build on the dimension, which joins the
        // worker's run; the run probes where the next step re-shuffles (or,
        // for the last run, into the sink at finalize).
        let ends_run = steps.get(i + 1).is_some_and(|next| !next.broadcast);
        jen.step(base + 4, move |w, st| {
            let label = sys.jen_workers[w].span_label();
            let recv_span = sys.tracer.start(label.clone(), Stage::ShuffleRecv);
            let dim_batches =
                ordered_batches(st.mailbox.take_stream(StreamTag::dim_data(i), num_db)?);
            if !broadcast {
                let got = st
                    .mailbox
                    .take_stream(StreamTag::cascade_shuffle(i), num_jen - 1)?;
                st.star_run.blocks.extend(ordered_batches(got));
            }
            let dim_rows: u64 = dim_batches.iter().map(|b| b.num_rows() as u64).sum();
            recv_span.done(0, dim_rows);
            // per-worker build-side balance, the finish_run ratio's input
            sys.metrics
                .add(&format!("net.shuffle.rows.jen-{w}"), dim_rows);
            let _permit = driver.compute_permit();
            st.star_run
                .build_next(sys, &label, inputs, d, dim_batches)?;
            if ends_run {
                st.star_run.materialise(sys, &label, inputs)?;
            }
            Ok(())
        });
    }

    // Finalize: the last run folds into the sink (a materialised
    // intermediate runs through it instead), then the per-worker partial
    // aggregate.
    let fin = 20 + 10 * steps.len() as u32;
    jen.step(fin, move |w, st| {
        let _permit = driver.compute_permit();
        let label = sys.jen_workers[w].span_label();
        st.partial = Some(std::mem::take(&mut st.star_run).finish(sys, label, star)?);
        Ok(())
    });

    add_final_aggregation_steps(sys, &star.aggs, &mut jen, &mut db, fin + 2)?;

    run_to_result(driver, db, jen)
}
