//! Cascaded binary star join: a left-deep chain of broadcast/repartition
//! steps over the dimensions, in advisor-priced order.
//!
//! Step `i` joins dimension `steps[i].dim` into the running intermediate
//! `cur` (each worker's `JenTask::blocks`; at first the filtered fact scan):
//!
//! * **broadcast** — every DB worker ships its whole filtered dimension
//!   slice to every JEN worker; `cur` stays put.
//! * **repartition** — DB workers hash-route the dimension by its key,
//!   JEN workers re-shuffle `cur` by the matching foreign key with the
//!   same agreed hash (skew-salted when the key has detected heavy
//!   hitters), so every `(cur, dim)` pair meets exactly once.
//!
//! Either way the step ends in a local hash join — dimension rows build,
//! `cur` probes — which prepends the dimension's columns: after the whole
//! cascade the physical layout is `dim_{last}' ++ … ++ dim_{first}' ++
//! fact'`, undone by `physical_map` at finalize time.
//!
//! Only a re-shuffle needs `cur`'s rows. So consecutive in-memory joins
//! form a *run* (`multiway::StarRun`): each step builds its table, and the
//! run probes once — k-way, with one foreign key of `cur` per table —
//! where the next step re-shuffles (materialising the join, every column
//! gathered once) or, for the last run, into the join-aggregate sink at
//! finalize. A spilling joiner ends the run before it and joins on its own.
//!
//! Salt-role inversion: in a cascade step the *dimension* is the hash-build
//! side (its keys are near-unique — no build skew), while the skew lives in
//! `cur`'s foreign-key stream. So the `cur` re-shuffle splits hot-key rows
//! round-robin ([`SaltRouter::partition_build_sel`]) and the dimension
//! replicates its hot-key rows to the salt workers
//! ([`SaltRouter::partition_probe`]) — the mirror image of the two-table
//! repartition join, same meets-exactly-once guarantee.
//!
//! A broadcast step keeps a no-op re-shuffle step at its slot so driver
//! step ordinals — which the chaos layer's worker kills count — do not
//! depend on the advisor's per-step mode choices.

use super::{detect_hot_fact_keys, meter_shuffle, ordered_batches, physical_exprs, StarQuery};
use crate::advisor::CascadeStep;
use crate::algorithms::{
    add_final_aggregation_steps, db_route_to_jen, db_scan, db_schema, db_tasks, jen_tasks,
    local_joiner, partial_aggregate, run_to_result, Driver, TaskSet,
};
use crate::skew::{SaltCursors, SaltRouter};
use crate::system::HybridSystem;
use hybrid_common::batch::{Batch, BatchBuilder};
use hybrid_common::error::Result;
use hybrid_common::hash::agreed_shuffle_partition;
use hybrid_common::ops::{partition_sel, JoinAggregator};
use hybrid_common::schema::Schema;
use hybrid_common::trace::Stage;
use hybrid_jen::pipeline::scan_blocks_batched;
use hybrid_jen::{LocalJoiner, ScanSpec};
use hybrid_net::StreamTag;

pub(crate) fn execute(
    sys: &mut HybridSystem,
    star: &StarQuery,
    steps: &[CascadeStep],
) -> Result<Batch> {
    let sys = &*sys;
    let driver = &Driver::from_config(&sys.config);
    let num_jen = sys.config.jen_workers;
    let num_db = sys.config.db_workers;

    let plan = &sys.coordinator.plan_scan(&star.fact_table)?;
    let scan_spec = &ScanSpec {
        pred: star.fact_pred.clone(),
        proj: star.fact_proj.clone(),
        bloom_key: None,
    };
    let fact_schema = plan.table.schema.project(&star.fact_proj)?;
    let dim_schemas: &Vec<Schema> = &star
        .dims
        .iter()
        .map(|d| db_schema(sys, &d.table, &d.proj))
        .collect::<Result<_>>()?;

    // Heavy hitters per foreign-key axis; both clusters must route from
    // the same hot sets, so detection happens once, up front.
    let hot = detect_hot_fact_keys(sys, star)?;
    let routers: &Vec<Option<SaltRouter>> = &hot
        .into_iter()
        .map(|h| {
            (!h.is_empty()).then(|| {
                SaltRouter::with_hot_keys(h, num_jen, sys.config.salt_buckets.unwrap_or(1))
            })
        })
        .collect();

    // cur_schemas[i] = the intermediate's schema entering step i (each
    // local join prepends its build side); fact_offs[i] = where the fact
    // columns start inside it.
    let mut cur_schemas = vec![fact_schema];
    let mut fact_offs = vec![0usize];
    for s in steps {
        let prev = cur_schemas.last().expect("seeded above");
        cur_schemas.push(dim_schemas[s.dim].join(prev));
        fact_offs.push(fact_offs.last().expect("seeded above") + star.dims[s.dim].proj.len());
    }
    let cur_schemas = &cur_schemas;
    let fact_offs = &fact_offs;
    let order: Vec<usize> = steps.iter().map(|s| s.dim).collect();
    let (post_predicate, group_expr, aggs) = &physical_exprs(star, &order);

    let mut db = TaskSet::new("db", db_tasks(sys, driver)?);
    let mut jen = TaskSet::new("jen", jen_tasks(sys, driver)?);

    // Step 1: every JEN worker scans its fact share (per-block batches —
    // the intermediate stays block-framed until its first re-shuffle).
    jen.step(10, move |w, st| {
        let _permit = driver.compute_permit();
        let (blocks, _) = scan_blocks_batched(
            &sys.jen_workers[w],
            &plan.table,
            &plan.blocks[w],
            scan_spec,
            None,
        )?;
        st.blocks = Some(blocks);
        Ok(())
    });

    for (i, step) in steps.iter().enumerate() {
        let base = 20 + 10 * i as u32;
        let d = step.dim;
        let broadcast = step.broadcast;
        let fk_col = fact_offs[i] + star.fact_keys[d];
        let dq = &star.dims[d];

        // Step 2+3i: DB workers filter the dimension and ship it —
        // everywhere (broadcast) or hash-routed to the key's owner.
        db.step(base, move |w, st| {
            let part = db_scan(sys, driver, w, &dq.table, &dq.pred, &dq.proj)?;
            let (rows, bytes) = if broadcast {
                let span = sys.tracer.start(format!("db-{w}"), Stage::ShuffleSend);
                for jen_ep in sys.fabric.jen_endpoints() {
                    st.mailbox
                        .send_data(jen_ep, StreamTag::dim_data(i), &part)?;
                    st.mailbox.send_eos(jen_ep, StreamTag::dim_data(i))?;
                }
                span.done(part.serialized_bytes() as u64, part.num_rows() as u64);
                (
                    part.num_rows() as u64 * num_jen as u64,
                    part.serialized_bytes() as u64 * num_jen as u64,
                )
            } else {
                // hot-key dimension rows replicate to the salt workers
                // that will each hold a slice of the split `cur` stream
                let stream = StreamTag::dim_data(i);
                db_route_to_jen(sys, st, w, &part, dq.key, stream, routers[d].as_ref())?
            };
            meter_shuffle(sys, rows, bytes);
            Ok(())
        });

        // Step 3+3i: JEN workers re-shuffle `cur` by the step's foreign
        // key. A broadcast step skips the shuffle but keeps the step, so
        // chaos kill ordinals stay mode-independent.
        jen.step(base + 2, move |w, st| {
            if broadcast {
                return Ok(());
            }
            debug_assert!(st.star_run.is_empty(), "the step before probed its run");
            let span = sys
                .tracer
                .start(sys.jen_workers[w].span_label(), Stage::ShuffleSend);
            let schema = &cur_schemas[i];
            let mut cursors = SaltCursors::new();
            let mut builders: Vec<BatchBuilder> = (0..num_jen)
                .map(|_| BatchBuilder::new(schema.clone()))
                .collect();
            let (mut rows, mut bytes) = (0u64, 0u64);
            for block in st.blocks.take().unwrap_or_default() {
                if block.is_empty() {
                    continue;
                }
                // hot-key `cur` rows split round-robin over salt workers
                let sels = match &routers[d] {
                    Some(r) => r.partition_build_sel(&block, fk_col, &mut cursors)?,
                    None => partition_sel(&block, fk_col, num_jen, agreed_shuffle_partition)?,
                };
                for (dst, sel) in sels.iter().enumerate() {
                    builders[dst].append_rows(&block, sel.as_slice())?;
                }
            }
            for (dst, builder) in builders.into_iter().enumerate() {
                let piece = builder.finish();
                if dst == w {
                    st.blocks = Some(vec![piece]); // local slice: no network traffic
                } else {
                    rows += piece.num_rows() as u64;
                    bytes += piece.serialized_bytes() as u64;
                    let to = sys.fabric.jen_endpoints()[dst];
                    st.mailbox
                        .send_data(to, StreamTag::cascade_shuffle(i), &piece)?;
                    st.mailbox.send_eos(to, StreamTag::cascade_shuffle(i))?;
                }
            }
            meter_shuffle(sys, rows, bytes);
            span.done(bytes, rows);
            Ok(())
        });

        // Step 4+3i: receive and build on the dimension. An in-memory
        // table joins the worker's run; the run probes `cur` once, where
        // the next step re-shuffles `cur` (or, for the last run, into the
        // sink at finalize). A spilling table ends the run and probes on
        // its own.
        let ends_run = steps.get(i + 1).is_some_and(|next| !next.broadcast);
        jen.step(base + 4, move |w, st| {
            let label = sys.jen_workers[w].span_label();
            let recv_span = sys.tracer.start(label.clone(), Stage::ShuffleRecv);
            let dim_batches =
                ordered_batches(st.mailbox.take_stream(StreamTag::dim_data(i), num_db)?);
            let mut probes = st.blocks.take().unwrap_or_default();
            if !broadcast {
                let got = st
                    .mailbox
                    .take_stream(StreamTag::cascade_shuffle(i), num_jen - 1)?;
                probes.extend(ordered_batches(got));
            }
            let dim_rows: u64 = dim_batches.iter().map(|b| b.num_rows() as u64).sum();
            recv_span.done(0, dim_rows);
            // per-worker build-side balance, the finish_run ratio's input
            sys.metrics
                .add(&format!("net.shuffle.rows.jen-{w}"), dim_rows);
            let _permit = driver.compute_permit();
            let build_span = sys.tracer.start(label.clone(), Stage::HashBuild);
            let mut joiner = local_joiner(sys, dim_schemas[d].clone(), dq.key)?;
            for b in dim_batches {
                joiner.build(b)?;
            }
            build_span.done(0, dim_rows);
            // `probes` is the intermediate that entered the run at step `start`
            let start = i - st.star_run.len();
            let joiner = match joiner {
                LocalJoiner::InMemory(j) => {
                    st.star_run.push(j, fact_offs[start] + star.fact_keys[d]);
                    if !ends_run {
                        st.blocks = Some(probes);
                        return Ok(());
                    }
                    None
                }
                spilling => Some(spilling),
            };
            let probe_rows: u64 = probes.iter().map(|b| b.num_rows() as u64).sum();
            let probe_span = sys.tracer.start(label, Stage::Probe);
            if !st.star_run.is_empty() {
                probes = vec![st.star_run.materialise(&cur_schemas[start], &probes)?];
            }
            if let Some(joiner) = joiner {
                probes = vec![joiner.probe_all(&cur_schemas[i], probes, fk_col)?];
            }
            probe_span.done(0, probe_rows);
            st.blocks = Some(probes);
            Ok(())
        });
    }

    // Finalize: the last run's probe folds into the sink (a materialised
    // `cur` runs through it instead), then the per-worker partial
    // aggregate.
    let fin = 20 + 10 * steps.len() as u32;
    jen.step(fin, move |w, st| {
        let _permit = driver.compute_permit();
        let label = sys.jen_workers[w].span_label();
        let mut sink = JoinAggregator::new(post_predicate.as_ref(), group_expr, aggs);
        let blocks = st.blocks.take().unwrap_or_default();
        let joined = if st.star_run.is_empty() {
            blocks
        } else {
            let probe_rows: u64 = blocks.iter().map(|b| b.num_rows() as u64).sum();
            let probe_span = sys.tracer.start(label.clone(), Stage::Probe);
            std::mem::take(&mut st.star_run).fold(&mut sink, &blocks)?;
            drop(blocks);
            probe_span.done(0, probe_rows);
            Vec::new()
        };
        st.partial = Some(partial_aggregate(sys, label, sink, &joined)?);
        Ok(())
    });

    add_final_aggregation_steps(sys, &star.aggs, &mut jen, &mut db, fin + 2)?;

    run_to_result(driver, db, jen)
}
