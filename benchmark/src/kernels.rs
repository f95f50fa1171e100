//! Isolated kernels: each layer's public function, called directly on
//! inputs cut from the workload's own tables, so a layer has a number of
//! its own beside the share of a query it accounts for.
//!
//! Every kernel is called at least [`MIN_CALLS`] times (five when a single
//! call takes tens of milliseconds) and reports the median with quartiles.

use crate::adapter::{
    self, agreed_shuffle_partition, decode, encode, member_sel, partition_by_key, read_frame,
    write_frame, ApproxMembership, Batch, BlockedBloomFilter, BloomFilter, BufferPool,
    CachedResult, CostModel, Endpoint, Fabric, FileFormat, HashAggregator, HashJoiner,
    HybridHashJoiner, HybridQuery, HybridSystem, JenWorkerId, JoinSummary, Message, Metrics,
    QueryBody, QueryFrame, QueryRequest, QueryService, Request, Response, Result, ResultCache,
    ScaleFactors, ScanSpec, SelectionVector, Stage, StreamTag, TableGenerations, Tracer, Workload,
    ALGORITHMS, BATCH_ROWS, JEN_WORKERS,
};
use crate::measure::Measurements;
use crate::trace::Recorder;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIN_CALLS: usize = 15;
/// Keep calling a fast kernel until this much time is sampled.
const MIN_SAMPLED: Duration = Duration::from_millis(20);
/// A slow kernel stops here, provided it was called `MIN_CALLS_SLOW` times.
const MAX_SAMPLED: Duration = Duration::from_millis(400);
const MIN_CALLS_SLOW: usize = 5;
const MAX_CALLS: usize = 400;

/// Run `f` once; its result and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed())
}

/// The duration of an infallible kernel call.
fn time<T>(f: impl FnOnce() -> T) -> Result<Duration> {
    Ok(timed(f).1)
}

/// The duration of a fallible kernel call; its error ends the benchmark.
fn try_time<T, E: Into<adapter::Error>>(
    f: impl FnOnce() -> std::result::Result<T, E>,
) -> Result<Duration> {
    let (out, d) = timed(f);
    out.map_err(Into::into)?;
    Ok(d)
}

/// Call `kernel` repeatedly under one span each; it returns the duration of
/// its own timed part, so input cloning stays outside the number. Returns
/// seconds per call.
fn sample(
    rec: &mut Recorder,
    span: &'static str,
    mut kernel: impl FnMut() -> Result<Duration>,
) -> Result<Vec<f64>> {
    let mut samples = Vec::new();
    let mut total = Duration::ZERO;
    loop {
        let (d, _) = rec.call(span, samples.len() as u64, &mut kernel);
        let d = d?;
        total += d;
        samples.push(d.as_secs_f64());
        let n = samples.len();
        if (n >= MIN_CALLS && total >= MIN_SAMPLED)
            || (n >= MIN_CALLS_SLOW && total >= MAX_SAMPLED)
            || n >= MAX_CALLS
        {
            return Ok(samples);
        }
    }
}

fn rows(n: usize) -> f64 {
    n.max(1) as f64
}

fn head(batch: &Batch, n: usize) -> Batch {
    let idx: Vec<u32> = (0..batch.num_rows().min(n) as u32).collect();
    batch.take(&idx)
}

/// The storage, operator, Bloom, JEN, EDW, fabric and planning kernels, on
/// the workload's tables and its two-table query.
pub fn engine_layers(
    rec: &mut Recorder,
    workload: &Workload,
    system: &HybridSystem,
    rows_per_block: usize,
    mem_budget_bytes: Option<u64>,
    last_summary: &JoinSummary,
    m: &mut Measurements,
) -> Result<()> {
    let query = workload.query();
    let schema = workload.l.schema().clone();
    let block = head(&workload.l, rows_per_block);
    let n_block = rows(block.num_rows());

    // --- storage: one L block, the columns the query's scan reads ---
    let mut read_cols: Vec<usize> = query
        .hdfs_pred
        .referenced_columns()
        .into_iter()
        .chain(query.hdfs_proj.iter().copied())
        .collect();
    read_cols.sort_unstable();
    read_cols.dedup();
    for (fmt, enc_name, dec_name, size_name) in [
        (
            FileFormat::Columnar,
            "storage.encode_columnar.ns_per_row",
            "storage.decode_columnar.ns_per_row",
            "storage.columnar.bytes_per_row",
        ),
        (
            FileFormat::Text,
            "storage.encode_text.ns_per_row",
            "storage.decode_text.ns_per_row",
            "storage.text.bytes_per_row",
        ),
    ] {
        let s = sample(rec, "storage.encode", || time(|| encode(fmt, &block)))?;
        m.put_median(enc_name, &s, 1e9 / n_block);
        let bytes = encode(fmt, &block);
        m.put(size_name, bytes.len() as f64 / n_block);
        let s = sample(rec, "storage.decode", || {
            try_time(|| decode(fmt, &schema, &bytes, Some(&read_cols)))
        })?;
        m.put_median(dec_name, &s, 1e9 / n_block);
    }

    // --- common: filter, take, partition ---
    let select = || {
        query
            .hdfs_pred
            .eval_predicate(&block)
            .map(|mask| SelectionVector::from_mask(&mask))
    };
    let s = sample(rec, "common.filter", || try_time(select))?;
    m.put_median("common.filter.ns_per_row", &s, 1e9 / n_block);
    let sel = select()?;
    let s = sample(rec, "common.take", || time(|| block.take_sel(&sel)))?;
    m.put_median("common.take.ns_per_row", &s, 1e9 / rows(sel.len()));
    let l_prime_block = block.take_sel(&sel).project(&query.hdfs_proj)?;
    let s = sample(rec, "common.partition", || {
        try_time(|| {
            partition_by_key(
                &l_prime_block,
                query.hdfs_key,
                JEN_WORKERS,
                agreed_shuffle_partition,
            )
        })
    })?;
    m.put_median(
        "common.partition.ns_per_row",
        &s,
        1e9 / rows(l_prime_block.num_rows()),
    );

    // --- common: hash join and aggregate on one JEN worker's real share ---
    // (HDFS-side joins build on L′ and probe with T′; output is L′ ++ T′)
    let t_prime = adapter::t_prime(workload, &query)?;
    let l_prime = adapter::l_prime(workload, &query)?;
    let t_share = adapter::joining_worker_share(&t_prime, query.db_key)?;
    let l_share = adapter::joining_worker_share(&l_prime, query.hdfs_key)?;
    let s = sample(rec, "common.hash_build", || {
        let mut joiner = HashJoiner::new(l_share.schema().clone(), query.hdfs_key);
        let build = l_share.clone();
        try_time(|| joiner.build(build))
    })?;
    m.put_median(
        "common.hash_build.ns_per_row",
        &s,
        1e9 / rows(l_share.num_rows()),
    );
    let mut joiner = HashJoiner::new(l_share.schema().clone(), query.hdfs_key);
    joiner.build(l_share.clone())?;
    let joined = joiner.probe(&t_share, query.db_key)?;
    let s = sample(rec, "common.hash_probe", || {
        try_time(|| joiner.probe(&t_share, query.db_key))
    })?;
    m.put_median(
        "common.hash_probe.ns_per_probe_row",
        &s,
        1e9 / rows(t_share.num_rows()),
    );
    m.put_median(
        "common.hash_probe.ns_per_out_row",
        &s,
        1e9 / rows(joined.num_rows()),
    );
    let s = sample(rec, "common.aggregate", || {
        try_time(|| -> Result<Batch> {
            let keys = adapter::group_keys_hdfs_layout(&query, &joined)?;
            let mut agg = HashAggregator::new(query.aggs_hdfs_layout());
            agg.update(&keys, &joined)?;
            Ok(agg.finish())
        })
    })?;
    m.put_median(
        "common.aggregate.ns_per_row",
        &s,
        1e9 / rows(joined.num_rows()),
    );

    // --- common: the per-query and per-message bookkeeping primitives ---
    const INNER: usize = 1_000;
    let pool = BufferPool::new(Some(1 << 30), Metrics::new());
    let s = sample(rec, "common.mempool", || {
        try_time(|| (0..INNER).try_for_each(|_| pool.reserve(1 << 20, "kernel").map(drop)))
    })?;
    m.put_median("common.mempool.reserve_ns", &s, 1e9 / INNER as f64);
    let metrics = Metrics::new();
    let id = metrics.register("kernel.counter");
    let s = sample(rec, "common.metrics", || {
        time(|| (0..100 * INNER).for_each(|_| metrics.add_id(black_box(id), 1)))
    })?;
    m.put_median("common.metrics.add_id_ns", &s, 1e9 / (100 * INNER) as f64);
    let tracer = Tracer::new();
    let s = sample(rec, "common.trace", || {
        tracer.reset();
        time(|| (0..INNER).for_each(|_| tracer.start("jen-0", Stage::Scan).done(1, 1)))
    })?;
    m.put_median("common.trace.span_ns", &s, 1e9 / INNER as f64);

    // --- bloom: BF_DB over T′ keys, probed with one L block's keys ---
    let build_keys = t_prime.column(query.db_key)?.keys_i64()?.into_owned();
    let probe_keys = block
        .column(query.hdfs_key_base())?
        .keys_i64()?
        .into_owned();
    let (n_build, n_probe) = (rows(build_keys.len()), rows(probe_keys.len()));
    let s = sample(rec, "bloom.insert", || {
        time(|| {
            let mut f = BloomFilter::new(query.bloom);
            f.insert_all(&build_keys);
            f
        })
    })?;
    m.put_median("bloom.insert.ns_per_key", &s, 1e9 / n_build);
    let s = sample(rec, "bloom.insert", || {
        time(|| {
            let mut f = BlockedBloomFilter::new(query.bloom);
            f.insert_all(&build_keys);
            f
        })
    })?;
    m.put_median("bloom.blocked_insert.ns_per_key", &s, 1e9 / n_build);
    let mut standard = BloomFilter::new(query.bloom);
    standard.insert_all(&build_keys);
    let mut blocked = BlockedBloomFilter::new(query.bloom);
    blocked.insert_all(&build_keys);
    let s = sample(rec, "bloom.probe", || {
        time(|| {
            probe_keys
                .iter()
                .filter(|&&k| standard.may_contain(k))
                .count()
        })
    })?;
    m.put_median("bloom.probe.ns_per_key", &s, 1e9 / n_probe);
    let s = sample(rec, "bloom.probe", || {
        time(|| {
            probe_keys
                .iter()
                .filter(|&&k| blocked.may_contain(k))
                .count()
        })
    })?;
    m.put_median("bloom.blocked_probe.ns_per_key", &s, 1e9 / n_probe);
    let s = sample(rec, "bloom.member_sel", || {
        time(|| member_sel(&probe_keys, &standard))
    })?;
    m.put_median("bloom.member_sel.ns_per_row", &s, 1e9 / n_probe);
    // the combine_filter UDF: OR-merge one local filter per DB worker
    let locals: Vec<BloomFilter> = (0..30)
        .map(|w| {
            let mut f = BloomFilter::new(query.bloom);
            build_keys
                .iter()
                .skip(w)
                .step_by(30)
                .for_each(|k| f.insert(*k));
            f
        })
        .collect();
    let s = sample(rec, "bloom.merge", || {
        try_time(|| {
            let mut global = BloomFilter::new(query.bloom);
            locals
                .iter()
                .try_for_each(|local| global.merge(local))
                .map(|()| global)
        })
    })?;
    m.put_median("bloom.merge30.us", &s, 1e6);
    // join keys are small non-negative ids, so none of these was inserted
    const ABSENT: i64 = 100_000;
    let false_positives = (0..ABSENT)
        .filter(|i| standard.may_contain((1 << 40) + i))
        .count();
    m.put(
        "bloom.fpr_x1e6",
        false_positives as f64 * 1e6 / ABSENT as f64,
    );

    // --- jen: one worker scans its own blocks (read + decode + filter + project) ---
    let plan = system.coordinator.plan_scan(&query.hdfs_table)?;
    let scan = ScanSpec {
        pred: query.hdfs_pred.clone(),
        proj: query.hdfs_proj.clone(),
        bloom_key: None,
    };
    let (worker, blocks) = system
        .jen_workers
        .iter()
        .zip(&plan.blocks)
        .max_by_key(|(_, blocks)| blocks.len())
        .expect("at least one JEN worker");
    let (_, scan_stats) = worker.scan_blocks(&plan.table, blocks, &scan, None)?;
    let s = sample(rec, "jen.scan", || {
        try_time(|| worker.scan_blocks(&plan.table, blocks, &scan, None))
    })?;
    m.put_median("jen.scan.ns_per_row", &s, 1e9 / rows(scan_stats.rows_raw));

    // --- jen: the hybrid hash joiner under the workload's per-worker budget,
    // and capped at a quarter of its build side for spill throughput ---
    let build_chunks = l_share.chunks(BATCH_ROWS);
    let quarter = (l_share.serialized_bytes() as u64 / 4).max(1) * JEN_WORKERS as u64;
    let (mut build_s, mut probe_s, mut finish_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut write_mbps, mut read_mbps) = (Vec::new(), Vec::new());
    for call in 0..2 * MIN_CALLS_SLOW as u64 {
        let spilling = call % 2 == 1;
        let open = rec.open(if spilling { "jen.spill" } else { "jen.hhj" }, call / 2);
        let metrics = Metrics::new();
        let total = if spilling {
            Some(quarter)
        } else {
            mem_budget_bytes
        };
        let budget = match total {
            Some(total) => {
                let pool = BufferPool::new(Some(total), metrics.clone());
                Some(pool.reserve_remaining("kernel")?.worker_share(JEN_WORKERS))
            }
            None => None,
        };
        let mut j = HybridHashJoiner::new(
            l_share.schema().clone(),
            query.hdfs_key,
            None,
            budget,
            8,
            metrics.clone(),
        )?;
        let (chunks, probe) = (build_chunks.clone(), t_share.clone());
        let build = try_time(|| chunks.into_iter().try_for_each(|c| j.add_build(c)))?;
        let probe = try_time(|| j.add_probe(probe, query.db_key))?;
        let written = metrics.get("jen.spill.bytes_written");
        let finish = try_time(|| j.finish())?;
        if spilling {
            write_mbps.push(written as f64 / 1e6 / (build + probe).as_secs_f64());
            read_mbps.push(metrics.get("jen.spill.bytes_read") as f64 / 1e6 / finish.as_secs_f64());
        } else {
            build_s.push(build.as_secs_f64());
            probe_s.push(probe.as_secs_f64());
            finish_s.push(finish.as_secs_f64());
        }
        rec.close(open);
    }
    m.put_median(
        "jen.hhj.build.ns_per_row",
        &build_s,
        1e9 / rows(l_share.num_rows()),
    );
    m.put_median(
        "jen.hhj.probe.ns_per_row",
        &probe_s,
        1e9 / rows(t_share.num_rows()),
    );
    m.put_median("jen.hhj.finish.ms", &finish_s, 1e3);
    m.put_median("jen.spill.write_mb_per_s", &write_mbps, 1.0);
    m.put_median("jen.spill.read_mb_per_s", &read_mbps, 1.0);

    // --- edw: DB worker 0's partition of T, and the DB-side join ---
    let db_worker = system.db.worker(0);
    let n_part = rows(db_worker.partition(&query.db_table)?.num_rows());
    let s = sample(rec, "edw.scan", || {
        try_time(|| db_worker.scan_filter_project(&query.db_table, &query.db_pred, &query.db_proj))
    })?;
    m.put_median("edw.scan.ns_per_row", &s, 1e9 / n_part);
    let s = sample(rec, "edw.bloom_build", || {
        try_time(|| {
            db_worker.build_local_bloom(
                &query.db_table,
                &query.db_pred,
                query.db_key_base(),
                BloomFilter::new(query.bloom),
            )
        })
    })?;
    m.put_median("edw.bloom_build.ns_per_row", &s, 1e9 / n_part);
    let left = system
        .db
        .scan_filter_project(&query.db_table, &query.db_pred, &query.db_proj)?;
    // at most 100 k L′ rows, spread over the DB workers as ingestion leaves them
    let right = partition_by_key(
        &head(&l_prime, 100_000),
        query.hdfs_key,
        system.db.num_workers(),
        agreed_shuffle_partition,
    )?;
    let join_spec = adapter::db_join_spec(&query);
    let s = sample(rec, "edw.join_aggregate", || {
        try_time(|| system.db.join_and_aggregate(&left, &right, &join_spec))
    })?;
    m.put_median("edw.join_aggregate.ms", &s, 1e3);

    // --- net: one 4 096-row data message through the fabric ---
    let fabric: Fabric<Message> = Fabric::new(1, 2, Metrics::new());
    let (from, to) = (Endpoint::Jen(JenWorkerId(0)), Endpoint::Jen(JenWorkerId(1)));
    let payload = head(&l_prime, BATCH_ROWS);
    let s = sample(rec, "net.send_recv", || {
        let msg = Message::Data {
            stream: StreamTag::HdfsShuffle,
            batch: payload.clone(),
        };
        try_time(|| {
            fabric.send(from, to, msg)?;
            fabric.recv_timeout(to, Duration::from_secs(1))
        })
    })?;
    m.put_median("net.send_recv.ns_per_msg", &s, 1e9);
    m.put_median(
        "net.send_recv.ns_per_row",
        &s,
        1e9 / rows(payload.num_rows()),
    );

    // --- core + costmodel: what a query pays before it runs ---
    let s = sample(rec, "core.sample_stats", || {
        try_time(|| adapter::sample_stats(system, &query, 8))
    })?;
    m.put_median("core.sample_stats.ms", &s, 1e3);
    let estimates =
        adapter::sample_stats(system, &query, 8)?.to_estimates(&query, JEN_WORKERS, None);
    let s = sample(rec, "core.advise", || {
        time(|| {
            for _ in 0..INNER {
                black_box(adapter::advise(black_box(&estimates)));
            }
        })
    })?;
    m.put_median("core.advise.us", &s, 1e6 / INNER as f64);
    let mut ns = 1u64 << 40;
    let s = sample(rec, "core.session", || {
        ns += 1;
        try_time(|| adapter::open_session(system, ns).map(|session| session.close_session()))
    })?;
    m.put_median("core.session.us", &s, 1e6);
    let model = CostModel::paper();
    let spec = &workload.spec;
    let scale = ScaleFactors::to_paper(spec.t_rows, spec.l_rows, spec.num_keys);
    let s = sample(rec, "costmodel.estimate", || {
        time(|| {
            for algorithm in ALGORITHMS {
                black_box(model.estimate(algorithm, black_box(last_summary), &scale));
            }
        })
    })?;
    m.put_median("costmodel.estimate.us", &s, 1e6);
    Ok(())
}

/// The front-door kernels: wire codec and framing on `query` and its
/// reference `result`, the result cache on its own, and the submit-hit and
/// reload paths of `service`, whose cache must be on.
pub fn front_door_layers(
    rec: &mut Recorder,
    query: &HybridQuery,
    result: &Batch,
    service: &QueryService,
    service_workload: &Workload,
    m: &mut Measurements,
) -> Result<()> {
    const INNER: usize = 100;
    let request = Request::Query(QueryFrame {
        id: 1,
        deadline_ms: 0,
        body: QueryBody::Binary {
            query: query.clone(),
            algorithm: None,
        },
    });
    let s = sample(rec, "server.codec", || {
        time(|| {
            for _ in 0..INNER {
                black_box(request.encode());
            }
        })
    })?;
    m.put_median("server.codec.query_encode.ns", &s, 1e9 / INNER as f64);
    let (ty, payload) = request.encode();
    let s = sample(rec, "server.codec", || {
        try_time(|| (0..INNER).try_for_each(|_| Request::decode(ty, black_box(&payload)).map(drop)))
    })?;
    m.put_median("server.codec.query_decode.ns", &s, 1e9 / INNER as f64);
    let s = sample(rec, "server.wire", || {
        try_time(|| {
            (0..INNER).try_for_each(|_| -> Result<()> {
                let mut buf = Vec::with_capacity(payload.len() + 16);
                write_frame(&mut buf, ty, &payload)?;
                read_frame(&mut &buf[..])?;
                Ok(())
            })
        })
    })?;
    m.put_median("server.wire.frame_roundtrip.ns", &s, 1e9 / INNER as f64);

    // one result chunk, as the server streams it and the client reassembles it
    let n_rows = rows(result.num_rows());
    let chunk_frame = || {
        Response::ResultChunk {
            id: 1,
            payload: encode(FileFormat::Columnar, result),
        }
        .encode()
    };
    let s = sample(rec, "server.codec", || {
        time(|| {
            for _ in 0..INNER {
                black_box(chunk_frame());
            }
        })
    })?;
    m.put_median(
        "server.codec.chunk_encode.ns_per_row",
        &s,
        1e9 / INNER as f64 / n_rows,
    );
    let (chunk_ty, chunk_payload) = chunk_frame();
    let s = sample(rec, "server.codec", || {
        try_time(|| {
            (0..INNER).try_for_each(|_| -> Result<()> {
                match Response::decode(chunk_ty, &chunk_payload)? {
                    Response::ResultChunk { payload, .. } => {
                        decode(FileFormat::Columnar, result.schema(), &payload, None)?;
                        Ok(())
                    }
                    other => Err(format!("decoded {other:?}, expected a result chunk").into()),
                }
            })
        })
    })?;
    m.put_median(
        "server.codec.chunk_decode.ns_per_row",
        &s,
        1e9 / INNER as f64 / n_rows,
    );

    // the result cache on its own
    let cache = ResultCache::new(64, Metrics::new(), TableGenerations::new());
    let entry = CachedResult {
        result: Arc::new(result.clone()),
        algorithm: ALGORITHMS[0],
    };
    let generations = cache.generations(query);
    let s = sample(rec, "service.result_cache", || {
        time(|| {
            (0..INNER)
                .filter(|_| cache.insert(query, entry.clone(), generations))
                .count()
        })
    })?;
    m.put_median("service.result_cache.insert.ns", &s, 1e9 / INNER as f64);
    let s = sample(rec, "service.result_cache", || {
        try_time(|| {
            (0..INNER).try_for_each(|_| {
                cache
                    .get(black_box(query))
                    .map(drop)
                    .ok_or("result cache missed a key it holds")
            })
        })
    })?;
    m.put_median("service.result_cache.get_hit.ns", &s, 1e9 / INNER as f64);

    // a whole in-process submission served from the cache, then a reload
    let cached = QueryRequest::new(adapter::variant(service_workload, 0));
    service.submit(&cached)?;
    let s = sample(rec, "service.submit_hit", || {
        try_time(|| {
            (0..INNER).try_for_each(|_| -> Result<()> {
                if service.submit(&cached)?.from_cache {
                    Ok(())
                } else {
                    Err("a query the cache holds was executed again".into())
                }
            })
        })
    })?;
    m.put_median("service.submit_hit.ns", &s, 1e9 / INNER as f64);
    let s = sample(rec, "service.reload", || {
        try_time(|| adapter::reload_t(service, service_workload))
    })?;
    m.put_median("service.reload.ms", &s, 1e3);
    Ok(())
}
