//! What a traced run measures beside the workload's own operations, the
//! same way on every workload, so that each per-layer metric is a
//! measurement everywhere: the engine's account of the job, the multiway
//! executor, and the front door.

use crate::adapter::{
    self, Batch, HybridSystem, JoinAlgorithm, MultiwayPlanner, OpStats, Result, Workload,
};
use crate::engine::{self, Job};
use crate::measure::Measurements;
use crate::run::{svc_region, Primary, Region};
use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::Recorder;
use crate::workloads::{self, Data, Plan, Size, WorkloadDef};
use crate::{kernels, svc, sys};
use std::time::Duration;

/// Repetitions of a probe that runs whole queries.
const PROBE_REPS: u64 = 3;
const PROBE_CONNECTS: usize = 20;
/// Fabric namespaces of the sessions the probes open on a service's system:
/// above anything the service hands out to a tenant in a run.
const ENGINE_PROBE_NS: u64 = 1 << 41;
const STAR_PROBE_NS: u64 = 1 << 42;

/// The engine's own account of a job — stage busy times and movement
/// counters — and the same job at the other thread count. An engine
/// workload passes its own system, job and the operations it has already
/// run; a service workload has no engine run of its own, so it passes a
/// session of its service's system and gets zigzag on the base query.
/// Returns the statistics of the last run.
fn engine_view_on(
    workload: &Workload,
    system: &mut HybridSystem,
    own: Option<(&Job, &Batch, Vec<OpStats>)>,
    def: &WorkloadDef,
    size: Size,
    rec: &mut Recorder,
    m: &mut Measurements,
) -> Result<OpStats> {
    let zigzag = Job::Binary {
        query: workload.query(),
        algorithm: JoinAlgorithm::Zigzag,
    };
    let zigzag_reference = adapter::reference_binary(workload, &workload.query())?;
    let (job, reference, mut main_ops) = match own {
        Some(own) => own,
        None => {
            let ops = probe_ops(system, &zigzag, &zigzag_reference, rec, PROBE_REPS, false)?;
            (&zigzag, &zigzag_reference, ops)
        }
    };

    let other_threads = if def.parallel {
        1
    } else {
        sys::parallelism().max(2)
    };
    let mut other = adapter::load_system(
        workload,
        def.format,
        def.rows_per_block(size),
        other_threads,
        def.mem_budget_bytes(size),
    )?;
    let other_ops = probe_ops(&mut other, job, reference, rec, PROBE_REPS, false)?;
    drop(other);
    let (sequential, parallel) = if def.parallel {
        (&other_ops, &main_ops)
    } else {
        (&main_ops, &other_ops)
    };
    let wall = |ops: &[OpStats]| median(&ops.iter().map(|o| o.wall_us).collect::<Vec<_>>());
    m.put(
        "core.driver.speedup_x1000",
        wall(sequential) / wall(parallel) * 1000.0,
    );
    m.put_median(
        "core.stage.unattributed.pct",
        &unattributed_pct(sequential),
        1.0,
    );

    // Stage busy times come from the timelines of the job's own runs. A
    // stage its plan does not have (the Bloom stages under repartition and in
    // the star executor) is taken from zigzag runs over the same tables, so
    // that the number stays a measurement instead of a constant zero.
    let absent: Vec<usize> = (0..STAGE_METRICS.len())
        .filter(|&i| median(&stage_busy(&main_ops, i)) == 0.0)
        .collect();
    let zigzag_ops = if absent.is_empty() {
        Vec::new()
    } else {
        probe_ops(system, &zigzag, &zigzag_reference, rec, PROBE_REPS, false)?
    };
    for (i, name) in STAGE_METRICS.into_iter().enumerate() {
        let from = if absent.contains(&i) {
            &zigzag_ops
        } else {
            &main_ops
        };
        m.put_median(name, &stage_busy(from, i), 1e-3);
    }

    let last = main_ops.pop().expect("at least one engine operation");
    for (name, value) in [
        ("jen.spill.bytes_written", last.spill_bytes_written),
        ("jen.spill.bytes_read", last.spill_bytes_read),
        ("jen.mem.evictions", last.evictions),
        ("jen.mem.partitions_resident", last.partitions_resident),
        ("jen.mem.high_water_bytes", last.mem_high_water),
        ("hdfs.bytes_scanned", last.hdfs_bytes_scanned),
        ("net.cross_bytes", last.cross_bytes),
        ("net.intra_hdfs_bytes", last.intra_hdfs_bytes),
        ("net.msgs", last.msgs),
        ("net.shuffle.tuples", last.shuffle_tuples),
        (
            "net.shuffle.max_over_mean_x1000",
            last.shuffle_max_over_mean_x1000,
        ),
    ] {
        m.put(name, value as f64);
    }
    Ok(last)
}

/// [`engine_view_on`] for the workload at hand; `own_ops` are the engine
/// operations its traced region ran (none for a service workload).
pub fn engine_view(
    primary: &mut Primary,
    own_ops: Vec<OpStats>,
    def: &WorkloadDef,
    size: Size,
    rec: &mut Recorder,
    m: &mut Measurements,
) -> Result<OpStats> {
    match primary {
        Primary::Engine(f) => {
            let f = &mut **f;
            let own = Some((&f.job, &f.reference, own_ops));
            engine_view_on(&f.workload, &mut f.system, own, def, size, rec, m)
        }
        Primary::Svc(f) => {
            let mut session = adapter::open_session(&f.service.system(), ENGINE_PROBE_NS)?;
            let last = engine_view_on(&f.workload, &mut session, None, def, size, rec, m);
            session.close_session();
            last
        }
    }
}

/// Both multiway families and the advisor's pick: on the workload's star
/// data, or on the service workloads' where it has no dimension tables.
pub fn multiway_view(
    primary: &mut Primary,
    size: Size,
    seed: u64,
    rec: &mut Recorder,
    m: &mut Measurements,
) -> Result<()> {
    match primary {
        Primary::Engine(f) if !f.workload.dims.is_empty() => {
            let f = &mut **f;
            star_probe(rec, &f.workload, &f.reference, &mut f.system, true, m)
        }
        Primary::Svc(f) => {
            let star_ref = adapter::reference_star(&f.workload, &f.workload.star_query())?;
            let mut session = adapter::open_session(&f.service.system(), STAR_PROBE_NS)?;
            let probed = star_probe(rec, &f.workload, &star_ref, &mut session, false, m);
            session.close_session();
            probed
        }
        Primary::Engine(_) => {
            let aux = Data::TinyStar.spec(size, seed).generate()?;
            let star_ref = adapter::reference_star(&aux, &aux.star_query())?;
            let blocks = Data::TinyStar.rows_per_block(size);
            let mut system =
                adapter::load_system(&aux, adapter::FileFormat::Columnar, blocks, 1, None)?;
            star_probe(rec, &aux, &star_ref, &mut system, false, m)
        }
    }
}

/// An uncached and a cached service on the service workloads' data — the
/// workload's own fixture where it is one — for `budget` each, then the
/// front-door kernels. Returns the two probe regions.
pub fn front_door_view(
    primary: &mut Primary,
    def: &WorkloadDef,
    size: Size,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    m: &mut Measurements,
) -> Result<[Region; 2]> {
    let query = primary.workload().query();
    let result = adapter::reference_binary(primary.workload(), &query)?;
    let mut aux_uncached = None;
    let mut aux_cached = None;
    for (cached, slot) in [(false, &mut aux_uncached), (true, &mut aux_cached)] {
        if def.plan != (Plan::Svc { cached }) {
            let name = if cached {
                "svc_tcp_cached"
            } else {
                "svc_tcp_uncached"
            };
            let aux_def = workloads::find(name).expect("service workloads exist");
            *slot = Some(svc::Fixture::setup(aux_def, size, seed, rec)?);
        }
    }
    let uncached = svc_region(pick(primary, &mut aux_uncached), rec, budget);
    uncached_metrics(&uncached.svc_samples, m)?;
    let fixture = pick(primary, &mut aux_cached);
    let cached = svc_region(fixture, rec, budget);
    cached_metrics(&cached.svc_samples, fixture, m)?;
    let mut connects = Vec::with_capacity(PROBE_CONNECTS);
    for _ in 0..PROBE_CONNECTS {
        let (client, d) = rec.call("server.connect_hello", 0, || fixture.connect(0));
        client?;
        connects.push(d.as_secs_f64());
    }
    m.put_median("server.connect_hello.us", &connects, 1e6);
    kernels::front_door_layers(rec, &query, &result, &fixture.service, &fixture.workload, m)?;
    Ok([uncached, cached])
}

fn pick<'a>(primary: &'a mut Primary, aux: &'a mut Option<svc::Fixture>) -> &'a mut svc::Fixture {
    match (aux, primary) {
        (Some(f), _) => f,
        (None, Primary::Svc(f)) => f,
        (None, Primary::Engine(_)) => unreachable!("engine workloads set up both services"),
    }
}

/// `reps` checked runs of `job` on `system`; a system that has not run this
/// job yet gets one more first, which is dropped.
fn probe_ops(
    system: &mut HybridSystem,
    job: &Job,
    reference: &Batch,
    rec: &mut Recorder,
    reps: u64,
    warm: bool,
) -> Result<Vec<OpStats>> {
    let skip = usize::from(!warm);
    (0..reps + skip as u64)
        .map(|i| match engine::run_job(system, job, reference, rec, i)? {
            (stats, true) => Ok(stats),
            (_, false) => Err("probe result differs from the sequential reference".into()),
        })
        .skip(skip)
        .collect()
}

const STAGE_METRICS: [&str; 8] = [
    "core.stage.scan.busy_ms",
    "core.stage.bloom_build.busy_ms",
    "core.stage.bloom_apply.busy_ms",
    "core.stage.shuffle_send.busy_ms",
    "core.stage.shuffle_recv.busy_ms",
    "core.stage.hash_build.busy_ms",
    "core.stage.probe.busy_ms",
    "core.stage.aggregate.busy_ms",
];

/// Busy time of stage `i` (Σ over workers) in each of `ops`, µs.
fn stage_busy(ops: &[OpStats], i: usize) -> Vec<f64> {
    ops.iter().map(|o| o.stage_busy_us[i]).collect()
}

/// The share of a single-threaded wall the stage spans leave unexplained.
fn unattributed_pct(sequential: &[OpStats]) -> Vec<f64> {
    sequential
        .iter()
        .map(|o| (o.wall_us - o.stage_busy_us.iter().sum::<f64>()) / o.wall_us * 100.0)
        .collect()
}

fn star_probe(
    rec: &mut Recorder,
    workload: &adapter::Workload,
    reference: &Batch,
    system: &mut HybridSystem,
    warm: bool,
    m: &mut Measurements,
) -> Result<()> {
    let star = workload.star_query();
    let mut ops_of = |planner, reps, warm| {
        let job = Job::Star {
            star: star.clone(),
            planner,
        };
        probe_ops(system, &job, reference, rec, reps, warm)
    };
    let walls = |ops: &[OpStats]| ops.iter().map(|o| o.wall_us).collect::<Vec<_>>();
    let cascade = ops_of(MultiwayPlanner::Cascade, PROBE_REPS, warm)?;
    m.put_median("core.multiway.cascade.ms", &walls(&cascade), 1e-3);
    let hypercube = ops_of(MultiwayPlanner::Hypercube, PROBE_REPS, true)?;
    m.put_median("core.multiway.hypercube.ms", &walls(&hypercube), 1e-3);
    // counters only, and they repeat exactly: one run of the advisor's pick
    let auto = ops_of(MultiwayPlanner::Auto, 1, true)?;
    m.put(
        "core.multiway.shuffle_bytes",
        auto[0].multiway_shuffle_bytes as f64,
    );
    m.put("core.advisor.ran_hypercube", auto[0].ran_hypercube as f64);
    Ok(())
}

fn require<'a>(what: &str, v: &'a [f64]) -> Result<&'a [f64]> {
    if v.is_empty() {
        Err(format!("front-door probe saw no {what}").into())
    } else {
        Ok(v)
    }
}

/// What `ClientReply` says about executed queries: where the time went
/// inside the service, and what the front door added around it.
fn uncached_metrics(samples: &[svc::Sample], m: &mut Measurements) -> Result<()> {
    let col = |f: &dyn Fn(&svc::Sample) -> Option<f32>| {
        samples
            .iter()
            .filter_map(f)
            .map(f64::from)
            .collect::<Vec<_>>()
    };
    let queue = col(&|s| Some(s.queue_us));
    let queue = sorted(require("replies", &queue)?);
    m.put_with(
        "service.queue_wait.us_p50",
        percentile(&queue, 50.0),
        Summary::of(&queue),
    );
    m.put_with(
        "service.queue_wait.us_p99",
        percentile(&queue, 99.0),
        Summary::of(&queue),
    );
    m.put_median("service.exec.ms_p50", &col(&|s| Some(s.exec_us)), 1e-3);
    // whole microseconds on the wire and only a few of them: the mean moves
    // where a median would sit on one integer
    let overhead = col(&|s| Some(s.server_us - s.queue_us - s.exec_us));
    m.put_with(
        "service.overhead.us_mean",
        overhead.iter().sum::<f64>() / overhead.len() as f64,
        Summary::of(&overhead),
    );
    m.put_median(
        "server.frontdoor.overhead_us_p50",
        &col(&|s| Some(s.client_us - s.server_us)),
        1.0,
    );
    let binary = col(&|s| (!s.star).then_some(s.client_us));
    m.put_median(
        "server.latency.binary_ms_p50",
        require("binary replies", &binary)?,
        1e-3,
    );
    let star = col(&|s| s.star.then_some(s.client_us));
    m.put_median(
        "server.latency.star_ms_p50",
        require("star replies", &star)?,
        1e-3,
    );
    Ok(())
}

/// Hits as a client sees them, and the caches' own counters.
fn cached_metrics(
    samples: &[svc::Sample],
    fixture: &svc::Fixture,
    m: &mut Measurements,
) -> Result<()> {
    let hits: Vec<f64> = samples
        .iter()
        .filter(|s| s.from_cache)
        .map(|s| f64::from(s.client_us))
        .collect();
    let hits = sorted(require("cache hits", &hits)?);
    m.put_with(
        "server.frontdoor.hit_latency_us_p99",
        percentile(&hits, 99.0),
        Summary::of(&hits),
    );
    let counter = |name: &str| adapter::service_counter(&fixture.service, name) as f64;
    let ratio = |cache: &str| {
        let (hits, misses) = (
            counter(&format!("{cache}.hits")),
            counter(&format!("{cache}.misses")),
        );
        (hits / (hits + misses).max(1.0) * 1000.0).round()
    };
    m.put(
        "service.result_cache.hit_ratio_x1000",
        ratio("svc.cache.result"),
    );
    m.put(
        "service.bloom_cache.hit_ratio_x1000",
        ratio("svc.cache.bloom"),
    );
    m.put(
        "service.result_cache.invalidations",
        counter("svc.cache.result.invalidations"),
    );
    Ok(())
}
