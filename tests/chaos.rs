//! The chaos soak: seeded fault injection across every join algorithm and
//! both execution modes.
//!
//! Each seed derives a fault mix (drops, duplicates, delays, reorders,
//! worker kills, stragglers) through [`FaultSpec::from_seed`]; the fabric
//! and driver inject those faults deterministically — decisions are pure
//! hashes of `(seed, namespace, edge, stream, sequence, attempt)`, never
//! of wall-clock or thread schedule — so any failure replays from its
//! printed seed alone:
//!
//! ```text
//! HYBRID_CHAOS_SEED=<seed> cargo test -q --test chaos
//! ```
//!
//! The contract, for every `(seed, algorithm, thread-count)` cell:
//!
//! * the run either returns the **bit-identical** reference answer (faults
//!   recovered by retry/backoff and receiver-side dedup), or
//! * fails with a **typed** error naming the injected fault
//!   ([`HybridError::FaultInjected`] / [`HybridError::Disconnected`]) —
//!   never a generic timeout, never a secondary `Cancelled`;
//! * and it always terminates: a hard watchdog converts any hang into a
//!   failure carrying the seed.
//!
//! Seed count: `HYBRID_CHAOS_SEEDS` (defaults to 6 in debug builds, 50 in
//! release — the CI soak runs release). `HYBRID_CHAOS_SEED` pins one seed
//! for replay.

mod util;

use hybrid_common::error::HybridError;
use hybrid_common::hash::splitmix64;
use hybrid_core::reference::run_reference;
use hybrid_core::{
    run, run_adaptive, run_star, run_star_reference, sample_stats, FaultSpec, FaultTarget,
    HybridQuery, HybridSystem, JoinAlgorithm, MultiwayPlanner, QueryEstimates, SystemConfig,
};
use hybrid_datagen::{Workload, WorkloadSpec};
use hybrid_service::{QueryRequest, QueryService, ServiceConfig};
use hybrid_storage::FileFormat;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use util::{assert_root_is_session_sum, assert_service_clean, assert_spill_balanced};

const DB_WORKERS: usize = 3;
const JEN_WORKERS: usize = 4;

/// The fabric-carried counters the root = Σ sessions checks cover: link
/// volumes plus the chaos plane's own injected and deduped counts.
const CHAOS_COUNTERS: [&str; 5] = [
    "net.cross.bytes",
    "net.cross.msgs",
    "net.chaos.duplicated",
    "net.chaos.reordered",
    "net.chaos.deduped",
];

/// Any cell exceeding this is a hang, reported with its seed. Generous:
/// a healthy cell runs in well under a second.
const WATCHDOG: Duration = Duration::from_secs(60);

fn small_workload() -> Workload {
    let mut spec = WorkloadSpec::tiny();
    spec.t_rows = 400;
    spec.l_rows = 1600;
    spec.generate().unwrap()
}

/// The seven production algorithms (PERF is the paper's measured-baseline
/// extra; its positional streams are excluded from reordering by
/// construction, so the soak sticks to the paper set + semi-join).
fn all_algorithms() -> [JoinAlgorithm; 7] {
    [
        JoinAlgorithm::DbSide { bloom: false },
        JoinAlgorithm::DbSide { bloom: true },
        JoinAlgorithm::Broadcast,
        JoinAlgorithm::Repartition { bloom: false },
        JoinAlgorithm::Repartition { bloom: true },
        JoinAlgorithm::Zigzag,
        JoinAlgorithm::SemiJoin,
    ]
}

fn chaos_config(threads: usize, faults: FaultSpec) -> SystemConfig {
    let mut cfg = SystemConfig::paper_shape(DB_WORKERS, JEN_WORKERS);
    cfg.rows_per_block = 100;
    cfg.threads = threads;
    cfg.recv_timeout = Duration::from_secs(10);
    cfg.fault_spec = Some(faults);
    cfg
}

fn soak_seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("HYBRID_CHAOS_SEED") {
        return vec![s.parse().expect("HYBRID_CHAOS_SEED must be a u64")];
    }
    let default = if cfg!(debug_assertions) { 6 } else { 50 };
    let n: u64 = std::env::var("HYBRID_CHAOS_SEEDS")
        .ok()
        .map(|v| v.parse().expect("HYBRID_CHAOS_SEEDS must be a u64"))
        .unwrap_or(default);
    (0..n).collect()
}

fn thread_counts() -> Vec<usize> {
    match std::env::var("HYBRID_THREADS") {
        Ok(v) => vec![v.parse().expect("HYBRID_THREADS must be a usize")],
        Err(_) => vec![1, 8],
    }
}

/// Derive one seed's fault mix: the rate-based classes come from
/// [`FaultSpec::from_seed`]; on top, every fourth seed kills a worker at a
/// seed-chosen step and a disjoint quarter slows one JEN worker into a
/// straggler. Kill steps past a worker's last step simply never fire —
/// those cells double as plain fault-mix runs.
fn mix_for(seed: u64) -> FaultSpec {
    let mut spec = FaultSpec::from_seed(seed, 0.08);
    let h = splitmix64(seed ^ 0xFA17_FA17);
    match h % 4 {
        0 => {
            let target = if h & 16 == 0 {
                FaultTarget::Jen
            } else {
                FaultTarget::Db
            };
            let workers = match target {
                FaultTarget::Jen => JEN_WORKERS,
                FaultTarget::Db => DB_WORKERS,
            };
            let worker = (splitmix64(h) % workers as u64) as usize;
            let step = (splitmix64(h ^ 1) % 6) as usize;
            spec = spec.with_kill(target, worker, step);
        }
        1 => {
            let worker = (splitmix64(h ^ 2) % JEN_WORKERS as u64) as usize;
            spec = spec.with_straggler(FaultTarget::Jen, worker, Duration::from_micros(300));
        }
        _ => {}
    }
    spec
}

/// Run every algorithm on one `(seed, threads)` system under a watchdog.
/// The executing thread owns the system; the test thread only waits with
/// a timeout, so a hung cell becomes a failed assertion naming its seed
/// instead of a stuck test binary.
fn run_all_with_watchdog(
    workload: Arc<Workload>,
    threads: usize,
    faults: FaultSpec,
    seed: u64,
) -> Vec<(
    JoinAlgorithm,
    Result<hybrid_common::batch::Batch, HybridError>,
)> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut sys = HybridSystem::new(chaos_config(threads, faults)).unwrap();
        workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
        let query = workload.query();
        for alg in all_algorithms() {
            let outcome = run(&mut sys, &query, alg).map(|o| o.result);
            if tx.send((alg, outcome)).is_err() {
                return; // watchdog already fired; stop wasting the CPU
            }
        }
    });
    let total = all_algorithms().len();
    let mut out = Vec::with_capacity(total);
    for done in 0..total {
        match rx.recv_timeout(WATCHDOG) {
            Ok(pair) => out.push(pair),
            Err(_) => panic!(
                "seed {seed}: algorithm {done}/{total} at {threads} threads hung past \
                 {WATCHDOG:?} (or its runner died) — replay with HYBRID_CHAOS_SEED={seed}"
            ),
        }
    }
    out
}

fn assert_typed(e: &HybridError, seed: u64, alg: JoinAlgorithm, threads: usize) {
    assert!(
        matches!(
            e,
            HybridError::FaultInjected { .. } | HybridError::Disconnected { .. }
        ),
        "seed {seed}: {alg} at {threads} threads surfaced an untyped error: {e} — \
         replay with HYBRID_CHAOS_SEED={seed}"
    );
}

/// The headline soak: N seeds × 7 algorithms × threads {1, 8}, each cell
/// under its seed's fault mix. Bit-match or typed error, never a hang.
///
/// A failing seed does **not** abort the sweep: every seed runs, failures
/// are collected, and the test reports the complete list of failing
/// `HYBRID_CHAOS_SEED` values at the end — so one bad seed can no longer
/// hide the others. When `HYBRID_CHAOS_FAIL_LOG` names a file, the failing
/// seeds (one per line) are also written there for CI to upload.
#[test]
fn chaos_soak_any_schedule_correctness() {
    let workload = Arc::new(small_workload());
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
    assert!(expected.num_rows() > 0, "soak query must be non-trivial");

    let mut failures: Vec<(u64, String)> = Vec::new();
    for seed in soak_seeds() {
        let faults = mix_for(seed);
        let seed_outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for threads in thread_counts() {
                let outcomes =
                    run_all_with_watchdog(Arc::clone(&workload), threads, faults.clone(), seed);
                for (alg, res) in outcomes {
                    match res {
                        Ok(result) => assert_eq!(
                            result, expected,
                            "seed {seed}: {alg} at {threads} threads returned a wrong answer — \
                             replay with HYBRID_CHAOS_SEED={seed}"
                        ),
                        Err(e) => assert_typed(&e, seed, alg, threads),
                    }
                }
            }
        }));
        if let Err(panic) = seed_outcome {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            eprintln!("seed {seed} FAILED: {msg}");
            failures.push((seed, msg));
        }
    }

    if failures.is_empty() {
        return;
    }
    let seeds: Vec<String> = failures.iter().map(|(s, _)| s.to_string()).collect();
    if let Ok(path) = std::env::var("HYBRID_CHAOS_FAIL_LOG") {
        let mut log = String::new();
        for (seed, msg) in &failures {
            log.push_str(&format!("{seed}\t{}\n", msg.replace('\n', " ")));
        }
        if let Err(e) = std::fs::write(&path, log) {
            eprintln!("could not write failing-seed log {path}: {e}");
        } else {
            eprintln!("failing seeds written to {path}");
        }
    }
    panic!(
        "{} of {} seed(s) failed: {} — replay each with \
         HYBRID_CHAOS_SEED=<seed> cargo test -q --release --test chaos",
        failures.len(),
        soak_seeds().len(),
        seeds.join(", ")
    );
}

/// Replay determinism: the whole point of seeding. Two fresh systems under
/// the same seed must produce identical outcomes — same result batch, same
/// metric totals (chaos counters included), or the same typed error.
/// Sequential mode, where even the metric totals are schedule-free.
#[test]
fn same_seed_replays_identically() {
    let workload = small_workload();
    let query = workload.query();
    let faults = FaultSpec::quiet(0xD5)
        .with_drops(0.25)
        .with_dups(0.2)
        .with_reorders(0.3)
        .with_delays(0.1, Duration::from_micros(200));

    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut sys = HybridSystem::new(chaos_config(1, faults.clone())).unwrap();
        workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
        let per_alg: Vec<_> = all_algorithms()
            .into_iter()
            .map(|alg| {
                (
                    alg,
                    run(&mut sys, &query, alg).map(|o| (o.result, o.snapshot)),
                )
            })
            .collect();
        runs.push(per_alg);
    }
    let second = runs.pop().unwrap();
    let first = runs.pop().unwrap();
    for ((alg, a), (_, b)) in first.into_iter().zip(second) {
        match (a, b) {
            (Ok((res_a, snap_a)), Ok((res_b, snap_b))) => {
                assert_eq!(res_a, res_b, "{alg}: results diverged across replays");
                assert_eq!(
                    snap_a, snap_b,
                    "{alg}: metric totals diverged across replays"
                );
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(ea, eb, "{alg}: errors diverged across replays")
            }
            (a, b) => panic!("{alg}: outcome class diverged across replays: {a:?} vs {b:?}"),
        }
    }
}

/// An injected worker kill must surface as the typed disconnection naming
/// the dead worker — in both execution modes — and leave the system
/// reusable: the next run on the same system (kill re-fires) fails the
/// same way rather than hanging or corrupting state.
#[test]
fn injected_kill_is_typed_in_both_execution_modes() {
    let workload = small_workload();
    let query = workload.query();
    for threads in [1, 8] {
        let faults = FaultSpec::quiet(1).with_kill(FaultTarget::Jen, 1, 1);
        let mut sys = HybridSystem::new(chaos_config(threads, faults)).unwrap();
        workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
        for round in 0..2 {
            let err = run(
                &mut sys,
                &query,
                JoinAlgorithm::Repartition { bloom: false },
            )
            .unwrap_err();
            assert_eq!(
                err,
                HybridError::Disconnected {
                    endpoint: "jen-worker-1".into(),
                    stream: None,
                },
                "threads={threads} round={round}"
            );
        }
    }
}

/// Kill a JEN worker between the grace join's spill-write (build step) and
/// spill-read (probe step): the failure must be typed AND every spill
/// partition file written must be removed when the run unwinds — the
/// `files_created == files_removed` pair is the no-orphans invariant.
#[test]
fn kill_at_spill_boundary_leaves_no_orphaned_partitions() {
    let workload = small_workload();
    let query = workload.query();
    // Repartition JEN step ordinals: 0 = scan+shuffle, 1 = recv+build
    // (spill-write happens here), 2 = probe (spill-read) — the kill lands
    // exactly on the boundary.
    let faults = FaultSpec::quiet(2).with_kill(FaultTarget::Jen, 0, 2);
    let mut cfg = chaos_config(1, faults);
    cfg.jen_memory_limit_rows = Some(64);
    let mut sys = HybridSystem::new(cfg).unwrap();
    workload.load_into(&mut sys, FileFormat::Columnar).unwrap();

    let err = run(
        &mut sys,
        &query,
        JoinAlgorithm::Repartition { bloom: false },
    )
    .unwrap_err();
    assert_eq!(
        err,
        HybridError::Disconnected {
            endpoint: "jen-worker-0".into(),
            stream: None,
        }
    );
    let created = assert_spill_balanced(&sys.metrics.snapshot(), "killed run");
    assert!(created > 0, "the kill must land after real spill activity");
}

/// Chaos over the batched fabric: the recovery guarantees are
/// framing-independent. Under a drop/dup/reorder mix, every batch framing
/// — one-row replay, an odd non-divisor size, and the default — must
/// bit-match the reference or fail with the typed injected fault, and a
/// duplicated *batch* message must be deduped by the receiver exactly like
/// a duplicated tuple message (the `(sender, stream, seq)` key never
/// inspects the payload).
#[test]
fn chaos_on_batched_fabric_is_framing_independent() {
    let workload = small_workload();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
    let faults = FaultSpec::quiet(0xBA7C)
        .with_drops(0.2)
        .with_dups(0.25)
        .with_reorders(0.3);

    for batch_rows in [1usize, 7, 4096] {
        for threads in [1usize, 8] {
            let mut cfg = chaos_config(threads, faults.clone());
            cfg.batch_rows = batch_rows;
            let mut sys = HybridSystem::new(cfg).unwrap();
            workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
            for alg in [
                JoinAlgorithm::Repartition { bloom: false },
                JoinAlgorithm::Zigzag,
            ] {
                match run(&mut sys, &query, alg) {
                    Ok(out) => assert_eq!(
                        out.result, expected,
                        "{alg} diverged at batch_rows={batch_rows}, {threads} threads"
                    ),
                    Err(e) => assert!(
                        matches!(
                            e,
                            HybridError::FaultInjected { .. } | HybridError::Disconnected { .. }
                        ),
                        "untyped error at batch_rows={batch_rows}, {threads} threads: {e}"
                    ),
                }
            }
            let duplicated = sys.metrics.get("net.chaos.duplicated");
            let deduped = sys.metrics.get("net.chaos.deduped");
            assert!(
                duplicated > 0,
                "the 25% dup rate must inject at batch_rows={batch_rows}"
            );
            assert!(
                deduped > 0 && deduped <= duplicated,
                "duplicated batches must be receiver-deduped like duplicated \
                 tuples at batch_rows={batch_rows}: {deduped}/{duplicated}"
            );
        }
    }
}

/// The spill no-orphans invariant at a non-default batch framing: killing
/// the worker between spill-write and spill-read with 7-row batches on the
/// wire must still remove every partition file it created.
#[test]
fn batched_kill_at_spill_boundary_leaves_no_orphans() {
    let workload = small_workload();
    let query = workload.query();
    let faults = FaultSpec::quiet(2).with_kill(FaultTarget::Jen, 0, 2);
    let mut cfg = chaos_config(1, faults);
    cfg.batch_rows = 7;
    cfg.jen_memory_limit_rows = Some(64);
    let mut sys = HybridSystem::new(cfg).unwrap();
    workload.load_into(&mut sys, FileFormat::Columnar).unwrap();

    let err = run(
        &mut sys,
        &query,
        JoinAlgorithm::Repartition { bloom: false },
    )
    .unwrap_err();
    assert_eq!(
        err,
        HybridError::Disconnected {
            endpoint: "jen-worker-0".into(),
            stream: None,
        }
    );
    let created = assert_spill_balanced(&sys.metrics.snapshot(), "batched killed run");
    assert!(created > 0, "the kill must land after real spill activity");
}

/// The no-orphans invariant on the governor's *dynamic* eviction path: a
/// byte budget (not a row limit) makes the hybrid join evict partitions
/// under pressure mid-build, and the kill lands on the evict/re-read
/// boundary. The unwind must remove every spill run file AND hand back
/// every byte of the residency ledger and pool reservation.
#[test]
fn kill_at_eviction_boundary_drains_ledger_and_files() {
    let workload = small_workload();
    let query = workload.query();
    let faults = FaultSpec::quiet(2).with_kill(FaultTarget::Jen, 0, 2);
    let mut cfg = chaos_config(1, faults);
    // ~26 KB of L' against an 8 KB pool: every worker must evict
    cfg.mem_budget_bytes = Some(8 << 10);
    let mut sys = HybridSystem::new(cfg).unwrap();
    workload.load_into(&mut sys, FileFormat::Columnar).unwrap();

    let err = run(
        &mut sys,
        &query,
        JoinAlgorithm::Repartition { bloom: false },
    )
    .unwrap_err();
    assert_eq!(
        err,
        HybridError::Disconnected {
            endpoint: "jen-worker-0".into(),
            stream: None,
        }
    );
    assert!(
        sys.metrics.get("mem.evictions") > 0,
        "the kill must land after dynamic evictions, or this cell tests \
         the same boundary as the row-limit variants"
    );
    let created = assert_spill_balanced(&sys.metrics.snapshot(), "killed budgeted run");
    assert!(created > 0, "evictions must have written spill runs");
    assert_eq!(
        sys.mem_pool.used(),
        0,
        "killed run left resident bytes in the pool ledger"
    );
}

/// Coordinator-level recovery: the service re-admits a failed query in a
/// fresh session namespace, where the seeded plan rolls fresh per-delivery
/// decisions. Under a drop-heavy mix, submissions either recover to the
/// exact reference answer or exhaust their retries with the typed injected
/// fault — and the `svc.retries` counter proves recovery actually ran.
#[test]
fn service_retries_recover_injected_drops() {
    let workload = small_workload();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();

    let faults = FaultSpec::quiet(3).with_drops(0.35);
    let mut sys = HybridSystem::new(chaos_config(1, faults)).unwrap();
    workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
    let service = QueryService::new(
        sys,
        ServiceConfig {
            result_cache_capacity: 0, // every submission must execute
            query_retries: 3,
            ..ServiceConfig::default()
        },
    );

    let submissions = 8;
    let mut completed = 0u64;
    for _ in 0..submissions {
        match service.submit(&QueryRequest::new(query.clone())) {
            Ok(resp) => {
                assert_eq!(
                    *resp.result, expected,
                    "a recovered query must still return the exact answer"
                );
                completed += 1;
            }
            Err(hybrid_service::ServiceError::Exec(e)) => {
                assert!(
                    matches!(
                        e,
                        HybridError::FaultInjected { .. } | HybridError::Disconnected { .. }
                    ),
                    "exhausted retries must surface the typed fault, got {e}"
                );
            }
            Err(other) => panic!("unexpected service error: {other}"),
        }
    }
    let m = service.metrics();
    assert_eq!(m.get("svc.submitted"), submissions);
    assert_eq!(m.get("svc.completed"), completed);
    assert_service_clean(&service);
    assert!(completed > 0, "at least one submission must recover");
    assert!(
        m.get("svc.retries") > 0,
        "a 35% drop rate must force at least one coordinator retry"
    );
}

/// The conservation law under retransmission and reordering: for every
/// fabric-carried counter — including the injected duplicates themselves —
/// the root registry's total must equal the exact sum over the per-session
/// snapshots. Any gap is silent data loss or double-metering.
#[test]
fn conservation_law_holds_under_duplication_and_reordering() {
    let workload = small_workload();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();

    let faults = FaultSpec::quiet(11).with_dups(0.5).with_reorders(0.5);
    let mut sys = HybridSystem::new(chaos_config(1, faults)).unwrap();
    workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
    let service = QueryService::new(
        sys,
        ServiceConfig {
            result_cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );

    let mut snapshots = Vec::new();
    for _ in 0..4 {
        let resp = service.submit(&QueryRequest::new(query.clone())).unwrap();
        assert_eq!(*resp.result, expected);
        snapshots.push(resp.snapshot.expect("executions carry a snapshot"));
    }
    let root = service.metrics();
    assert_root_is_session_sum(root, &snapshots, &CHAOS_COUNTERS, "service sessions");
    assert!(
        root.get("net.chaos.duplicated") > 0 && root.get("net.chaos.reordered") > 0,
        "the 50% mix must actually inject faults"
    );
    // A duplicate is deduped only if its receiver reads past it; dups that
    // land after a stream was fully taken are simply purged with the
    // session, so dedups can trail the injected count — never exceed it.
    assert!(
        root.get("net.chaos.deduped") > 0,
        "receivers must observe and dedup retransmissions"
    );
    assert!(
        root.get("net.chaos.deduped") <= root.get("net.chaos.duplicated"),
        "more dedups than injected duplicates"
    );
}

/// The mis-estimable workload for the replan chaos cells: join-key
/// selectivity 0.1 makes a Bloom-consuming restart decisively cheaper,
/// so corrupted estimates (`SL' = ST' = 1`) reliably trigger a replan at
/// the observation point. The cost model restarts it as
/// repartition(BF), a JEN-side hash join that can spill: with fewer `L`
/// rows, or fewer joining ones, it restarts as db(BF), which builds
/// nothing on JEN.
fn replan_workload() -> Workload {
    let mut spec = WorkloadSpec::tiny();
    spec.t_rows = 400;
    spec.l_rows = 8000;
    spec.sl = 0.1;
    spec.generate().unwrap()
}

/// Honest sampled estimates with the join-key selectivities corrupted to
/// 1.0 — the same deliberate mis-estimate the adaptive differential suite
/// and `bench_baseline` pin, guaranteeing the observation point fires.
fn corrupted_estimates(sys: &HybridSystem, query: &HybridQuery) -> QueryEstimates {
    let mut est = sample_stats(sys, query, 8).unwrap().to_estimates(
        query,
        sys.config.jen_workers,
        sys.mem_budget_per_worker(),
    );
    est.st = 1.0;
    est.sl = 1.0;
    est
}

/// Kills landing exactly on the replan machinery's seams: at the
/// observation point's input steps (prescan scan on either cluster) and
/// inside the restarted plan after the replan decision. Every cell must
/// surface the typed kill or the bit-identical answer — and either way
/// leave no orphaned spill files and no leaked memory grant.
#[test]
fn kill_at_observation_point_and_mid_replan_restart_is_leak_free() {
    let workload = replan_workload();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
    let alg = JoinAlgorithm::Repartition { bloom: false };

    // Step ordinals count per task-set *per run_pair*: the prescan is one
    // pair (jen ordinal 0 = the observed scan), the restarted plan is a
    // second pair whose ordinals restart at 0 — so ordinal 0 kills land in
    // the prescan and ordinals ≥ 1 can only fire mid-restart. The restart
    // is repartition(BF): db ordinals 0 = BF_DB multicast, 1 = T' route;
    // jen ordinals 0 = filter + shuffle, 1 = receive/build, 2 = probe,
    // 3 = final aggregation.
    let cells: [(&str, FaultTarget, usize, usize); 6] = [
        ("jen killed at the observation scan", FaultTarget::Jen, 0, 0),
        ("db killed at the prescan scan", FaultTarget::Db, 0, 0),
        (
            "jen killed mid-restart (final aggregation)",
            FaultTarget::Jen,
            1,
            3,
        ),
        (
            "jen killed mid-restart (recv/build)",
            FaultTarget::Jen,
            0,
            1,
        ),
        ("db killed mid-restart (T' route)", FaultTarget::Db, 1, 1),
        // Ordinal 2 is the restarted plan's probe: every worker has
        // already built (and under the tiny budget, spilled) — the kill
        // unwinds workers still holding spill runs on disk.
        (
            "jen killed at the spill-probe boundary",
            FaultTarget::Jen,
            2,
            2,
        ),
    ];
    let mut spilled_any = false;
    for (label, target, worker, step) in cells {
        let faults = FaultSpec::quiet(3).with_kill(target, worker, step);
        let mut cfg = chaos_config(1, faults);
        cfg.replan_threshold = Some(1.5);
        // A tiny build budget makes the restarted plan spill, so the
        // no-orphans invariant is exercised on the abandoned-and-restarted
        // path, not vacuously true.
        cfg.jen_memory_limit_rows = Some(8);
        let mut sys = HybridSystem::new(cfg).unwrap();
        workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
        let est = corrupted_estimates(&sys, &query);

        match run_adaptive(&mut sys, &query, alg, &est) {
            Ok(out) => assert_eq!(out.result, expected, "{label}: survived run diverged"),
            Err(e) => {
                let endpoint = format!("{}-worker-{worker}", target.label());
                assert_eq!(
                    e,
                    HybridError::Disconnected {
                        endpoint,
                        stream: None,
                    },
                    "{label}: kill surfaced untyped"
                );
            }
        }
        if step == 0 {
            assert_eq!(
                sys.metrics.get("advisor.replans"),
                0,
                "{label}: a kill before the observation point cannot have replanned"
            );
        } else {
            assert_eq!(
                sys.metrics.get("advisor.replans"),
                1,
                "{label}: the kill must land after the replan decision"
            );
        }
        spilled_any |= assert_spill_balanced(&sys.metrics.snapshot(), label) > 0;
        assert_eq!(
            sys.mem_pool.used(),
            0,
            "{label}: abandoned plan leaked a memory grant"
        );
    }
    assert!(
        spilled_any,
        "at least one cell must exercise real spill activity"
    );
}

/// Message drops landing on the observation point's own traffic: a
/// Bloom-using plan's prescan multicasts `BF_DB` across the fabric, so a
/// drop plan stresses exactly the streams the controller's observation
/// depends on. Typed-or-bit-match, and the replan counters must stay
/// coherent (a drop can never fake a replan).
#[test]
fn dropped_observation_traffic_is_typed_or_recovered() {
    let workload = replan_workload();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();

    for seed in [5u64, 23, 71] {
        let faults = FaultSpec::quiet(seed).with_drops(0.3);
        let mut cfg = chaos_config(1, faults);
        cfg.replan_threshold = Some(1.5);
        let mut sys = HybridSystem::new(cfg).unwrap();
        workload.load_into(&mut sys, FileFormat::Columnar).unwrap();
        let est = corrupted_estimates(&sys, &query);

        match run_adaptive(
            &mut sys,
            &query,
            JoinAlgorithm::Repartition { bloom: true },
            &est,
        ) {
            Ok(out) => assert_eq!(out.result, expected, "seed {seed}: recovered run diverged"),
            Err(e) => assert_typed(&e, seed, JoinAlgorithm::Repartition { bloom: true }, 1),
        }
        assert!(
            sys.metrics.get("advisor.replans") <= 1,
            "seed {seed}: replans must stay structurally ≤ 1"
        );
        assert_spill_balanced(
            &sys.metrics.snapshot(),
            &format!("seed {seed}: dropped-traffic run"),
        );
    }
}

/// The fabric conservation law survives mid-query replans: a restarted
/// plan runs in a *sub*-namespace of its session, and every byte/message
/// it moves must still be double-entered into both the session snapshot
/// and the root totals — root = Σ sessions, replans included. Each
/// session here provably replans (corrupted estimates) under a 50%
/// duplication + reordering mix.
#[test]
fn conservation_law_survives_mid_query_replans() {
    let workload = replan_workload();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();

    let faults = FaultSpec::quiet(17).with_dups(0.5).with_reorders(0.5);
    let mut cfg = chaos_config(1, faults);
    cfg.replan_threshold = Some(1.5);
    let mut root = HybridSystem::new(cfg).unwrap();
    workload.load_into(&mut root, FileFormat::Columnar).unwrap();
    let est = corrupted_estimates(&root, &query);

    let mut snapshots = Vec::new();
    for i in 0..4u64 {
        let mut session = root.session(i + 1).unwrap();
        let out = run_adaptive(
            &mut session,
            &query,
            JoinAlgorithm::Repartition { bloom: false },
            &est,
        )
        .unwrap();
        assert_eq!(out.result, expected, "session {i}: replanned run diverged");
        assert_eq!(
            session.metrics.get("advisor.replans"),
            1,
            "session {i}: the mis-estimate must force a replan"
        );
        session.close_session();
        snapshots.push(out.snapshot);
    }

    let root_metrics = &root.metrics;
    assert_root_is_session_sum(
        root_metrics,
        &snapshots,
        &CHAOS_COUNTERS,
        "replanned sessions",
    );
    assert!(
        root_metrics.get("net.chaos.duplicated") > 0,
        "the 50% mix must actually inject faults into the replanned runs"
    );
}

// ---------------------------------------------------------------------------
// multiway chaos: kills and conservation across the star-join planners
// ---------------------------------------------------------------------------

/// A small 3-dimension star for the multiway chaos cells.
fn star_chaos_workload() -> Workload {
    let mut spec = WorkloadSpec::tiny_star(3);
    spec.l_rows = 1600;
    spec.generate().unwrap()
}

/// Kills landing on the multiway executors' seams. Per-set step ordinals
/// (the driver fires a kill *before* the victim's k-th step):
///
/// * cascade JEN: 0 = fact scan, then per join step `i` the pair
///   `1+2i` = `cur` re-shuffle (a no-op slot on broadcast steps — ordinals
///   are mode-independent by construction) and `2+2i` = recv/build/probe,
///   then finalize and the aggregation epilogue;
/// * cascade DB: ordinal `i` = dimension `i`'s send;
/// * hypercube JEN: 0 = scan + grid routing, 1 = recv/build/probe/finalize;
/// * hypercube DB: 0 = all axis replication sends.
///
/// Every cell must surface the typed kill — on the first run AND on a
/// retry of the same query on the same system — and leave no orphaned
/// spill file and no resident pool bytes behind.
#[test]
fn multiway_kills_are_typed_and_leak_free() {
    let workload = star_chaos_workload();
    let star = workload.star_query();

    let cells: [(&str, MultiwayPlanner, FaultTarget, usize, usize); 5] = [
        (
            "jen killed at the mid-cascade step boundary",
            MultiwayPlanner::Cascade,
            FaultTarget::Jen,
            0,
            3,
        ),
        (
            "db killed between cascade dimension sends",
            MultiwayPlanner::Cascade,
            FaultTarget::Db,
            1,
            1,
        ),
        (
            "jen killed at the hypercube routing boundary",
            MultiwayPlanner::Hypercube,
            FaultTarget::Jen,
            2,
            1,
        ),
        (
            "db killed at hypercube axis replication",
            MultiwayPlanner::Hypercube,
            FaultTarget::Db,
            0,
            0,
        ),
        (
            "jen killed after the hypercube probe",
            MultiwayPlanner::Hypercube,
            FaultTarget::Jen,
            1,
            2,
        ),
    ];
    let mut spilled_any = false;
    for (label, planner, target, worker, step) in cells {
        let faults = FaultSpec::quiet(5).with_kill(target, worker, step);
        let mut cfg = chaos_config(1, faults);
        // a row limit forces the star builds through the spilling grace
        // path and a small pool puts real bytes in the residency ledger,
        // so the no-orphans and no-leak checks are non-vacuous
        cfg.jen_memory_limit_rows = Some(64);
        cfg.mem_budget_bytes = Some(8 << 10);
        let mut sys = HybridSystem::new(cfg).unwrap();
        workload.load_into(&mut sys, FileFormat::Columnar).unwrap();

        // the retry round reruns the killed query on the same system: it
        // must fail typed again from a cleanly unwound first attempt
        for round in 0..2 {
            let err = run_star(&mut sys, &star, planner).unwrap_err();
            assert_eq!(
                err,
                HybridError::Disconnected {
                    endpoint: format!("{}-worker-{worker}", target.label()),
                    stream: None,
                },
                "{label}: round {round} kill surfaced untyped"
            );
        }
        spilled_any |= assert_spill_balanced(&sys.metrics.snapshot(), label) > 0;
        assert_eq!(
            sys.mem_pool.used(),
            0,
            "{label}: killed run left resident bytes in the pool ledger"
        );
    }
    assert!(
        spilled_any,
        "at least one multiway kill cell must land after real spill activity"
    );
}

/// The fabric conservation law covers multiway sessions: under a 50%
/// duplication + reordering mix, both planner families must return the
/// bit-identical n-way reference answer, and for every fabric-carried
/// counter the root registry must equal the exact sum over the per-session
/// snapshots — root = Σ sessions, star joins included.
#[test]
fn conservation_law_holds_across_multiway_sessions() {
    let workload = star_chaos_workload();
    let star = workload.star_query();
    let expected = run_star_reference(&workload.l, &workload.dims, &star).unwrap();
    assert!(expected.num_rows() > 0);

    let faults = FaultSpec::quiet(23).with_dups(0.5).with_reorders(0.5);
    let mut root = HybridSystem::new(chaos_config(1, faults)).unwrap();
    workload.load_into(&mut root, FileFormat::Columnar).unwrap();
    let mut snapshots = Vec::new();
    for (i, planner) in [
        MultiwayPlanner::Cascade,
        MultiwayPlanner::Hypercube,
        MultiwayPlanner::Cascade,
        MultiwayPlanner::Hypercube,
    ]
    .into_iter()
    .enumerate()
    {
        let mut session = root.session(i as u64 + 1).unwrap();
        let out = run_star(&mut session, &star, planner).unwrap();
        assert_eq!(out.result, expected, "session {i} ({planner}) diverged");
        session.close_session();
        snapshots.push(out.snapshot);
    }

    assert_root_is_session_sum(
        &root.metrics,
        &snapshots,
        &CHAOS_COUNTERS,
        "multiway sessions",
    );
    assert!(
        root.metrics.get("net.chaos.duplicated") > 0,
        "the 50% mix must actually inject faults into the star joins"
    );
}
