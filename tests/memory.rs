//! Memory-governor differential suite: a byte budget may change *where*
//! the hybrid hash join keeps its build side, never *what* the query
//! answers.
//!
//! Every budgeted cell — {fits-half, tiny} × grace algorithm × batch size
//! {1, 4096} × thread count {1, 8} — is measured against the unbounded
//! batch-1 single-thread replay of the same algorithm:
//!
//! 1. the **bit-identical** result batch,
//! 2. **exactly equal row-level counters** (`.tuples`, `rows_*`, scan and
//!    bloom totals) — eviction is worker-local, so no budget may move a
//!    single row across the network,
//! 3. spill-file conservation (`files_created == files_removed`) in every
//!    cell, so no budget leaks a run file,
//! 4. unbounded runs emit **no `mem.*` counters at all** — the governor is
//!    invisible until a budget exists.
//!
//! Non-vacuity is pinned separately: a fits-half budget must actually
//! evict *and* keep at least one partition resident, and a tiny budget
//! must recurse into sub-partitions. A final scenario runs 8 concurrent
//! queries through the service under one fixed pool and asserts zero
//! over-commit from the root ledger.
//!
//! CI shards the grid via `HYBRID_MEM_BUDGET` (`unbounded` → unbounded
//! cells only; any other value, e.g. `tight` → the two budgeted tiers) and
//! `HYBRID_THREADS`; a plain `cargo test` runs everything. The budgets
//! themselves are always derived from the workload here — the env var only
//! selects cells.
//!
//! Like the chaos soak, a failing grid cell does not abort its sweep: the
//! whole grid runs, the complete failing-cell list is reported, and when
//! `HYBRID_CHAOS_FAIL_LOG` names a file the cells are appended there for
//! CI to upload as the failure artifact.

mod util;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hybrid_core::reference::run_reference;
use hybrid_core::{run, HybridSystem, JoinAlgorithm};
use hybrid_datagen::{Workload, WorkloadSpec};
use hybrid_service::{QueryRequest, QueryService, ServiceConfig};
use hybrid_storage::FileFormat;
use util::{
    assert_service_clean, assert_spill_balanced, grid_from_env, loaded_system, test_config,
};

/// The algorithms whose JEN-side hash build runs under the governor.
fn grace_algorithms() -> [JoinAlgorithm; 4] {
    [
        JoinAlgorithm::Repartition { bloom: false },
        JoinAlgorithm::Repartition { bloom: true },
        JoinAlgorithm::Zigzag,
        JoinAlgorithm::SemiJoin,
    ]
}

/// Budget tiers, sized from the workload's actual `L'` volume.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Budget {
    /// No pool at all — the pre-governor engine, byte for byte.
    Unbounded,
    /// Half of `L'`: the plain-repartition build fits partially, so the
    /// join must evict some partitions and keep others resident.
    Half,
    /// A few KB: nothing fits, and overflowing buckets must recurse.
    Tiny,
}

impl Budget {
    fn bytes(self, l_prime_bytes: u64) -> Option<u64> {
        match self {
            Budget::Unbounded => None,
            Budget::Half => Some((l_prime_bytes / 2).max(1)),
            Budget::Tiny => Some(4 << 10),
        }
    }
}

/// Grid axes, CI-shardable.
fn budget_grid() -> Vec<Budget> {
    match std::env::var("HYBRID_MEM_BUDGET").ok().as_deref() {
        None | Some("") => vec![Budget::Unbounded, Budget::Half, Budget::Tiny],
        Some("unbounded") => vec![Budget::Unbounded],
        Some(_) => vec![Budget::Half, Budget::Tiny],
    }
}

fn thread_grid() -> Vec<usize> {
    grid_from_env("HYBRID_THREADS", &[1, 8])
}

/// Serialized bytes of `L` after local predicates + projection — the total
/// volume the repartition family shuffles into its build sides.
fn l_prime_bytes(workload: &Workload) -> u64 {
    let q = workload.query();
    let mask = q.hdfs_pred.eval_predicate(&workload.l).unwrap();
    let l_prime = workload
        .l
        .filter(&mask)
        .unwrap()
        .project(&q.hdfs_proj)
        .unwrap();
    l_prime.serialized_bytes() as u64
}

fn system(
    workload: &Workload,
    threads: usize,
    batch_rows: usize,
    budget: Option<u64>,
) -> HybridSystem {
    let mut cfg = test_config(3, 4);
    cfg.threads = threads;
    cfg.batch_rows = batch_rows;
    cfg.mem_budget_bytes = budget;
    loaded_system(cfg, workload, FileFormat::Columnar)
}

/// The row-denominated slice of a snapshot: everything except message and
/// byte framing, spill volumes (written in whatever framing the build
/// received) and the governor's own `mem.*` ledger.
fn row_level(snapshot: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    snapshot
        .iter()
        .filter(|(k, _)| {
            !(k.ends_with(".msgs")
                || k.ends_with(".bytes")
                || k.contains("spill")
                || k.starts_with("mem."))
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn counter(snapshot: &BTreeMap<String, u64>, name: &str) -> u64 {
    snapshot.get(name).copied().unwrap_or(0)
}

/// Append failing grid cells to `HYBRID_CHAOS_FAIL_LOG` (the same artifact
/// CI uploads for the chaos soak — appended, because the four grid tests
/// share one file).
fn log_failed_cells(failures: &[(String, String)]) {
    use std::io::Write;
    let Ok(path) = std::env::var("HYBRID_CHAOS_FAIL_LOG") else {
        return;
    };
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            for (cell, msg) in failures {
                let _ = writeln!(f, "{cell}\t{}", msg.replace('\n', " "));
            }
            eprintln!("failing cells appended to {path}");
        }
        Err(e) => eprintln!("could not write failing-cell log {path}: {e}"),
    }
}

/// One algorithm's full budget × batch × thread grid against its
/// unbounded batch-1 sequential replay.
fn assert_budget_invisible(alg: JoinAlgorithm) {
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let query = workload.query();
    let l_bytes = l_prime_bytes(&workload);
    assert!(l_bytes > 16 << 10, "workload too small to pressure");

    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();
    let mut ref_sys = system(&workload, 1, 1, None);
    let reference = run(&mut ref_sys, &query, alg).unwrap();
    assert_eq!(reference.result, expected, "{alg} reference replay wrong");
    let ref_rows = row_level(&reference.snapshot);
    assert!(
        !reference.snapshot.keys().any(|k| k.starts_with("mem.")),
        "{alg}: unbounded reference leaked mem.* counters"
    );

    let mut failures: Vec<(String, String)> = Vec::new();
    for budget in budget_grid() {
        for batch_rows in [1usize, 4096] {
            for threads in thread_grid() {
                let ctx = format!("{alg} {budget:?} batch_rows={batch_rows} threads={threads}");
                // one bad cell must not hide the rest of the grid
                let cell = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut sys = system(&workload, threads, batch_rows, budget.bytes(l_bytes));
                    let out = run(&mut sys, &query, alg).unwrap();
                    assert_eq!(
                        out.result, reference.result,
                        "{ctx}: result diverged from unbounded batch-1 replay"
                    );
                    assert_eq!(
                        row_level(&out.snapshot),
                        ref_rows,
                        "{ctx}: row-level counters diverged"
                    );
                    assert_spill_balanced(&out.snapshot, &ctx);
                    if budget == Budget::Unbounded {
                        assert!(
                            !out.snapshot.keys().any(|k| k.starts_with("mem.")),
                            "{ctx}: governor must be invisible without a budget"
                        );
                    } else {
                        // the run held a reservation and reported residency
                        assert!(
                            counter(&out.snapshot, "mem.high_water") > 0
                                || counter(&out.snapshot, "mem.evictions") > 0,
                            "{ctx}: budgeted run left no governor trace"
                        );
                    }
                }));
                if let Err(panic) = cell {
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "non-string panic payload".into());
                    eprintln!("cell {ctx} FAILED: {msg}");
                    failures.push((ctx, msg));
                }
            }
        }
    }
    if !failures.is_empty() {
        log_failed_cells(&failures);
        let cells: Vec<&str> = failures.iter().map(|(c, _)| c.as_str()).collect();
        panic!(
            "{} {alg} grid cell(s) failed: {}",
            failures.len(),
            cells.join("; ")
        );
    }
}

#[test]
fn repartition_budget_grid() {
    assert_budget_invisible(JoinAlgorithm::Repartition { bloom: false });
}

#[test]
fn repartition_bloom_budget_grid() {
    assert_budget_invisible(JoinAlgorithm::Repartition { bloom: true });
}

#[test]
fn zigzag_budget_grid() {
    assert_budget_invisible(JoinAlgorithm::Zigzag);
}

#[test]
fn semijoin_budget_grid() {
    assert_budget_invisible(JoinAlgorithm::SemiJoin);
}

/// Non-vacuity of the Half tier: plain repartition's build is all of
/// `L'`, so half of it cannot stay resident — some partitions must be
/// evicted, at least one must survive, and no worker may exceed its cap.
#[test]
fn fits_half_budget_evicts_partially() {
    if budget_grid().iter().all(|b| *b == Budget::Unbounded) {
        return; // sharded out by HYBRID_MEM_BUDGET=unbounded
    }
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let query = workload.query();
    let l_bytes = l_prime_bytes(&workload);
    let total = Budget::Half.bytes(l_bytes).unwrap();

    let mut sys = system(&workload, 1, 4096, Some(total));
    let jen_workers = sys.config.jen_workers as u64;
    let out = run(
        &mut sys,
        &query,
        JoinAlgorithm::Repartition { bloom: false },
    )
    .unwrap();

    let evictions = counter(&out.snapshot, "mem.evictions");
    let resident = counter(&out.snapshot, "mem.partitions_resident");
    let high_water = counter(&out.snapshot, "mem.high_water");
    assert!(evictions > 0, "half of L' cannot hold the whole build");
    assert!(
        resident > 0,
        "half of L' must keep some partitions resident"
    );
    assert!(high_water > 0, "resident partitions must be ledgered");
    assert!(
        high_water <= total / jen_workers,
        "worker high-water {high_water} exceeds its {} cap",
        total / jen_workers
    );
    assert!(
        out.summary.spill_bytes_written > 0 && out.summary.spill_bytes_read > 0,
        "evicted partitions must round-trip through spill runs"
    );
    assert_eq!(out.summary.mem_high_water, high_water);
}

/// Non-vacuity of the Tiny tier: a spilled partition that still exceeds
/// its share must be recursively repartitioned, and the depth-salted
/// sub-partitioning must still converge to the exact result.
#[test]
fn tiny_budget_recursively_repartitions() {
    if budget_grid().iter().all(|b| *b == Budget::Unbounded) {
        return; // sharded out by HYBRID_MEM_BUDGET=unbounded
    }
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let query = workload.query();
    let expected = run_reference(&workload.t, &workload.l, &query).unwrap();

    let mut sys = system(&workload, 1, 4096, Budget::Tiny.bytes(0));
    let out = run(
        &mut sys,
        &query,
        JoinAlgorithm::Repartition { bloom: false },
    )
    .unwrap();
    assert_eq!(out.result, expected, "recursive repartitioning diverged");
    assert!(
        counter(&out.snapshot, "mem.recursive_repartitions") > 0,
        "a few-KB budget must force recursion, or the tier tests nothing"
    );
    assert_spill_balanced(&out.snapshot, "tiny budget");
}

/// Service-level scenario: 8 concurrent queries draw from one fixed pool.
/// All must complete with exact results, the root ledger must show zero
/// over-commit (reservations and live usage both bounded by the pool), and
/// the pressure must be real — the runs spill.
#[test]
fn eight_queries_share_one_pool_without_overcommit() {
    if budget_grid().iter().all(|b| *b == Budget::Unbounded) {
        return; // sharded out by HYBRID_MEM_BUDGET=unbounded
    }
    const CLIENTS: usize = 8;
    let workload = WorkloadSpec::tiny().generate().unwrap();
    let query = workload.query();
    let l_bytes = l_prime_bytes(&workload);
    let total = l_bytes / 2;

    // ground truth per algorithm on fresh unbounded systems
    let algorithms = grace_algorithms();
    let mut reference = Vec::new();
    for &alg in &algorithms {
        let mut sys = system(&workload, 1, 4096, None);
        reference.push(run(&mut sys, &query, alg).unwrap().result);
    }

    let mut cfg = test_config(3, 4);
    cfg.batch_rows = 4096;
    cfg.mem_budget_bytes = Some(total);
    let root = loaded_system(cfg, &workload, FileFormat::Columnar);
    let svc_cfg = ServiceConfig {
        max_in_flight: 4,
        max_queued: 64,
        queue_timeout: Duration::from_secs(120),
        result_cache_capacity: 0, // every submission must execute
        bloom_cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let svc = Arc::new(QueryService::new(root, svc_cfg));
    let reference = Arc::new(reference);

    let mut spilled_total = 0u64;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let svc = Arc::clone(&svc);
            let reference = Arc::clone(&reference);
            let query = query.clone();
            thread::spawn(move || {
                let alg = grace_algorithms()[client % 4];
                let req = QueryRequest::with_algorithm(query, alg);
                let resp = svc
                    .submit(&req)
                    .unwrap_or_else(|e| panic!("client {client} ({alg}): {e}"));
                assert_eq!(
                    *resp.result,
                    reference[client % 4],
                    "client {client}: {alg} diverged under the shared pool"
                );
                resp.summary.expect("executed query has a summary")
            })
        })
        .collect();
    for h in handles {
        spilled_total += h.join().unwrap().spill_bytes_written;
    }

    let root_snapshot = svc.metrics().snapshot();
    let reservations = counter(&root_snapshot, "mem.reservations");
    let reserved_hw = counter(&root_snapshot, "mem.reserved_high_water");
    let pool_hw = counter(&root_snapshot, "mem.pool_high_water");
    assert_eq!(reservations, CLIENTS as u64, "one grant per query");
    assert_eq!(counter(&root_snapshot, "mem.reservation_denied"), 0);
    assert!(
        reserved_hw > 0 && reserved_hw <= total,
        "reserved high-water {reserved_hw} over-commits the {total}-byte pool"
    );
    assert!(
        pool_hw > 0 && pool_hw <= total,
        "live usage high-water {pool_hw} over-commits the {total}-byte pool"
    );
    assert!(
        spilled_total > 0,
        "an L'/2 pool split 4 ways must make someone spill"
    );
    // every reservation and every resident byte was handed back
    assert_service_clean(&svc);
}
