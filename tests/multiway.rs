//! Multiway star-join differential grid: every planner must be
//! **observationally identical** to the sequential n-way reference.
//!
//! [`run_star_reference`] evaluates the star query one dimension at a time
//! on a single thread with no shuffles at all — hash-joining whole tables
//! in canonical order. That is the ground truth each grid cell is measured
//! against: for {2, 3} dimensions × {cascade, hypercube, auto} × thread
//! count {1, 8} × both storage formats × salting {off, on}, the run must
//! produce the **bit-identical** result batch (which subsumes the row
//! count, the [`batch_checksum`], and any sorted sample), with spill-file
//! conservation in every cell.
//!
//! Dimension 0's foreign key is deliberately skewed (`KeySkew::SingleKey`
//! on the uncorrelated fraction) so the salted cells are non-vacuous: a
//! pinned assertion checks the hot-key detector actually fires, and
//! salting therefore really re-routes rows — which the bit-identical
//! result then proves harmless.
//!
//! The workload's tiny star is small enough that every cascade step
//! broadcasts, so the grid runs a second shape too: dimensions large
//! enough that every cascade step re-shuffles the intermediate, and
//! aggregates over every foreign key and dimension key — columns each
//! re-shuffle must keep alive after the step that consumed them.
//!
//! A separate sweep pins the determinism contract: the **full metrics
//! snapshot** — every tuple, byte, and message counter — is
//! thread-count-invariant for each planner × salt config.
//!
//! A third sweep runs the planner × thread grid under a row limit and
//! under a byte budget. There every local joiner is a spilling hybrid hash
//! join, which star plans join one dimension at a time instead of in one
//! k-way probe; that fallback must match the reference too.
//!
//! CI shards the grid via `HYBRID_THREADS` / `HYBRID_MULTIWAY_PLANNER`; a
//! plain `cargo test` runs all cells. Like the chaos soak, a failing cell
//! does not abort its sweep: the whole grid runs, the complete failing-cell
//! list is reported, and `HYBRID_CHAOS_FAIL_LOG` collects it for CI.

mod util;

use std::collections::BTreeMap;

use hybrid_common::expr::Expr;
use hybrid_common::ops::AggSpec;
use hybrid_core::{
    batch_checksum, run, run_star, run_star_reference, HybridQuery, HybridSystem, JoinAlgorithm,
    MultiwayPlanner, RunOutput, StarQuery,
};
use hybrid_datagen::{KeySkew, Workload, WorkloadSpec};
use hybrid_storage::FileFormat;
use util::{assert_spill_balanced, grid_from_env, loaded_system, test_config};

fn thread_grid() -> Vec<usize> {
    grid_from_env("HYBRID_THREADS", &[1, 8])
}

/// Planner axis, CI-shardable via `HYBRID_MULTIWAY_PLANNER`. A value that
/// parses to nothing is a CI wiring bug and must fail loudly.
fn planner_grid() -> Vec<MultiwayPlanner> {
    match std::env::var("HYBRID_MULTIWAY_PLANNER").ok().as_deref() {
        None | Some("") => vec![
            MultiwayPlanner::Cascade,
            MultiwayPlanner::Hypercube,
            MultiwayPlanner::Auto,
        ],
        Some(v) => vec![MultiwayPlanner::parse(v)
            .unwrap_or_else(|| panic!("HYBRID_MULTIWAY_PLANNER={v} is not a planner"))],
    }
}

/// The grid workload: the tiny star with a heavy-hitter foreign key on
/// dimension 0, so salted cells exercise the salt path for real.
fn star_workload(dims: usize) -> Workload {
    let mut spec = WorkloadSpec::tiny_star(dims);
    spec.dimensions[0].skew = KeySkew::SingleKey;
    spec.generate().unwrap()
}

fn system(
    workload: &Workload,
    format: FileFormat,
    threads: usize,
    salt_buckets: Option<usize>,
) -> HybridSystem {
    let mut cfg = test_config(3, 4);
    cfg.threads = threads;
    cfg.salt_buckets = salt_buckets;
    loaded_system(cfg, workload, format)
}

fn counter(snapshot: &BTreeMap<String, u64>, name: &str) -> u64 {
    snapshot.get(name).copied().unwrap_or(0)
}

/// Append failing grid cells to `HYBRID_CHAOS_FAIL_LOG` (the shared CI
/// failure artifact — appended, because suites share one file).
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

/// Run one grid cell; a panic becomes a recorded failure, so one bad cell
/// does not hide the rest of the grid.
fn run_cell(ctx: String, failures: &mut Vec<(String, String)>, cell: impl FnOnce()) {
    if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(cell)) {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        eprintln!("cell {ctx} FAILED: {msg}");
        failures.push((ctx, msg));
    }
}

/// Fail with the complete list of failing `grid` cells, after logging them.
fn report_failures(grid: &str, failures: &[(String, String)]) {
    if !failures.is_empty() {
        log_failed_cells(failures);
        let cells: Vec<&str> = failures.iter().map(|(c, _)| c.as_str()).collect();
        panic!(
            "{} {grid} cell(s) failed: {}",
            failures.len(),
            cells.join(", ")
        );
    }
}

/// One dimension count's full differential grid against the sequential
/// n-way reference.
fn assert_star_grid(dims: usize) {
    let workload = star_workload(dims);
    assert_grid(
        &format!("dims={dims}"),
        &workload,
        &workload.star_query(),
        |_, _| {},
    );
}

/// The full differential grid of `star` on `workload` against the
/// sequential n-way reference; `check` adds per-cell assertions.
fn assert_grid(
    shape: &str,
    workload: &Workload,
    star: &StarQuery,
    check: impl Fn(MultiwayPlanner, &RunOutput),
) {
    let expected = run_star_reference(&workload.l, &workload.dims, star).unwrap();
    assert!(expected.num_rows() > 0, "star query must be non-trivial");
    let expected_checksum = batch_checksum(&expected);

    let mut failures: Vec<(String, String)> = Vec::new();
    for planner in planner_grid() {
        for threads in thread_grid() {
            for format in [FileFormat::Columnar, FileFormat::Text] {
                for salt_buckets in [None, Some(4)] {
                    let ctx = format!(
                        "{shape} planner={planner} threads={threads} format={format:?} \
                         salt={salt_buckets:?}"
                    );
                    run_cell(ctx.clone(), &mut failures, || {
                        let mut sys = system(workload, format, threads, salt_buckets);
                        let out = run_star(&mut sys, star, planner).unwrap();
                        assert_eq!(
                            out.result, expected,
                            "{ctx}: result diverged from the n-way reference"
                        );
                        assert_eq!(
                            batch_checksum(&out.result),
                            expected_checksum,
                            "{ctx}: checksum diverged"
                        );
                        assert_spill_balanced(&out.snapshot, &ctx);
                        // the skewed FK axis must actually trip the
                        // detector, or the salt axis of this grid is
                        // silently testing nothing
                        if salt_buckets.is_some() {
                            assert!(
                                counter(&out.snapshot, "multiway.salt.hot_keys") >= 1,
                                "{ctx}: salted cell detected no hot keys"
                            );
                        } else {
                            assert_eq!(
                                counter(&out.snapshot, "multiway.salt.hot_keys"),
                                0,
                                "{ctx}: unsalted cell ran the detector"
                            );
                        }
                        let ran = counter(&out.snapshot, "advisor.multiway.ran_hypercube");
                        match planner {
                            MultiwayPlanner::Cascade => assert_eq!(ran, 0, "{ctx}"),
                            MultiwayPlanner::Hypercube => assert_eq!(ran, 1, "{ctx}"),
                            MultiwayPlanner::Auto => assert_eq!(
                                ran,
                                counter(&out.snapshot, "advisor.multiway.chose_hypercube"),
                                "{ctx}: auto must run what the advisor chose"
                            ),
                        }
                        check(planner, &out);
                    });
                }
            }
        }
    }
    report_failures("multiway grid", &failures);
}

#[test]
fn two_dimension_star_grid_matches_the_reference() {
    assert_star_grid(2);
}

#[test]
fn three_dimension_star_grid_matches_the_reference() {
    assert_star_grid(3);
}

/// The live-column shape: dimensions large enough that every cascade step
/// hash-routes and re-shuffles the intermediate, and aggregates that also
/// read every foreign key and every dimension key. Each re-shuffle must
/// then keep columns an earlier step consumed (and the key columns that
/// duplicate them), while it still drops dimension 1's unread attribute.
fn live_column_star() -> (Workload, StarQuery) {
    let mut spec = WorkloadSpec::tiny_star(3);
    for d in &mut spec.dimensions {
        d.rows = 5_000;
        d.fk_correlation = 0.6;
    }
    spec.dimensions[0].skew = KeySkew::SingleKey;
    let workload = spec.generate().unwrap();
    let mut star = workload.star_query();
    let mut dim_start = star.fact_proj.len();
    for (d, dq) in star.dims.iter().enumerate() {
        star.aggs.push(AggSpec::SumI64(star.fact_keys[d]));
        star.aggs.push(AggSpec::MaxI64(dim_start + dq.key));
        dim_start += dq.proj.len();
    }
    (workload, star)
}

#[test]
fn live_column_star_grid_matches_the_reference() {
    let (workload, star) = live_column_star();
    assert_grid("live-columns", &workload, &star, |planner, out| {
        if planner == MultiwayPlanner::Cascade {
            for i in 0..3 {
                let stream = format!("net.intra_hdfs.stream.cascade_shuffle_{i}.tuples");
                assert!(
                    counter(&out.snapshot, &stream) > 0,
                    "cascade step {i} must re-shuffle for this shape to test liveness"
                );
            }
        }
    });
    // the re-shuffled intermediate's volume is thread-count-invariant too
    for planner in [MultiwayPlanner::Cascade, MultiwayPlanner::Hypercube] {
        for salt_buckets in [None, Some(4)] {
            let runs: Vec<RunOutput> = [1, 8]
                .into_iter()
                .map(|threads| {
                    let mut sys = system(&workload, FileFormat::Columnar, threads, salt_buckets);
                    run_star(&mut sys, &star, planner).unwrap()
                })
                .collect();
            assert_eq!(
                runs[0].snapshot, runs[1].snapshot,
                "{planner} salt={salt_buckets:?}: snapshot varies with threads"
            );
        }
    }
}

/// The determinism contract extends to multiway: the full metrics
/// snapshot — tuples, bytes, *and* messages — must be identical at any
/// thread count for each planner × salt config.
#[test]
fn multiway_snapshots_are_thread_count_invariant() {
    let workload = star_workload(3);
    let star = workload.star_query();
    for planner in [MultiwayPlanner::Cascade, MultiwayPlanner::Hypercube] {
        for salt_buckets in [None, Some(4)] {
            let mut base_sys = system(&workload, FileFormat::Columnar, 1, salt_buckets);
            let base = run_star(&mut base_sys, &star, planner).unwrap();
            for threads in [2, 8] {
                let mut sys = system(&workload, FileFormat::Columnar, threads, salt_buckets);
                let out = run_star(&mut sys, &star, planner).unwrap();
                assert_eq!(out.result, base.result, "{planner} threads={threads}");
                assert_eq!(
                    out.snapshot, base.snapshot,
                    "{planner} salt={salt_buckets:?}: snapshot varies with threads={threads}"
                );
            }
        }
    }
}

/// The one-dimension degenerate star is exactly a binary join; both
/// planner families must still agree with the reference (the hypercube
/// collapses to a repartition over share vector `[n]`) and with the binary
/// executor running the equivalent two-table query.
#[test]
fn single_dimension_star_degenerates_cleanly() {
    let workload = star_workload(1);
    let star = workload.star_query();
    let expected = run_star_reference(&workload.l, &workload.dims, &star).unwrap();
    assert!(expected.num_rows() > 0);

    // The dimension is `T`, the fact is `L`: star column c of
    // `fact' ++ dim'` sits at binary column `to_binary(c)` of `T' ++ L'`.
    let (fact_w, dim_w) = (star.fact_proj.len(), star.dims[0].proj.len());
    let to_binary = |c: usize| if c < fact_w { c + dim_w } else { c - fact_w };
    let remap = |e: &Expr| e.remap_columns(&|c| Some(to_binary(c))).unwrap();
    let binary = HybridQuery {
        db_table: star.dims[0].table.clone(),
        hdfs_table: star.fact_table.clone(),
        db_pred: star.dims[0].pred.clone(),
        db_proj: star.dims[0].proj.clone(),
        db_key: star.dims[0].key,
        hdfs_pred: star.fact_pred.clone(),
        hdfs_proj: star.fact_proj.clone(),
        hdfs_key: star.fact_keys[0],
        post_predicate: star.post_predicate.as_ref().map(remap),
        group_expr: remap(&star.group_expr),
        aggs: star
            .aggs
            .iter()
            .map(|a| match *a {
                AggSpec::Count => AggSpec::Count,
                AggSpec::SumI64(c) => AggSpec::SumI64(to_binary(c)),
                AggSpec::MinI64(c) => AggSpec::MinI64(to_binary(c)),
                AggSpec::MaxI64(c) => AggSpec::MaxI64(to_binary(c)),
            })
            .collect(),
        ..workload.query()
    };
    for alg in [
        JoinAlgorithm::Repartition { bloom: false },
        JoinAlgorithm::Broadcast,
    ] {
        let mut sys = system(&workload, FileFormat::Columnar, 1, None);
        let out = run(&mut sys, &binary, alg).unwrap();
        assert_eq!(out.result, expected, "binary {alg}");
    }

    for planner in [MultiwayPlanner::Cascade, MultiwayPlanner::Hypercube] {
        let mut sys = system(&workload, FileFormat::Columnar, 1, None);
        let out = run_star(&mut sys, &star, planner).unwrap();
        assert_eq!(out.result, expected, "{planner}");
    }
}

/// Volume non-vacuity: a forced-hypercube run of the 3-dim star must
/// actually move data through the grid — fact routing plus dimension
/// replication — and report it on the `multiway.shuffle.*` meters the
/// bench comparisons are built on.
#[test]
fn hypercube_reports_shuffle_volume() {
    let workload = star_workload(3);
    let star = workload.star_query();
    let mut sys = system(&workload, FileFormat::Columnar, 1, None);
    let out = run_star(&mut sys, &star, MultiwayPlanner::Hypercube).unwrap();
    assert!(counter(&out.snapshot, "multiway.shuffle.tuples") > 0);
    assert!(counter(&out.snapshot, "multiway.shuffle.bytes") > 0);
}

/// Under a row limit or a byte budget every local joiner is a spilling
/// hybrid hash join, which ends each k-way run: star plans then join one
/// dimension at a time through the spill path. That fallback must stay
/// bit-identical to the reference, really spill, and leave no spill file
/// behind.
#[test]
fn spilling_star_joins_match_the_reference() {
    let mut failures: Vec<(String, String)> = Vec::new();
    let shapes = [2, 3].map(|dims| {
        let workload = star_workload(dims);
        let star = workload.star_query();
        (format!("dims={dims}"), workload, star)
    });
    let (live_workload, live_star) = live_column_star();
    let live = ("live-columns".to_string(), live_workload, live_star);
    for (shape, workload, star) in shapes.into_iter().chain([live]) {
        let expected = run_star_reference(&workload.l, &workload.dims, &star).unwrap();
        for planner in planner_grid() {
            for threads in thread_grid() {
                for (limit, budget) in [(Some(64), None), (None, Some(4 << 10))] {
                    let ctx = format!(
                        "{shape} planner={planner} threads={threads} \
                         rows={limit:?} bytes={budget:?}"
                    );
                    run_cell(ctx.clone(), &mut failures, || {
                        let mut cfg = test_config(3, 4);
                        cfg.threads = threads;
                        cfg.jen_memory_limit_rows = limit;
                        cfg.mem_budget_bytes = budget;
                        let mut sys = loaded_system(cfg, &workload, FileFormat::Columnar);
                        let out = run_star(&mut sys, &star, planner).unwrap();
                        assert_eq!(out.result, expected, "{ctx}: diverged from the reference");
                        assert!(
                            counter(&out.snapshot, "jen.spill.activations") > 0,
                            "{ctx}: no joiner spilled"
                        );
                        assert_spill_balanced(&out.snapshot, &ctx);
                    });
                }
            }
        }
    }
    report_failures("spilling star", &failures);
}
