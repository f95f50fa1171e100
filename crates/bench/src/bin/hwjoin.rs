//! `hwjoin` — run one hybrid-warehouse join from the command line.
//!
//! ```text
//! hwjoin [--alg zigzag|db|db-bf|broadcast|repartition|repartition-bf|semijoin|perf|auto|all]
//!        [--sigma-t F] [--sigma-l F] [--st F] [--sl F]
//!        [--zipf S | --single-key] [--salt-buckets F]
//!        [--format columnar|text] [--scale tiny|small|default]
//!        [--spill-limit ROWS] [--mem-budget BYTES] [--timeline PATH]
//!        [--replan-threshold F|off] [--threads N] [--batch-rows N]
//!        [--dims N] [--planner cascade|hypercube|auto]
//!        [--chaos-seed N] [--fault-rate R]
//!        [--listen ADDR [--policy fifo|sjf] | --connect ADDR]
//! ```
//!
//! Generates the paper's workload at the requested selectivities, executes
//! the chosen strategy (or lets the sampling advisor pick with `auto`, or
//! runs them `all`), and prints the result size, data-movement summary,
//! and the cost model's paper-scale estimate — both the assumed-overlap
//! and the measured-overlap variant (see `timeline_report` for the span
//! view). `--timeline PATH` writes each run's phase Timeline as JSON
//! (`PATH` gets an `.<alg>.json` suffix when several algorithms run).
//! `--threads N` runs every worker on its own OS thread (N > 1) via the
//! parallel driver; the default comes from `HYBRID_THREADS` (or 1,
//! sequential).
//!
//! `--zipf S` draws join keys from a Zipf(S) distribution and
//! `--single-key` collapses them to one pathological hot key;
//! `--salt-buckets F` turns on skew-aware salting: detected hot keys are
//! split across up to `F` JEN workers on the build side with the matching
//! probe tuples replicated to the same workers. Results are bit-identical
//! to the unsalted run; compare `net.shuffle.max_over_mean_x1000` in a
//! `--timeline` dump to watch the straggler disappear.
//!
//! `--batch-rows N` sets the columnar batch size the engine frames data
//! into on the fabric (default 4096; the `HYBRID_BATCH_ROWS` env is the
//! fallback). `--batch-rows 1` replays the engine one tuple at a time —
//! the differential-testing reference — with bit-identical results and
//! row volumes at any size; compare wall times to watch the per-message
//! overhead appear.
//!
//! `--mem-budget BYTES` (an integer with an optional `k`/`m`/`g` suffix,
//! or `unbounded`) caps the engine's buffer pool: every JEN worker gets an
//! even share for its build side and the hybrid hash join evicts
//! partitions to disk past that share. The results stay bit-identical;
//! the `memory` column reports the per-worker high-water mark and the
//! spilled volume (`-` when the run never touched the pool or the disk).
//! `HYBRID_MEM_BUDGET` is the env fallback.
//!
//! `--replan-threshold F` arms mid-query adaptive re-optimization: a
//! sampling pass derives estimates, the run pauses at its phase boundary
//! to compare them against observed actuals, and when an estimate is off
//! by more than `F`× *and* a cheaper strategy exists for the remaining
//! work, the join restarts under the better plan (reusing the scanned
//! blocks and any built Bloom filter). Results stay bit-identical; the
//! `replans` column counts the switches. `off` (the default, also via
//! `HYBRID_REPLAN_THRESHOLD`) leaves every run byte-for-byte untouched.
//!
//! `--dims N` attaches `N` (1–3) dimension tables and runs the star
//! query `L' ⋈ D0 ⋈ … ⋈ D(N-1)` through the multiway engine instead of a
//! binary join; dimension cardinalities scale with `--scale` (each is
//! `l_rows/40 + 100·i` rows at σ = 0.5, FK correlation 0.6 — the shape of
//! `WorkloadSpec::tiny_star`). `--planner cascade|hypercube|auto` forces
//! the plan family or lets the advisor price every left-deep cascade
//! against the best full-grid hypercube (default: `auto`). The report
//! prints measured shuffle volume next to the cost model's analytic
//! prediction so drift between the two is visible at a glance.
//!
//! `--listen ADDR` starts the framed-TCP front door on `ADDR` instead of
//! running a join: the workload is generated and loaded, a single `cli`
//! tenant (token `cli`) is registered, and the server accepts streaming
//! query connections until Ctrl-C; `--policy fifo|sjf` picks the
//! scheduler's within-tenant order. `--connect ADDR` is the matching
//! client mode: it dials a running front door, authenticates as `cli`,
//! sends this invocation's query (binary, or star with `--dims`), and
//! prints the streamed result summary — the two ends of the wire from one
//! binary.
//!
//! `--chaos-seed N` (with optional `--fault-rate R`, default 0.05)
//! installs the seeded fault plan from the chaos harness: deliveries are
//! dropped/duplicated/delayed/reordered per the seed, sends retry with
//! backoff, and a run that exhausts recovery reports its typed fault in
//! the results table instead of aborting the sweep. Same seed, same
//! faults — `hwjoin --alg all --chaos-seed 7` replays bit-identically.
//!
//! Service throughput and latency are measured by the `benchmark` crate's
//! `svc_tcp_*` workloads and the multi-tenant `svc_soak` binary, not here
//! (see `benchmark/README.md`).

use hybrid_bench::report::{print_table, secs};
use hybrid_bench::{default_system_config, ExpSystem};
use hybrid_core::{
    best_cascade, best_hypercube, parse_mem_budget, parse_replan_threshold, run_auto, run_star,
    JoinAlgorithm, MultiwayPlanner,
};
use hybrid_costmodel::{cascade_shuffle_bytes, hypercube_shuffle_bytes};
use hybrid_datagen::{DimSpec, KeySkew, WorkloadSpec};
use hybrid_service::{SchedulePolicy, ServiceConfig};
use hybrid_storage::FileFormat;

fn parse_alg(s: &str) -> Option<JoinAlgorithm> {
    Some(match s {
        "zigzag" => JoinAlgorithm::Zigzag,
        "db" => JoinAlgorithm::DbSide { bloom: false },
        "db-bf" => JoinAlgorithm::DbSide { bloom: true },
        "broadcast" => JoinAlgorithm::Broadcast,
        "repartition" => JoinAlgorithm::Repartition { bloom: false },
        "repartition-bf" => JoinAlgorithm::Repartition { bloom: true },
        "semijoin" => JoinAlgorithm::SemiJoin,
        "perf" => JoinAlgorithm::PerfJoin,
        _ => return None,
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: hwjoin [--alg NAME|auto|all] [--sigma-t F] [--sigma-l F] \
         [--st F] [--sl F] [--zipf S | --single-key] [--salt-buckets F] \
         [--format columnar|text] [--scale tiny|small|default] \
         [--spill-limit ROWS] [--mem-budget BYTES[k|m|g]|unbounded] \
         [--replan-threshold F|off] [--timeline PATH] [--threads N] \
         [--batch-rows N] [--dims N] [--planner cascade|hypercube|auto] \
         [--chaos-seed N] [--fault-rate R] \
         [--listen ADDR [--policy fifo|sjf] | --connect ADDR]"
    );
    std::process::exit(2)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut alg_arg = "zigzag".to_string();
    let mut spec = WorkloadSpec::tiny();
    let mut format = FileFormat::Columnar;
    let mut spill_limit: Option<usize> = None;
    let mut mem_budget: Option<String> = None;
    let mut replan_threshold: Option<String> = None;
    let mut timeline_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut batch_rows: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut service = ServiceConfig::default();
    let mut chaos_seed: Option<u64> = None;
    let mut fault_rate: Option<f64> = None;
    // applied after parsing so flag order vs --scale does not matter
    let mut skew = KeySkew::Uniform;
    let mut salt_buckets: Option<usize> = None;
    let mut dims: usize = 0;
    let mut planner = MultiwayPlanner::Auto;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--alg" => alg_arg = value().to_string(),
            "--sigma-t" => spec.sigma_t = value().parse()?,
            "--sigma-l" => spec.sigma_l = value().parse()?,
            "--st" => spec.st = value().parse()?,
            "--sl" => spec.sl = value().parse()?,
            "--spill-limit" => spill_limit = Some(value().parse()?),
            "--mem-budget" => mem_budget = Some(value().to_string()),
            "--replan-threshold" => replan_threshold = Some(value().to_string()),
            "--timeline" => timeline_path = Some(value().to_string()),
            "--threads" => threads = Some(value().parse()?),
            "--batch-rows" => batch_rows = Some(value().parse()?),
            "--chaos-seed" => chaos_seed = Some(value().parse()?),
            "--fault-rate" => fault_rate = Some(value().parse()?),
            "--zipf" => {
                skew = KeySkew::Zipf {
                    s: value().parse()?,
                }
            }
            "--single-key" => skew = KeySkew::SingleKey,
            "--salt-buckets" => salt_buckets = Some(value().parse()?),
            "--dims" => dims = value().parse()?,
            "--planner" => {
                planner = match MultiwayPlanner::parse(value()) {
                    Some(p) => p,
                    None => {
                        eprintln!("unknown planner (want cascade, hypercube, or auto)");
                        usage()
                    }
                }
            }
            "--listen" => listen = Some(value().to_string()),
            "--connect" => connect = Some(value().to_string()),
            "--policy" => {
                service.policy = match SchedulePolicy::parse(value()) {
                    Some(p) => p,
                    None => usage(),
                }
            }
            "--format" => {
                format = match value() {
                    "columnar" | "parquet" => FileFormat::Columnar,
                    "text" => FileFormat::Text,
                    other => {
                        eprintln!("unknown format {other:?}");
                        usage()
                    }
                }
            }
            "--scale" => {
                spec = match value() {
                    "tiny" => WorkloadSpec {
                        sigma_t: spec.sigma_t,
                        sigma_l: spec.sigma_l,
                        st: spec.st,
                        sl: spec.sl,
                        ..WorkloadSpec::tiny()
                    },
                    "small" => WorkloadSpec {
                        t_rows: 40_000,
                        l_rows: 375_000,
                        num_keys: 400,
                        sigma_t: spec.sigma_t,
                        sigma_l: spec.sigma_l,
                        st: spec.st,
                        sl: spec.sl,
                        ..WorkloadSpec::scaled_default()
                    },
                    "default" => WorkloadSpec {
                        sigma_t: spec.sigma_t,
                        sigma_l: spec.sigma_l,
                        st: spec.st,
                        sl: spec.sl,
                        ..WorkloadSpec::scaled_default()
                    },
                    other => {
                        eprintln!("unknown scale {other:?}");
                        usage()
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }

    spec.skew = skew;
    if dims > 0 {
        // tiny_star's shape, with cardinalities that track --scale: the
        // tiny workload (l_rows = 12 000) reproduces tiny_star exactly.
        spec.dimensions = (0..dims)
            .map(|i| DimSpec {
                rows: spec.l_rows / 40 + 100 * i,
                sigma: 0.5,
                fk_correlation: 0.6,
                skew: KeySkew::Uniform,
            })
            .collect();
    }
    println!(
        "workload: T={} rows, L={} rows, sigma_T={}, sigma_L={}, ST'={}, SL'={}, {format}, keys {:?}",
        spec.t_rows, spec.l_rows, spec.sigma_t, spec.sigma_l, spec.st, spec.sl, spec.skew
    );
    for (i, d) in spec.dimensions.iter().enumerate() {
        println!(
            "  dim D{i}: {} rows, sigma={}, fk_correlation={}",
            d.rows, d.sigma, d.fk_correlation
        );
    }
    let mut cfg = default_system_config();
    cfg.salt_buckets = salt_buckets;
    if let Some(n) = threads {
        cfg.threads = n;
    }
    if let Some(limit) = spill_limit {
        cfg.jen_memory_limit_rows = Some(limit);
    }
    if let Some(arg) = &mem_budget {
        cfg.mem_budget_bytes = match parse_mem_budget(arg) {
            Some(b) => Some(b),
            None if arg.trim().eq_ignore_ascii_case("unbounded") => None,
            None => {
                eprintln!(
                    "bad --mem-budget {arg:?} (want BYTES with optional k/m/g, or unbounded)"
                );
                usage()
            }
        };
    }
    if let Some(arg) = &replan_threshold {
        cfg.replan_threshold = match parse_replan_threshold(arg) {
            Some(t) => Some(t),
            None if arg.trim().is_empty() || arg.trim().eq_ignore_ascii_case("off") => None,
            None => {
                eprintln!("bad --replan-threshold {arg:?} (want a float > 1.0, or off)");
                usage()
            }
        };
    }
    if let Some(t) = cfg.replan_threshold {
        println!("adaptive: mid-query replan armed at {t}x estimate divergence");
    }
    if let Some(b) = cfg.mem_budget_bytes {
        println!(
            "memory: {b} B buffer pool, {} B build share per JEN worker",
            b / cfg.jen_workers.max(1) as u64
        );
    }
    if let Some(n) = batch_rows {
        cfg.batch_rows = n;
    }
    println!(
        "execution: {} worker thread(s), {}-row batches",
        cfg.threads, cfg.batch_rows
    );
    if let Some(f) = salt_buckets {
        println!("salting: detected hot keys split across up to {f} JEN workers");
    }

    let chaos = chaos_seed.is_some() || fault_rate.is_some();
    if chaos {
        let seed = chaos_seed.unwrap_or(0);
        let rate = fault_rate.unwrap_or(0.05);
        if rate > 0.0 {
            cfg.fault_spec = Some(hybrid_net::FaultSpec::from_seed(seed, rate));
        }
        println!("chaos: seed {seed}, fault rate {rate}");
    }

    if let Some(addr) = listen {
        // server half: load the workload, register the single `cli`
        // tenant, and accept framed-TCP connections until interrupted
        let system = ExpSystem::build_with(spec, format, cfg)?.system;
        let svc = std::sync::Arc::new(hybrid_service::QueryService::new(system, service));
        let server = hybrid_server::JoinServer::bind(
            svc,
            addr.as_str(),
            &[hybrid_server::TenantCred::new(
                "cli",
                "cli",
                hybrid_service::TenantQuota::unlimited(),
            )],
            hybrid_server::ServerConfig::default(),
        )?;
        println!(
            "front door listening on {} — connect with: hwjoin --connect {} \
             [--dims N] (tenant `cli`, token `cli`); Ctrl-C to stop",
            server.local_addr(),
            server.local_addr()
        );
        loop {
            std::thread::park();
        }
    }

    if let Some(addr) = connect {
        // client half: dial a running front door and stream one query
        let workload = spec.generate()?;
        let mut client = hybrid_server::JoinClient::connect(&addr, "cli", "cli")?;
        let t0 = std::time::Instant::now();
        let reply = if dims > 0 {
            client.star(workload.star_query(), planner, None)?
        } else {
            let alg = parse_alg(&alg_arg); // `auto`/unknown routes via advisor
            client.query(workload.query(), alg, None)?
        };
        let wall = t0.elapsed();
        println!(
            "\n{} ran {}: {} result groups in {}ms (queue {}us, exec {}us{})",
            addr,
            reply.algorithm,
            reply.rows.num_rows(),
            wall.as_millis(),
            reply.queue_wait.as_micros(),
            reply.exec_time.as_micros(),
            if reply.from_cache { ", cached" } else { "" }
        );
        return Ok(());
    }

    let mut exp = ExpSystem::build_with(spec, format, cfg)?;

    if dims > 0 {
        let star = exp.workload.star_query();
        let t0 = std::time::Instant::now();
        let out = run_star(&mut exp.system, &star, planner)?;
        let wall = t0.elapsed();
        let s = |name: &str| out.snapshot.get(name).copied().unwrap_or(0);
        let ran = if s("advisor.multiway.ran_hypercube") == 1 {
            "hypercube"
        } else {
            "cascade"
        };
        println!(
            "\nplanner {planner} ran {ran}: {} result groups in {}ms",
            out.result.num_rows(),
            wall.as_millis()
        );
        println!(
            "measured shuffle: {} tuples, {} bytes",
            s("multiway.shuffle.tuples"),
            s("multiway.shuffle.bytes")
        );
        println!(
            "advisor priced cascade {} vs hypercube {} and chose {}",
            s("advisor.multiway.cost.cascade"),
            s("advisor.multiway.cost.hypercube"),
            if s("advisor.multiway.chose_hypercube") == 1 {
                "hypercube"
            } else {
                "cascade"
            }
        );
        // Analytic prediction from the workload spec (not the sampled
        // estimates the advisor used), so spec-vs-measured drift shows.
        let est = exp.workload.star_estimates(exp.system.config.jen_workers);
        let (steps, _) = best_cascade(&est);
        let (shares, _) = best_hypercube(&est);
        let pc = cascade_shuffle_bytes(&est, &steps);
        let ph = hypercube_shuffle_bytes(&est, &shares);
        println!(
            "predicted shuffle bytes: cascade {} (fact {} + dim {}), \
             hypercube {} over shares {shares:?} (fact {} + dim {})",
            pc.total_bytes(),
            pc.fact_bytes,
            pc.dim_bytes,
            ph.total_bytes(),
            ph.fact_bytes,
            ph.dim_bytes
        );
        return Ok(());
    }

    let algorithms: Vec<JoinAlgorithm> = match alg_arg.as_str() {
        "all" => JoinAlgorithm::paper_variants()
            .into_iter()
            .chain([JoinAlgorithm::SemiJoin, JoinAlgorithm::PerfJoin])
            .collect(),
        "auto" => {
            let query = exp.workload.query();
            let (choice, out, stats) = run_auto(&mut exp.system, &query)?;
            println!(
                "\nadvisor chose {choice}: {} result groups, {} HDFS tuples shuffled, {} DB tuples sent",
                out.result.num_rows(),
                out.summary.hdfs_tuples_shuffled,
                out.summary.db_tuples_sent
            );
            println!(
                "sampled estimates: sigma_T={:.3} sigma_L={:.3} ST'={:.3} SL'={:.3} skew={:.2}",
                stats.sigma_t, stats.sigma_l, stats.st, stats.sl, stats.shuffle_skew
            );
            let replans = exp.system.metrics.get("advisor.replans");
            if exp.system.config.replan_threshold.is_some() {
                println!(
                    "adaptive: {replans} replan(s), {} observation(s) crossed the threshold",
                    exp.system.metrics.get("advisor.replan_considered")
                );
            }
            return Ok(());
        }
        name => vec![parse_alg(name).unwrap_or_else(|| usage())],
    };

    let several = algorithms.len() > 1;
    let mut rows = Vec::new();
    for alg in algorithms {
        let m = match exp.run(alg) {
            Ok(m) => m,
            // Under injected faults an exhausted run is a data point, not
            // an abort: report the typed fault and keep sweeping.
            Err(e) if chaos => {
                let mut row = vec![alg.name().to_string(), format!("fault: {e}")];
                row.resize(10, "-".to_string());
                rows.push(row);
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        if let Some(base) = &timeline_path {
            let path = if several {
                format!("{base}.{}.json", alg.name())
            } else {
                base.clone()
            };
            std::fs::write(&path, m.timeline.to_json())?;
            eprintln!(
                "timeline written to {path} ({} spans)",
                m.timeline.spans.len()
            );
        }
        // per-worker build high-water / bytes evicted to spill runs —
        // "-" when the run never ran under a byte budget or never spilled
        let memory = if m.summary.mem_high_water > 0 || m.summary.spill_bytes_written > 0 {
            format!(
                "hw {} B / {} B spilled",
                m.summary.mem_high_water, m.summary.spill_bytes_written
            )
        } else {
            "-".to_string()
        };
        rows.push(vec![
            alg.name().to_string(),
            m.result_rows.to_string(),
            m.summary.hdfs_tuples_shuffled.to_string(),
            m.summary.db_tuples_sent.to_string(),
            m.summary.cross_bytes.to_string(),
            format!("{}ms", m.elapsed.as_millis()),
            secs(m.cost.total_s),
            secs(m.cost_measured.total_s),
            memory,
            if m.replans > 0 {
                m.replans.to_string()
            } else {
                "-".to_string()
            },
        ]);
    }
    print_table(
        "hwjoin results",
        &[
            "algorithm",
            "result groups",
            "tuples shuffled",
            "DB tuples sent",
            "cross bytes",
            "wall time",
            "est. (assumed overlap)",
            "est. (measured overlap)",
            "memory",
            "replans",
        ],
        &rows,
    );
    Ok(())
}
