//! One workload, one process: the untraced run that produces the
//! end-to-end metrics, and the separate traced run that produces the
//! per-layer ones. End-to-end numbers never come from a traced run.

use crate::adapter::{self, HybridSystem, OpStats, Result};
use crate::calib::{self, MemWalk};
use crate::json::Json;
use crate::measure::Measurements;
use crate::spec::END_TO_END;
use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::Recorder;
use crate::workloads::{self, Plan, Size, WorkloadDef};
use crate::{engine, kernels, probes, svc, sys};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub def: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where a traced run writes its span file.
    pub results_dir: PathBuf,
}

/// Set-ups one untraced run makes; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of `--seconds` a traced run gives to each half (untraced, traced)
/// of the workload's own operations; the rest goes to kernels and probes.
const TRACED_SHARE: f64 = 0.3;
/// Share of `--seconds` each front-door probe (uncached, cached) gets.
const PROBE_SHARE: f64 = 0.1;

pub struct Report {
    pub args: RunArgs,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Measurements,
    /// Non-vacuity guards that fired; any makes the run incorrect.
    pub guards: Vec<String>,
    /// Reasons the numbers should not be trusted (the machine, not the code).
    pub noisy: Vec<String>,
    pub errors: Vec<String>,
    pub info: Vec<(&'static str, Json)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.guards.is_empty()
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let unit = crate::spec::unit_of(name).expect("only named metrics are measured");
                (
                    name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Everything beside the metrics: sample counts and quartiles of every
    /// timing, the labels, and what the run was.
    pub fn detail(&self) -> Json {
        let strings = |v: &[String]| Json::Arr(v.iter().take(8).map(Json::str).collect());
        let mut fields = vec![
            ("workload", Json::str(self.args.def.name)),
            ("seed", Json::Num(self.args.seed as f64)),
            ("seconds", Json::Num(self.args.seconds)),
            ("traced", Json::Bool(self.args.trace)),
            ("smoke", Json::Bool(self.args.size == Size::Smoke)),
            ("nproc", Json::Num(sys::nproc() as f64)),
            ("engine_threads", Json::Num(self.args.def.threads() as f64)),
            ("noisy", strings(&self.noisy)),
            ("guards", strings(&self.guards)),
            ("errors", strings(&self.errors)),
        ];
        fields.extend(self.info.iter().cloned());
        fields.push(("samples", self.metrics.summaries_json()));
        Json::obj(fields)
    }
}

/// The workload's loaded state, whichever kind it is.
pub enum Primary {
    Engine(Box<engine::Fixture>),
    Svc(Box<svc::Fixture>),
}

/// A timed region in the terms both kinds share.
pub struct Region {
    /// Client-side wall of every completed-and-correct operation, µs.
    pub latency_us: Vec<f64>,
    /// The subset that executed a join (not served from the result cache).
    pub executed_us: Vec<f64>,
    pub engine_ops: Vec<OpStats>,
    pub svc_samples: Vec<svc::Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub reloads: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub errors: Vec<String>,
}

impl Primary {
    fn setup(def: &WorkloadDef, size: Size, seed: u64, rec: &mut Recorder) -> Result<Primary> {
        Ok(if def.is_svc() {
            Primary::Svc(Box::new(svc::Fixture::setup(def, size, seed, rec)?))
        } else {
            Primary::Engine(Box::new(engine::Fixture::setup(def, size, seed, rec)?))
        })
    }

    pub fn workload(&self) -> &adapter::Workload {
        match self {
            Primary::Engine(f) => &f.workload,
            Primary::Svc(f) => &f.workload,
        }
    }

    fn timed(&mut self, rec: &mut Recorder, budget: Duration) -> Region {
        match self {
            Primary::Engine(f) => {
                let o = f.timed_ops(rec, budget, 2);
                let latency_us: Vec<f64> = o.ops.iter().map(|op| op.wall_us).collect();
                Region {
                    executed_us: latency_us.clone(),
                    latency_us,
                    engine_ops: o.ops,
                    svc_samples: Vec::new(),
                    attempted: o.attempted,
                    failed: o.failed,
                    reloads: 0,
                    wall: o.wall,
                    cpu: o.cpu,
                    errors: o.errors,
                }
            }
            Primary::Svc(f) => svc_region(f, rec, budget),
        }
    }
}

/// Enough requests that one refill of the 48 variants (a blink of a run
/// reloads once) stays under the 1 % of misses the cached workload's guard
/// allows.
fn min_requests(cached: bool) -> u64 {
    if cached {
        12_000
    } else {
        50
    }
}

pub fn svc_region(f: &mut svc::Fixture, rec: &mut Recorder, budget: Duration) -> Region {
    let o = f.timed_requests(rec, budget, min_requests(f.cached));
    Region {
        latency_us: o.samples.iter().map(|s| f64::from(s.client_us)).collect(),
        executed_us: o
            .samples
            .iter()
            .filter(|s| !s.from_cache)
            .map(|s| f64::from(s.client_us))
            .collect(),
        engine_ops: Vec::new(),
        svc_samples: o.samples,
        attempted: o.attempted,
        failed: o.failed,
        reloads: o.reloads,
        wall: o.wall,
        cpu: o.cpu,
        errors: o.errors,
    }
}

fn guards(def: &WorkloadDef, region: &Region) -> Vec<String> {
    match def.plan {
        Plan::Svc { cached } => workloads::svc_guards(
            cached,
            region.svc_samples.len(),
            region.svc_samples.iter().filter(|s| s.from_cache).count(),
        ),
        _ => workloads::engine_guards(def, &region.engine_ops),
    }
}

pub fn run(args: RunArgs) -> Result<Report> {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: RunArgs) -> Result<Report> {
    let def = args.def;
    let mut rec = Recorder::new(false);
    let spin_before = calib::warm_spin_ms();

    let setups = if args.size == Size::Full { SETUPS } else { 1 };
    let mut setup_s = Vec::with_capacity(setups);
    let mut primary = None;
    for _ in 0..setups {
        drop(primary.take()); // one loaded warehouse at a time, as a user has
        let t = Instant::now();
        primary = Some(Primary::setup(def, args.size, args.seed, &mut rec)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut primary = primary.expect("at least one set-up");
    let region = primary.timed(&mut rec, Duration::from_secs_f64(args.seconds));
    // read here: what set-up and the operations needed, before the harness
    // sorts its samples
    let peak_rss_mb = sys::peak_rss_mb();
    let spin_after = calib::spin_ms();
    if region.latency_us.is_empty() || region.executed_us.is_empty() {
        return Err(format!(
            "no operation completed correctly ({} attempted): {:?}",
            region.attempted,
            region.errors.first()
        )
        .into());
    }

    let mut m = Measurements::default();
    let latency = sorted(&region.latency_us);
    let executed = Summary::of(&region.executed_us);
    let rows = adapter::loaded_rows(primary.workload()) as f64;
    m.put_median("setup_s", &setup_s, 1.0);
    m.put_with("query_ms_p50", executed.p50 / 1e3, executed.scaled(1e-3));
    let per_s = |us: f64| rows / (us / 1e6);
    let rate = Summary {
        n: executed.n,
        p25: per_s(executed.p75),
        p50: per_s(executed.p50),
        p75: per_s(executed.p25),
    };
    m.put_with("rows_per_s", rate.p50, rate);
    m.put(
        "cpu_ms_per_query",
        region.cpu.as_secs_f64() * 1e3 / region.attempted as f64,
    );
    m.put(
        "qps",
        region.latency_us.len() as f64 / region.wall.as_secs_f64(),
    );
    let all = Summary::of(&region.latency_us).scaled(1e-3);
    m.put_with("latency_ms_p50", all.p50, all);
    m.put_with(
        "latency_ms_tail",
        percentile(&latency, def.tail_pct) / 1e3,
        all,
    );
    m.put("peak_rss_mb", peak_rss_mb);

    let bound = |name: &str| {
        END_TO_END
            .iter()
            .find(|e| e.name == name)
            .expect("named")
            .bound
    };
    let mut noisy = Vec::new();
    let drift = calib::drift(spin_before, spin_after);
    if drift > calib::DRIFT_LIMIT {
        noisy.push(format!(
            "calibration loop drifted {:.0}% across the run",
            drift * 100.0
        ));
    }
    if !def.is_svc() && executed.spread() > bound("query_ms_p50") {
        noisy.push(format!(
            "query wall IQR/median {:.2} exceeds the bound {}",
            executed.spread(),
            bound("query_ms_p50")
        ));
    }
    let setup_spread = Summary::of(&setup_s).spread();
    if setup_spread > bound("setup_s") {
        noisy.push(format!(
            "set-up IQR/median {setup_spread:.2} exceeds its bound"
        ));
    }
    Ok(Report {
        guards: guards(def, &region),
        attempted: region.attempted,
        failed: region.failed,
        metrics: m,
        noisy,
        errors: region.errors,
        info: vec![
            ("input_rows", Json::Num(rows)),
            ("tail_percentile", Json::Num(def.tail_pct)),
            (
                "executed_queries",
                Json::Num(region.executed_us.len() as f64),
            ),
            ("reloads", Json::Num(region.reloads as f64)),
            (
                "calib_spin_ms",
                Json::Arr(vec![Json::Num(spin_before), Json::Num(spin_after)]),
            ),
            // in order, so that a slow phase of the machine shows as a run of
            // slow operations (the first 200; the service sends more)
            (
                "latency_ms_in_order",
                Json::Arr(
                    region
                        .latency_us
                        .iter()
                        .take(200)
                        .map(|us| Json::Num(us / 1e3))
                        .collect(),
                ),
            ),
            (
                "setup_s_each",
                Json::Arr(setup_s.iter().map(|s| Json::Num(*s)).collect()),
            ),
        ],
        args,
    })
}

fn traced(args: RunArgs) -> Result<Report> {
    let (def, size, seed) = (args.def, args.size, args.seed);
    let mut rec = Recorder::new(true);
    let mut m = Measurements::default();
    let walk = MemWalk::new();
    let (spin_before, walk_before) = (calib::warm_spin_ms(), walk.walk_ms());

    // --- set-up, once, under spans ---
    let mut primary = Primary::setup(def, size, seed, &mut rec)?;
    let setup = rec.by_name();
    for (span, metric) in [
        ("datagen.generate", "datagen.generate.s"),
        ("core.load", "core.load.s"),
        ("core.reference", "core.reference.s"),
    ] {
        m.put(metric, setup[span].total_us / 1e6);
    }

    // --- the workload's own operations: half untraced, half traced ---
    let share = Duration::from_secs_f64(args.seconds * TRACED_SHARE);
    rec.set_enabled(false);
    let plain = primary.timed(&mut rec, share);
    rec.set_enabled(true);
    let mut region = primary.timed(&mut rec, share);
    if plain.latency_us.is_empty() || region.latency_us.is_empty() {
        return Err(format!(
            "no operation completed correctly: {:?}",
            region.errors.first()
        )
        .into());
    }
    let (with, without) = (median(&region.latency_us), median(&plain.latency_us));
    m.put(
        "harness.trace_overhead.pct",
        (with - without) / without * 100.0,
    );
    let guards = guards(def, &region);
    region.attempted += plain.attempted;
    region.failed += plain.failed;
    region.errors.extend(plain.errors);

    let own_ops = region.engine_ops.clone();
    let last = probes::engine_view(&mut primary, own_ops, def, size, &mut rec, &mut m)?;

    // --- isolated kernels on the workload's own tables ---
    let kernels_open = rec.open("harness.kernels", 0);
    {
        let guard;
        let system: &HybridSystem = match &primary {
            Primary::Engine(f) => &f.system,
            Primary::Svc(f) => {
                guard = f.service.system();
                &guard
            }
        };
        kernels::engine_layers(
            &mut rec,
            primary.workload(),
            system,
            def.rows_per_block(size),
            def.mem_budget_bytes(size),
            &last.summary,
            &mut m,
        )?;
    }
    rec.close(kernels_open);

    probes::multiway_view(&mut primary, size, seed, &mut rec, &mut m)?;
    let probe_budget = Duration::from_secs_f64(args.seconds * PROBE_SHARE);
    for probe in probes::front_door_view(
        &mut primary,
        def,
        size,
        seed,
        probe_budget,
        &mut rec,
        &mut m,
    )? {
        region.attempted += probe.attempted;
        region.failed += probe.failed;
        region.errors.extend(probe.errors);
    }

    // --- calibration again, and the trace file ---
    let (spin_after, walk_after) = (calib::spin_ms(), walk.walk_ms());
    m.put_median("harness.calib.spin_ms", &[spin_before, spin_after], 1.0);
    m.put_median("harness.calib.memwalk_ms", &[walk_before, walk_after], 1.0);
    let mut noisy = Vec::new();
    for (what, drift) in [
        ("compute", calib::drift(spin_before, spin_after)),
        ("memory", calib::drift(walk_before, walk_after)),
    ] {
        if drift > calib::DRIFT_LIMIT {
            noisy.push(format!(
                "{what} calibration loop drifted {:.0}% across the run",
                drift * 100.0
            ));
        }
    }
    let trace_path = args.results_dir.join(format!("trace-{}.json", def.name));
    std::fs::write(&trace_path, rec.to_json(def.name, seed).compact())?;

    Ok(Report {
        attempted: region.attempted,
        failed: region.failed,
        metrics: m,
        guards,
        noisy,
        errors: region.errors,
        info: vec![
            ("trace_file", Json::str(trace_path.to_string_lossy())),
            (
                "own_operations_traced",
                Json::Num(region.latency_us.len() as f64),
            ),
            (
                "own_operations_untraced",
                Json::Num(plain.latency_us.len() as f64),
            ),
        ],
        args,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::check_names;

    fn smoke(def: &'static WorkloadDef, trace: bool, results_dir: &std::path::Path) -> Report {
        let report = run(RunArgs {
            def,
            seed: 5,
            seconds: 0.2,
            trace,
            size: Size::Smoke,
            results_dir: results_dir.to_path_buf(),
        })
        .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", def.name));
        check_names(&report).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", def.name));
        assert!(
            report.correct(),
            "{}: {:?} {:?}",
            def.name,
            report.guards,
            report.errors
        );
        assert!(report.attempted >= 2 && report.failed == 0);
        report
    }

    /// One test, so that the environment is pinned once and the workloads
    /// run one after the other as the benchmark runs them.
    #[test]
    fn smoke_runs_emit_exactly_the_named_metrics_and_pass_their_guards() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/test");
        sys::pin_environment(&results);
        for def in &workloads::WORKLOADS {
            let report = smoke(def, false, &results);
            let line = report.result_line();
            let keys: Vec<&str> = match &line {
                Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("result line is an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(Json::parse(&line.compact()).unwrap(), line);
        }
        // one engine and one service workload through the traced path
        for name in ["wide_repart_spill", "svc_tcp_uncached"] {
            let report = smoke(workloads::find(name).unwrap(), true, &results);
            assert!(results.join(format!("trace-{name}.json")).is_file());
            assert!(report.metrics.iter().count() == 90);
        }

        // a spill workload whose budget holds everything evicts nothing: the
        // guard must fail the run instead of letting it report a number
        static ROOMY: std::sync::OnceLock<WorkloadDef> = std::sync::OnceLock::new();
        let roomy = ROOMY.get_or_init(|| WorkloadDef {
            mem_budget: Some((1 << 40, 1 << 40)),
            ..workloads::find("wide_repart_spill").unwrap().clone()
        });
        let report = run(RunArgs {
            def: roomy,
            seed: 5,
            seconds: 0.1,
            trace: false,
            size: Size::Smoke,
            results_dir: results.clone(),
        })
        .unwrap();
        assert!(!report.correct() && report.failed == 0);
        assert!(
            report.guards[0].contains("0 evictions"),
            "{:?}",
            report.guards
        );
    }
}
