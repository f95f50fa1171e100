//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hwjoin-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! hwjoin-benchmark run    [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--out <file>]
//! hwjoin-benchmark repeat [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//! hwjoin-benchmark spec | describe
//! ```
//!
//! The first form measures one workload in this process and prints one JSON
//! object as its last line; `run` and `repeat` start it once per workload,
//! each time in a fresh child process.

mod adapter;
mod calib;
mod engine;
mod json;
mod kernels;
mod measure;
mod probes;
mod report;
mod run;
mod spec;
mod stats;
mod svc;
mod sys;
mod trace;
mod workloads;

use run::RunArgs;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Size;

/// How long one run measures; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 8;

/// Command-line options of every form.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            smoke: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => o.workload = Some(value()?.clone()),
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                    o.seconds = Some(s);
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--traced" => o.trace = true,
                "--smoke" => o.smoke = true,
                "--out" => o.out = Some(value()?.clone()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(o)
    }

    pub fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    /// `--seconds`, or the benchmark's run length (a blink under `--smoke`).
    pub fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.3 } else { RUN_SECONDS as f64 })
    }
}

/// A run that is still going after this long is stuck, not slow: end the
/// process without a result rather than hang whoever started it.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Measure one workload in this process and print the result line.
fn one(o: &Options) -> Result<bool, adapter::Error> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let def = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {known:?}")
    })?;
    sys::pin_environment(&sys::results_dir());
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("hwjoin-benchmark: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let report = run::run(RunArgs {
        def,
        seed: o.seed,
        seconds: o.seconds(),
        trace: o.trace,
        size: o.size(),
        results_dir: sys::results_dir(),
    })?;
    report::check_names(&report)?;
    report::print_human(&report);
    println!("detail: {}", report.detail().compact());
    println!("{}", report.result_line().compact());
    // the line above says whether the run was correct; the exit code only
    // says that there is such a line
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "repeat" | "spec" | "describe")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    let outcome = Options::parse(rest)
        .map_err(adapter::Error::from)
        .and_then(|o| match command {
            "spec" => {
                print!("{}", spec::benchmark_json().pretty());
                Ok(true)
            }
            "describe" => {
                print!("{}", spec::describe());
                Ok(true)
            }
            "run" => report::run_all(&o),
            "repeat" => report::repeat(&o),
            _ => one(&o),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hwjoin-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
