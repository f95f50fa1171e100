//! Printing a run for a reader, and the two commands that run every
//! workload: `run` (one set) and `repeat` (two interleaved sets compared
//! against the benchmark's own bounds).

use crate::adapter::{Error, Result};
use crate::json::Json;
use crate::run::Report;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{sys, Options};
use std::collections::BTreeSet;
use std::process::Command;

/// The metric names a run of this kind must emit: every end-to-end metric
/// when untraced, every per-layer metric when traced, and nothing else.
pub fn expected_names(traced: bool) -> BTreeSet<&'static str> {
    if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

pub fn check_names(report: &Report) -> Result<()> {
    let emitted: BTreeSet<&str> = report.metrics.iter().map(|(name, _)| name).collect();
    let expected = expected_names(report.args.trace);
    if emitted != expected {
        let missing: Vec<_> = expected.difference(&emitted).collect();
        let extra: Vec<_> = emitted.difference(&expected).collect();
        return Err(format!(
            "metric names differ from BENCHMARK.json: missing {missing:?}, extra {extra:?}"
        )
        .into());
    }
    if let Some((name, m)) = report.metrics.iter().find(|(_, m)| !m.value.is_finite()) {
        return Err(format!("{name} is {}", m.value).into());
    }
    Ok(())
}

/// Every metric by name with its unit and, for a timing, the sample count
/// and quartiles it came from.
pub fn print_human(report: &Report) {
    let a = &report.args;
    println!(
        "== {} seed {} {}s {}{} ==",
        a.def.name,
        a.seed,
        a.seconds,
        if a.trace { "traced" } else { "untraced" },
        if report.noisy.is_empty() {
            ""
        } else {
            " [noisy]"
        },
    );
    for (name, m) in report.metrics.iter() {
        let unit = crate::spec::unit_of(name).unwrap_or("?");
        match m.summary {
            Some(s) => println!(
                "  {name:<42} {:>16.4} {unit:<7} n={} p25={:.4} p75={:.4}",
                m.value, s.n, s.p25, s.p75
            ),
            None => println!("  {name:<42} {:>16.4} {unit}", m.value),
        }
    }
    println!(
        "  operations: {} attempted, {} failed; correct: {}",
        report.attempted,
        report.failed,
        report.correct()
    );
    for line in report.noisy.iter().map(|n| format!("noisy: {n}")).chain(
        report
            .guards
            .iter()
            .map(|g| format!("guard: {g}"))
            .chain(report.errors.iter().take(3).map(|e| format!("error: {e}"))),
    ) {
        println!("  {line}");
    }
}

/// One child run, as read back from its standard output.
struct Child {
    workload: &'static str,
    result: Json,
    detail: Json,
}

impl Child {
    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }

    fn noisy(&self) -> bool {
        self.detail
            .get("noisy")
            .and_then(Json::as_arr)
            .is_some_and(|a| !a.is_empty())
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("result", self.result.clone()),
            ("detail", self.detail.clone()),
        ])
    }
}

/// Run one workload in a fresh child process of this same executable.
fn spawn(workload: &'static str, o: &Options, traced: bool) -> Result<Child> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parsed = (|| {
        let result = Json::parse(lines.next()?).ok()?;
        let detail = Json::parse(lines.next()?.strip_prefix("detail: ")?).ok()?;
        Some((result, detail))
    })();
    let Some((result, detail)) = parsed else {
        return Err(format!(
            "{workload}: child exited with {} and no result: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    };
    for line in stdout
        .lines()
        .filter(|l| !l.starts_with("detail: ") && !l.starts_with('{'))
    {
        println!("{line}");
    }
    Ok(Child {
        workload,
        result,
        detail,
    })
}

fn write_out(o: &Options, default_name: &str, body: Json) -> Result<()> {
    let path = match &o.out {
        Some(p) => p.into(),
        None => {
            std::fs::create_dir_all(sys::results_dir())?;
            sys::results_dir().join(default_name)
        }
    };
    std::fs::write(&path, body.pretty())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn header(o: &Options) -> Vec<(&'static str, Json)> {
    vec![
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds())),
        ("smoke", Json::Bool(o.smoke)),
        ("nproc", Json::Num(sys::nproc() as f64)),
    ]
}

/// `run`: every workload once, untraced (or traced with `--traced`).
pub fn run_all(o: &Options) -> Result<bool> {
    let mut children = Vec::new();
    for w in &WORKLOADS {
        children.push(spawn(w.name, o, o.trace)?);
    }
    let correct = children.iter().all(Child::correct);
    let mut body = header(o);
    body.push(("traced", Json::Bool(o.trace)));
    body.push((
        "runs",
        Json::Arr(children.iter().map(Child::to_json).collect()),
    ));
    let kind = if o.trace { "traced" } else { "run" };
    write_out(o, &format!("{kind}-{}.json", o.seed), Json::obj(body))?;
    println!("all correct: {correct}");
    Ok(correct)
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `repeat`: two untraced sets interleaved by workload (A₁B₁ A₂B₂ …), so a
/// slow phase of the machine hits both, then one traced set. Prints both
/// values of every workload × end-to-end metric, their relative difference
/// and the bound; any difference beyond the bound, either way, is a miss.
pub fn repeat(o: &Options) -> Result<bool> {
    let mut pairs = Vec::new();
    for w in &WORKLOADS {
        pairs.push((spawn(w.name, o, false)?, spawn(w.name, o, false)?));
    }
    let mut traced = Vec::new();
    for w in &WORKLOADS {
        traced.push(spawn(w.name, o, true)?);
    }

    println!(
        "\n{:<20} {:<18} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut ok = true;
    let mut table = Vec::new();
    for (a, b) in &pairs {
        ok &= a.correct() && b.correct();
        for metric in &END_TO_END {
            let (va, vb) = match (a.value(metric.name), b.value(metric.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => {
                    return Err(Error::from(format!(
                        "{}: {} missing",
                        a.workload, metric.name
                    )))
                }
            };
            let diff = worsening(metric.better, va, vb);
            let within = diff.abs() <= metric.bound;
            ok &= within;
            println!(
                "{:<20} {:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%{}{}",
                a.workload,
                metric.name,
                va,
                vb,
                diff * 100.0,
                metric.bound * 100.0,
                if within { "" } else { "  MISS" },
                if a.noisy() || b.noisy() {
                    "  [noisy]"
                } else {
                    ""
                },
            );
            table.push(Json::obj([
                ("workload", Json::str(a.workload)),
                ("metric", Json::str(metric.name)),
                ("a", Json::Num(va)),
                ("b", Json::Num(vb)),
                ("worsening", Json::Num(diff)),
                ("bound", Json::Num(metric.bound)),
                ("within", Json::Bool(within)),
            ]));
        }
    }
    ok &= traced.iter().all(Child::correct);

    let mut body = header(o);
    body.push(("agree_within_bounds", Json::Bool(ok)));
    body.push(("comparison", Json::Arr(table)));
    body.push((
        "set_a",
        Json::Arr(pairs.iter().map(|(a, _)| a.to_json()).collect()),
    ));
    body.push((
        "set_b",
        Json::Arr(pairs.iter().map(|(_, b)| b.to_json()).collect()),
    ));
    body.push((
        "traced_set",
        Json::Arr(traced.iter().map(Child::to_json).collect()),
    ));
    write_out(o, &format!("repeat-{}.json", o.seed), Json::obj(body))?;
    println!("both sets correct and within bounds: {ok}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn expected_names_are_the_two_lists() {
        assert_eq!(expected_names(false).len(), 8);
        assert_eq!(expected_names(true).len(), 90);
        assert!(expected_names(false).is_disjoint(&expected_names(true)));
    }
}
