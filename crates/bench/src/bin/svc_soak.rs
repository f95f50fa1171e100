//! `svc_soak` — the production front door under closed-loop multi-tenant
//! load, over real sockets.
//!
//! ```text
//! svc_soak [--tenants N] [--clients N] [--queries N]
//!          [--scale tiny|small|default] [--threads N]
//!          [--policy fifo|sjf]
//!          [--quota-inflight N] [--quota-queued N]
//!          [--verify-every K] [--star-every K] [--disconnect-every K]
//!          [--deadline-ms MS] [--fault-rate R] [--chaos-seed N]
//!          [--json PATH]
//! ```
//!
//! Binds a [`hybrid_server::JoinServer`] on a loopback port, registers
//! `--tenants` tenants, and drives `--queries` total queries from
//! `tenants × clients` real framed-TCP clients: a mix of forced
//! repartition-bf binaries, advisor-routed binaries, star queries across
//! all three planners, deadline-capped requests, and deliberate
//! mid-stream disconnects — optionally under seeded chaos faults inside
//! the engine. Every `--verify-every`-th response is checked against a
//! fresh-system reference.
//!
//! The exit gate is the report's leak audit: any incorrect result, any
//! residual admission slot or memory grant, or any violation of the
//! per-tenant accounting conservation law exits nonzero. When
//! `HYBRID_SOAK_FAIL_LOG` names a file, the violations are written there
//! so CI can upload them as evidence (the same pattern as
//! `HYBRID_CHAOS_FAIL_LOG` in the chaos soak).

use hybrid_bench::soak::{run_soak, SoakOptions};
use hybrid_bench::{default_system_config, spec_from_env};
use hybrid_datagen::{DimSpec, KeySkew, WorkloadSpec};
use hybrid_service::SchedulePolicy;

fn usage() -> ! {
    eprintln!(
        "usage: svc_soak [--tenants N] [--clients N] [--queries N] \
         [--scale tiny|small|default] [--threads N] [--policy fifo|sjf] \
         [--quota-inflight N] [--quota-queued N] \
         [--verify-every K] [--star-every K] [--disconnect-every K] \
         [--deadline-ms MS] [--fault-rate R] [--chaos-seed N] [--json PATH]"
    );
    std::process::exit(2)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut opts = SoakOptions::default();
    let mut spec: Option<WorkloadSpec> = None;
    let mut threads: Option<usize> = None;
    let mut json_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--tenants" => opts.tenants = value().parse()?,
            "--clients" => opts.clients_per_tenant = value().parse()?,
            "--queries" => opts.queries = value().parse()?,
            "--threads" => threads = Some(value().parse()?),
            "--quota-inflight" => opts.quota.max_in_flight = value().parse()?,
            "--quota-queued" => opts.quota.max_queued = value().parse()?,
            "--verify-every" => opts.verify_every = value().parse()?,
            "--star-every" => opts.star_every = value().parse()?,
            "--disconnect-every" => opts.disconnect_every = value().parse()?,
            "--deadline-ms" => opts.deadline_ms = value().parse()?,
            "--fault-rate" => opts.fault_rate = value().parse()?,
            "--chaos-seed" => opts.chaos_seed = value().parse()?,
            "--json" => json_path = Some(value().to_string()),
            "--policy" => {
                opts.service.policy = match SchedulePolicy::parse(value()) {
                    Some(p) => p,
                    None => usage(),
                }
            }
            "--scale" => {
                spec = Some(match value() {
                    "tiny" => WorkloadSpec::tiny(),
                    "small" => WorkloadSpec {
                        t_rows: 40_000,
                        l_rows: 375_000,
                        num_keys: 400,
                        ..WorkloadSpec::scaled_default()
                    },
                    "default" => WorkloadSpec::scaled_default(),
                    other => {
                        eprintln!("unknown scale {other:?}");
                        usage()
                    }
                })
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }

    let mut spec = spec.unwrap_or_else(spec_from_env);
    if opts.star_every > 0 && spec.dimensions.is_empty() {
        // tiny_star's shape so star jobs have dimensions to join
        spec.dimensions = (0..2)
            .map(|i| DimSpec {
                rows: spec.l_rows / 40 + 100 * i,
                sigma: 0.5,
                fk_correlation: 0.6,
                skew: KeySkew::Uniform,
            })
            .collect();
    }
    let mut cfg = default_system_config();
    if let Some(n) = threads {
        cfg.threads = n;
    }
    println!(
        "soak: {} tenants x {} clients, {} queries, T={} L={} rows, {} thread(s), \
         chaos rate {} seed {}",
        opts.tenants,
        opts.clients_per_tenant,
        opts.queries,
        spec.t_rows,
        spec.l_rows,
        cfg.threads,
        opts.fault_rate,
        opts.chaos_seed
    );

    let report = run_soak(spec, cfg, &opts)?;
    report.print();
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json())?;
        eprintln!("report written to {path}");
    }

    if !report.clean() {
        let mut lines: Vec<String> = report.leaks.iter().map(|l| format!("leak\t{l}")).collect();
        if report.incorrect > 0 {
            lines.push(format!(
                "incorrect\t{} of {} verified responses diverged from the reference",
                report.incorrect, report.verified
            ));
        }
        if let Ok(path) = std::env::var("HYBRID_SOAK_FAIL_LOG") {
            let log = lines.join("\n") + "\n";
            if let Err(e) = std::fs::write(&path, log) {
                eprintln!("could not write soak fail log {path}: {e}");
            } else {
                eprintln!("violations written to {path}");
            }
        }
        eprintln!(
            "front-door soak FAILED: {} violation(s) — replay with \
             svc_soak --chaos-seed {} --fault-rate {}",
            lines.len(),
            report.chaos_seed,
            report.fault_rate
        );
        std::process::exit(1);
    }
    Ok(())
}
