//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5).
//!
//! | binary | what it does |
//! |---|---|
//! | `paper_figures` | Table 1, Figs. 8–15 and the §5.5 advisor grid, with the paper's claims checked; exits nonzero on any divergence |
//! | `hwjoin` | one join, or either end of the framed-TCP front door |
//! | `svc_soak` | the multi-tenant front-door soak and leak audit |
//! | `timeline_report` | renders a run's span timeline |
//! | `bench_baseline` | the volume-counter gate against `BENCH_baseline.json` |
//!
//! Times reported are **cost-model estimates at paper scale** driven by the
//! *measured* data volumes of real runs on the scaled workload (see
//! `hybrid-costmodel`); tuple counts are measured directly. Set
//! `HYBRID_BENCH_SCALE=tiny|small|default` to trade fidelity for runtime.
//! Wall-clock time — end to end and per layer — is measured by the
//! separate `benchmark/` package (see `benchmark/README.md`).

pub mod harness;
pub mod report;
pub mod soak;

pub use harness::{default_system_config, spec_from_env, ExpSystem, Measurement};
pub use soak::{run_soak, SoakOptions, SoakReport, TenantOutcome};
