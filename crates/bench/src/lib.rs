//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5).
//!
//! Each binary under `src/bin/` regenerates one artifact:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_tuples` | Table 1 — tuples shuffled / sent |
//! | `fig8_zigzag_vs_repartition` | Fig. 8(a,b) |
//! | `fig9_joinkey_selectivity` | Fig. 9(a,b) |
//! | `fig10_broadcast_vs_repartition` | Fig. 10(a,b) |
//! | `fig11_dbside_bloom` | Fig. 11(a,b) |
//! | `fig12_db_vs_hdfs_nobf` | Fig. 12(a,b) |
//! | `fig13_db_vs_hdfs_bf` | Fig. 13(a,b) |
//! | `fig14_parquet_vs_text` | Fig. 14(a,b) |
//! | `fig15_bloom_text` | Fig. 15(a,b) |
//! | `advisor_report` | §5.5 discussion — advisor choices across the grid |
//!
//! Beside them sit `hwjoin` (one join, or either end of the framed-TCP
//! front door), `svc_soak` (the multi-tenant front-door soak and leak
//! audit), `timeline_report` and the `bench_baseline` volume gate.
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
