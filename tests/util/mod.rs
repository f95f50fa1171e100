//! Shared helpers for the integration suites.
//!
//! Each `tests/*.rs` file is its own crate, so this module is included via
//! `mod util;` per suite — any helper only some suites call would trip the
//! dead-code lint in the others, hence the blanket allow.
#![allow(dead_code)]

use hybrid_common::metrics::{Metrics, MetricsSnapshot};
use hybrid_core::{HybridSystem, JoinAlgorithm, SystemConfig};
use hybrid_datagen::Workload;
use hybrid_service::QueryService;
use hybrid_storage::FileFormat;
use std::time::Duration;

/// Small blocks so even tiny workloads exercise multi-block scans.
pub const ROWS_PER_BLOCK: usize = 500;

/// Every implemented algorithm: the paper's five variants plus the
/// semi-join and PERF baselines.
pub fn all_algorithms() -> Vec<JoinAlgorithm> {
    JoinAlgorithm::paper_variants()
        .into_iter()
        .chain([JoinAlgorithm::SemiJoin, JoinAlgorithm::PerfJoin])
        .collect()
}

/// The algorithms whose `L'` shuffle (and `T'` routing) goes through the
/// salt router — the only ones a salted config can affect.
pub fn salted_algorithms() -> [JoinAlgorithm; 4] {
    [
        JoinAlgorithm::Repartition { bloom: false },
        JoinAlgorithm::Repartition { bloom: true },
        JoinAlgorithm::Zigzag,
        JoinAlgorithm::SemiJoin,
    ]
}

/// The paper-shaped config every suite starts from: a small cluster with
/// [`ROWS_PER_BLOCK`]-row blocks. Callers tweak the returned config
/// (threads, salt, batch size, faults) before building the system.
pub fn test_config(db_workers: usize, jen_workers: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_shape(db_workers, jen_workers);
    cfg.rows_per_block = ROWS_PER_BLOCK;
    cfg
}

/// Build a system from `cfg` and load `workload` in `format`.
pub fn loaded_system(cfg: SystemConfig, workload: &Workload, format: FileFormat) -> HybridSystem {
    let mut sys = HybridSystem::new(cfg).unwrap();
    workload.load_into(&mut sys, format).unwrap();
    sys
}

/// A test-matrix axis, optionally pinned by an environment variable: CI
/// shards the columnar grid by setting `HYBRID_THREADS` /
/// `HYBRID_BATCH_ROWS`; a plain `cargo test` leaves them unset and runs
/// the full grid.
pub fn grid_from_env(var: &str, full: &[usize]) -> Vec<usize> {
    match std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => vec![n],
        _ => full.to_vec(),
    }
}

/// Root = Σ sessions: for each counter in `names`, the root registry's
/// total equals the exact sum over the per-session snapshots. Only
/// fabric-carried counters are dual-metered into the root, so only they
/// may be named here; any gap is silent data loss or double-metering.
pub fn assert_root_is_session_sum(
    root: &Metrics,
    sessions: &[MetricsSnapshot],
    names: &[&str],
    ctx: &str,
) {
    for &name in names {
        let session_sum: u64 = sessions
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0))
            .sum();
        assert_eq!(
            root.get(name),
            session_sum,
            "{ctx}: root total of {name} != sum over sessions"
        );
    }
}

/// Spill balance: every spill run file a run created was removed by the
/// time it returned. Returns how many were created, so a caller can also
/// check that the run spilled at all.
pub fn assert_spill_balanced(counters: &MetricsSnapshot, ctx: &str) -> u64 {
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    let (created, removed) = (
        get("jen.spill.files_created"),
        get("jen.spill.files_removed"),
    );
    assert_eq!(
        created,
        removed,
        "{ctx}: orphaned {} spill run file(s)",
        created.saturating_sub(removed)
    );
    created
}

/// Let the service settle, then require its audit to come back empty: no
/// admission or memory-pool residue, and every submission — globally and
/// per tenant — ended in exactly one terminal counter. Front-door suites
/// whose clients vanish shut the server down first (an unread frame is
/// not in the service's ledger yet).
pub fn assert_service_clean(svc: &QueryService) {
    svc.quiesce(Duration::from_secs(30));
    assert_eq!(svc.audit(), Vec::<String>::new(), "service audit failed");
}
