//! Concurrency stress for the query service: 8 client threads submit a
//! mixed workload (all six paper algorithms × three query variants) over
//! one shared system with caches disabled, under whatever `HYBRID_THREADS`
//! the CI matrix sets. Every response must be bit-identical to a
//! single-query run on a fresh system, its per-query metric delta must
//! equal the fresh-system delta (no cross-query bleed), and the root
//! registry's fabric-carried counters must equal the exact sum of the
//! per-query deltas.

mod util;

use hybrid_common::expr::Expr;
use hybrid_core::{
    run_adaptive, sample_stats, HybridQuery, HybridSystem, JoinAlgorithm, RunOutput, SystemConfig,
};
use hybrid_datagen::tables::l_cols;
use hybrid_datagen::{Workload, WorkloadSpec};
use hybrid_service::{QueryRequest, QueryService, ServiceConfig};
use hybrid_storage::FileFormat;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use util::{assert_root_is_session_sum, assert_service_clean};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 6;

/// Counters carried by the shared fabric: these (and only these) are
/// dual-metered into the root registry, so root totals must equal the sum
/// over per-session deltas. (`net.intra_db.*` is metered by the database
/// cluster directly into the session registry and never reaches the root.)
const FABRIC_COUNTERS: [&str; 6] = [
    "net.cross.bytes",
    "net.cross.msgs",
    "net.cross.tuples",
    "net.intra_hdfs.bytes",
    "net.intra_hdfs.msgs",
    "net.intra_hdfs.tuples",
];

fn fresh_system(w: &Workload) -> HybridSystem {
    let mut cfg = SystemConfig::paper_shape(2, 3);
    cfg.rows_per_block = 1000;
    let mut sys = HybridSystem::new(cfg).unwrap();
    w.load_into(&mut sys, FileFormat::Columnar).unwrap();
    sys
}

fn variant(w: &Workload, l_cor: i64) -> HybridQuery {
    let mut q = w.query();
    q.hdfs_pred = Expr::col_le(l_cols::COR_PRED, l_cor)
        .and(Expr::col_le(l_cols::IND_PRED, w.thresholds.l_ind));
    q
}

#[test]
fn eight_clients_no_cross_query_bleed() {
    let w = WorkloadSpec::tiny().generate().unwrap();
    let th = w.thresholds.l_cor;
    let queries = vec![w.query(), variant(&w, th - 1), variant(&w, th - 2)];
    let algorithms = JoinAlgorithm::paper_variants();

    // Single-query ground truth: each (query, algorithm) on its own
    // system, executed through the same adaptive entry point as a service
    // session with the same sampled estimates — byte-identical to a plain
    // `run` when `HYBRID_REPLAN_THRESHOLD` is unset, and carrying the
    // identical observation metering when the CI adaptive matrix arms it.
    let sample_blocks = ServiceConfig::default().sample_blocks;
    let mut reference: HashMap<(usize, JoinAlgorithm), RunOutput> = HashMap::new();
    for (qi, q) in queries.iter().enumerate() {
        for &alg in &algorithms {
            let mut sys = fresh_system(&w);
            let est = sample_stats(&sys, q, sample_blocks).unwrap().to_estimates(
                q,
                sys.config.jen_workers,
                None,
            );
            let out = run_adaptive(&mut sys, q, alg, &est).unwrap();
            assert!(out.result.num_rows() > 0, "degenerate workload");
            reference.insert((qi, alg), out);
        }
    }

    let cfg = ServiceConfig {
        max_in_flight: 4,
        max_queued: 64,
        queue_timeout: Duration::from_secs(120),
        result_cache_capacity: 0, // every submission must actually execute
        bloom_cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let svc = Arc::new(QueryService::new(fresh_system(&w), cfg));
    let queries = Arc::new(queries);
    let snapshots = Arc::new(Mutex::new(Vec::new()));

    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let svc = Arc::clone(&svc);
            let queries = Arc::clone(&queries);
            let snapshots = Arc::clone(&snapshots);
            let reference: HashMap<_, _> = reference
                .iter()
                .map(|(k, v)| (*k, (v.result.clone(), v.snapshot.clone())))
                .collect();
            thread::spawn(move || {
                for i in 0..QUERIES_PER_CLIENT {
                    let job = client * QUERIES_PER_CLIENT + i;
                    let qi = job % queries.len();
                    let alg = JoinAlgorithm::paper_variants()[job % 6];
                    let req = QueryRequest::with_algorithm(queries[qi].clone(), alg);
                    let resp = svc
                        .submit(&req)
                        .unwrap_or_else(|e| panic!("client {client} job {job} ({alg}): {e}"));
                    assert!(!resp.from_cache, "caches are disabled");
                    let (ref_result, ref_snapshot) = &reference[&(qi, alg)];
                    assert_eq!(
                        *resp.result, *ref_result,
                        "client {client} job {job}: {alg} diverged from single-query run"
                    );
                    let snapshot = resp.snapshot.expect("executed query has a snapshot");
                    assert_eq!(
                        &snapshot, ref_snapshot,
                        "client {client} job {job}: {alg} per-query metric delta \
                         differs under concurrency (cross-query bleed)"
                    );
                    snapshots.lock().unwrap().push(snapshot);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let m = svc.metrics();
    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    assert_eq!(m.get("svc.completed"), total);
    assert_eq!(m.get("svc.failed"), 0);
    assert_eq!(m.get("svc.rejected"), 0);
    assert_eq!(svc.latency_histogram().count(), total);
    assert_service_clean(&svc);

    // The root plane saw exactly the sum of all sessions.
    assert_root_is_session_sum(
        m,
        &snapshots.lock().unwrap(),
        &FABRIC_COUNTERS,
        "eight clients",
    );
}
