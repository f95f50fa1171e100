//! End-to-end tests for the framed-TCP front door: correctness over the
//! wire, tenant quotas and fairness, leak-free disconnects, and the
//! closed-loop soak driver itself — all over real loopback sockets.
//!
//! The suite pins the ISSUE's multi-tenancy contract:
//!   * binary and star results streamed over TCP bit-match the
//!     fresh-system references, across planners and algorithms;
//!   * a tenant past its quota gets the typed, *retryable*
//!     `QuotaExceeded` error frame — and retrying does succeed;
//!   * under a flooding tenant, a trickle tenant's p99 queue wait stays
//!     below the flooder's (weighted fair queuing, not FIFO starvation),
//!     with zero quota rejections for the trickle tenant;
//!   * a client that vanishes mid-stream leaks nothing: no admission
//!     slots, no memory grants, and the per-tenant accounting
//!     conservation law still balances;
//!   * `run_soak` at small scale comes back `clean()` under chaos.

use hybrid_bench::soak::{run_soak, variant, SoakOptions};
use hybrid_core::reference::{run_reference, run_star_reference};
use hybrid_core::{HybridSystem, JoinAlgorithm, MultiwayPlanner, SystemConfig};
use hybrid_datagen::{Workload, WorkloadSpec};
use hybrid_server::{
    wire, ClientError, ErrorCode, JoinClient, JoinServer, QueryBody, QueryFrame, Request,
    ServerConfig, TenantCred,
};
use hybrid_service::{QueryService, ServiceConfig, TenantQuota};
use hybrid_storage::FileFormat;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tiny star workload behind a bound front door with the given service
/// config and tenant set.
fn front_door(
    service: ServiceConfig,
    tenants: &[TenantCred],
) -> (JoinServer, Arc<QueryService>, Workload) {
    let w = WorkloadSpec::tiny_star(2).generate().unwrap();
    let mut syscfg = SystemConfig::paper_shape(2, 3);
    syscfg.rows_per_block = 1000;
    let mut sys = HybridSystem::new(syscfg).unwrap();
    w.load_into(&mut sys, FileFormat::Columnar).unwrap();
    let svc = Arc::new(QueryService::new(sys, service));
    let server = JoinServer::bind(
        Arc::clone(&svc),
        "127.0.0.1:0",
        tenants,
        ServerConfig::default(),
    )
    .unwrap();
    (server, svc, w)
}

fn one_tenant() -> Vec<TenantCred> {
    vec![TenantCred::new(
        "acme",
        "tok-acme",
        TenantQuota::unlimited(),
    )]
}

/// Wait (bounded) for in-flight work to settle, then assert the service
/// holds no admissions and the governor holds no grants.
fn assert_zero_residency(svc: &QueryService) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while svc.load() != (0, 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(svc.load(), (0, 0), "admission slots leaked");
    assert_eq!(svc.system().mem_pool.reserved(), 0, "memory grants leaked");
}

/// The accounting conservation law, globally: every submission ends in
/// exactly one terminal counter.
fn assert_conservation(svc: &QueryService) {
    let m = svc.metrics();
    let terminal = m.get("svc.completed")
        + m.get("svc.rejected")
        + m.get("svc.quota_rejected")
        + m.get("svc.timed_out")
        + m.get("svc.failed");
    assert_eq!(
        m.get("svc.submitted"),
        terminal,
        "accounting leak: a submission vanished without a terminal counter"
    );
}

#[test]
fn binary_and_star_results_bit_match_over_tcp() {
    let (server, svc, w) = front_door(ServiceConfig::default(), &one_tenant());
    let addr = server.local_addr().to_string();
    let mut client = JoinClient::connect(&addr, "acme", "tok-acme").unwrap();

    // binary: advisor-routed plus two forced algorithms
    let expected = run_reference(&w.t, &w.l, &w.query()).unwrap();
    for alg in [
        None,
        Some(JoinAlgorithm::Repartition { bloom: true }),
        Some(JoinAlgorithm::Zigzag),
    ] {
        let reply = client.query(w.query(), alg, None).unwrap();
        assert_eq!(reply.rows, expected, "binary result diverged ({alg:?})");
    }

    // star: all three planner routes, same reference
    let star = w.star_query();
    let star_expected = run_star_reference(&w.l, &w.dims, &star).unwrap();
    for planner in [
        MultiwayPlanner::Auto,
        MultiwayPlanner::Cascade,
        MultiwayPlanner::Hypercube,
    ] {
        let reply = client.star(star.clone(), planner, None).unwrap();
        assert_eq!(
            reply.rows, star_expected,
            "star result diverged ({planner:?})"
        );
    }

    drop(client);
    assert_zero_residency(&svc);
    assert_conservation(&svc);
}

#[test]
fn quota_exceeded_is_typed_retryable_and_recoverable_over_the_wire() {
    // one execution slot for the tenant, zero queue depth: any submission
    // while another is running must bounce with the typed quota error
    let tenants = vec![TenantCred::new(
        "acme",
        "tok-acme",
        TenantQuota {
            weight: 1,
            max_in_flight: 1,
            max_queued: 0,
        },
    )];
    let service = ServiceConfig {
        result_cache_capacity: 0, // every query really executes
        ..ServiceConfig::default()
    };
    let (server, svc, w) = front_door(service, &tenants);
    let addr = server.local_addr().to_string();

    // background load on a raw connection: authenticate, then shove a
    // burst of query frames down the socket without reading responses —
    // the handler works through them one at a time, keeping the tenant's
    // single slot occupied
    let mut loader = TcpStream::connect(&addr).unwrap();
    let (ty, payload) = Request::Hello {
        tenant: "acme".into(),
        token: "tok-acme".into(),
    }
    .encode();
    wire::write_frame(&mut loader, ty, &payload).unwrap();
    for i in 0..40u64 {
        let (ty, payload) = Request::Query(QueryFrame {
            id: i,
            deadline_ms: 0,
            body: QueryBody::Binary {
                query: variant(&w, 2000 + i as i64),
                algorithm: Some(JoinAlgorithm::Repartition { bloom: true }),
            },
        })
        .encode();
        wire::write_frame(&mut loader, ty, &payload).unwrap();
    }

    // race distinct queries against the burst until one lands while the
    // loader holds the slot
    let mut client = JoinClient::connect(&addr, "acme", "tok-acme").unwrap();
    let mut saw_quota = false;
    for i in 0..200i64 {
        match client.query(
            variant(&w, 4000 + i),
            Some(JoinAlgorithm::Repartition { bloom: true }),
            None,
        ) {
            Ok(_) => {}
            Err(ClientError::Remote {
                code: ErrorCode::QuotaExceeded,
                retryable,
                message,
            }) => {
                assert!(retryable, "quota errors must be retryable: {message}");
                saw_quota = true;
                break;
            }
            Err(other) => panic!("unexpected error racing the quota: {other}"),
        }
    }
    assert!(
        saw_quota,
        "never observed a quota rejection while the tenant slot was held"
    );
    assert!(
        svc.metrics().get("svc.quota_rejected") > 0,
        "quota rejection must be counted"
    );

    // the error is recoverable: retrying (with the loader drained) succeeds
    drop(loader);
    let expected = run_reference(&w.t, &w.l, &w.query()).unwrap();
    let reply = loop {
        match client.query(w.query(), None, None) {
            Ok(r) => break r,
            Err(e) if e.retryable() => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("retry after quota error failed hard: {e}"),
        }
    };
    assert_eq!(reply.rows, expected);

    drop(client);
    assert_zero_residency(&svc);
    assert_conservation(&svc);
}

#[test]
fn trickle_tenant_is_not_starved_by_a_flooding_tenant() {
    // single global execution slot so everything contends; fair scheduling
    // must interleave the trickle tenant ahead of the flooder's backlog
    let tenants = vec![
        TenantCred::new("flood", "tok-flood", TenantQuota::unlimited()),
        TenantCred::new("trickle", "tok-trickle", TenantQuota::unlimited()),
    ];
    let service = ServiceConfig {
        max_in_flight: 1,
        max_queued: 64,
        result_cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let (server, svc, w) = front_door(service, &tenants);
    let addr = server.local_addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let seq = Arc::new(AtomicUsize::new(0));
    // four flooding connections running closed-loop distinct queries
    let flooders: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let seq = Arc::clone(&seq);
            let w = w.clone();
            std::thread::spawn(move || {
                let mut c = JoinClient::connect(&addr, "flood", "tok-flood").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let i = seq.fetch_add(1, Ordering::Relaxed) as i64;
                    let _ = c.query(
                        variant(&w, 2000 + i),
                        Some(JoinAlgorithm::Repartition { bloom: true }),
                        None,
                    );
                }
            })
        })
        .collect();

    // the trickle tenant sends a handful of queries, pausing between them
    let mut trickle = JoinClient::connect(&addr, "trickle", "tok-trickle").unwrap();
    for i in 0..10i64 {
        trickle
            .query(
                variant(&w, 6000 + i),
                Some(JoinAlgorithm::Repartition { bloom: true }),
                None,
            )
            .expect("trickle tenant queries must not fail under flood");
        std::thread::sleep(Duration::from_millis(30));
    }
    stop.store(true, Ordering::Relaxed);
    for f in flooders {
        f.join().unwrap();
    }

    let queues = svc.tenant_queue_histograms();
    let t_p99 = queues.get("trickle").map(|h| h.p99()).unwrap_or(0);
    let f_p99 = queues.get("flood").map(|h| h.p99()).unwrap_or(0);
    assert!(
        t_p99 <= f_p99,
        "fair scheduling must bound the trickle tenant's queue wait: \
         trickle p99 {t_p99}us > flood p99 {f_p99}us"
    );
    assert_eq!(
        svc.metrics().get("svc.tenant.trickle.quota_rejected"),
        0,
        "the trickle tenant must see zero quota rejections"
    );
    assert_eq!(
        svc.metrics().get("svc.tenant.trickle.completed"),
        10,
        "every trickle query must complete"
    );

    drop(trickle);
    assert_zero_residency(&svc);
    assert_conservation(&svc);
}

#[test]
fn vanished_client_releases_slot_grant_and_namespace() {
    let service = ServiceConfig {
        result_cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let (mut server, svc, w) = front_door(service, &one_tenant());
    let addr = server.local_addr().to_string();

    // several clients authenticate, fire an uncached query, and vanish
    // without reading a single response byte
    for i in 0..5i64 {
        let mut s = TcpStream::connect(&addr).unwrap();
        let (ty, payload) = Request::Hello {
            tenant: "acme".into(),
            token: "tok-acme".into(),
        }
        .encode();
        wire::write_frame(&mut s, ty, &payload).unwrap();
        let (ty, payload) = Request::Query(QueryFrame {
            id: i as u64,
            deadline_ms: 0,
            body: QueryBody::Binary {
                query: variant(&w, 3000 + i),
                algorithm: None,
            },
        })
        .encode();
        wire::write_frame(&mut s, ty, &payload).unwrap();
        drop(s); // gone before the stream starts
    }

    // the server still serves correct results alongside the orphans
    let mut client = JoinClient::connect(&addr, "acme", "tok-acme").unwrap();
    let expected = run_reference(&w.t, &w.l, &w.query()).unwrap();
    let reply = client.query(w.query(), None, None).unwrap();
    assert_eq!(reply.rows, expected);
    drop(client);

    // and finishes (or abandons) the orphans, releasing every slot, grant,
    // and session on its own. An orphan can still be sampling when the
    // service's load already reads (0, 0), so wait for its handler
    // instead: shutdown joins every handler, and a handler returns only
    // after the service has counted its query's terminal outcome.
    server.shutdown();
    assert_zero_residency(&svc);
    assert_conservation(&svc);
}

#[test]
fn small_soak_under_chaos_comes_back_clean() {
    let mut syscfg = SystemConfig::paper_shape(2, 3);
    syscfg.rows_per_block = 1000;
    let opts = SoakOptions {
        tenants: 2,
        clients_per_tenant: 2,
        queries: 60,
        verify_every: 2,
        star_every: 6,
        disconnect_every: 19,
        deadline_ms: 30_000, // exercises the deadline path, far above SLO
        fault_rate: 0.02,
        chaos_seed: 11,
        ..SoakOptions::default()
    };
    let report = run_soak(WorkloadSpec::tiny_star(2), syscfg, &opts).unwrap();
    assert!(report.verified > 0, "the soak must verify a sample");
    assert!(report.disconnects > 0, "the soak must exercise disconnects");
    assert_eq!(report.incorrect, 0, "soak returned incorrect results");
    assert!(
        report.leaks.is_empty(),
        "soak leak audit failed: {:?}",
        report.leaks
    );
    for t in &report.per_tenant {
        assert!(t.submitted > 0, "tenant {} never submitted", t.name);
    }
}
