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

mod util;

use hybrid_bench::soak::{run_soak, variant, SoakOptions};
use hybrid_core::reference::{run_reference, run_star_reference};
use hybrid_core::{HybridQuery, HybridSystem, JoinAlgorithm, MultiwayPlanner, SystemConfig};
use hybrid_datagen::{Workload, WorkloadSpec};
use hybrid_server::{
    wire, ClientError, ErrorCode, JoinClient, JoinServer, QueryBody, QueryFrame, Request, Response,
    ServerConfig, TenantCred,
};
use hybrid_service::{QueryService, ServiceConfig, TenantQuota};
use hybrid_storage::FileFormat;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use util::assert_service_clean;

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

/// A raw socket authenticated as `acme`, for callers that write frames
/// without reading the replies.
fn raw_acme_connection(addr: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    let (ty, payload) = Request::Hello {
        tenant: "acme".into(),
        token: "tok-acme".into(),
    }
    .encode();
    wire::write_frame(&mut s, ty, &payload).unwrap();
    s
}

/// Write one binary query frame on a raw connection.
fn send_query(s: &mut TcpStream, query: HybridQuery, algorithm: Option<JoinAlgorithm>) {
    let (ty, payload) = Request::Query(QueryFrame {
        id: 0,
        deadline_ms: 0,
        body: QueryBody::Binary { query, algorithm },
    })
    .encode();
    wire::write_frame(s, ty, &payload).unwrap();
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
    assert_service_clean(&svc);
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
    let mut loader = raw_acme_connection(&addr);
    for i in 0..40 {
        let bf = Some(JoinAlgorithm::Repartition { bloom: true });
        send_query(&mut loader, variant(&w, 2000 + i), bf);
    }

    // race distinct queries against the burst. Either side can hold the
    // single slot when the other admits, so a bounce lands on whichever
    // connection came second: the client's own reply, or one of the
    // loader's unread replies
    let mut client = JoinClient::connect(&addr, "acme", "tok-acme").unwrap();
    let mut quota_errors = 0u64;
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
                quota_errors += 1;
                break;
            }
            Err(other) => panic!("unexpected error racing the quota: {other}"),
        }
    }
    // each of the loader's 40 queries ends in a result trailer or a typed
    // error frame
    loader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut answered = 0;
    while answered < 40 {
        let (ty, payload) = wire::read_frame(&mut loader).unwrap();
        match Response::decode(ty, &payload).unwrap() {
            Response::HelloAck { .. }
            | Response::ResultHeader { .. }
            | Response::ResultChunk { .. } => {}
            Response::ResultDone { .. } => answered += 1,
            Response::Error {
                code: ErrorCode::QuotaExceeded,
                retryable,
                message,
                ..
            } => {
                assert!(retryable, "quota errors must be retryable: {message}");
                quota_errors += 1;
                answered += 1;
            }
            other => panic!("unexpected loader frame {other:?}"),
        }
    }
    assert!(
        quota_errors > 0,
        "never observed a quota rejection while the tenant slot was held"
    );
    assert_eq!(
        svc.metrics().get("svc.quota_rejected"),
        quota_errors,
        "every quota rejection must be counted, and reported to its client"
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
    assert_service_clean(&svc);
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
    assert_service_clean(&svc);
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
    for i in 0..5 {
        let mut s = raw_acme_connection(&addr);
        send_query(&mut s, variant(&w, 3000 + i), None);
        drop(s); // gone before the stream starts
    }

    // the server still serves correct results alongside the orphans
    let mut client = JoinClient::connect(&addr, "acme", "tok-acme").unwrap();
    let expected = run_reference(&w.t, &w.l, &w.query()).unwrap();
    let reply = client.query(w.query(), None, None).unwrap();
    assert_eq!(reply.rows, expected);
    drop(client);

    // and finishes (or abandons) the orphans, releasing every slot, grant,
    // and session on its own. An orphan's frame can still sit unread in
    // its handler's socket, outside the service's ledger, so wait for the
    // handlers first: shutdown joins every one, and a handler returns only
    // after the service has counted its query's terminal outcome.
    server.shutdown();
    assert_service_clean(&svc);
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
