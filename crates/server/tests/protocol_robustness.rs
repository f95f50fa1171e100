//! Hostile-input robustness for the framed-TCP front door.
//!
//! The contract under test (ISSUE satellite + CI `protocol-robustness`
//! job): truncated, corrupt, oversized, or wrong-version frames must
//! produce a typed error frame or a dropped connection — never a panic,
//! and never a wedged accept loop. Every test finishes by running a real
//! query through a fresh, well-behaved client against the *same*
//! listener, which proves the accept loop survived the abuse; the
//! watchdog bounds how long an abusive (or silent) connection can hold a
//! handler thread.

use hybrid_core::reference::run_reference;
use hybrid_core::{HybridSystem, SystemConfig};
use hybrid_datagen::{Workload, WorkloadSpec};
use hybrid_server::wire::{self, FrameType, HEADER_LEN, MAGIC, MAX_FRAME};
use hybrid_server::{
    ErrorCode, JoinClient, JoinServer, Request, Response, ServerConfig, TenantCred, CONNECTION_ID,
};
use hybrid_service::{QueryService, ServiceConfig, TenantQuota};
use hybrid_storage::FileFormat;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn front_door() -> (JoinServer, Arc<QueryService>, Workload) {
    let w = WorkloadSpec::tiny().generate().unwrap();
    let mut syscfg = SystemConfig::paper_shape(2, 3);
    syscfg.rows_per_block = 1000;
    let mut sys = HybridSystem::new(syscfg).unwrap();
    w.load_into(&mut sys, FileFormat::Columnar).unwrap();
    let svc = Arc::new(QueryService::new(sys, ServiceConfig::default()));
    let server = JoinServer::bind(
        Arc::clone(&svc),
        "127.0.0.1:0",
        &[TenantCred::new(
            "acme",
            "tok-acme",
            TenantQuota::unlimited(),
        )],
        ServerConfig {
            watchdog_tick: Duration::from_millis(50),
            hello_timeout: Duration::from_millis(400),
        },
    )
    .unwrap();
    (server, svc, w)
}

/// The listener still serves a correct result end-to-end — the proof that
/// whatever abuse ran before did not wedge the accept loop or poison
/// shared state.
fn assert_still_serving(addr: &str, w: &Workload) {
    let mut client = JoinClient::connect(addr, "acme", "tok-acme").unwrap();
    let reply = client.query(w.query(), None, None).unwrap();
    let expected = run_reference(&w.t, &w.l, &w.query()).unwrap();
    assert_eq!(reply.rows, expected, "post-abuse query must be correct");
}

/// Read frames until the peer closes, collecting any typed error frames.
/// Panics only if the server sends something other than an error frame.
fn drain_errors(stream: &mut TcpStream) -> Vec<Response> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut out = Vec::new();
    loop {
        match wire::read_frame(stream) {
            Ok((ty, payload)) => {
                let resp = Response::decode(ty, &payload).expect("server sent undecodable frame");
                assert!(
                    matches!(resp, Response::Error { .. }),
                    "expected only error frames, got {resp:?}"
                );
                out.push(resp);
            }
            Err(_) => return out, // closed / reset / timeout: connection is done
        }
    }
}

#[test]
fn garbage_bytes_are_rejected_and_the_listener_survives() {
    let (server, _svc, w) = front_door();
    let addr = server.local_addr().to_string();

    for garbage in [
        &b"GET / HTTP/1.1\r\n\r\n"[..], // not our protocol at all
        &[0u8; 64][..],                 // zeros
        &[0xFF; 7][..],                 // shorter than a header
    ] {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(garbage).unwrap();
        let _ = s.flush();
        // server answers with a typed connection error (best-effort) and
        // drops; either way the read below terminates
        drain_errors(&mut s);
    }

    assert_still_serving(&addr, &w);
}

#[test]
fn truncated_frame_then_death_does_not_wedge() {
    let (server, _svc, w) = front_door();
    let addr = server.local_addr().to_string();

    // header promises 100 payload bytes; send 10 and vanish
    let mut s = TcpStream::connect(&addr).unwrap();
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = wire::VERSION;
    header[5] = FrameType::Hello as u8;
    header[6..10].copy_from_slice(&100u32.to_le_bytes());
    s.write_all(&header).unwrap();
    s.write_all(&[0u8; 10]).unwrap();
    drop(s); // die mid-frame

    assert_still_serving(&addr, &w);
}

#[test]
fn wrong_version_gets_a_typed_error_then_drop() {
    let (server, _svc, w) = front_door();
    let addr = server.local_addr().to_string();

    let mut s = TcpStream::connect(&addr).unwrap();
    let (ty, payload) = Request::Hello {
        tenant: "acme".into(),
        token: "tok-acme".into(),
    }
    .encode();
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, ty, &payload).unwrap();
    frame[4] = 99; // stamp an incompatible version
    s.write_all(&frame).unwrap();

    let errors = drain_errors(&mut s);
    assert!(
        errors.iter().any(|e| matches!(
            e,
            Response::Error { id, code: ErrorCode::BadRequest, .. } if *id == CONNECTION_ID
        )),
        "wrong version must be answered with a typed connection error, got {errors:?}"
    );
    assert_still_serving(&addr, &w);
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let (server, _svc, w) = front_door();
    let addr = server.local_addr().to_string();

    let mut s = TcpStream::connect(&addr).unwrap();
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = wire::VERSION;
    header[5] = FrameType::Query as u8;
    header[6..10].copy_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
    s.write_all(&header).unwrap();

    // the server rejects on the prefix alone — no payload ever sent
    let errors = drain_errors(&mut s);
    assert!(
        errors.iter().any(|e| matches!(
            e,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        )),
        "oversized frame must produce a typed error, got {errors:?}"
    );
    assert_still_serving(&addr, &w);
}

#[test]
fn query_before_hello_is_a_typed_error() {
    let (server, _svc, w) = front_door();
    let addr = server.local_addr().to_string();

    let mut s = TcpStream::connect(&addr).unwrap();
    let (ty, payload) = Request::Query(hybrid_server::QueryFrame {
        id: 1,
        deadline_ms: 0,
        body: hybrid_server::QueryBody::Binary {
            query: w.query(),
            algorithm: None,
        },
    })
    .encode();
    wire::write_frame(&mut s, ty, &payload).unwrap();

    let errors = drain_errors(&mut s);
    assert!(
        errors.iter().any(|e| matches!(
            e,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        )),
        "query before hello must be refused, got {errors:?}"
    );
    assert_still_serving(&addr, &w);
}

#[test]
fn bad_credentials_are_unauthorized() {
    let (server, _svc, _w) = front_door();
    let addr = server.local_addr().to_string();

    for (tenant, token) in [("acme", "wrong"), ("nobody", "tok-acme")] {
        match JoinClient::connect(&addr, tenant, token) {
            Err(hybrid_server::ClientError::Remote {
                code: ErrorCode::Unauthorized,
                retryable,
                ..
            }) => assert!(!retryable, "bad credentials are not retryable"),
            Err(other) => panic!("expected unauthorized, got {other}"),
            Ok(_) => panic!("bad credentials must not authenticate"),
        }
    }
}

#[test]
fn corrupt_query_payload_keeps_the_connection_usable() {
    let (server, _svc, w) = front_door();
    let addr = server.local_addr().to_string();

    let mut s = TcpStream::connect(&addr).unwrap();
    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
    let (ty, payload) = Request::Hello {
        tenant: "acme".into(),
        token: "tok-acme".into(),
    }
    .encode();
    wire::write_frame(&mut s, ty, &payload).unwrap();
    let (ty, payload) = wire::read_frame(&mut s).unwrap();
    assert!(matches!(
        Response::decode(ty, &payload).unwrap(),
        Response::HelloAck { .. }
    ));

    // a frame-aligned Query whose payload is garbage: the id is readable,
    // the rest is not
    let mut bad = Vec::new();
    bad.extend_from_slice(&7u64.to_le_bytes()); // query id
    bad.extend_from_slice(&[0xA5; 40]);
    wire::write_frame(&mut s, FrameType::Query, &bad).unwrap();
    let (ty, payload) = wire::read_frame(&mut s).unwrap();
    match Response::decode(ty, &payload).unwrap() {
        Response::Error {
            id,
            code: ErrorCode::BadRequest,
            ..
        } => assert_eq!(id, 7, "error must echo the query id for correlation"),
        other => panic!("expected bad-request error, got {other:?}"),
    }

    // same connection, now a well-formed query: must work
    let (ty, payload) = Request::Query(hybrid_server::QueryFrame {
        id: 8,
        deadline_ms: 0,
        body: hybrid_server::QueryBody::Binary {
            query: w.query(),
            algorithm: None,
        },
    })
    .encode();
    wire::write_frame(&mut s, ty, &payload).unwrap();
    loop {
        let (ty, payload) = wire::read_frame(&mut s).unwrap();
        match Response::decode(ty, &payload).unwrap() {
            Response::ResultDone { id, .. } => {
                assert_eq!(id, 8);
                break;
            }
            Response::ResultHeader { id, .. } | Response::ResultChunk { id, .. } => {
                assert_eq!(id, 8)
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

#[test]
fn silent_connection_is_dropped_by_the_hello_watchdog() {
    let (server, _svc, w) = front_door();
    let addr = server.local_addr().to_string();

    // connect and say nothing; hello_timeout=400ms must cut us loose
    let mut s = TcpStream::connect(&addr).unwrap();
    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
    let mut buf = [0u8; 1];
    let n = s.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "watchdog must close the silent connection");

    assert_still_serving(&addr, &w);
}

#[test]
fn shutdown_severs_live_connections_and_joins_threads() {
    let (mut server, svc, w) = front_door();
    let addr = server.local_addr().to_string();

    // an authenticated, idle connection is alive at shutdown time
    let client = JoinClient::connect(&addr, "acme", "tok-acme").unwrap();
    server.shutdown();
    drop(client);

    // post-shutdown: no admissions in flight, nothing reserved, every
    // submission accounted for
    assert!(svc.quiesce(Duration::from_secs(5)), "shutdown must settle");
    assert_eq!(svc.audit(), Vec::<String>::new(), "shutdown left residue");
    // the port is actually released
    assert!(TcpStream::connect(&addr)
        .map(|mut s| {
            // even if the OS races a connect in, nothing answers hello
            let (ty, payload) = Request::Hello {
                tenant: "acme".into(),
                token: "tok-acme".into(),
            }
            .encode();
            let _ = wire::write_frame(&mut s, ty, &payload);
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            wire::read_frame(&mut s).is_err()
        })
        .unwrap_or(true));
    let _ = w;
}

#[test]
fn closed_connections_release_their_server_side_sockets() {
    let (server, _svc, w) = front_door();
    let addr = server.local_addr().to_string();

    // authenticate, then hang up: each handler exits on the closed socket
    // and must take its stream clone with it, or the listener leaks one
    // file descriptor per connection until it can no longer accept
    for _ in 0..300 {
        drop(JoinClient::connect(&addr, "acme", "tok-acme").unwrap());
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while server.live_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.live_connections(),
        0,
        "closed connections still pinned"
    );

    assert_still_serving(&addr, &w);
}
