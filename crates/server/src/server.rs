//! The front-door listener: accepts framed-TCP connections, authenticates
//! tenants, and serves queries off the shared [`QueryService`].
//!
//! Threading model: one accept-loop thread plus one handler thread per
//! connection — the same closed-loop shape as [`QueryService::submit_as`]
//! itself, which blocks the calling thread through queueing. A client
//! that wants concurrency opens more connections. Every query frame,
//! binary or star, becomes one `submit_as` call: the frame's body is the
//! service's own `QueryBody`.
//!
//! Robustness invariants (pinned by `tests/protocol_robustness.rs`):
//!
//! * A malformed frame, wrong version, hostile length, or undecodable
//!   payload produces a typed error frame and/or a dropped connection —
//!   never a panic, and never a wedged accept loop.
//! * Every handler read carries a short socket timeout (the watchdog
//!   tick), so a silent peer can never pin a thread past shutdown, and a
//!   connection that never completes its hello is dropped at
//!   `hello_timeout`.
//! * The result stream is sent *after* [`QueryService::submit_as`] has
//!   returned, so a client vanishing mid-stream cannot leak an admission
//!   slot, a memory grant, or a session namespace — by that point the
//!   service has already released all three on every path, and the
//!   query's ledger entry has recorded its outcome. The handler just logs
//!   the dead socket and moves on. A frame no handler has read yet is not
//!   in the ledger, so a caller auditing the service after clients vanish
//!   shuts the server down before `QueryService::quiesce`.

use crate::protocol::{ErrorCode, Request, Response, CONNECTION_ID};
use crate::wire::{self, WireError};
use hybrid_service::{
    QueryRequest, QueryResponse, QueryService, ServiceError, TenantId, TenantQuota,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// One tenant the listener will accept: credentials plus the admission
/// quota it is registered with.
#[derive(Debug, Clone)]
pub struct TenantCred {
    pub name: String,
    pub token: String,
    pub quota: TenantQuota,
}

impl TenantCred {
    pub fn new(name: &str, token: &str, quota: TenantQuota) -> TenantCred {
        TenantCred {
            name: name.to_string(),
            token: token.to_string(),
            quota,
        }
    }
}

/// Listener tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The watchdog tick: every blocking socket read times out after this
    /// long so the handler can observe shutdown (idle authenticated
    /// connections are *not* dropped — the read just retries).
    pub watchdog_tick: Duration,
    /// A connection that has not completed its hello within this budget
    /// is dropped — pre-auth sockets cannot pin handler threads.
    pub hello_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            watchdog_tick: Duration::from_millis(200),
            hello_timeout: Duration::from_secs(5),
        }
    }
}

struct Shared {
    svc: Arc<QueryService>,
    /// tenant name → (token, registered id)
    auth: HashMap<String, (String, TenantId)>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    /// Stream clones of live connections by connection id, so shutdown
    /// can unblock their reads immediately instead of waiting out a
    /// watchdog tick. Each handler removes its own entry on exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// Removes one connection's stream clone from [`Shared::conns`] when its
/// handler exits (or never starts), so the map holds live sockets only.
struct ConnGuard {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.conns.lock().remove(&self.id);
    }
}

/// A running front door. Dropping (or calling [`JoinServer::shutdown`])
/// stops the accept loop, severs live connections, and joins every
/// thread.
pub struct JoinServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl JoinServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port), register
    /// every credential's tenant on the service, and start accepting.
    pub fn bind(
        svc: Arc<QueryService>,
        addr: &str,
        tenants: &[TenantCred],
        cfg: ServerConfig,
    ) -> std::io::Result<JoinServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut auth = HashMap::new();
        for cred in tenants {
            let id = svc.register_tenant(&cred.name, cred.quota);
            auth.insert(cred.name.clone(), (cred.token.clone(), id));
        }
        let shared = Arc::new(Shared {
            svc,
            auth,
            cfg,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            thread::Builder::new()
                .name("hwjn-accept".into())
                .spawn(move || accept_loop(listener, shared, handlers))?
        };
        Ok(JoinServer {
            addr,
            shared,
            accept: Some(accept),
            handlers,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections whose handler is still running.
    pub fn live_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Stop accepting, sever live connections, join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection; it checks
        // the flag after every accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Sever live connections so handlers fail out of any blocking
        // read/write immediately.
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let joins: Vec<_> = self.handlers.lock().drain(..).collect();
        for h in joins {
            let _ = h.join();
        }
    }
}

impl Drop for JoinServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match stream {
            Ok(s) => s,
            // A single failed accept (peer reset mid-handshake) must not
            // kill the loop.
            Err(_) => continue,
        };
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(id, clone);
        }
        // moved into the handler, so the entry goes when the handler does
        // (or right here, if the thread cannot be spawned)
        let guard = ConnGuard {
            shared: Arc::clone(&shared),
            id,
        };
        let shared2 = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("hwjn-conn".into())
            .spawn(move || {
                let _guard = guard;
                handle_conn(stream, shared2)
            });
        let mut guard = handlers.lock();
        // keep the handle list bounded across many short-lived connections
        guard.retain(|h| !h.is_finished());
        if let Ok(h) = spawned {
            guard.push(h);
        }
    }
}

/// Best-effort send; a dead client is the caller's signal to drop the
/// connection, not an error to propagate.
fn send(stream: &TcpStream, resp: &Response) -> bool {
    let (ty, payload) = resp.encode();
    wire::write_frame(&mut (&*stream), ty, &payload).is_ok()
}

fn send_error(
    stream: &TcpStream,
    id: u64,
    code: ErrorCode,
    retryable: bool,
    message: String,
) -> bool {
    send(
        stream,
        &Response::Error {
            id,
            code,
            retryable,
            message,
        },
    )
}

fn handle_conn(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.watchdog_tick));

    // --- hello phase, bounded by the pre-auth watchdog -----------------
    let hello_deadline = Instant::now() + shared.cfg.hello_timeout;
    let tenant: TenantId = loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match wire::read_frame(&mut (&stream)) {
            Ok((ty, payload)) => match Request::decode(ty, &payload) {
                Ok(Request::Hello { tenant, token }) => match shared.auth.get(&tenant) {
                    Some((expected, id)) if *expected == token => {
                        let _ = send(
                            &stream,
                            &Response::HelloAck {
                                tenant_index: id.index() as u64,
                            },
                        );
                        break *id;
                    }
                    _ => {
                        send_error(
                            &stream,
                            CONNECTION_ID,
                            ErrorCode::Unauthorized,
                            false,
                            format!("unknown tenant {tenant:?} or bad token"),
                        );
                        return;
                    }
                },
                Ok(_) => {
                    send_error(
                        &stream,
                        CONNECTION_ID,
                        ErrorCode::BadRequest,
                        false,
                        "first frame must be hello".into(),
                    );
                    return;
                }
                Err(e) => {
                    send_error(
                        &stream,
                        CONNECTION_ID,
                        ErrorCode::BadRequest,
                        false,
                        e.to_string(),
                    );
                    return;
                }
            },
            Err(e) if e.is_timeout() => {
                if Instant::now() >= hello_deadline {
                    return; // pre-auth watchdog: silent peer, drop
                }
            }
            // Closed, truncated, bad magic/version/type, hostile length:
            // the stream is not frame-aligned (or not ours) — best-effort
            // typed error, then drop.
            Err(e) => {
                if !matches!(e, WireError::Closed) {
                    send_error(
                        &stream,
                        CONNECTION_ID,
                        ErrorCode::BadRequest,
                        false,
                        e.to_string(),
                    );
                }
                return;
            }
        }
    };

    // --- query loop -----------------------------------------------------
    loop {
        match wire::read_frame(&mut (&stream)) {
            Ok((ty, payload)) => match Request::decode(ty, &payload) {
                Ok(Request::Query(qf)) => {
                    if !serve_query(&stream, &shared, tenant, qf) {
                        return; // client vanished mid-stream
                    }
                }
                Ok(Request::Hello { .. }) => {
                    // Re-hello is a protocol violation but frame-aligned:
                    // typed error, keep the connection.
                    if !send_error(
                        &stream,
                        CONNECTION_ID,
                        ErrorCode::BadRequest,
                        false,
                        "connection is already authenticated".into(),
                    ) {
                        return;
                    }
                }
                Err(e) => {
                    // Payload was malformed but the frame boundary held,
                    // so the stream is still aligned: typed error, keep
                    // the connection.
                    if !send_error(
                        &stream,
                        qf_id_hint(&payload),
                        ErrorCode::BadRequest,
                        false,
                        e.to_string(),
                    ) {
                        return;
                    }
                }
            },
            Err(e) if e.is_timeout() => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // idle authenticated connection: keep waiting
            }
            Err(WireError::Closed) => return,
            Err(e) => {
                send_error(
                    &stream,
                    CONNECTION_ID,
                    ErrorCode::BadRequest,
                    false,
                    e.to_string(),
                );
                return;
            }
        }
    }
}

/// A malformed query payload still usually starts with the 8-byte id the
/// client chose; echoing it lets the client correlate the error. Fall
/// back to the connection id when even that much is missing.
fn qf_id_hint(payload: &[u8]) -> u64 {
    if payload.len() >= 8 {
        u64::from_le_bytes(payload[..8].try_into().unwrap())
    } else {
        CONNECTION_ID
    }
}

/// Execute one query and stream the outcome. Returns false when the
/// client vanished mid-stream (drop the connection; nothing leaks — the
/// service released slot, grant, and session before streaming began).
fn serve_query(
    stream: &TcpStream,
    shared: &Shared,
    tenant: TenantId,
    qf: crate::protocol::QueryFrame,
) -> bool {
    let req = QueryRequest {
        body: qf.body,
        deadline: (qf.deadline_ms > 0).then(|| Duration::from_millis(qf.deadline_ms)),
    };
    match shared.svc.submit_as(tenant, &req) {
        Ok(resp) => stream_result(stream, shared, qf.id, &resp),
        Err(e) => send_service_error(stream, qf.id, &e),
    }
}

fn send_service_error(stream: &TcpStream, id: u64, e: &ServiceError) -> bool {
    let code = match e {
        ServiceError::Rejected { .. } => ErrorCode::Rejected,
        ServiceError::QuotaExceeded { .. } => ErrorCode::QuotaExceeded,
        ServiceError::TimedOut { .. } => ErrorCode::TimedOut,
        ServiceError::Exec(_) => ErrorCode::Exec,
    };
    send_error(stream, id, code, e.retryable(), e.to_string())
}

fn stream_result(stream: &TcpStream, shared: &Shared, id: u64, resp: &QueryResponse) -> bool {
    let result = &resp.result;
    let batch_rows = shared.svc.system().config.batch_rows.max(1);
    if !send(
        stream,
        &Response::ResultHeader {
            id,
            schema: result.schema().clone(),
            algorithm: resp.plan.name().to_string(),
            from_cache: resp.from_cache,
        },
    ) {
        return false;
    }
    // `Batch::chunks` yields one (possibly empty) chunk even for an empty
    // result, so the client always sees header · chunk+ · done.
    for chunk in result.chunks(batch_rows) {
        let payload = hybrid_storage::encode(hybrid_storage::FileFormat::Columnar, &chunk);
        if !send(stream, &Response::ResultChunk { id, payload }) {
            return false;
        }
    }
    send(
        stream,
        &Response::ResultDone {
            id,
            rows: result.num_rows() as u64,
            queue_us: resp.queue_wait.as_micros() as u64,
            exec_us: resp.exec_time.as_micros() as u64,
            latency_us: resp.latency.as_micros() as u64,
            stats: resp
                .snapshot
                .iter()
                .flatten()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        },
    )
}
