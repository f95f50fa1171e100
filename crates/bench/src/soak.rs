//! Closed-loop multi-tenant soak over real sockets.
//!
//! This module drives the full production front door: it binds a
//! [`hybrid_server::JoinServer`] on a loopback port, connects
//! `tenants × clients_per_tenant` real [`JoinClient`] connections, and
//! pushes a mixed stream of binary, star, advisor-routed, deadline-capped
//! and deliberately-disconnected queries through the framed-TCP protocol —
//! optionally under seeded chaos faults inside the engine.
//!
//! The run is *self-judging*: a sampled subset of responses is checked
//! against fresh-reference results computed from the raw tables, and after
//! the drain the report runs the service's own leak audit
//! ([`QueryService::quiesce`], then [`QueryService::audit`]) — zero
//! admissions in flight, zero queued, zero bytes reserved in the memory
//! governor, and the conservation law `submitted = completed + rejected +
//! quota + timed_out + failed` both globally and per tenant. Any violation
//! lands in [`SoakReport::leaks`] and fails the `svc_soak` binary (and the CI
//! `front-door-soak` job) with a nonzero exit.

use hybrid_common::error::Result;
use hybrid_common::expr::Expr;
use hybrid_common::metrics::HistogramSnapshot;
use hybrid_core::reference::{run_reference, run_star_reference};
use hybrid_core::{HybridQuery, HybridSystem, JoinAlgorithm, MultiwayPlanner, SystemConfig};
use hybrid_datagen::tables::l_cols;
use hybrid_datagen::{Workload, WorkloadSpec};
use hybrid_server::{ClientError, JoinClient, JoinServer, Request, ServerConfig, TenantCred};
use hybrid_service::{QueryService, ServiceConfig, TenantQuota};
use hybrid_storage::FileFormat;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Soak sizing and mix. The service itself is configured by `service`.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Tenant count; tenant `i` is named `t<i>` with token `tok-<i>`.
    pub tenants: usize,
    /// Connections per tenant (each is one closed-loop client thread).
    pub clients_per_tenant: usize,
    /// Total queries across all tenants and clients.
    pub queries: usize,
    pub service: ServiceConfig,
    /// Per-tenant admission quota (identical for every tenant).
    pub quota: TenantQuota,
    /// Verify every `k`-th job against the fresh-system reference
    /// (1 = all, 0 = none).
    pub verify_every: usize,
    /// Every `k`-th job is a star query (0 = binary only).
    pub star_every: usize,
    /// Every `k`-th job sends its query and drops the connection without
    /// reading the result — the client-vanishes-mid-stream chaos path
    /// (0 = off).
    pub disconnect_every: usize,
    /// When nonzero, every `j % 7 == 3` job carries this queue-wait
    /// deadline in milliseconds (the protocol's deadline hook).
    pub deadline_ms: u64,
    /// Seeded engine fault rate (0 = no chaos).
    pub fault_rate: f64,
    pub chaos_seed: u64,
}

impl Default for SoakOptions {
    fn default() -> SoakOptions {
        SoakOptions {
            tenants: 4,
            clients_per_tenant: 2,
            queries: 400,
            service: ServiceConfig::default(),
            quota: TenantQuota::unlimited(),
            verify_every: 4,
            star_every: 5,
            disconnect_every: 97,
            deadline_ms: 0,
            fault_rate: 0.0,
            chaos_seed: 0,
        }
    }
}

/// What one tenant observed across the whole run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    pub name: String,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub quota_rejected: u64,
    pub timed_out: u64,
    pub failed: u64,
    /// Sampled responses that did not match the reference (must be 0).
    pub incorrect: u64,
    /// Client-side resubmissions after retryable typed errors.
    pub client_retries: u64,
    pub latency_us: HistogramSnapshot,
    pub queue_us: HistogramSnapshot,
}

/// The soak artifact.
#[derive(Debug, Clone)]
pub struct SoakReport {
    pub tenants: usize,
    pub clients_per_tenant: usize,
    pub queries: usize,
    pub threads: usize,
    pub policy: &'static str,
    pub wall: Duration,
    pub fault_rate: f64,
    pub chaos_seed: u64,
    /// Responses checked against the reference.
    pub verified: u64,
    /// Mismatches among those (the CI gate: must be 0).
    pub incorrect: u64,
    /// Deliberate mid-stream disconnects driven by the mix.
    pub disconnects: u64,
    /// Connections re-established after transport errors.
    pub reconnects: u64,
    /// Coordinator-level execution retries (`svc.retries`).
    pub svc_retries: u64,
    /// Mid-query replans (`svc.replans`), nonzero only with
    /// `replan_threshold` set.
    pub replans: u64,
    pub per_tenant: Vec<TenantOutcome>,
    /// Leak-audit violations; empty means the run is clean. Checked after
    /// the drain *and* server shutdown: admissions in flight, queued
    /// entries, reserved governor bytes, per-tenant residuals, and the
    /// global + per-tenant accounting conservation law.
    pub leaks: Vec<String>,
}

impl SoakReport {
    pub fn clean(&self) -> bool {
        self.incorrect == 0 && self.leaks.is_empty()
    }

    pub fn throughput_qps(&self) -> f64 {
        let done: u64 = self.per_tenant.iter().map(|t| t.completed).sum();
        done as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Hand-rolled JSON artifact (the workspace has no serde).
    pub fn to_json(&self) -> String {
        let hist = |h: &HistogramSnapshot| {
            format!(
                "{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                h.count(),
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            )
        };
        let tenants: Vec<String> = self
            .per_tenant
            .iter()
            .map(|t| {
                format!(
                    "    {{\"tenant\":\"{}\",\"submitted\":{},\"completed\":{},\"rejected\":{},\
                     \"quota_rejected\":{},\"timed_out\":{},\"failed\":{},\"incorrect\":{},\
                     \"client_retries\":{},\"latency_us\":{},\"queue_us\":{}}}",
                    t.name,
                    t.submitted,
                    t.completed,
                    t.rejected,
                    t.quota_rejected,
                    t.timed_out,
                    t.failed,
                    t.incorrect,
                    t.client_retries,
                    hist(&t.latency_us),
                    hist(&t.queue_us),
                )
            })
            .collect();
        let leaks: Vec<String> = self
            .leaks
            .iter()
            .map(|l| format!("\"{}\"", l.replace('"', "'")))
            .collect();
        format!(
            "{{\n  \"tenants\": {},\n  \"clients_per_tenant\": {},\n  \"queries\": {},\n  \
             \"threads\": {},\n  \"policy\": \"{}\",\n  \
             \"wall_s\": {:.4},\n  \"throughput_qps\": {:.2},\n  \"fault_rate\": {},\n  \
             \"chaos_seed\": {},\n  \"verified\": {},\n  \"incorrect\": {},\n  \
             \"disconnects\": {},\n  \"reconnects\": {},\n  \"svc_retries\": {},\n  \
             \"replans\": {},\n  \"clean\": {},\n  \"per_tenant\": [\n{}\n  ],\n  \
             \"leaks\": [{}]\n}}\n",
            self.tenants,
            self.clients_per_tenant,
            self.queries,
            self.threads,
            self.policy,
            self.wall.as_secs_f64(),
            self.throughput_qps(),
            self.fault_rate,
            self.chaos_seed,
            self.verified,
            self.incorrect,
            self.disconnects,
            self.reconnects,
            self.svc_retries,
            self.replans,
            self.clean(),
            tenants.join(",\n"),
            leaks.join(","),
        )
    }

    pub fn print(&self) {
        println!(
            "\n== front-door soak: {} tenants x {} clients, {} queries, {} policy, {} thread(s) ==",
            self.tenants, self.clients_per_tenant, self.queries, self.policy, self.threads
        );
        println!(
            "  wall {:.3}s  throughput {:.1} q/s  verified {}  incorrect {}  disconnects {}  reconnects {}",
            self.wall.as_secs_f64(),
            self.throughput_qps(),
            self.verified,
            self.incorrect,
            self.disconnects,
            self.reconnects,
        );
        if self.fault_rate > 0.0 {
            println!(
                "  chaos: rate {} seed {} -> {} coordinator retries, {} replans",
                self.fault_rate, self.chaos_seed, self.svc_retries, self.replans
            );
        }
        for t in &self.per_tenant {
            println!(
                "  {:<6} submitted {:>6}  completed {:>6}  quota {:>4}  timed_out {:>4}  failed {:>4}  \
                 p50 {:>7}us  p95 {:>8}us  p99 {:>8}us",
                t.name,
                t.submitted,
                t.completed,
                t.quota_rejected,
                t.timed_out,
                t.failed,
                t.latency_us.p50(),
                t.latency_us.p95(),
                t.latency_us.p99(),
            );
        }
        if self.leaks.is_empty() {
            println!("  leak audit: clean (0 slots, 0 grants, conservation holds)");
        } else {
            for l in &self.leaks {
                println!("  LEAK: {l}");
            }
        }
    }
}

/// One job in the mix.
#[derive(Clone)]
enum Job {
    Binary {
        qi: usize,
        algorithm: Option<JoinAlgorithm>,
    },
    Star {
        planner: MultiwayPlanner,
    },
}

/// Deterministic mix: every `star_every`-th job is a star query cycling
/// all three planners; binaries cycle the query variants, with every 5th
/// advisor-routed instead of forced repartition-bf.
fn job_at(j: usize, star_on: bool, star_every: usize, n_binaries: usize) -> Job {
    if star_on && star_every > 0 && j % star_every == 0 {
        let planner = match (j / star_every) % 3 {
            0 => MultiwayPlanner::Auto,
            1 => MultiwayPlanner::Cascade,
            _ => MultiwayPlanner::Hypercube,
        };
        Job::Star { planner }
    } else {
        let qi = j % n_binaries;
        let algorithm = if j % 5 == 4 {
            None
        } else {
            Some(JoinAlgorithm::Repartition { bloom: true })
        };
        Job::Binary { qi, algorithm }
    }
}

/// The workload query with HDFS-side thresholds tightened by `step` —
/// same database side (same `BF_DB` key), distinct fingerprint and result.
pub fn variant(w: &Workload, step: i64) -> HybridQuery {
    let mut q = w.query();
    q.hdfs_pred = Expr::col_le(l_cols::COR_PRED, w.thresholds.l_cor - step)
        .and(Expr::col_le(l_cols::IND_PRED, w.thresholds.l_ind));
    q
}

/// Run the soak: generate `spec`, install chaos on `syscfg`, serve over a
/// loopback socket, drain, audit.
pub fn run_soak(
    spec: WorkloadSpec,
    mut syscfg: SystemConfig,
    opts: &SoakOptions,
) -> Result<SoakReport> {
    if opts.fault_rate > 0.0 {
        syscfg.fault_spec = Some(hybrid_net::FaultSpec::from_seed(
            opts.chaos_seed,
            opts.fault_rate,
        ));
    }
    let workload = spec.generate()?;
    let threads = syscfg.threads;
    let mut system = HybridSystem::new(syscfg)?;
    workload.load_into(&mut system, FileFormat::Columnar)?;

    // Binary variants share the database side (Bloom-cache hits) but have
    // distinct fingerprints; references come from the raw batches, immune
    // to chaos.
    let binaries: Vec<HybridQuery> = (0..4).map(|i| variant(&workload, i)).collect();
    let references: Vec<_> = binaries
        .iter()
        .map(|q| run_reference(&workload.t, &workload.l, q))
        .collect::<Result<Vec<_>>>()?;
    let star_enabled = opts.star_every > 0 && !workload.dims.is_empty();
    let (star_query, star_reference) = if star_enabled {
        let sq = workload.star_query();
        let sr = run_star_reference(&workload.l, &workload.dims, &sq)?;
        (Some(sq), Some(sr))
    } else {
        (None, None)
    };

    let svc = Arc::new(QueryService::new(system, opts.service.clone()));
    let tenants: Vec<TenantCred> = (0..opts.tenants.max(1))
        .map(|i| TenantCred::new(&format!("t{i}"), &format!("tok-{i}"), opts.quota))
        .collect();
    let mut server = JoinServer::bind(
        Arc::clone(&svc),
        "127.0.0.1:0",
        &tenants,
        ServerConfig::default(),
    )
    .map_err(|e| hybrid_common::error::HybridError::Net(format!("bind: {e}")))?;
    let addr = server.local_addr().to_string();

    let next = Arc::new(AtomicUsize::new(0));
    let incorrect: Arc<Vec<AtomicU64>> = Arc::new(
        (0..opts.tenants.max(1))
            .map(|_| AtomicU64::new(0))
            .collect(),
    );
    let client_retries: Arc<Vec<AtomicU64>> = Arc::new(
        (0..opts.tenants.max(1))
            .map(|_| AtomicU64::new(0))
            .collect(),
    );
    let verified = Arc::new(AtomicU64::new(0));
    let disconnects = Arc::new(AtomicU64::new(0));
    let reconnects = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let handles: Vec<_> = (0..opts.tenants.max(1))
        .flat_map(|t| (0..opts.clients_per_tenant.max(1)).map(move |c| (t, c)))
        .map(|(t, _c)| {
            let addr = addr.clone();
            let next = Arc::clone(&next);
            let incorrect = Arc::clone(&incorrect);
            let client_retries = Arc::clone(&client_retries);
            let verified = Arc::clone(&verified);
            let disconnects = Arc::clone(&disconnects);
            let reconnects = Arc::clone(&reconnects);
            let binaries = binaries.clone();
            let references = references.clone();
            let star_query = star_query.clone();
            let star_reference = star_reference.clone();
            let opts = opts.clone();
            std::thread::spawn(move || {
                let name = format!("t{t}");
                let token = format!("tok-{t}");
                let mut client = match JoinClient::connect(&addr, &name, &token) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                loop {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    if job >= opts.queries {
                        return;
                    }

                    // the client-vanishes chaos path: fire the query on a
                    // throwaway connection and drop it without reading
                    if opts.disconnect_every > 0
                        && job % opts.disconnect_every == opts.disconnect_every - 1
                    {
                        if fire_and_disconnect(
                            &addr,
                            &name,
                            &token,
                            &binaries[job % binaries.len()],
                        ) {
                            disconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }

                    let deadline = (opts.deadline_ms > 0 && job % 7 == 3)
                        .then(|| Duration::from_millis(opts.deadline_ms));
                    // resubmit on retryable typed errors (quota, timeout,
                    // chaos-exhausted execution), reconnect on transport
                    // errors
                    let mut attempts = 0u32;
                    let reply = loop {
                        let res = match job_at(
                            job,
                            star_query.is_some(),
                            opts.star_every,
                            binaries.len(),
                        ) {
                            Job::Binary { qi, algorithm } => {
                                client.query(binaries[qi].clone(), algorithm, deadline)
                            }
                            Job::Star { planner } => client.star(
                                star_query.clone().expect("star job without star query"),
                                planner,
                                deadline,
                            ),
                        };
                        match res {
                            Ok(r) => break Some(r),
                            Err(e) if e.retryable() && attempts < 5 => {
                                attempts += 1;
                                client_retries[t].fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(2 * attempts as u64));
                            }
                            Err(ClientError::Wire(_)) | Err(ClientError::Codec(_)) => {
                                // transport broke: reconnect once and move on
                                match JoinClient::connect(&addr, &name, &token) {
                                    Ok(c) => {
                                        client = c;
                                        reconnects.fetch_add(1, Ordering::Relaxed);
                                        break None;
                                    }
                                    Err(_) => return,
                                }
                            }
                            Err(_) => break None,
                        }
                    };

                    if let Some(reply) = reply {
                        if opts.verify_every > 0 && job % opts.verify_every == 0 {
                            verified.fetch_add(1, Ordering::Relaxed);
                            let expected = match job_at(
                                job,
                                star_query.is_some(),
                                opts.star_every,
                                binaries.len(),
                            ) {
                                Job::Binary { qi, .. } => Some(&references[qi]),
                                Job::Star { .. } => star_reference.as_ref(),
                            };
                            if let Some(expected) = expected {
                                if reply.rows != *expected {
                                    incorrect[t].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("soak client thread panicked");
    }
    let wall = start.elapsed();
    // A deliberately-disconnected query may still sit unread in its
    // handler's socket, outside the ledger: shutdown joins every handler,
    // then the ledger settles and the audit runs.
    server.shutdown();
    svc.quiesce(Duration::from_secs(60));
    let leaks = svc.audit();
    let m = svc.metrics();

    let latency_hists: BTreeMap<String, HistogramSnapshot> = svc.tenant_latency_histograms();
    let queue_hists: BTreeMap<String, HistogramSnapshot> = svc.tenant_queue_histograms();
    let mut per_tenant = Vec::new();
    for (i, cred) in tenants.iter().enumerate() {
        let name = &cred.name;
        let get = |c: &str| m.get(&format!("svc.tenant.{name}.{c}"));
        per_tenant.push(TenantOutcome {
            name: name.clone(),
            submitted: get("submitted"),
            completed: get("completed"),
            rejected: get("rejected"),
            quota_rejected: get("quota_rejected"),
            timed_out: get("timed_out"),
            failed: get("failed"),
            incorrect: incorrect[i].load(Ordering::Relaxed),
            client_retries: client_retries[i].load(Ordering::Relaxed),
            latency_us: latency_hists[name].clone(),
            queue_us: queue_hists[name].clone(),
        });
    }

    Ok(SoakReport {
        tenants: opts.tenants.max(1),
        clients_per_tenant: opts.clients_per_tenant.max(1),
        queries: opts.queries,
        threads,
        policy: opts.service.policy.name(),
        wall,
        fault_rate: opts.fault_rate,
        chaos_seed: opts.chaos_seed,
        verified: verified.load(Ordering::Relaxed),
        incorrect: per_tenant.iter().map(|t| t.incorrect).sum(),
        disconnects: disconnects.load(Ordering::Relaxed),
        reconnects: reconnects.load(Ordering::Relaxed),
        svc_retries: m.get("svc.retries"),
        replans: m.get("svc.replans"),
        per_tenant,
        leaks,
    })
}

/// Authenticate, fire one query, and vanish without reading the stream —
/// the server must release the slot, grant, and session on its own.
/// Returns true when the two frames actually left the socket.
fn fire_and_disconnect(addr: &str, tenant: &str, token: &str, query: &HybridQuery) -> bool {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return false;
    };
    let (ty, payload) = Request::Hello {
        tenant: tenant.to_string(),
        token: token.to_string(),
    }
    .encode();
    if hybrid_server::wire::write_frame(&mut s, ty, &payload).is_err() {
        return false;
    }
    let (ty, payload) = Request::Query(hybrid_server::QueryFrame {
        id: 0,
        deadline_ms: 0,
        body: hybrid_server::QueryBody::Binary {
            query: query.clone(),
            algorithm: None,
        },
    })
    .encode();
    hybrid_server::wire::write_frame(&mut s, ty, &payload).is_ok()
    // drop(s): the server finds the dead socket mid-stream
}
