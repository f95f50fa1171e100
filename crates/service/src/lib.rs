//! The concurrent query service: a multi-tenant layer over one shared
//! [`HybridSystem`].
//!
//! The paper's engine executes one hybrid join at a time; a warehouse
//! serving real traffic runs many concurrently, for many tenants. This
//! crate adds the serving layer without touching the join algorithms:
//!
//! * **Admission + scheduling** (the `sched` module): bounded in-flight
//!   executions, bounded queue, typed [`ServiceError::Rejected`] /
//!   [`ServiceError::TimedOut`] errors, FIFO or
//!   shortest-estimated-cost-first ordering. Cost estimates come from the
//!   existing sampling/cost-model path, and the advisor picks each query's
//!   algorithm unless the request forces one.
//! * **Tenants** (the `tenant` module): [`QueryService::register_tenant`]
//!   creates an isolation domain with its own [`TenantQuota`] — per-tenant
//!   in-flight and queue-depth caps on top of the global bounds (the
//!   typed, retryable [`ServiceError::QuotaExceeded`] fires past the
//!   latter) — a weighted share of scheduler grants (deficit round-robin
//!   over virtual time, so one tenant's flood cannot starve another), its
//!   own latency histograms and `svc.tenant.<name>.*` counters, and a
//!   private region of fabric namespaces.
//! * **Memory admission**: when the shared system's buffer pool is bounded
//!   (`HYBRID_MEM_BUDGET` / `SystemConfig::mem_budget_bytes`), every
//!   admitted query reserves an even share (`total / max_in_flight`) for
//!   its lifetime and its joins run under that budget — spilling when they
//!   must, never over-committing the pool.
//! * **Per-query isolation**: every admitted query executes on a
//!   [`HybridSystem::session`] — fresh metrics registry, fresh tracer, and
//!   a private fabric namespace — so concurrent queries can never
//!   interleave counters, spans, or shuffle streams. Fabric traffic is
//!   dual-metered: the root registry's `net.cross.*` / `net.intra_hdfs.*`
//!   totals stay the exact sum over all sessions.
//! * **Cross-query caches**: serialized `BF_DB` Bloom filters (shared via
//!   the system, `svc.cache.bloom.*`) and final results
//!   ([`ResultCache`], `svc.cache.result.*`), both LRU-bounded and
//!   invalidated when a table is rewritten through the service's load
//!   methods.
//! * **Latency accounting**: lock-free [`Histogram`]s for total and
//!   queue-wait latency — global and per tenant — with mergeable snapshots
//!   and p50/p95/p99; each response carries its own execution time.
//!
//! The service is *closed-loop*: [`QueryService::submit_as`] runs on the
//! calling client thread (queueing blocks it), which is exactly the shape
//! of the framed-TCP front end in `crates/server` (one connection handler
//! thread per client) and of the `svc_soak` driver in `crates/bench`.

mod result_cache;
mod sched;
mod tenant;

pub use result_cache::{CachedResult, GenSnapshot, ResultCache};
pub use sched::SchedulePolicy;
pub use tenant::{TenantId, TenantLoad, TenantQuota};

use hybrid_common::batch::Batch;
use hybrid_common::error::HybridError;
use hybrid_common::metrics::{
    Histogram, HistogramSnapshot, HistogramVec, Metrics, MetricsSnapshot,
};
use hybrid_common::schema::Schema;
use hybrid_core::advisor::{advise, predicted_cost};
use hybrid_core::stats::JoinSummary;
use hybrid_core::{
    run, run_adaptive, run_star, sample_stats, HybridQuery, HybridSystem, JoinAlgorithm,
    MultiwayPlanner, StarQuery,
};
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a submission did not produce a result.
#[derive(Debug)]
pub enum ServiceError {
    /// The global queue was full at submission time.
    Rejected { queued: usize, max_queued: usize },
    /// The submitting tenant's own queue quota was full. Retryable by
    /// construction: the tenant's earlier submissions drain the quota.
    QuotaExceeded {
        tenant: String,
        queued: usize,
        max_queued: usize,
    },
    /// The query queued longer than the configured timeout (or its own
    /// deadline, when the request carried a tighter one).
    TimedOut { waited: Duration },
    /// Admitted, but execution failed.
    Exec(HybridError),
}

impl ServiceError {
    /// Whether a client should expect a later identical submission to
    /// succeed: load-shedding outcomes (rejections, quota, timeouts) are
    /// transient by nature; an execution error is retryable exactly when
    /// the underlying [`HybridError`] is.
    pub fn retryable(&self) -> bool {
        match self {
            ServiceError::Rejected { .. }
            | ServiceError::QuotaExceeded { .. }
            | ServiceError::TimedOut { .. } => true,
            ServiceError::Exec(e) => retryable(e),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected { queued, max_queued } => {
                write!(f, "rejected: {queued} queued (max {max_queued})")
            }
            ServiceError::QuotaExceeded {
                tenant,
                queued,
                max_queued,
            } => {
                write!(
                    f,
                    "tenant {tenant} over quota: {queued} queued (max {max_queued})"
                )
            }
            ServiceError::TimedOut { waited } => {
                write!(f, "timed out after {waited:?} in queue")
            }
            ServiceError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<HybridError> for ServiceError {
    fn from(e: HybridError) -> ServiceError {
        ServiceError::Exec(e)
    }
}

/// Whether a failed execution is worth re-running: injected faults,
/// disconnected workers, cancellations (always secondary to one of the
/// former inside a single session) and transient network errors are; a
/// config, planning, or data error would fail identically on retry.
/// [`HybridError::MemoryExceeded`] is deliberately absent: a denied
/// reservation against the same pool share denies again, and the join
/// itself never surfaces it — it degrades to spilling instead.
fn retryable(e: &HybridError) -> bool {
    matches!(
        e,
        HybridError::FaultInjected { .. }
            | HybridError::Disconnected { .. }
            | HybridError::Cancelled { .. }
            | HybridError::Net(_)
    )
}

/// Service sizing and policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queries executing at once (≥ 1).
    pub max_in_flight: usize,
    /// Queries waiting beyond the in-flight bound; a submission past both
    /// is rejected.
    pub max_queued: usize,
    /// How long a queued query may wait before timing out.
    pub queue_timeout: Duration,
    pub policy: SchedulePolicy,
    /// Result-cache entries (0 disables result caching).
    pub result_cache_capacity: usize,
    /// Bloom-cache entries (0 disables `BF_DB` caching).
    pub bloom_cache_capacity: usize,
    /// HDFS blocks sampled per cost estimate (the single-query auto path
    /// uses 8; the service defaults lower because it estimates every
    /// submission).
    pub sample_blocks: usize,
    /// Re-executions after a retryable failure (injected fault, worker
    /// disconnection, cancellation, transient network error). Each retry
    /// runs in a *fresh* session namespace, so a seeded chaos plan rolls
    /// new per-delivery decisions instead of replaying the failure.
    pub query_retries: u32,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_in_flight: 4,
            max_queued: 64,
            queue_timeout: Duration::from_secs(30),
            policy: SchedulePolicy::Fifo,
            result_cache_capacity: 64,
            bloom_cache_capacity: 32,
            sample_blocks: 4,
            query_retries: 2,
        }
    }
}

/// One query submission.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    pub query: HybridQuery,
    /// Force a specific algorithm; `None` lets the advisor choose from the
    /// sampled estimates.
    pub algorithm: Option<JoinAlgorithm>,
    /// Cap this query's queue wait below the service timeout. Carried on
    /// the wire so over-SLO queries can be cut loose early (and, later,
    /// answered approximately).
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    pub fn new(query: HybridQuery) -> QueryRequest {
        QueryRequest {
            query,
            algorithm: None,
            deadline: None,
        }
    }

    pub fn with_algorithm(query: HybridQuery, algorithm: JoinAlgorithm) -> QueryRequest {
        QueryRequest {
            query,
            algorithm: Some(algorithm),
            deadline: None,
        }
    }

    pub fn with_deadline(mut self, deadline: Duration) -> QueryRequest {
        self.deadline = Some(deadline);
        self
    }
}

/// One star-query submission (multiway engine; see `hybrid_core::multiway`).
#[derive(Debug, Clone)]
pub struct StarRequest {
    pub star: StarQuery,
    /// Plan family; `Auto` lets the multiway advisor price cascade vs
    /// hypercube from sampled estimates.
    pub planner: MultiwayPlanner,
    /// Same deadline hook as [`QueryRequest::deadline`].
    pub deadline: Option<Duration>,
}

impl StarRequest {
    pub fn new(star: StarQuery) -> StarRequest {
        StarRequest {
            star,
            planner: MultiwayPlanner::Auto,
            deadline: None,
        }
    }
}

/// A completed query with its latency accounting.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Final `(group, agg…)` batch, sorted by group key.
    pub result: Arc<Batch>,
    /// The algorithm that produced the result (for a cache hit: the one
    /// that produced the cached entry).
    pub algorithm: JoinAlgorithm,
    /// Served from the result cache — no execution happened.
    pub from_cache: bool,
    /// The cost model's estimate for `algorithm` in seconds, at the
    /// sampled scale, when the model prices it (the scheduler's cost).
    pub estimated_cost: Option<f64>,
    /// Submission → admission (estimation + queueing).
    pub queue_wait: Duration,
    /// Admission → result.
    pub exec_time: Duration,
    /// Submission → result (what the client observed).
    pub latency: Duration,
    /// Movement digest of this query's own execution (None for hits).
    pub summary: Option<JoinSummary>,
    /// This query's isolated counters (None for hits).
    pub snapshot: Option<MetricsSnapshot>,
}

/// A completed star query.
#[derive(Debug, Clone)]
pub struct StarResponse {
    /// Final `(group, agg…)` batch, sorted by group key.
    pub result: Arc<Batch>,
    /// Whether the run executed the one-shot hypercube shuffle (false:
    /// the cascade of binary joins).
    pub ran_hypercube: bool,
    pub queue_wait: Duration,
    pub exec_time: Duration,
    pub latency: Duration,
    pub summary: Option<JoinSummary>,
    pub snapshot: Option<MetricsSnapshot>,
}

/// The multi-tenant query service. All methods take `&self`; one instance
/// is shared across client threads.
pub struct QueryService {
    root: RwLock<HybridSystem>,
    cfg: ServiceConfig,
    /// Handle to the root system's registry: service-level counters
    /// (`svc.*`), cache counters, and the global fabric totals live here.
    metrics: Metrics,
    results: ResultCache,
    sched: sched::Scheduler,
    /// Monotone submission sequence; its low 32 bits are the low half of
    /// each query's fabric namespace.
    next_seq: AtomicU64,
    latency_us: Histogram,
    queue_us: Histogram,
    tenant_latency_us: HistogramVec,
    tenant_queue_us: HistogramVec,
}

impl QueryService {
    /// Wrap `system` in a service. Loaded tables carry over; the Bloom
    /// cache is enabled on the system per `cfg`. The `default` tenant
    /// ([`TenantId::DEFAULT`], unlimited quota) is pre-registered.
    pub fn new(mut system: HybridSystem, cfg: ServiceConfig) -> QueryService {
        system.enable_bloom_cache(cfg.bloom_cache_capacity);
        let metrics = system.metrics.clone();
        for name in [
            "svc.submitted",
            "svc.completed",
            "svc.rejected",
            "svc.quota_rejected",
            "svc.timed_out",
            "svc.failed",
            "svc.retries",
            "svc.replans",
            "svc.replan_considered",
        ] {
            metrics.register(name);
        }
        let results = ResultCache::new(
            cfg.result_cache_capacity,
            metrics.clone(),
            system.table_gens.clone(),
        );
        let sched = sched::Scheduler::new(
            cfg.max_in_flight,
            cfg.max_queued,
            cfg.queue_timeout,
            cfg.policy,
        );
        let svc = QueryService {
            root: RwLock::new(system),
            cfg,
            metrics,
            results,
            sched,
            next_seq: AtomicU64::new(0),
            latency_us: Histogram::new(),
            queue_us: Histogram::new(),
            tenant_latency_us: HistogramVec::new(),
            tenant_queue_us: HistogramVec::new(),
        };
        svc.register_tenant_counters("default");
        svc
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Register (or re-quota) a tenant by name; idempotent on the name.
    /// The returned [`TenantId`] is what [`QueryService::submit_as`] and
    /// the framed-TCP front end authenticate connections onto.
    pub fn register_tenant(&self, name: &str, quota: TenantQuota) -> TenantId {
        let id = self.sched.add_tenant(name, quota);
        self.register_tenant_counters(name);
        TenantId(id)
    }

    fn register_tenant_counters(&self, name: &str) {
        for c in [
            "submitted",
            "completed",
            "rejected",
            "quota_rejected",
            "timed_out",
            "failed",
        ] {
            self.metrics.register(&format!("svc.tenant.{name}.{c}"));
        }
    }

    /// Registered tenant count (including `default`).
    pub fn tenant_count(&self) -> usize {
        self.sched.tenant_count()
    }

    pub fn tenant_name(&self, tenant: TenantId) -> String {
        self.sched.tenant_name(tenant.0)
    }

    /// (in-flight, queued) for one tenant — the soak's per-tenant leak
    /// check reads this after a drain (both must be 0).
    pub fn tenant_load(&self, tenant: TenantId) -> TenantLoad {
        let (in_flight, queued) = self.sched.tenant_load(tenant.0);
        TenantLoad {
            name: self.sched.tenant_name(tenant.0),
            in_flight,
            queued,
        }
    }

    /// The root registry: `svc.*` counters, cache hit/miss/eviction
    /// counters, and global `net.*` totals (for fabric-carried link
    /// classes, the exact sum over all sessions).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Read access to the shared system (reference runs, test assertions).
    pub fn system(&self) -> RwLockReadGuard<'_, HybridSystem> {
        self.root.read()
    }

    /// (in-flight, queued) right now.
    pub fn load(&self) -> (usize, usize) {
        self.sched.load()
    }

    /// Total submission→result latency distribution, in microseconds.
    /// Every completion — cache hits included — lands here.
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        self.latency_us.snapshot()
    }

    /// Submission→admission wait distribution of *executions*, in
    /// microseconds. Cache hits bypass admission and are not recorded.
    pub fn queue_histogram(&self) -> HistogramSnapshot {
        self.queue_us.snapshot()
    }

    /// Per-tenant submission→result latency snapshots, keyed by tenant
    /// name.
    pub fn tenant_latency_histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.tenant_latency_us.snapshot_all()
    }

    /// Per-tenant queue-wait snapshots, keyed by tenant name.
    pub fn tenant_queue_histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.tenant_queue_us.snapshot_all()
    }

    /// The fabric namespace for attempt `seq` of a `tenant` query: the
    /// tenant index (plus one — namespace 0 is the root) in bits 32..47,
    /// the submission sequence (plus one) in the low 32. Disjoint across
    /// tenants, unique per attempt, and below bit 48 where the adaptive
    /// controller's replan sub-namespaces live (`REPLAN_NS_OFFSET`).
    fn namespace(tenant: TenantId, seq: u64) -> u64 {
        ((tenant.0 as u64 + 1) << 32) | ((seq & 0xFFFF_FFFF) + 1)
    }

    fn tenant_incr(&self, tenant_name: &str, counter: &str) {
        self.metrics
            .add(&format!("svc.tenant.{tenant_name}.{counter}"), 1);
    }

    /// Count an admission failure in the global and per-tenant registries
    /// and pass the error through.
    fn count_admission_error(&self, tenant_name: &str, e: ServiceError) -> ServiceError {
        let counter = match &e {
            ServiceError::Rejected { .. } => "rejected",
            ServiceError::QuotaExceeded { .. } => "quota_rejected",
            ServiceError::TimedOut { .. } => "timed_out",
            ServiceError::Exec(_) => "failed",
        };
        self.metrics.add(&format!("svc.{counter}"), 1);
        self.tenant_incr(tenant_name, counter);
        e
    }

    /// Submit a query as the `default` tenant and block until it
    /// completes (or is rejected or times out). Safe to call from any
    /// number of client threads.
    pub fn submit(&self, req: &QueryRequest) -> Result<QueryResponse, ServiceError> {
        self.submit_as(TenantId::DEFAULT, req)
    }

    /// Submit a query as `tenant` and block until it completes (or is
    /// rejected, over quota, or timed out).
    pub fn submit_as(
        &self,
        tenant: TenantId,
        req: &QueryRequest,
    ) -> Result<QueryResponse, ServiceError> {
        let start = Instant::now();
        let tenant_name = self.sched.tenant_name(tenant.0);
        self.metrics.add("svc.submitted", 1);
        self.tenant_incr(&tenant_name, "submitted");

        // Serve identical queries straight from the result cache — no
        // admission slot is consumed, no execution happens.
        if let Some(hit) = self.results.get(&req.query) {
            let latency = start.elapsed();
            // Hits land in the total-latency histogram only: the queue
            // histogram describes executions, and recording zeros here
            // would dilute its quantiles.
            self.latency_us.record(latency.as_micros() as u64);
            self.tenant_latency_us
                .record(&tenant_name, latency.as_micros() as u64);
            self.metrics.add("svc.completed", 1);
            self.tenant_incr(&tenant_name, "completed");
            return Ok(QueryResponse {
                result: hit.result,
                algorithm: hit.algorithm,
                from_cache: true,
                estimated_cost: None,
                queue_wait: Duration::ZERO,
                exec_time: Duration::ZERO,
                latency,
                summary: None,
                snapshot: None,
            });
        }

        // Estimate cost and pick the algorithm (advisor unless forced).
        // The advisor sees the memory share this query will actually get —
        // a bounded pool is split evenly across the in-flight bound, then
        // across the JEN workers — so a tight budget steers the advice
        // toward plans that spill less. A sampling failure here is a
        // *failure* like any other pre-result error: counted, so the
        // submitted = completed + rejected + quota + timed_out + failed
        // conservation law holds on every path.
        let (algorithm, estimated_cost, est) = {
            let sys = self.root.read();
            let stats = match sample_stats(&sys, &req.query, self.cfg.sample_blocks) {
                Ok(s) => s,
                Err(e) => {
                    drop(sys);
                    return Err(self.count_admission_error(&tenant_name, ServiceError::Exec(e)));
                }
            };
            let mem_pw = sys.mem_pool.total().map(|t| {
                t / self.cfg.max_in_flight.max(1) as u64 / sys.config.jen_workers.max(1) as u64
            });
            let est = stats.to_estimates(&req.query, sys.config.jen_workers, mem_pw);
            drop(sys);
            let algorithm = req.algorithm.unwrap_or_else(|| advise(&est));
            let cost = predicted_cost(&est, algorithm).map(|c| c.total_s);
            (algorithm, cost, est)
        };

        // Admission: blocks until a slot is granted, a queue bound trips,
        // or the timeout (or the request's tighter deadline) expires.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let queue_wait = match self.sched.admit(
            tenant.0,
            seq,
            estimated_cost.unwrap_or(f64::MAX),
            req.deadline,
        ) {
            Ok(_) => start.elapsed(),
            Err(e) => return Err(self.count_admission_error(&tenant_name, e)),
        };

        let generations = self.results.generations(&req.query);
        let exec_start = Instant::now();
        let run_result = self.execute(tenant, seq, |session| {
            // With `replan_threshold` set, the session run goes through
            // the adaptive controller armed with the same sampled
            // estimates the scheduler priced the query with — one
            // admission slot and one memory grant cover the whole
            // attempt, mid-query restart included. Threshold unset is
            // plain `run`, byte for byte.
            if session.config.replan_threshold.is_some() {
                run_adaptive(session, &req.query, algorithm, &est)
            } else {
                run(session, &req.query, algorithm)
            }
        });
        let out = match run_result {
            Ok(out) => out,
            Err(e) => {
                self.metrics.add("svc.failed", 1);
                self.tenant_incr(&tenant_name, "failed");
                return Err(ServiceError::Exec(e));
            }
        };

        // Mirror the session's adaptive-execution counters to the root
        // registry (summed across queries), so fleet-level reports see the
        // replan activity without walking per-query snapshots. The
        // est-error gauges accumulate; divide by executions for a mean.
        for (session_name, root_name) in [
            ("advisor.replans", "svc.replans"),
            ("advisor.replan_considered", "svc.replan_considered"),
            ("advisor.est_error_x1000.scan", "svc.est_error_x1000.scan"),
            ("advisor.est_error_x1000.bloom", "svc.est_error_x1000.bloom"),
            (
                "advisor.est_error_x1000.shuffle",
                "svc.est_error_x1000.shuffle",
            ),
        ] {
            if let Some(&v) = out.snapshot.get(session_name) {
                self.metrics.add(root_name, v);
            }
        }

        let exec_time = exec_start.elapsed();
        let latency = start.elapsed();
        let result = Arc::new(out.result);
        self.results.insert(
            &req.query,
            CachedResult {
                result: Arc::clone(&result),
                algorithm,
            },
            generations,
        );
        self.record_latencies(&tenant_name, latency, queue_wait);
        self.metrics.add("svc.completed", 1);
        self.tenant_incr(&tenant_name, "completed");
        Ok(QueryResponse {
            result,
            algorithm,
            from_cache: false,
            estimated_cost,
            queue_wait,
            exec_time,
            latency,
            summary: Some(out.summary),
            snapshot: Some(out.snapshot),
        })
    }

    /// Submit a star query as `tenant`. Star results are not cached (the
    /// result cache is keyed on two-table fingerprints) and the scheduler
    /// prices them at the maximum — the multiway advisor samples and
    /// plans inside the execution slot.
    pub fn submit_star_as(
        &self,
        tenant: TenantId,
        req: &StarRequest,
    ) -> Result<StarResponse, ServiceError> {
        let start = Instant::now();
        let tenant_name = self.sched.tenant_name(tenant.0);
        self.metrics.add("svc.submitted", 1);
        self.tenant_incr(&tenant_name, "submitted");

        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let queue_wait = match self.sched.admit(tenant.0, seq, f64::MAX, req.deadline) {
            Ok(_) => start.elapsed(),
            Err(e) => return Err(self.count_admission_error(&tenant_name, e)),
        };

        let exec_start = Instant::now();
        let run_result = self.execute(tenant, seq, |session| {
            run_star(session, &req.star, req.planner)
        });
        let out = match run_result {
            Ok(out) => out,
            Err(e) => {
                self.metrics.add("svc.failed", 1);
                self.tenant_incr(&tenant_name, "failed");
                return Err(ServiceError::Exec(e));
            }
        };

        let exec_time = exec_start.elapsed();
        let latency = start.elapsed();
        let ran_hypercube = out
            .snapshot
            .get("advisor.multiway.ran_hypercube")
            .copied()
            .unwrap_or(0)
            == 1;
        self.record_latencies(&tenant_name, latency, queue_wait);
        self.metrics.add("svc.completed", 1);
        self.tenant_incr(&tenant_name, "completed");
        Ok(StarResponse {
            result: Arc::new(out.result),
            ran_hypercube,
            queue_wait,
            exec_time,
            latency,
            summary: Some(out.summary),
            snapshot: Some(out.snapshot),
        })
    }

    fn record_latencies(&self, tenant_name: &str, latency: Duration, queue_wait: Duration) {
        self.latency_us.record(latency.as_micros() as u64);
        self.queue_us.record(queue_wait.as_micros() as u64);
        self.tenant_latency_us
            .record(tenant_name, latency.as_micros() as u64);
        self.tenant_queue_us
            .record(tenant_name, queue_wait.as_micros() as u64);
    }

    /// Run `body` on a private session while holding an already-granted
    /// admission slot, with the memory-governor reservation and the
    /// retryable-failure loop. Whatever happens — success, typed failure,
    /// retry exhaustion — the session namespace is closed, the memory
    /// grant is returned *before* the slot (a successor admitted by
    /// `release()` reserves immediately; with at most `max_in_flight`
    /// slot-holders each holding at most one `total / max_in_flight`
    /// share, this order guarantees its share is already free), and the
    /// slot is released. Callers therefore can never leak admission state,
    /// whichever error path they take.
    fn execute<F>(
        &self,
        tenant: TenantId,
        seq: u64,
        mut body: F,
    ) -> Result<hybrid_core::stats::RunOutput, HybridError>
    where
        F: FnMut(&mut HybridSystem) -> Result<hybrid_core::stats::RunOutput, HybridError>,
    {
        // Memory admission: each admitted query reserves an even share of
        // the governor's pool for its whole lifetime (retries included).
        // Shares are `total / max_in_flight`, so the scheduler's in-flight
        // bound guarantees the reservations can never over-commit the
        // pool; the denial path still exists (typed
        // [`HybridError::MemoryExceeded`], deliberately *not* retryable —
        // the same reservation would be denied identically) and releases
        // the admission slot. An unbounded pool grants nothing and leaves
        // the session's joins uncapped, exactly as before the governor.
        let mem_grant = {
            let pool = self.root.read().mem_pool.clone();
            match pool.total() {
                Some(total) => {
                    let share = (total / self.cfg.max_in_flight.max(1) as u64).max(1);
                    match pool.reserve(share, &format!("svc-q{seq}")) {
                        Ok(grant) => Some(grant),
                        Err(e) => {
                            self.sched.release(tenant.0);
                            return Err(e);
                        }
                    }
                }
                None => None,
            }
        };

        // Execute on a private session. The root lock is held only while
        // the session is created (a handful of Arc bumps); execution runs
        // entirely on session-owned state. Retries keep the admission
        // slot (the scheduling cost was already paid; re-queueing a retry
        // behind new arrivals would only stretch its latency) but take a
        // fresh sequence number and therefore a fresh fabric namespace:
        // chaos fault decisions are keyed on the namespace, so a retry
        // rolls new per-delivery outcomes instead of deterministically
        // replaying the failure.
        let mut session_seq = seq;
        let mut attempt = 0u32;
        let run_result = loop {
            let result = (|| {
                let mut session = self
                    .root
                    .read()
                    .session(Self::namespace(tenant, session_seq))?;
                // every attempt joins under this query's memory grant
                session.query_budget = mem_grant.clone();
                let out = body(&mut session);
                session.close_session();
                out
            })();
            match result {
                Err(e) if attempt < self.cfg.query_retries && retryable(&e) => {
                    attempt += 1;
                    self.metrics.add("svc.retries", 1);
                    session_seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                }
                other => break other,
            }
        };
        // Hand the memory reservation back *before* the admission slot —
        // see the doc comment for why this order can never deny a
        // successor's reservation.
        drop(mem_grant);
        self.sched.release(tenant.0);
        run_result
    }

    /// Load (or rewrite) a database table through the service: takes the
    /// writer lock, invalidates cached Bloom filters (inside the system)
    /// and cached results over the table.
    pub fn load_db_table(
        &self,
        name: &str,
        dist_col: usize,
        data: Batch,
    ) -> Result<(), HybridError> {
        self.root.write().load_db_table(name, dist_col, data)?;
        self.results.invalidate_table(name);
        Ok(())
    }

    /// Build a covering index on a database table.
    pub fn create_db_index(&self, table: &str, base_cols: &[usize]) -> Result<(), HybridError> {
        self.root.write().create_db_index(table, base_cols)
    }

    /// Load (or rewrite) an HDFS table through the service, invalidating
    /// cached results over it. (`BF_DB` entries only depend on database
    /// tables and survive.)
    pub fn load_hdfs_table(
        &self,
        name: &str,
        format: hybrid_storage::FileFormat,
        schema: Schema,
        data: &Batch,
    ) -> Result<(), HybridError> {
        self.root
            .write()
            .load_hdfs_table(name, format, schema, data)?;
        self.results.invalidate_table(name);
        Ok(())
    }
}
