//! The concurrent query service: a multi-tenant layer over one shared
//! [`HybridSystem`].
//!
//! The paper's engine executes one hybrid join at a time; a warehouse
//! serving real traffic runs many concurrently, for many tenants. This
//! crate adds the serving layer without touching the join algorithms:
//!
//! * **One submission path**: [`QueryService::submit_as`] serves both
//!   query shapes of [`QueryBody`] — a two-table hybrid join or a star
//!   join. Planning (cache lookup, sampling, advice) and running are the
//!   only shape-specific steps; admission, accounting, latency and error
//!   mapping are shared.
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
//!   the system, `svc.cache.bloom.*`) and final binary results
//!   ([`ResultCache`], `svc.cache.result.*`), both LRU-bounded and
//!   invalidated when a table is rewritten through the service's load
//!   methods.
//! * **The ledger**: each submission is one ledger entry, which counts
//!   `svc.submitted` and exactly one terminal outcome (an entry dropped
//!   without one counts as `failed`), globally and per tenant, plus the
//!   lock-free latency [`Histogram`]s. So `submitted = completed +
//!   rejected + quota_rejected + timed_out + failed` by construction.
//! * **`quiesce` + `audit`**: [`QueryService::quiesce`] waits for no open
//!   entry and empty admission; [`QueryService::audit`] then names every
//!   admission, memory-pool or conservation violation. Soaks and suites
//!   call these instead of their own copies of the checks.
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
pub use tenant::{TenantId, TenantQuota};

use hybrid_common::batch::Batch;
use hybrid_common::error::HybridError;
use hybrid_common::metrics::{CounterId, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
use hybrid_common::schema::Schema;
use hybrid_core::advisor::{advise, predicted_cost};
use hybrid_core::stats::{JoinSummary, RunOutput};
use hybrid_core::{
    run, run_adaptive, run_star, sample_stats, HybridQuery, HybridSystem, JoinAlgorithm,
    MultiwayPlanner, QueryEstimates, StarQuery,
};
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// Planning or execution failed.
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

/// What a submission asks for. The wire protocol carries this same enum
/// (`hybrid_server` re-exports it).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    /// A two-table hybrid join; `algorithm: None` lets the advisor pick.
    Binary {
        query: HybridQuery,
        algorithm: Option<JoinAlgorithm>,
    },
    /// A star-schema multiway join; `Auto` lets the multiway advisor price
    /// cascade against hypercube from sampled estimates.
    Star {
        star: StarQuery,
        planner: MultiwayPlanner,
    },
}

/// One query submission.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    pub body: QueryBody,
    /// Cap this query's queue wait below the service timeout. Carried on
    /// the wire so over-SLO queries can be cut loose early (and, later,
    /// answered approximately).
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    /// A binary query the advisor plans.
    pub fn new(query: HybridQuery) -> QueryRequest {
        QueryRequest {
            body: QueryBody::Binary {
                query,
                algorithm: None,
            },
            deadline: None,
        }
    }

    /// A binary query forced onto `algorithm`.
    pub fn with_algorithm(query: HybridQuery, algorithm: JoinAlgorithm) -> QueryRequest {
        QueryRequest {
            body: QueryBody::Binary {
                query,
                algorithm: Some(algorithm),
            },
            deadline: None,
        }
    }
}

/// The plan a query ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPlan {
    Binary(JoinAlgorithm),
    /// The star plan family that executed: `Cascade` or `Hypercube`,
    /// never `Auto`.
    Star(MultiwayPlanner),
}

impl QueryPlan {
    /// The algorithm name for a binary plan, `cascade` / `hypercube` for a
    /// star — what the front door's result header carries.
    pub fn name(self) -> &'static str {
        match self {
            QueryPlan::Binary(algorithm) => algorithm.name(),
            QueryPlan::Star(planner) => planner.name(),
        }
    }
}

/// A completed query with its latency accounting.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Final `(group, agg…)` batch, sorted by group key.
    pub result: Arc<Batch>,
    /// The plan that produced the result (for a cache hit: the one that
    /// produced the cached entry).
    pub plan: QueryPlan,
    /// Served from the result cache — no execution happened.
    pub from_cache: bool,
    /// The cost model's estimate for a binary plan in seconds, at the
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

/// The terminal outcomes, in the order of [`Book::outcomes`].
const OUTCOMES: [&str; 5] = [
    "completed",
    "rejected",
    "quota_rejected",
    "timed_out",
    "failed",
];

#[derive(Debug, Clone, Copy)]
enum Outcome {
    Completed,
    Rejected,
    QuotaRejected,
    TimedOut,
    Failed,
}

impl Outcome {
    fn of(res: &Result<QueryResponse, ServiceError>) -> Outcome {
        match res {
            Ok(_) => Outcome::Completed,
            Err(ServiceError::Rejected { .. }) => Outcome::Rejected,
            Err(ServiceError::QuotaExceeded { .. }) => Outcome::QuotaRejected,
            Err(ServiceError::TimedOut { .. }) => Outcome::TimedOut,
            Err(ServiceError::Exec(_)) => Outcome::Failed,
        }
    }
}

/// One scope's ledger counters (interned once, so a submission never
/// formats a name) and latency histograms: the global scope under `svc.*`,
/// each tenant under `svc.tenant.<name>.*`.
struct Book {
    submitted: CounterId,
    outcomes: [CounterId; 5],
    latency_us: Histogram,
    queue_us: Histogram,
}

impl Book {
    fn new(metrics: &Metrics, prefix: &str) -> Book {
        Book {
            submitted: metrics.register(&format!("{prefix}.submitted")),
            outcomes: OUTCOMES.map(|o| metrics.register(&format!("{prefix}.{o}"))),
            latency_us: Histogram::new(),
            queue_us: Histogram::new(),
        }
    }

    /// The conservation law for this scope, or the violation naming it.
    fn conservation(&self, metrics: &Metrics, scope: &str) -> Option<String> {
        let submitted = metrics.get_id(self.submitted);
        let parts = self.outcomes.map(|id| metrics.get_id(id));
        (submitted != parts.iter().sum::<u64>()).then(|| {
            format!(
                "{scope} accounting leak: submitted {submitted} != completed {} + rejected {} + \
                 quota {} + timed_out {} + failed {}",
                parts[0], parts[1], parts[2], parts[3], parts[4]
            )
        })
    }
}

/// A registered tenant's name and ledger book.
struct TenantBook {
    name: String,
    book: Book,
}

/// One submission's line in the ledger. Opened by [`QueryService::open`]
/// (which counts `submitted`); dropping it counts its one terminal outcome
/// — `Failed` unless [`Entry::close`] recorded another — and, for a
/// completion, its latencies.
struct Entry<'a> {
    svc: &'a QueryService,
    tenant: Arc<TenantBook>,
    start: Instant,
    outcome: Outcome,
    /// Total latency, and queue wait for executions (hits bypass
    /// admission, and zeros would dilute the queue quantiles).
    latency: Option<(Duration, Option<Duration>)>,
}

impl Entry<'_> {
    fn close(mut self, res: &Result<QueryResponse, ServiceError>) {
        self.outcome = Outcome::of(res);
        if let Ok(r) = res {
            self.latency = Some((r.latency, (!r.from_cache).then_some(r.queue_wait)));
        }
    }
}

impl Drop for Entry<'_> {
    fn drop(&mut self) {
        let m = &self.svc.metrics;
        for book in [&self.svc.global, &self.tenant.book] {
            m.incr_id(book.outcomes[self.outcome as usize]);
            if let Some((latency, queue_wait)) = self.latency {
                book.latency_us.record(latency.as_micros() as u64);
                if let Some(q) = queue_wait {
                    book.queue_us.record(q.as_micros() as u64);
                }
            }
        }
        self.svc.open_entries.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What planning decided, borrowed from the request.
enum Planned<'r> {
    Binary {
        query: &'r HybridQuery,
        algorithm: JoinAlgorithm,
        est: QueryEstimates,
    },
    Star {
        star: &'r StarQuery,
        planner: MultiwayPlanner,
    },
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
    global: Book,
    /// Indexed by tenant index, in step with the scheduler's tenant table.
    tenants: RwLock<Vec<Arc<TenantBook>>>,
    /// Ledger entries opened and not yet dropped.
    open_entries: AtomicUsize,
}

impl QueryService {
    /// Wrap `system` in a service. Loaded tables carry over; the Bloom
    /// cache is enabled on the system per `cfg`. The `default` tenant
    /// ([`TenantId::DEFAULT`], unlimited quota) is pre-registered.
    pub fn new(mut system: HybridSystem, cfg: ServiceConfig) -> QueryService {
        system.enable_bloom_cache(cfg.bloom_cache_capacity);
        let metrics = system.metrics.clone();
        for name in ["svc.retries", "svc.replans", "svc.replan_considered"] {
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
            global: Book::new(&metrics, "svc"),
            tenants: RwLock::new(Vec::new()),
            metrics,
            results,
            sched,
            next_seq: AtomicU64::new(0),
            open_entries: AtomicUsize::new(0),
        };
        svc.register_tenant("default", TenantQuota::unlimited());
        svc
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Register (or re-quota) a tenant by name; idempotent on the name.
    /// The returned [`TenantId`] is what [`QueryService::submit_as`] and
    /// the framed-TCP front end authenticate connections onto.
    pub fn register_tenant(&self, name: &str, quota: TenantQuota) -> TenantId {
        // the write lock keeps the book table in step with the scheduler's
        let mut tenants = self.tenants.write();
        let id = self.sched.add_tenant(name, quota);
        if id == tenants.len() {
            tenants.push(Arc::new(TenantBook {
                name: name.to_string(),
                book: Book::new(&self.metrics, &format!("svc.tenant.{name}")),
            }));
        }
        TenantId(id)
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

    /// Total submission→result latency distribution, in microseconds.
    /// Every completion — cache hits included — lands here.
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        self.global.latency_us.snapshot()
    }

    /// Per-tenant submission→result latency snapshots, keyed by tenant
    /// name.
    pub fn tenant_latency_histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.tenant_histograms(|b| &b.latency_us)
    }

    /// Per-tenant submission→admission wait snapshots of *executions*,
    /// keyed by tenant name. Cache hits bypass admission and are not
    /// recorded.
    pub fn tenant_queue_histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.tenant_histograms(|b| &b.queue_us)
    }

    fn tenant_histograms(
        &self,
        pick: impl Fn(&Book) -> &Histogram,
    ) -> BTreeMap<String, HistogramSnapshot> {
        self.tenants
            .read()
            .iter()
            .map(|t| (t.name.clone(), pick(&t.book).snapshot()))
            .collect()
    }

    /// Wait until no ledger entry is open and admission is empty, or until
    /// `timeout` passes. Returns whether the service went quiet. A query
    /// frame that no server handler has read yet is not in the ledger:
    /// front-door callers shut the server down first.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.open_entries.load(Ordering::SeqCst) == 0 && self.sched.load() == (0, 0) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Every violated service invariant, one line each (empty when
    /// clean): open ledger entries, admission residue (global and per
    /// tenant), memory-pool reservations or resident bytes, and the
    /// conservation law `submitted = completed + rejected +
    /// quota_rejected + timed_out + failed`, globally and per tenant.
    /// Meaningful after [`QueryService::quiesce`].
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let open = self.open_entries.load(Ordering::SeqCst);
        if open != 0 {
            violations.push(format!("{open} ledger entries still open"));
        }
        let (in_flight, queued) = self.sched.load();
        if in_flight != 0 || queued != 0 {
            violations.push(format!(
                "global admission residue: {in_flight} in flight, {queued} queued"
            ));
        }
        let pool = self.root.read().mem_pool.clone();
        let (reserved, used) = (pool.reserved(), pool.used());
        if reserved != 0 || used != 0 {
            violations.push(format!(
                "memory governor residue: {reserved} bytes reserved, {used} bytes resident"
            ));
        }
        violations.extend(self.global.conservation(&self.metrics, "global"));
        for (i, t) in self.tenants.read().iter().enumerate() {
            let (in_flight, queued) = self.sched.tenant_load(i);
            if in_flight != 0 || queued != 0 {
                violations.push(format!(
                    "tenant {} residue: {in_flight} in flight, {queued} queued",
                    t.name
                ));
            }
            violations.extend(
                t.book
                    .conservation(&self.metrics, &format!("tenant {}", t.name)),
            );
        }
        violations
    }

    /// The fabric namespace for attempt `seq` of a `tenant` query: the
    /// tenant index (plus one — namespace 0 is the root) in bits 32..47,
    /// the submission sequence (plus one) in the low 32. Disjoint across
    /// tenants, unique per attempt, and below bit 48 where the adaptive
    /// controller's replan sub-namespaces live (`REPLAN_NS_OFFSET`).
    fn namespace(tenant: TenantId, seq: u64) -> u64 {
        ((tenant.0 as u64 + 1) << 32) | ((seq & 0xFFFF_FFFF) + 1)
    }

    /// Open `tenant`'s ledger entry for one submission: counts
    /// `svc.submitted` globally and for the tenant.
    fn open(&self, tenant: TenantId) -> Entry<'_> {
        let tenant = Arc::clone(&self.tenants.read()[tenant.0]);
        self.open_entries.fetch_add(1, Ordering::SeqCst);
        self.metrics.incr_id(self.global.submitted);
        self.metrics.incr_id(tenant.book.submitted);
        Entry {
            svc: self,
            tenant,
            start: Instant::now(),
            outcome: Outcome::Failed,
            latency: None,
        }
    }

    /// Submit a query as the `default` tenant and block until it
    /// completes (or is rejected or times out). Safe to call from any
    /// number of client threads.
    pub fn submit(&self, req: &QueryRequest) -> Result<QueryResponse, ServiceError> {
        self.submit_as(TenantId::DEFAULT, req)
    }

    /// Submit a query of either shape as `tenant` and block until it
    /// completes (or is rejected, over quota, or timed out). Its ledger
    /// entry records exactly one terminal outcome.
    ///
    /// Star results are not cached: the result cache is keyed on
    /// two-table fingerprints. Stars are also admitted at the maximum
    /// cost, because the multiway advisor samples and plans inside the
    /// execution slot.
    pub fn submit_as(
        &self,
        tenant: TenantId,
        req: &QueryRequest,
    ) -> Result<QueryResponse, ServiceError> {
        let entry = self.open(tenant);
        let res = self.serve(tenant, entry.start, req);
        entry.close(&res);
        res
    }

    fn serve(
        &self,
        tenant: TenantId,
        start: Instant,
        req: &QueryRequest,
    ) -> Result<QueryResponse, ServiceError> {
        // Plan. A binary query is served straight from the result cache
        // when it can be — no admission slot, no execution. Otherwise it
        // is sampled, and the advisor picks its algorithm unless the
        // request forces one; the advisor sees the memory share this query
        // will actually get — a bounded pool is split evenly across the
        // in-flight bound, then across the JEN workers — so a tight budget
        // steers the advice toward plans that spill less.
        let (planned, estimated_cost) = match &req.body {
            QueryBody::Binary { query, algorithm } => {
                if let Some(hit) = self.results.get(query) {
                    return Ok(QueryResponse {
                        result: hit.result,
                        plan: QueryPlan::Binary(hit.algorithm),
                        from_cache: true,
                        estimated_cost: None,
                        queue_wait: Duration::ZERO,
                        exec_time: Duration::ZERO,
                        latency: start.elapsed(),
                        summary: None,
                        snapshot: None,
                    });
                }
                let sys = self.root.read();
                let stats = sample_stats(&sys, query, self.cfg.sample_blocks)?;
                let mem_pw = sys.mem_pool.total().map(|t| {
                    t / self.cfg.max_in_flight.max(1) as u64 / sys.config.jen_workers.max(1) as u64
                });
                let est = stats.to_estimates(query, sys.config.jen_workers, mem_pw);
                drop(sys);
                let algorithm = algorithm.unwrap_or_else(|| advise(&est));
                let cost = predicted_cost(&est, algorithm).map(|c| c.total_s);
                (
                    Planned::Binary {
                        query,
                        algorithm,
                        est,
                    },
                    cost,
                )
            }
            QueryBody::Star { star, planner } => (
                Planned::Star {
                    star,
                    planner: *planner,
                },
                None,
            ),
        };

        // Admission: blocks until a slot is granted, a queue bound trips,
        // or the timeout (or the request's tighter deadline) expires.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.sched.admit(
            tenant.0,
            seq,
            estimated_cost.unwrap_or(f64::MAX),
            req.deadline,
        )?;
        let queue_wait = start.elapsed();

        // Run. A binary result is cached under the table generations
        // snapshotted before execution reads any data.
        let exec_start = Instant::now();
        let (result, summary, snapshot, plan) = match planned {
            Planned::Binary {
                query,
                algorithm,
                est,
            } => {
                let generations = self.results.generations(query);
                let out = self.execute(tenant, seq, |session| {
                    // With `replan_threshold` set, the session run goes
                    // through the adaptive controller armed with the same
                    // sampled estimates the scheduler priced the query
                    // with — one admission slot and one memory grant cover
                    // the whole attempt, mid-query restart included.
                    // Threshold unset is plain `run`, byte for byte.
                    if session.config.replan_threshold.is_some() {
                        run_adaptive(session, query, algorithm, &est)
                    } else {
                        run(session, query, algorithm)
                    }
                })?;
                let result = Arc::new(out.result);
                self.results.insert(
                    query,
                    CachedResult {
                        result: Arc::clone(&result),
                        algorithm,
                    },
                    generations,
                );
                (
                    result,
                    out.summary,
                    out.snapshot,
                    QueryPlan::Binary(algorithm),
                )
            }
            Planned::Star { star, planner } => {
                let out = self.execute(tenant, seq, |session| run_star(session, star, planner))?;
                let ran = if out.snapshot.get("advisor.multiway.ran_hypercube") == Some(&1) {
                    MultiwayPlanner::Hypercube
                } else {
                    MultiwayPlanner::Cascade
                };
                (
                    Arc::new(out.result),
                    out.summary,
                    out.snapshot,
                    QueryPlan::Star(ran),
                )
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
            if let Some(&v) = snapshot.get(session_name) {
                self.metrics.add(root_name, v);
            }
        }

        Ok(QueryResponse {
            result,
            plan,
            from_cache: false,
            estimated_cost,
            queue_wait,
            exec_time: exec_start.elapsed(),
            latency: start.elapsed(),
            summary: Some(summary),
            snapshot: Some(snapshot),
        })
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
    fn execute<F>(&self, tenant: TenantId, seq: u64, mut body: F) -> Result<RunOutput, HybridError>
    where
        F: FnMut(&mut HybridSystem) -> Result<RunOutput, HybridError>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_core::SystemConfig;
    use hybrid_datagen::{Workload, WorkloadSpec};
    use hybrid_storage::FileFormat;

    fn star_service() -> (QueryService, Workload) {
        let w = WorkloadSpec::tiny_star(2).generate().unwrap();
        let mut cfg = SystemConfig::paper_shape(2, 3);
        cfg.rows_per_block = 1000;
        let mut sys = HybridSystem::new(cfg).unwrap();
        w.load_into(&mut sys, FileFormat::Columnar).unwrap();
        (QueryService::new(sys, ServiceConfig::default()), w)
    }

    fn star_request(star: StarQuery) -> QueryRequest {
        let planner = MultiwayPlanner::Auto;
        let body = QueryBody::Star { star, planner };
        QueryRequest {
            body,
            deadline: None,
        }
    }

    /// The ledger is closed and clean; with it, `submitted` equal to one
    /// terminal counter means every submission landed on that one.
    fn assert_clean(svc: &QueryService) {
        assert!(svc.quiesce(Duration::from_secs(5)));
        assert_eq!(svc.audit(), Vec::<String>::new());
    }

    #[test]
    fn an_entry_dropped_without_an_outcome_counts_once_as_failed() {
        let sys = HybridSystem::new(SystemConfig::paper_shape(1, 1)).unwrap();
        let svc = QueryService::new(sys, ServiceConfig::default());
        let entry = svc.open(TenantId::DEFAULT);
        assert!(!svc.quiesce(Duration::from_millis(20)), "entry is open");
        drop(entry);
        assert_clean(&svc);
        let m = svc.metrics();
        assert_eq!((m.get("svc.submitted"), m.get("svc.failed")), (1, 1));
        assert_eq!(m.get("svc.tenant.default.failed"), 1);
    }

    #[test]
    fn a_star_over_a_missing_dimension_fails_in_execution() {
        let (svc, w) = star_service();
        let mut star = w.star_query();
        star.dims[1].table = "no_such_dimension".into();
        let res = svc.submit(&star_request(star));
        assert!(matches!(res, Err(ServiceError::Exec(_))), "{res:?}");
        assert_clean(&svc);
        let m = svc.metrics();
        assert_eq!((m.get("svc.submitted"), m.get("svc.failed")), (1, 1));

        // the same service still runs a well-formed star to completion
        let resp = svc.submit(&star_request(w.star_query())).unwrap();
        assert!(matches!(resp.plan, QueryPlan::Star(p) if p != MultiwayPlanner::Auto));
        assert!(!resp.from_cache && resp.estimated_cost.is_none());
        assert_clean(&svc);
        assert_eq!((m.get("svc.submitted"), m.get("svc.completed")), (2, 1));
    }

    #[test]
    fn a_star_over_a_full_tenant_quota_is_quota_exceeded() {
        let (svc, w) = star_service();
        let quota = TenantQuota {
            weight: 1,
            max_in_flight: 1,
            max_queued: 0,
        };
        let tenant = svc.register_tenant("capped", quota);
        // hold the tenant's only slot outside the ledger
        svc.sched.admit(tenant.0, u64::MAX, 1.0, None).unwrap();
        let res = svc.submit_as(tenant, &star_request(w.star_query()));
        assert!(matches!(&res, Err(e @ ServiceError::QuotaExceeded { .. }) if e.retryable()));
        svc.sched.release(tenant.0);
        assert_clean(&svc);
        let m = svc.metrics();
        assert_eq!(
            (m.get("svc.submitted"), m.get("svc.quota_rejected")),
            (1, 1)
        );
        assert_eq!(m.get("svc.tenant.capped.quota_rejected"), 1);
    }
}
