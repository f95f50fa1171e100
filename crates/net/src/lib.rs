//! The instrumented communication fabric between DB2 workers and JEN
//! workers.
//!
//! The paper's implementation connects every pair of cooperating workers
//! with TCP/IP sockets (§4.1) and its conclusions hinge on *how many bytes
//! cross which link*: the 1 GbE intra-HDFS network, the DB's internal
//! interconnect, and the 20 Gbit inter-cluster switch. This crate provides
//! the simulated equivalent:
//!
//! * [`Endpoint`] — addresses for DB workers, JEN workers, and the JEN
//!   coordinator;
//! * [`LinkClass`] — the three link categories ([`LinkClass::IntraDb`],
//!   [`LinkClass::IntraHdfs`], [`LinkClass::Cross`]), derived from the two
//!   endpoints of a transfer;
//! * [`Fabric`] — per-endpoint inboxes over crossbeam channels. Every
//!   [`Fabric::send`] meters bytes, messages and tuples on its link class
//!   (plus direction for cross-cluster traffic), feeding both Table 1 and
//!   the cost model;
//! * failure injection: [`Fabric::disconnect`] makes an endpoint
//!   unreachable, letting tests verify clean error propagation when a JEN
//!   worker dies mid-shuffle.
//!
//! Message payloads are generic: anything implementing [`Wire`] (a byte/tuple
//! size report) can travel, so the engines define their own message enums
//! without this crate depending on them.

pub mod fault;
pub mod message;

pub use fault::{FaultPlan, FaultSpec, FaultTarget, RetryPolicy, Straggler, WorkerKill};
pub use message::{Message, StreamTag};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use hybrid_common::error::{HybridError, Result};
use hybrid_common::ids::{DbWorkerId, JenWorkerId};
use hybrid_common::metrics::{CounterId, Metrics};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// An addressable party on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// A shared-nothing database worker (DB2 DPF agent).
    Db(DbWorkerId),
    /// A JEN worker (one per HDFS DataNode).
    Jen(JenWorkerId),
    /// The JEN coordinator (runs on the NameNode in the paper's setup).
    JenCoordinator,
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Db(w) => write!(f, "{w}"),
            Endpoint::Jen(w) => write!(f, "{w}"),
            Endpoint::JenCoordinator => write!(f, "jen-coordinator"),
        }
    }
}

/// Which physical network a transfer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Between DB workers (the warehouse's internal interconnect).
    IntraDb,
    /// Between JEN workers / coordinator (the HDFS cluster's 1 GbE).
    IntraHdfs,
    /// Across the inter-cluster switch (20 Gbit in the paper).
    Cross,
}

impl LinkClass {
    /// Classify a transfer by its endpoints. Coordinator traffic inside the
    /// HDFS cluster is intra-HDFS; DB ↔ anything-on-HDFS is cross-cluster.
    pub fn classify(from: Endpoint, to: Endpoint) -> LinkClass {
        use Endpoint::*;
        match (from, to) {
            (Db(_), Db(_)) => LinkClass::IntraDb,
            (Jen(_) | JenCoordinator, Jen(_) | JenCoordinator) => LinkClass::IntraHdfs,
            _ => LinkClass::Cross,
        }
    }

    /// Metric-name prefix for this class.
    pub fn metric_prefix(self) -> &'static str {
        match self {
            LinkClass::IntraDb => "net.intra_db",
            LinkClass::IntraHdfs => "net.intra_hdfs",
            LinkClass::Cross => "net.cross",
        }
    }

    /// All link classes, in `index()` order.
    pub const ALL: [LinkClass; 3] = [LinkClass::IntraDb, LinkClass::IntraHdfs, LinkClass::Cross];

    /// Dense index of this class (for per-class lookup tables).
    pub fn index(self) -> usize {
        match self {
            LinkClass::IntraDb => 0,
            LinkClass::IntraHdfs => 1,
            LinkClass::Cross => 2,
        }
    }
}

/// Pre-registered counter ids for one link class — the always-touched
/// counters of [`Fabric::send`], interned once at fabric construction so
/// the send hot path never formats a metric name or takes the registry's
/// name lock.
#[derive(Clone, Copy)]
struct LinkCounters {
    bytes: CounterId,
    msgs: CounterId,
    tuples: CounterId,
}

impl LinkCounters {
    fn register(metrics: &Metrics, class: LinkClass) -> LinkCounters {
        let prefix = class.metric_prefix();
        LinkCounters {
            bytes: metrics.register(&format!("{prefix}.bytes")),
            msgs: metrics.register(&format!("{prefix}.msgs")),
            tuples: metrics.register(&format!("{prefix}.tuples")),
        }
    }
}

/// Pre-registered per-direction counters for cross-cluster traffic.
#[derive(Clone, Copy)]
struct DirCounters {
    bytes: CounterId,
    tuples: CounterId,
}

impl DirCounters {
    fn register(metrics: &Metrics, dir: &str) -> DirCounters {
        DirCounters {
            bytes: metrics.register(&format!("net.cross.{dir}.bytes")),
            tuples: metrics.register(&format!("net.cross.{dir}.tuples")),
        }
    }
}

/// Anything that can be shipped over the fabric.
///
/// `wire_bytes` should reflect a realistic serialized size (the engines use
/// `Batch::serialized_bytes` and `BloomFilter::wire_bytes`); `wire_tuples`
/// is the row count for data payloads, 0 for control messages. These feed
/// the metrics that reproduce Table 1.
pub trait Wire: Send + 'static {
    fn wire_bytes(&self) -> usize;
    fn wire_tuples(&self) -> u64 {
        0
    }
    /// Short label of the logical stream this message belongs to, used to
    /// break metrics down per stream (e.g. Table 1 counts only the
    /// `hdfs_shuffle` stream, not partial-aggregate traffic).
    fn wire_stream_label(&self) -> Option<&'static str> {
        None
    }
    /// Whether this message is a stream barrier (an end-of-stream marker).
    /// The chaos layer never holds a barrier back for reordering, and
    /// flushes any held delivery on the same edge *before* it — so a
    /// receiver counting barriers can never conclude a stream is complete
    /// while one of its data messages is still held.
    fn wire_is_barrier(&self) -> bool {
        false
    }
    /// Whether swapping this message with the *next* message on the same
    /// `(sender, receiver, stream)` edge preserves correctness. Streams
    /// whose receivers fold arrivals into order-insensitive state (hash
    /// builds, aggregate merges, key sets) opt in; positionally decoded
    /// streams (PERF keys/bitmaps, final result chunks) must not.
    fn wire_reorderable(&self) -> bool {
        false
    }
}

/// An incoming message with its sender.
#[derive(Debug, Clone)]
pub struct Delivery<M> {
    pub from: Endpoint,
    pub msg: M,
    /// Per-`(namespace, sender, receiver, stream)` sequence number, stamped
    /// only when a fault plan is active (0 otherwise). A chaos-duplicated
    /// delivery carries its original's number, so receivers dedup by
    /// `(sender, stream, seq)` instead of re-applying the payload.
    pub seq: u64,
}

/// An endpoint's inbox: the producing and consuming halves of its channel.
type Inbox<M> = (Sender<Delivery<M>>, Receiver<Delivery<M>>);

/// One directed `(namespace, sender, receiver, stream)` edge — the unit
/// the chaos layer sequences deliveries over and holds reordered messages
/// on. Each edge has a single sending worker thread, so its sequence of
/// logical messages is deterministic regardless of thread schedule.
type EdgeKey = (u64, Endpoint, Endpoint, Option<&'static str>);

/// What one [`Fabric::try_send_attempt`] did with the message.
#[derive(Debug)]
pub enum SendAttempt<M> {
    /// Enqueued (and metered). An active fault plan may additionally have
    /// delayed the delivery, retransmitted it, or deferred it one slot —
    /// all invisible to the caller.
    Delivered,
    /// The bounded inbox is full — the message comes back; drain your own
    /// inbox and retry the *same* attempt number.
    Full(M),
    /// The fault plan dropped this attempt. Retry with `attempt + 1`
    /// (backing off per [`RetryPolicy`]) or surface the typed error.
    Dropped(M, HybridError),
}

/// One registry's worth of fabric counters: the metrics handle plus every
/// pre-registered id the send path touches. The root fabric owns one plane;
/// each query namespace adds its own, so concurrent queries meter into
/// isolated registries while the root plane keeps the global totals.
struct MeterPlane {
    metrics: Metrics,
    /// Per-class counters, indexed by `LinkClass::index()`.
    class_counters: [LinkCounters; 3],
    /// Cross-cluster per-direction counters: [db_to_jen, jen_to_db].
    dir_counters: [DirCounters; 2],
    /// Lazily interned per-(class, stream-label) counters. Labels come
    /// from the engines at send time, so they can't be pre-registered
    /// here; the cache makes each (class, label) pay the name-formatting
    /// cost exactly once.
    stream_counters: RwLock<HashMap<(usize, &'static str), DirCounters>>,
}

impl MeterPlane {
    fn new(metrics: Metrics) -> MeterPlane {
        let class_counters = LinkClass::ALL.map(|class| LinkCounters::register(&metrics, class));
        let dir_counters = [
            DirCounters::register(&metrics, "db_to_jen"),
            DirCounters::register(&metrics, "jen_to_db"),
        ];
        MeterPlane {
            metrics,
            class_counters,
            dir_counters,
            stream_counters: RwLock::new(HashMap::new()),
        }
    }

    /// Counter ids for a (link class, stream label) pair, interning the
    /// metric names on first use.
    fn stream_counters(&self, class: LinkClass, label: &'static str) -> DirCounters {
        let key = (class.index(), label);
        if let Some(c) = self.stream_counters.read().get(&key) {
            return *c;
        }
        let prefix = class.metric_prefix();
        let c = DirCounters {
            bytes: self
                .metrics
                .register(&format!("{prefix}.stream.{label}.bytes")),
            tuples: self
                .metrics
                .register(&format!("{prefix}.stream.{label}.tuples")),
        };
        self.stream_counters.write().insert(key, c);
        c
    }

    /// Meter one transfer on this plane's registry.
    fn meter(
        &self,
        from: Endpoint,
        to: Endpoint,
        bytes: u64,
        tuples: u64,
        label: Option<&'static str>,
    ) {
        let class = LinkClass::classify(from, to);
        let m = &self.metrics;
        let counters = self.class_counters[class.index()];
        m.add_id(counters.bytes, bytes);
        m.incr_id(counters.msgs);
        m.add_id(counters.tuples, tuples);
        if let Some(label) = label {
            let sc = self.stream_counters(class, label);
            m.add_id(sc.bytes, bytes);
            m.add_id(sc.tuples, tuples);
        }
        if class == LinkClass::Cross {
            // Direction matters across the switch: "DB tuples sent" in
            // Table 1 is exactly the db_to_jen tuple counter.
            let dir = self.dir_counters[match from {
                Endpoint::Db(_) => 0,
                _ => 1,
            }];
            m.add_id(dir.bytes, bytes);
            m.add_id(dir.tuples, tuples);
        }
    }
}

struct Inner<M> {
    /// Inboxes keyed by (namespace, endpoint). Namespace 0 is the root
    /// fabric created at construction; [`Fabric::namespace`] adds an
    /// identical endpoint set under a fresh namespace id so concurrent
    /// queries on one shared fabric can never receive each other's
    /// messages.
    inboxes: RwLock<HashMap<(u64, Endpoint), Inbox<M>>>,
    /// Endpoint-set shape, so every namespace gets the same topology.
    num_db: usize,
    num_jen: usize,
    /// Per-endpoint inbox bound (messages). `None` = unbounded, the
    /// sequential drivers' mode; parallel drivers run bounded so senders
    /// feel back-pressure instead of buffering a whole phase in memory.
    capacity: Option<usize>,
    /// Failure injection is physical, not per-query: a dead worker is dead
    /// for every namespace.
    disconnected: Mutex<HashSet<Endpoint>>,
    /// The root registry's plane — every transfer in every namespace also
    /// lands here, so global link totals stay exact under concurrency.
    root_plane: Arc<MeterPlane>,
    /// Seeded chaos plan shared by every namespace (the namespace id is
    /// part of every decision hash, so each session rolls fresh faults).
    /// `None` = fault-free: sends take the exact pre-chaos fast path and
    /// deliveries carry `seq` 0.
    faults: Option<FaultPlan>,
    /// Retry budget for [`Fabric::send`]'s internal drop recovery (the
    /// mailbox layer reads its own copy from `SystemConfig`).
    retry: RetryPolicy,
    /// Next sequence number per edge, 1-based. Only touched when `faults`
    /// is set.
    edge_seqs: Mutex<HashMap<EdgeKey, u64>>,
    /// At most one reorder-held delivery per edge, flushed by the edge's
    /// next send (before it if that next message is a barrier, after it
    /// otherwise).
    held: Mutex<HashMap<EdgeKey, Delivery<M>>>,
}

/// The fabric: a metered, all-to-all message network.
///
/// Cloning is cheap (a couple of `Arc`s); one clone is handed to each
/// worker thread. A handle is bound to one namespace: [`Fabric::namespace`]
/// derives a handle whose sends/receives use a private inbox set and whose
/// traffic is metered into a per-query registry *in addition to* the root
/// registry.
pub struct Fabric<M> {
    inner: Arc<Inner<M>>,
    ns: u64,
    /// The per-namespace plane (for the root handle this IS the root
    /// plane, and `extra_plane` is unset so nothing double-counts).
    plane: Arc<MeterPlane>,
    /// Set only on namespaced handles: the root plane, metered second.
    extra_root: bool,
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric {
            inner: Arc::clone(&self.inner),
            ns: self.ns,
            plane: Arc::clone(&self.plane),
            extra_root: self.extra_root,
        }
    }
}

impl<M: Wire> Fabric<M> {
    /// Build a fabric with inboxes for `num_db` DB workers, `num_jen` JEN
    /// workers, and the JEN coordinator. Inboxes are unbounded; see
    /// [`Fabric::with_capacity`] for the back-pressured variant.
    pub fn new(num_db: usize, num_jen: usize, metrics: Metrics) -> Fabric<M> {
        Fabric::with_capacity(num_db, num_jen, metrics, None)
    }

    /// Build a fabric whose per-endpoint inboxes hold at most `capacity`
    /// messages (`None` = unbounded). With a bound, [`Fabric::send`] blocks
    /// while the target inbox is full and [`Fabric::try_send`] hands the
    /// message back — callers that both send and receive (all-to-all
    /// shuffles) must use `try_send` and drain their own inbox while the
    /// target is full, or a cycle of full inboxes deadlocks.
    pub fn with_capacity(
        num_db: usize,
        num_jen: usize,
        metrics: Metrics,
        capacity: Option<usize>,
    ) -> Fabric<M> {
        Fabric::with_options(
            num_db,
            num_jen,
            metrics,
            capacity,
            None,
            RetryPolicy::default(),
        )
    }

    /// [`Fabric::with_capacity`] plus an optional chaos plan and the retry
    /// policy used by [`Fabric::send`]'s drop recovery.
    pub fn with_options(
        num_db: usize,
        num_jen: usize,
        metrics: Metrics,
        capacity: Option<usize>,
        faults: Option<FaultSpec>,
        retry: RetryPolicy,
    ) -> Fabric<M> {
        let mut inboxes = HashMap::with_capacity(num_db + num_jen + 1);
        Self::insert_namespace_inboxes(&mut inboxes, 0, num_db, num_jen, capacity);
        let plane = Arc::new(MeterPlane::new(metrics));
        Fabric {
            inner: Arc::new(Inner {
                inboxes: RwLock::new(inboxes),
                num_db,
                num_jen,
                capacity,
                disconnected: Mutex::new(HashSet::new()),
                root_plane: Arc::clone(&plane),
                faults: faults.map(FaultPlan::new),
                retry,
                edge_seqs: Mutex::new(HashMap::new()),
                held: Mutex::new(HashMap::new()),
            }),
            ns: 0,
            plane,
            extra_root: false,
        }
    }

    fn insert_namespace_inboxes(
        inboxes: &mut HashMap<(u64, Endpoint), Inbox<M>>,
        ns: u64,
        num_db: usize,
        num_jen: usize,
        capacity: Option<usize>,
    ) {
        let channel = || match capacity {
            Some(cap) => bounded(cap),
            None => unbounded(),
        };
        for i in 0..num_db {
            inboxes.insert((ns, Endpoint::Db(DbWorkerId(i))), channel());
        }
        for i in 0..num_jen {
            inboxes.insert((ns, Endpoint::Jen(JenWorkerId(i))), channel());
        }
        inboxes.insert((ns, Endpoint::JenCoordinator), channel());
    }

    /// Derive a handle over the same physical fabric whose inbox set is
    /// private to namespace `ns` and whose traffic is metered into
    /// `metrics` (as well as the root registry, so global totals stay the
    /// sum of all namespaces). Fails if `ns` is 0 (the root) or already in
    /// use. Call [`Fabric::remove_namespace`] when the query finishes.
    pub fn namespace(&self, ns: u64, metrics: Metrics) -> Result<Fabric<M>> {
        if ns == 0 {
            return Err(HybridError::Net("namespace 0 is the root fabric".into()));
        }
        let mut inboxes = self.inner.inboxes.write();
        if inboxes.contains_key(&(ns, Endpoint::JenCoordinator)) {
            return Err(HybridError::Net(format!("fabric namespace {ns} in use")));
        }
        Self::insert_namespace_inboxes(
            &mut inboxes,
            ns,
            self.inner.num_db,
            self.inner.num_jen,
            self.inner.capacity,
        );
        Ok(Fabric {
            inner: Arc::clone(&self.inner),
            ns,
            plane: Arc::new(MeterPlane::new(metrics)),
            extra_root: true,
        })
    }

    /// Derive a handle over a *fresh* inbox namespace that keeps this
    /// handle's metering plane(s). Where [`Fabric::namespace`] opens a new
    /// accounting domain (fresh plane, always double-metered into the
    /// root), a subnamespace is the *same query continuing under a new
    /// stream identity*: traffic is metered exactly as it would be on the
    /// parent handle, so the conservation law (root totals = Σ sessions)
    /// holds across a mid-query restart. The fresh namespace still buys
    /// everything a restart needs — private inboxes (no cross-talk with
    /// the abandoned attempt's in-flight messages), fresh chaos fault
    /// rolls (the namespace is hashed into every decision), and a fresh
    /// dedup space. Call [`Fabric::remove_namespace`] on the returned
    /// handle when the restarted attempt finishes.
    pub fn subnamespace(&self, ns: u64) -> Result<Fabric<M>> {
        if ns == 0 {
            return Err(HybridError::Net("namespace 0 is the root fabric".into()));
        }
        if ns == self.ns {
            return Err(HybridError::Net(
                "a subnamespace must differ from its parent".into(),
            ));
        }
        let mut inboxes = self.inner.inboxes.write();
        if inboxes.contains_key(&(ns, Endpoint::JenCoordinator)) {
            return Err(HybridError::Net(format!("fabric namespace {ns} in use")));
        }
        Self::insert_namespace_inboxes(
            &mut inboxes,
            ns,
            self.inner.num_db,
            self.inner.num_jen,
            self.inner.capacity,
        );
        Ok(Fabric {
            inner: Arc::clone(&self.inner),
            ns,
            plane: Arc::clone(&self.plane),
            extra_root: self.extra_root,
        })
    }

    /// Drop this handle's namespace: its inboxes (and any undelivered
    /// messages in them) disappear from the fabric. No-op on the root.
    pub fn remove_namespace(&self) {
        if self.ns == 0 {
            return;
        }
        let mut inboxes = self.inner.inboxes.write();
        inboxes.retain(|(ns, _), _| *ns != self.ns);
        drop(inboxes);
        self.clear_chaos_state();
    }

    /// Drop this namespace's chaos bookkeeping (held deliveries, edge
    /// sequence counters) so a later run — or a retry in a fresh
    /// namespace reusing the id — starts from a clean, replayable state.
    fn clear_chaos_state(&self) {
        if self.inner.faults.is_none() {
            return;
        }
        self.inner.held.lock().retain(|(ns, ..), _| *ns != self.ns);
        self.inner
            .edge_seqs
            .lock()
            .retain(|(ns, ..), _| *ns != self.ns);
    }

    /// The namespace this handle is bound to (0 = root).
    pub fn ns(&self) -> u64 {
        self.ns
    }

    pub fn metrics(&self) -> &Metrics {
        &self.plane.metrics
    }

    /// The typed error for traffic involving a disconnected endpoint.
    fn disconnected_error(endpoint: Endpoint, stream: Option<&'static str>) -> HybridError {
        HybridError::Disconnected {
            endpoint: endpoint.to_string(),
            stream: stream.map(str::to_string),
        }
    }

    /// Meter `msg` on the link `from → to`. Called once per *successful*
    /// enqueue so retried `try_send`s never double-count.
    fn meter(&self, from: Endpoint, to: Endpoint, msg: &M) {
        self.meter_raw(
            from,
            to,
            msg.wire_bytes() as u64,
            msg.wire_tuples(),
            msg.wire_stream_label(),
        );
    }

    /// [`Fabric::meter`] with the wire accounting pre-extracted, for call
    /// sites where the message has already moved into the channel. Meters
    /// this handle's plane; namespaced handles additionally meter the root
    /// plane, so the root registry's `net.*` totals are always the exact
    /// sum of every namespace's.
    fn meter_raw(
        &self,
        from: Endpoint,
        to: Endpoint,
        bytes: u64,
        tuples: u64,
        label: Option<&'static str>,
    ) {
        self.plane.meter(from, to, bytes, tuples, label);
        if self.extra_root {
            self.inner.root_plane.meter(from, to, bytes, tuples, label);
        }
    }

    /// Sending half of `endpoint`'s inbox in this handle's namespace.
    fn sender(&self, endpoint: Endpoint) -> Result<Sender<Delivery<M>>> {
        self.inner
            .inboxes
            .read()
            .get(&(self.ns, endpoint))
            .map(|(tx, _)| tx.clone())
            .ok_or_else(|| HybridError::Net(format!("unknown endpoint {endpoint}")))
    }

    /// Whether a chaos fault plan is active on this fabric.
    pub fn has_faults(&self) -> bool {
        self.inner.faults.is_some()
    }

    /// The active chaos plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.faults.as_ref()
    }

    /// The retry policy [`Fabric::send`] recovers injected drops with.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.inner.retry
    }

    /// Bump a `net.chaos.*` counter on this handle's plane — and, for
    /// namespaced handles, the root plane, mirroring `Fabric::meter_raw`
    /// so the conservation law (root totals == sum over namespaces) holds
    /// for chaos accounting too. Public so receivers (mailboxes) can
    /// account their dedup drops on the same planes.
    pub fn chaos_incr(&self, name: &str) {
        self.plane.metrics.incr(name);
        if self.extra_root {
            self.inner.root_plane.metrics.incr(name);
        }
    }

    /// Raw non-blocking enqueue of an already-stamped delivery. Does NOT
    /// meter — callers meter exactly once per logical message.
    fn push(&self, to: Endpoint, d: Delivery<M>) -> Result<Option<Delivery<M>>> {
        let tx = self.sender(to)?;
        match tx.try_send(d) {
            Ok(()) => Ok(None),
            Err(TrySendError::Full(d)) => Ok(Some(d)),
            Err(TrySendError::Disconnected(d)) => {
                Err(Self::disconnected_error(to, d.msg.wire_stream_label()))
            }
        }
    }

    /// Send `msg` from `from` to `to`, metering it on the appropriate link.
    /// Blocks while a bounded inbox is full. Under an active fault plan,
    /// injected drops are retried internally per [`Fabric::retry_policy`];
    /// exhaustion surfaces the typed `FaultInjected` error.
    pub fn send(&self, from: Endpoint, to: Endpoint, msg: M) -> Result<()>
    where
        M: Clone,
    {
        if self.inner.faults.is_some() {
            let mut msg = msg;
            let mut attempt = 0u32;
            loop {
                match self.try_send_attempt(from, to, msg, attempt)? {
                    SendAttempt::Delivered => return Ok(()),
                    SendAttempt::Full(m) => {
                        // Blocking semantics over the chaos path: wait for
                        // the inbox to drain. Only the mailbox-free callers
                        // (tests, sequential helpers) land here.
                        msg = m;
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    SendAttempt::Dropped(m, err) => {
                        attempt += 1;
                        if attempt >= self.inner.retry.attempts.max(1) {
                            return Err(err);
                        }
                        self.chaos_incr("net.chaos.send_retries");
                        std::thread::sleep(self.inner.retry.backoff(attempt));
                        msg = m;
                    }
                }
            }
        }
        if self.inner.disconnected.lock().contains(&to) {
            return Err(Self::disconnected_error(to, msg.wire_stream_label()));
        }
        let tx = self.sender(to)?;
        self.meter(from, to, &msg);
        let label = msg.wire_stream_label();
        tx.send(Delivery { from, msg, seq: 0 })
            .map_err(|_| Self::disconnected_error(to, label))
    }

    /// Non-blocking send: `Ok(None)` means delivered (and metered);
    /// `Ok(Some(msg))` hands the message back because the bounded inbox is
    /// full — drain your own inbox and retry. Worker tasks use this instead
    /// of [`Fabric::send`] so an all-to-all shuffle over bounded channels
    /// cannot deadlock on a cycle of full inboxes. Under an active fault
    /// plan an injected drop surfaces as the typed error immediately; use
    /// [`Fabric::try_send_attempt`] to drive retries.
    pub fn try_send(&self, from: Endpoint, to: Endpoint, msg: M) -> Result<Option<M>>
    where
        M: Clone,
    {
        match self.try_send_attempt(from, to, msg, 0)? {
            SendAttempt::Delivered => Ok(None),
            SendAttempt::Full(m) => Ok(Some(m)),
            SendAttempt::Dropped(_, err) => Err(err),
        }
    }

    /// One send attempt of a logical message. `attempt` distinguishes
    /// retries of the same message so the chaos plan re-rolls its drop
    /// decision (a `Full` hand-back is *not* a new attempt). The fault-free
    /// path is identical to the pre-chaos `try_send`.
    pub fn try_send_attempt(
        &self,
        from: Endpoint,
        to: Endpoint,
        msg: M,
        attempt: u32,
    ) -> Result<SendAttempt<M>>
    where
        M: Clone,
    {
        if self.inner.disconnected.lock().contains(&to) {
            return Err(Self::disconnected_error(to, msg.wire_stream_label()));
        }
        // Snapshot the wire accounting before the message moves into the
        // channel; metered only if the enqueue succeeds, so a Full retry
        // never double-counts.
        let (bytes, tuples, label) = (
            msg.wire_bytes() as u64,
            msg.wire_tuples(),
            msg.wire_stream_label(),
        );
        let Some(plan) = &self.inner.faults else {
            return Ok(match self.push(to, Delivery { from, msg, seq: 0 })? {
                None => {
                    self.meter_raw(from, to, bytes, tuples, label);
                    SendAttempt::Delivered
                }
                Some(d) => SendAttempt::Full(d.msg),
            });
        };

        let key: EdgeKey = (self.ns, from, to, label);
        // Peek (don't consume) this logical message's sequence number; a
        // Full hand-back or a dropped attempt re-derives the same value,
        // so decisions stay per-message, not per-call.
        let seq = self.inner.edge_seqs.lock().get(&key).copied().unwrap_or(0) + 1;
        if plan.should_drop(self.ns, from, to, label, seq, attempt) {
            self.chaos_incr("net.chaos.dropped");
            if attempt + 1 >= self.inner.retry.attempts.max(1) {
                // The retry budget is spent: the caller abandons this
                // message. Consume its sequence number so the edge's later
                // messages roll fresh decisions instead of replaying this
                // one's all-drop fate forever.
                self.inner.edge_seqs.lock().insert(key, seq);
            }
            let err = HybridError::FaultInjected {
                fault: "drop".to_string(),
                endpoint: to.to_string(),
                stream: label.map(str::to_string),
            };
            return Ok(SendAttempt::Dropped(msg, err));
        }
        if let Some(pause) = plan.delay(self.ns, from, to, label, seq) {
            self.chaos_incr("net.chaos.delayed");
            std::thread::sleep(pause);
        }

        let barrier = msg.wire_is_barrier();
        let mut held = self.inner.held.lock();
        if let Some(h) = held.remove(&key) {
            if barrier {
                // Flush the held data delivery BEFORE the end-of-stream
                // marker, so the receiver's barrier count can never run
                // ahead of the data. The held message was metered when it
                // was deferred.
                if let Some(back) = self.push(to, h)? {
                    held.insert(key, back);
                    return Ok(SendAttempt::Full(msg));
                }
                return Ok(match self.push(to, Delivery { from, msg, seq })? {
                    None => {
                        self.inner.edge_seqs.lock().insert(key, seq);
                        self.meter_raw(from, to, bytes, tuples, label);
                        SendAttempt::Delivered
                    }
                    Some(d) => SendAttempt::Full(d.msg),
                });
            }
            // The swap: the current message overtakes the held one.
            match self.push(to, Delivery { from, msg, seq })? {
                None => {
                    self.inner.edge_seqs.lock().insert(key, seq);
                    self.meter_raw(from, to, bytes, tuples, label);
                    match self.push(to, h)? {
                        None => {}
                        // Inbox refilled before the held half landed: keep
                        // holding; the edge's next send (at latest its
                        // barrier) retries the flush.
                        Some(back) => {
                            held.insert(key, back);
                        }
                    }
                    return Ok(SendAttempt::Delivered);
                }
                Some(d) => {
                    held.insert(key, h);
                    return Ok(SendAttempt::Full(d.msg));
                }
            }
        }
        if !barrier && msg.wire_reorderable() && plan.should_reorder(self.ns, from, to, label, seq)
        {
            // Defer this delivery one slot. It counts as sent (metered
            // now); the edge's next message flushes it, and barriers are
            // never deferred, so it always lands before the stream closes.
            self.inner.edge_seqs.lock().insert(key, seq);
            self.meter_raw(from, to, bytes, tuples, label);
            self.chaos_incr("net.chaos.reordered");
            held.insert(key, Delivery { from, msg, seq });
            return Ok(SendAttempt::Delivered);
        }
        drop(held);

        let copy = plan
            .should_duplicate(self.ns, from, to, label, seq)
            .then(|| msg.clone());
        match self.push(to, Delivery { from, msg, seq })? {
            None => {
                self.inner.edge_seqs.lock().insert(key, seq);
                self.meter_raw(from, to, bytes, tuples, label);
                if let Some(copy) = copy {
                    // Retransmission: same payload, same sequence number —
                    // the receiver's dedup must absorb it, not re-apply it.
                    // Metered like any other delivery so the conservation
                    // law still balances; best-effort if the inbox refilled
                    // meanwhile.
                    if self
                        .push(
                            to,
                            Delivery {
                                from,
                                msg: copy,
                                seq,
                            },
                        )?
                        .is_none()
                    {
                        self.meter_raw(from, to, bytes, tuples, label);
                        self.chaos_incr("net.chaos.duplicated");
                    }
                }
                Ok(SendAttempt::Delivered)
            }
            Some(d) => Ok(SendAttempt::Full(d.msg)),
        }
    }

    /// The receiving half of `endpoint`'s inbox in this handle's namespace.
    pub fn receiver(&self, endpoint: Endpoint) -> Result<Receiver<Delivery<M>>> {
        self.inner
            .inboxes
            .read()
            .get(&(self.ns, endpoint))
            .map(|(_, rx)| rx.clone())
            .ok_or_else(|| HybridError::Net(format!("unknown endpoint {endpoint}")))
    }

    /// Blocking receive with a deadline — the engines use this instead of a
    /// bare `recv()` so a lost peer surfaces as an error, not a hang.
    /// Receiving *as* a disconnected endpoint fails with the typed
    /// [`HybridError::Disconnected`] (a dead worker cannot make progress),
    /// while an empty inbox at the deadline stays a generic timeout.
    pub fn recv_timeout(&self, endpoint: Endpoint, timeout: Duration) -> Result<Delivery<M>> {
        if self.is_disconnected(endpoint) {
            return Err(Self::disconnected_error(endpoint, None));
        }
        let rx = self.receiver(endpoint)?;
        rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => {
                HybridError::Net(format!("{endpoint} timed out waiting for a message"))
            }
            // A closed inbox means the endpoint is gone from the fabric —
            // the typed shape, so callers (and chaos assertions) never
            // have to string-match.
            RecvTimeoutError::Disconnected => Self::disconnected_error(endpoint, None),
        })
    }

    /// Whether failure injection has cut `endpoint` off the fabric.
    pub fn is_disconnected(&self, endpoint: Endpoint) -> bool {
        self.inner.disconnected.lock().contains(&endpoint)
    }

    /// The per-endpoint inbox bound this fabric was built with.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Drop every undelivered message in every inbox of *this handle's
    /// namespace*. Queries run over fresh connections in the paper's
    /// implementation; the algorithm runner purges before each run so a
    /// previously *failed* run's in-flight messages can never leak into
    /// the next query's streams. Other namespaces' in-flight queries are
    /// untouched.
    pub fn purge(&self) {
        let receivers: Vec<Receiver<Delivery<M>>> = self
            .inner
            .inboxes
            .read()
            .iter()
            .filter(|((ns, _), _)| *ns == self.ns)
            .map(|(_, (_, rx))| rx.clone())
            .collect();
        for rx in receivers {
            while rx.try_recv().is_ok() {}
        }
        self.clear_chaos_state();
    }

    /// Failure injection: future sends to `endpoint` fail.
    pub fn disconnect(&self, endpoint: Endpoint) {
        self.inner.disconnected.lock().insert(endpoint);
    }

    /// Undo [`Fabric::disconnect`].
    pub fn reconnect(&self, endpoint: Endpoint) {
        self.inner.disconnected.lock().remove(&endpoint);
    }

    /// All JEN worker endpoints of this fabric, in id order (identical in
    /// every namespace).
    pub fn jen_endpoints(&self) -> Vec<Endpoint> {
        (0..self.inner.num_jen)
            .map(|i| Endpoint::Jen(JenWorkerId(i)))
            .collect()
    }

    /// All DB worker endpoints of this fabric, in id order (identical in
    /// every namespace).
    pub fn db_endpoints(&self) -> Vec<Endpoint> {
        (0..self.inner.num_db)
            .map(|i| Endpoint::Db(DbWorkerId(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg {
        bytes: usize,
        tuples: u64,
    }

    impl Wire for Msg {
        fn wire_bytes(&self) -> usize {
            self.bytes
        }
        fn wire_tuples(&self) -> u64 {
            self.tuples
        }
    }

    fn fabric() -> Fabric<Msg> {
        Fabric::new(2, 3, Metrics::new())
    }

    #[test]
    fn classify_links() {
        use Endpoint::*;
        let db0 = Db(DbWorkerId(0));
        let db1 = Db(DbWorkerId(1));
        let j0 = Jen(JenWorkerId(0));
        let j1 = Jen(JenWorkerId(1));
        assert_eq!(LinkClass::classify(db0, db1), LinkClass::IntraDb);
        assert_eq!(LinkClass::classify(j0, j1), LinkClass::IntraHdfs);
        assert_eq!(
            LinkClass::classify(j0, JenCoordinator),
            LinkClass::IntraHdfs
        );
        assert_eq!(LinkClass::classify(db0, j0), LinkClass::Cross);
        assert_eq!(LinkClass::classify(j0, db0), LinkClass::Cross);
        assert_eq!(LinkClass::classify(db0, JenCoordinator), LinkClass::Cross);
    }

    #[test]
    fn send_receive_and_meter() {
        let f = fabric();
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j1 = Endpoint::Jen(JenWorkerId(1));
        f.send(
            db0,
            j1,
            Msg {
                bytes: 100,
                tuples: 10,
            },
        )
        .unwrap();
        let d = f.recv_timeout(j1, Duration::from_secs(1)).unwrap();
        assert_eq!(d.from, db0);
        assert_eq!(
            d.msg,
            Msg {
                bytes: 100,
                tuples: 10
            }
        );
        let m = f.metrics();
        assert_eq!(m.get("net.cross.bytes"), 100);
        assert_eq!(m.get("net.cross.tuples"), 10);
        assert_eq!(m.get("net.cross.db_to_jen.tuples"), 10);
        assert_eq!(m.get("net.cross.jen_to_db.tuples"), 0);
        assert_eq!(m.get("net.intra_hdfs.bytes"), 0);
    }

    #[test]
    fn intra_links_metered_separately() {
        let f = fabric();
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let j2 = Endpoint::Jen(JenWorkerId(2));
        let db0 = Endpoint::Db(DbWorkerId(0));
        let db1 = Endpoint::Db(DbWorkerId(1));
        f.send(
            j0,
            j2,
            Msg {
                bytes: 7,
                tuples: 1,
            },
        )
        .unwrap();
        f.send(
            db0,
            db1,
            Msg {
                bytes: 9,
                tuples: 2,
            },
        )
        .unwrap();
        assert_eq!(f.metrics().get("net.intra_hdfs.bytes"), 7);
        assert_eq!(f.metrics().get("net.intra_db.bytes"), 9);
        assert_eq!(f.metrics().get("net.cross.bytes"), 0);
    }

    #[test]
    fn control_messages_do_not_count_tuples() {
        let f = fabric();
        let j0 = Endpoint::Jen(JenWorkerId(0));
        f.send(
            Endpoint::JenCoordinator,
            j0,
            Msg {
                bytes: 4,
                tuples: 0,
            },
        )
        .unwrap();
        assert_eq!(f.metrics().get("net.intra_hdfs.msgs"), 1);
        assert_eq!(f.metrics().get("net.intra_hdfs.tuples"), 0);
    }

    #[test]
    fn broadcast_meters_each_copy() {
        let f = fabric();
        let db0 = Endpoint::Db(DbWorkerId(0));
        let targets = f.jen_endpoints();
        assert_eq!(targets.len(), 3);
        for &to in &targets {
            f.send(
                db0,
                to,
                Msg {
                    bytes: 10,
                    tuples: 5,
                },
            )
            .unwrap();
        }
        assert_eq!(f.metrics().get("net.cross.bytes"), 30);
        assert_eq!(f.metrics().get("net.cross.tuples"), 15);
    }

    #[test]
    fn unknown_endpoint_errors() {
        let f = fabric();
        let ghost = Endpoint::Jen(JenWorkerId(99));
        assert!(f
            .send(
                ghost,
                ghost,
                Msg {
                    bytes: 1,
                    tuples: 0
                }
            )
            .is_err());
        assert!(f.receiver(ghost).is_err());
    }

    #[test]
    fn disconnect_blocks_sends_until_reconnect() {
        let f = fabric();
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let db0 = Endpoint::Db(DbWorkerId(0));
        f.disconnect(j0);
        let err = f
            .send(
                db0,
                j0,
                Msg {
                    bytes: 1,
                    tuples: 0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, HybridError::Disconnected { .. }));
        assert!(f.is_disconnected(j0));
        f.reconnect(j0);
        assert!(!f.is_disconnected(j0));
        assert!(f
            .send(
                db0,
                j0,
                Msg {
                    bytes: 1,
                    tuples: 0
                }
            )
            .is_ok());
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Tagged;

    impl Wire for Tagged {
        fn wire_bytes(&self) -> usize {
            8
        }
        fn wire_stream_label(&self) -> Option<&'static str> {
            Some("hdfs_shuffle")
        }
    }

    #[test]
    fn disconnected_send_carries_stream_label() {
        let f: Fabric<Tagged> = Fabric::new(1, 1, Metrics::new());
        let j0 = Endpoint::Jen(JenWorkerId(0));
        f.disconnect(j0);
        let err = f.send(Endpoint::Db(DbWorkerId(0)), j0, Tagged).unwrap_err();
        match err {
            HybridError::Disconnected { endpoint, stream } => {
                assert_eq!(endpoint, "jen-worker-0");
                assert_eq!(stream.as_deref(), Some("hdfs_shuffle"));
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn recv_as_disconnected_endpoint_is_typed() {
        let f = fabric();
        let j0 = Endpoint::Jen(JenWorkerId(0));
        f.disconnect(j0);
        let err = f.recv_timeout(j0, Duration::from_millis(10)).unwrap_err();
        assert!(
            matches!(err, HybridError::Disconnected { ref endpoint, stream: None } if endpoint == "jen-worker-0")
        );
    }

    #[test]
    fn try_send_hands_message_back_when_full() {
        let f: Fabric<Msg> = Fabric::with_capacity(1, 1, Metrics::new(), Some(1));
        assert_eq!(f.capacity(), Some(1));
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let msg = Msg {
            bytes: 10,
            tuples: 1,
        };
        assert!(f.try_send(db0, j0, msg.clone()).unwrap().is_none());
        // inbox full: message comes back and is NOT metered
        let back = f.try_send(db0, j0, msg.clone()).unwrap();
        assert_eq!(back, Some(msg.clone()));
        assert_eq!(f.metrics().get("net.cross.msgs"), 1);
        f.recv_timeout(j0, Duration::from_secs(1)).unwrap();
        assert!(f.try_send(db0, j0, msg).unwrap().is_none());
        assert_eq!(f.metrics().get("net.cross.msgs"), 2);
    }

    #[test]
    fn bounded_fabric_applies_backpressure_across_threads() {
        let f: Fabric<Msg> = Fabric::with_capacity(1, 1, Metrics::new(), Some(2));
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let f2 = f.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..200 {
                f2.send(
                    db0,
                    j0,
                    Msg {
                        bytes: i,
                        tuples: 1,
                    },
                )
                .unwrap();
            }
        });
        let rx = f.receiver(j0).unwrap();
        for i in 0..200 {
            let d = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(d.msg.bytes, i);
            // the bound caps what can ever be queued ahead of the reader
            assert!(rx.len() <= 2);
        }
        producer.join().unwrap();
    }

    #[test]
    fn namespaces_do_not_cross_talk() {
        let f = fabric();
        let ns_metrics = Metrics::new();
        let g = f.namespace(7, ns_metrics.clone()).unwrap();
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        // a message sent in namespace 7 is invisible to the root inbox
        g.send(
            db0,
            j0,
            Msg {
                bytes: 11,
                tuples: 2,
            },
        )
        .unwrap();
        assert!(f.recv_timeout(j0, Duration::from_millis(20)).is_err());
        let d = g.recv_timeout(j0, Duration::from_secs(1)).unwrap();
        assert_eq!(d.msg.bytes, 11);
        // and vice versa
        f.send(
            db0,
            j0,
            Msg {
                bytes: 5,
                tuples: 1,
            },
        )
        .unwrap();
        assert!(g.recv_timeout(j0, Duration::from_millis(20)).is_err());
        assert!(f.recv_timeout(j0, Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn namespace_traffic_meters_both_planes() {
        let root_metrics = Metrics::new();
        let f: Fabric<Msg> = Fabric::new(1, 1, root_metrics.clone());
        let a_metrics = Metrics::new();
        let b_metrics = Metrics::new();
        let a = f.namespace(1, a_metrics.clone()).unwrap();
        let b = f.namespace(2, b_metrics.clone()).unwrap();
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let msg = |bytes| Msg { bytes, tuples: 1 };
        a.send(db0, j0, msg(100)).unwrap();
        b.send(db0, j0, msg(40)).unwrap();
        b.send(db0, j0, msg(2)).unwrap();
        assert_eq!(a_metrics.get("net.cross.bytes"), 100);
        assert_eq!(b_metrics.get("net.cross.bytes"), 42);
        // the root registry holds the exact sum of every namespace
        assert_eq!(root_metrics.get("net.cross.bytes"), 142);
        assert_eq!(root_metrics.get("net.cross.msgs"), 3);
    }

    #[test]
    fn purge_is_namespace_scoped() {
        let f = fabric();
        let g = f.namespace(3, Metrics::new()).unwrap();
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let msg = Msg {
            bytes: 1,
            tuples: 0,
        };
        f.send(db0, j0, msg.clone()).unwrap();
        g.send(db0, j0, msg).unwrap();
        g.purge();
        // namespace 3 is drained, the root message survives
        assert!(g.recv_timeout(j0, Duration::from_millis(20)).is_err());
        assert!(f.recv_timeout(j0, Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn namespace_lifecycle() {
        let f = fabric();
        assert_eq!(f.ns(), 0);
        assert!(f.namespace(0, Metrics::new()).is_err(), "0 is the root");
        let g = f.namespace(9, Metrics::new()).unwrap();
        assert_eq!(g.ns(), 9);
        assert!(f.namespace(9, Metrics::new()).is_err(), "9 is in use");
        g.remove_namespace();
        let j0 = Endpoint::Jen(JenWorkerId(0));
        assert!(g.receiver(j0).is_err(), "inboxes are gone");
        // the id is free again, and the root was never affected
        assert!(f.namespace(9, Metrics::new()).is_ok());
        assert!(f.receiver(j0).is_ok());
    }

    #[test]
    fn subnamespace_keeps_parent_metering_plane() {
        let root_metrics = Metrics::new();
        let f: Fabric<Msg> = Fabric::new(1, 1, root_metrics.clone());
        let session_metrics = Metrics::new();
        let session = f.namespace(1, session_metrics.clone()).unwrap();
        let replan = session.subnamespace((1 << 48) | (1 << 8) | 1).unwrap();
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let msg = |bytes| Msg { bytes, tuples: 1 };
        session.send(db0, j0, msg(100)).unwrap();
        replan.send(db0, j0, msg(40)).unwrap();
        // replan traffic lands in the session's plane (once) and the root
        // plane (once) — exactly like the parent handle, so the
        // conservation law (root = Σ sessions) survives a restart
        assert_eq!(session_metrics.get("net.cross.bytes"), 140);
        assert_eq!(root_metrics.get("net.cross.bytes"), 140);
        // inboxes are still private per namespace
        assert!(session.recv_timeout(j0, Duration::from_millis(20)).is_ok());
        assert!(replan.recv_timeout(j0, Duration::from_secs(1)).is_ok());
        replan.remove_namespace();
        assert!(replan.receiver(j0).is_err(), "replan inboxes are gone");
        assert!(session.receiver(j0).is_ok(), "parent namespace survives");
    }

    #[test]
    fn subnamespace_from_root_meters_once() {
        let root_metrics = Metrics::new();
        let f: Fabric<Msg> = Fabric::new(1, 1, root_metrics.clone());
        let replan = f.subnamespace(1 << 48).unwrap();
        replan
            .send(
                Endpoint::Db(DbWorkerId(0)),
                Endpoint::Jen(JenWorkerId(0)),
                Msg {
                    bytes: 7,
                    tuples: 1,
                },
            )
            .unwrap();
        assert_eq!(root_metrics.get("net.cross.bytes"), 7);
        assert_eq!(root_metrics.get("net.cross.msgs"), 1);
        replan.remove_namespace();
    }

    #[test]
    fn subnamespace_rejects_root_parent_and_in_use_ids() {
        let f = fabric();
        assert!(f.subnamespace(0).is_err(), "0 is the root");
        let session = f.namespace(5, Metrics::new()).unwrap();
        assert!(session.subnamespace(5).is_err(), "parent id");
        let replan = session.subnamespace(6).unwrap();
        assert!(session.subnamespace(6).is_err(), "6 is in use");
        replan.remove_namespace();
        assert!(session.subnamespace(6).is_ok(), "id free after removal");
    }

    #[test]
    fn disconnect_applies_across_namespaces() {
        let f = fabric();
        let g = f.namespace(4, Metrics::new()).unwrap();
        let j0 = Endpoint::Jen(JenWorkerId(0));
        f.disconnect(j0);
        let err = g
            .send(
                Endpoint::Db(DbWorkerId(0)),
                j0,
                Msg {
                    bytes: 1,
                    tuples: 0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, HybridError::Disconnected { .. }));
        f.reconnect(j0);
    }

    #[test]
    fn recv_timeout_expires() {
        let f = fabric();
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let err = f.recv_timeout(j0, Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, HybridError::Net(_)));
    }

    #[test]
    fn endpoints_listed_in_order() {
        let f = fabric();
        assert_eq!(
            f.db_endpoints(),
            vec![Endpoint::Db(DbWorkerId(0)), Endpoint::Db(DbWorkerId(1))]
        );
        assert_eq!(f.jen_endpoints().len(), 3);
    }

    fn chaos_fabric(spec: FaultSpec) -> (Fabric<Msg>, Metrics) {
        let metrics = Metrics::new();
        let f = Fabric::with_options(
            2,
            3,
            metrics.clone(),
            None,
            Some(spec),
            RetryPolicy::default(),
        );
        (f, metrics)
    }

    #[test]
    fn injected_drop_surfaces_typed_fault() {
        let (f, m) = chaos_fabric(FaultSpec::quiet(1).with_drops(1.0));
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let msg = Msg {
            bytes: 4,
            tuples: 1,
        };
        let err = f.try_send(db0, j0, msg.clone()).unwrap_err();
        assert!(
            matches!(err, HybridError::FaultInjected { ref fault, .. } if fault == "drop"),
            "got {err:?}"
        );
        // blocking send exhausts the full retry budget, then fails typed
        let err = f.send(db0, j0, msg).unwrap_err();
        assert!(matches!(err, HybridError::FaultInjected { .. }));
        let retries = RetryPolicy::default().attempts as u64 - 1;
        assert_eq!(m.get("net.chaos.send_retries"), retries);
        assert!(m.get("net.chaos.dropped") > retries);
        assert_eq!(m.get("net.cross.msgs"), 0, "dropped sends are not metered");
    }

    #[test]
    fn retried_attempts_can_survive_partial_drop_rates() {
        let (f, _) = chaos_fabric(FaultSpec::quiet(17).with_drops(0.5));
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        // At 50% drop a message survives its 4-attempt budget with
        // probability 1 − 0.5⁴ ≈ 94%: most messages land (some after a
        // retry), and the ones that don't must fail with the typed error —
        // never silently.
        let mut delivered = 0;
        let mut exhausted = 0;
        let mut needed_retry = false;
        for i in 0..32 {
            let mut attempt = 0;
            loop {
                match f
                    .try_send_attempt(
                        db0,
                        j0,
                        Msg {
                            bytes: i,
                            tuples: 1,
                        },
                        attempt,
                    )
                    .unwrap()
                {
                    SendAttempt::Delivered => {
                        delivered += 1;
                        if attempt > 0 {
                            needed_retry = true;
                        }
                        break;
                    }
                    SendAttempt::Full(_) => unreachable!("unbounded"),
                    SendAttempt::Dropped(_, err) => {
                        attempt += 1;
                        if attempt >= 4 {
                            assert!(matches!(err, HybridError::FaultInjected { .. }));
                            exhausted += 1;
                            break;
                        }
                    }
                }
            }
        }
        assert_eq!(delivered + exhausted, 32, "every message is accounted for");
        assert!(delivered >= 24, "most messages should survive the budget");
        assert!(
            needed_retry,
            "seed 17 at 50% must drop at least one attempt"
        );
    }

    #[test]
    fn duplicate_carries_the_original_sequence_number() {
        let (f, m) = chaos_fabric(FaultSpec::quiet(2).with_dups(1.0));
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        f.try_send(
            db0,
            j0,
            Msg {
                bytes: 9,
                tuples: 3,
            },
        )
        .unwrap();
        let a = f.recv_timeout(j0, Duration::from_secs(1)).unwrap();
        let b = f.recv_timeout(j0, Duration::from_secs(1)).unwrap();
        assert_eq!(a.seq, b.seq, "retransmission must reuse the seq");
        assert!(a.seq > 0, "chaos-stamped deliveries are 1-based");
        assert_eq!(a.msg, b.msg);
        assert_eq!(m.get("net.chaos.duplicated"), 1);
        assert_eq!(m.get("net.cross.msgs"), 2, "both copies are metered");
    }

    #[test]
    fn deliveries_are_unstamped_without_a_plan() {
        let f = fabric();
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        f.send(
            db0,
            j0,
            Msg {
                bytes: 1,
                tuples: 0,
            },
        )
        .unwrap();
        f.try_send(
            db0,
            j0,
            Msg {
                bytes: 1,
                tuples: 0,
            },
        )
        .unwrap();
        for _ in 0..2 {
            assert_eq!(f.recv_timeout(j0, Duration::from_secs(1)).unwrap().seq, 0);
        }
    }

    /// A stream-shaped test message: data records opt into reordering,
    /// the end-of-stream marker is a barrier.
    #[derive(Debug, Clone, PartialEq)]
    enum StreamMsg {
        Data(usize),
        Eos,
    }

    impl Wire for StreamMsg {
        fn wire_bytes(&self) -> usize {
            8
        }
        fn wire_stream_label(&self) -> Option<&'static str> {
            Some("hdfs_shuffle")
        }
        fn wire_is_barrier(&self) -> bool {
            matches!(self, StreamMsg::Eos)
        }
        fn wire_reorderable(&self) -> bool {
            matches!(self, StreamMsg::Data(_))
        }
    }

    #[test]
    fn reordering_swaps_data_but_never_crosses_the_barrier() {
        let metrics = Metrics::new();
        let f: Fabric<StreamMsg> = Fabric::with_options(
            1,
            1,
            metrics.clone(),
            None,
            Some(FaultSpec::quiet(3).with_reorders(1.0)),
            RetryPolicy::default(),
        );
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        for i in 0..5 {
            f.try_send(db0, j0, StreamMsg::Data(i)).unwrap();
        }
        f.try_send(db0, j0, StreamMsg::Eos).unwrap();
        let mut order = Vec::new();
        let mut eos_at = None;
        for pos in 0..6 {
            match f.recv_timeout(j0, Duration::from_secs(1)).unwrap().msg {
                StreamMsg::Data(i) => order.push(i),
                StreamMsg::Eos => eos_at = Some(pos),
            }
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "no delivery may be lost");
        assert_eq!(eos_at, Some(5), "the barrier must arrive last");
        assert_ne!(order, vec![0, 1, 2, 3, 4], "rate 1.0 must actually swap");
        assert!(metrics.get("net.chaos.reordered") > 0);
    }

    #[test]
    fn chaos_counters_obey_the_conservation_law() {
        let root_metrics = Metrics::new();
        let f: Fabric<Msg> = Fabric::with_options(
            1,
            1,
            root_metrics.clone(),
            None,
            Some(FaultSpec::quiet(8).with_dups(1.0)),
            RetryPolicy::default(),
        );
        let a_metrics = Metrics::new();
        let b_metrics = Metrics::new();
        let a = f.namespace(1, a_metrics.clone()).unwrap();
        let b = f.namespace(2, b_metrics.clone()).unwrap();
        let db0 = Endpoint::Db(DbWorkerId(0));
        let j0 = Endpoint::Jen(JenWorkerId(0));
        a.try_send(
            db0,
            j0,
            Msg {
                bytes: 10,
                tuples: 1,
            },
        )
        .unwrap();
        b.try_send(
            db0,
            j0,
            Msg {
                bytes: 20,
                tuples: 2,
            },
        )
        .unwrap();
        b.try_send(
            db0,
            j0,
            Msg {
                bytes: 30,
                tuples: 3,
            },
        )
        .unwrap();
        for (name, root) in [("net.cross.bytes", 120), ("net.chaos.duplicated", 3)] {
            assert_eq!(
                root_metrics.get(name),
                root,
                "{name} root total (duplicates included)"
            );
            assert_eq!(
                a_metrics.get(name) + b_metrics.get(name),
                root,
                "{name}: root == sum of namespaces"
            );
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let f = fabric();
        let j0 = Endpoint::Jen(JenWorkerId(0));
        let db0 = Endpoint::Db(DbWorkerId(0));
        let f2 = f.clone();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                f2.send(
                    db0,
                    j0,
                    Msg {
                        bytes: i,
                        tuples: 1,
                    },
                )
                .unwrap();
            }
        });
        let rx = f.receiver(j0).unwrap();
        let mut got = 0;
        while got < 100 {
            rx.recv_timeout(Duration::from_secs(1)).unwrap();
            got += 1;
        }
        t.join().unwrap();
        assert_eq!(f.metrics().get("net.cross.tuples"), 100);
    }
}
