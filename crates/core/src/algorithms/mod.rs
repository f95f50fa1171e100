//! The join algorithms and their shared plumbing.
//!
//! Every algorithm is a pure orchestration over the substrates: database
//! scans and Bloom UDFs from `hybrid-edw`, block scans from `hybrid-jen`,
//! and metered transfers over the `hybrid-net` fabric. The orchestration
//! here executes the steps of Figures 1–4 in their stated order; the data
//! volumes that the paper's evaluation hinges on are measured, not modeled.

pub mod broadcast;
pub mod db_side;
pub mod driver;
pub mod perf;
pub mod repartition;
pub mod semijoin;
pub mod zigzag;

pub use driver::{CancelToken, Driver, TaskSet};

use crate::adapt::PrescanData;
use crate::multiway::StarRun;
use crate::query::HybridQuery;
use crate::skew::{SaltCursors, SaltRouter};
use crate::stats::{JoinSummary, RunOutput};
use crate::system::HybridSystem;
use hybrid_bloom::{filter_batch, BloomFilter};
use hybrid_common::batch::{Batch, BatchBuilder, SelectionVector};
use hybrid_common::error::{HybridError, Result};
use hybrid_common::expr::Expr;
use hybrid_common::hash::agreed_shuffle_partition;
use hybrid_common::ids::{DbWorkerId, JenWorkerId};
use hybrid_common::ops::{partition_sel, AggSpec, HashAggregator, JoinAggregator};
use hybrid_common::schema::Schema;
use hybrid_common::trace::Stage;
use hybrid_jen::coordinator::ScanPlan;
use hybrid_jen::pipeline::scan_blocks_batched;
use hybrid_jen::{LocalJoiner, ScanSpec};
use hybrid_net::{Delivery, Endpoint, Fabric, Message, SendAttempt, StreamTag};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which join strategy to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// Fetch filtered HDFS data into the database; join there (§3.1).
    DbSide { bloom: bool },
    /// Broadcast the filtered database table to every JEN worker (§3.2).
    Broadcast,
    /// Shuffle both filtered tables to JEN workers by the agreed hash (§3.3).
    Repartition { bloom: bool },
    /// 2-way Bloom filters; join on the HDFS side (§3.4).
    Zigzag,
    /// Repartition with an exact key set instead of `BF_DB` (the classic
    /// semi-join baseline the paper contrasts Bloom joins against, §6).
    SemiJoin,
    /// PERF join (Li & Ross, §6): positional bitmaps instead of a reverse
    /// Bloom filter — exact, but its forward transfer duplicates keys per
    /// tuple.
    PerfJoin,
}

impl JoinAlgorithm {
    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            JoinAlgorithm::DbSide { bloom: false } => "db",
            JoinAlgorithm::DbSide { bloom: true } => "db(BF)",
            JoinAlgorithm::Broadcast => "broadcast",
            JoinAlgorithm::Repartition { bloom: false } => "repartition",
            JoinAlgorithm::Repartition { bloom: true } => "repartition(BF)",
            JoinAlgorithm::Zigzag => "zigzag",
            JoinAlgorithm::SemiJoin => "semijoin",
            JoinAlgorithm::PerfJoin => "perf",
        }
    }

    /// All variants evaluated in the paper's experiments.
    pub fn paper_variants() -> [JoinAlgorithm; 6] {
        [
            JoinAlgorithm::DbSide { bloom: false },
            JoinAlgorithm::DbSide { bloom: true },
            JoinAlgorithm::Broadcast,
            JoinAlgorithm::Repartition { bloom: false },
            JoinAlgorithm::Repartition { bloom: true },
            JoinAlgorithm::Zigzag,
        ]
    }
}

impl std::fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Execute `algorithm` for `query` on `system`, starting from clean
/// metrics; returns the result plus the movement summary.
pub fn run(
    system: &mut HybridSystem,
    query: &HybridQuery,
    algorithm: JoinAlgorithm,
) -> Result<RunOutput> {
    query.validate()?;
    prepare_run(system)?;
    let result = dispatch(system, query, algorithm, Input::Cold)?;
    Ok(finish_run(system, result))
}

/// The prologue every run shares, binary or star (each entry point has
/// validated its query): claim a memory grant on a budgeted system, and
/// start from clean metrics, spans, and fabric.
pub(crate) fn prepare_run(system: &mut HybridSystem) -> Result<()> {
    // A direct run on a budgeted system claims whatever the pool has left
    // (the query service instead injects an admission-sized share into each
    // session before running). The grant sticks for subsequent runs on this
    // system — one system, one resident query.
    if system.query_budget.is_none() && system.mem_pool.is_bounded() {
        system.query_budget = Some(system.mem_pool.reserve_remaining("direct-run")?);
    }
    system.reset_metrics();
    system.tracer.reset();
    // a previously failed run may have left in-flight messages behind
    system.fabric.purge();
    Ok(())
}

/// Execute one strategy from `input` to the final result (no metric/tracer
/// reset — callers go through [`prepare_run`] first).
pub(crate) fn dispatch(
    system: &mut HybridSystem,
    query: &HybridQuery,
    algorithm: JoinAlgorithm,
    input: Input,
) -> Result<Batch> {
    match (algorithm, input) {
        (JoinAlgorithm::DbSide { bloom }, input) => db_side::execute(system, query, bloom, input),
        (JoinAlgorithm::Broadcast, input) => broadcast::execute(system, query, input),
        (JoinAlgorithm::Repartition { bloom }, input) => {
            repartition::execute(system, query, bloom, input)
        }
        (JoinAlgorithm::Zigzag, input) => zigzag::execute(system, query, input),
        (JoinAlgorithm::SemiJoin, Input::Cold) => semijoin::execute(system, query),
        (JoinAlgorithm::PerfJoin, Input::Cold) => perf::execute(system, query),
        (JoinAlgorithm::SemiJoin | JoinAlgorithm::PerfJoin, Input::Parked(_)) => Err(
            HybridError::exec("semi-join/PERF are not advisor candidates and never replan"),
        ),
    }
}

/// The epilogue every run shares: snapshot the counters, derive the
/// shuffle-balance ratio, and package the timeline.
pub(crate) fn finish_run(system: &HybridSystem, result: Batch) -> RunOutput {
    let mut snapshot = system.metrics.snapshot();
    // Derived shuffle-balance ratio: max per-worker build load over the
    // mean across all JEN workers, ×1000 in integer arithmetic so the
    // ratio lives in the u64 registry and stays schedule-independent.
    let per_worker_max = snapshot
        .iter()
        .filter(|(k, _)| k.starts_with("net.shuffle.rows.jen-"))
        .map(|(_, v)| *v)
        .max();
    if let Some(max) = per_worker_max {
        let sum: u64 = snapshot
            .iter()
            .filter(|(k, _)| k.starts_with("net.shuffle.rows.jen-"))
            .map(|(_, v)| *v)
            .sum();
        if let Some(ratio) = (max * 1000 * system.config.jen_workers as u64).checked_div(sum) {
            snapshot.insert("net.shuffle.max_over_mean_x1000".to_string(), ratio);
        }
    }
    let mut timeline = system.tracer.timeline();
    // Per-link-class transfer totals ride along with the spans so one
    // artifact feeds both the Gantt view and the byte accounting.
    timeline.totals = snapshot
        .iter()
        .filter(|(k, _)| k.starts_with("net."))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    RunOutput {
        result,
        summary: JoinSummary {
            batch_rows: system.config.batch_rows as u64,
            ..JoinSummary::from_snapshot(&snapshot)
        },
        snapshot,
        timeline,
    }
}

// ---------------------------------------------------------------------------
// shared plumbing
// ---------------------------------------------------------------------------

/// How long one blocking wait on the inbox lasts before the mailbox
/// re-checks cancellation / disconnection. Invisible to throughput (the
/// wait returns immediately when a message is ready); small enough that a
/// failed peer aborts the cluster promptly.
const RECV_SLICE: Duration = Duration::from_millis(25);

/// Inbox-drain slice while a pump-send waits for the target inbox to free
/// up — short, because the send should retry eagerly.
const PUMP_SLICE: Duration = Duration::from_millis(1);

/// A per-endpoint demultiplexer: pulls deliveries off the endpoint's inbox,
/// buffering messages for streams other than the one currently awaited.
///
/// A zigzag JEN worker's inbox legitimately interleaves shuffled HDFS
/// batches with (later) database tuples; the mailbox lets the algorithm
/// consume one logical stream at a time without losing the other.
///
/// The mailbox is also the *sending* half of a worker task: its pump-based
/// [`Mailbox::send`] retries a full bounded inbox while draining its own —
/// the property that makes an all-to-all shuffle over bounded channels
/// deadlock-free (a cycle of senders blocked on each other's full inboxes
/// cannot form, because every blocked sender keeps consuming).
pub(crate) struct Mailbox {
    endpoint: Endpoint,
    fabric: Fabric<Message>,
    rx: crossbeam::channel::Receiver<Delivery<Message>>,
    buffered: HashMap<StreamTag, Vec<Delivery<Message>>>,
    eos_seen: HashMap<StreamTag, usize>,
    /// Rows per `Data` message ([`SystemConfig::batch_rows`]): 1 replays
    /// one-tuple-at-a-time framing, the default matches the historical
    /// fixed 4096-row chunking.
    ///
    /// [`SystemConfig::batch_rows`]: crate::system::SystemConfig::batch_rows
    chunk_rows: usize,
    /// Sequence numbers already absorbed, per sender and stream. A chaos
    /// plan may retransmit a delivery (same `seq`); the duplicate must be
    /// discarded here — a duplicated EOS would otherwise inflate
    /// `eos_seen` and silently truncate the stream. Fault-free deliveries
    /// carry `seq == 0` and skip this set entirely.
    seen: HashSet<(Endpoint, StreamTag, u64)>,
    timeout: Duration,
    cancel: Option<CancelToken>,
}

/// Everything received on one stream.
#[derive(Debug, Default)]
pub(crate) struct StreamData {
    pub batches: Vec<Batch>,
    /// Sender of each batch, aligned with `batches` (channels are FIFO, so
    /// per-sender arrival order is send order).
    pub batch_senders: Vec<Endpoint>,
    pub blooms: Vec<Vec<u8>>,
    /// Sender of each Bloom payload, aligned with `blooms` — under parallel
    /// execution arrival order is arbitrary, so consumers that care which
    /// worker produced a filter/bitmap must index by sender, never by
    /// position.
    pub bloom_senders: Vec<Endpoint>,
}

impl Mailbox {
    pub(crate) fn new(sys: &HybridSystem, endpoint: Endpoint) -> Result<Mailbox> {
        Ok(Mailbox {
            endpoint,
            fabric: sys.fabric.clone(),
            rx: sys.fabric.receiver(endpoint)?,
            buffered: HashMap::new(),
            eos_seen: HashMap::new(),
            seen: HashSet::new(),
            chunk_rows: sys.config.batch_rows,
            timeout: sys.config.recv_timeout,
            cancel: None,
        })
    }

    /// Abort blocking waits when `token` trips (a peer worker failed).
    pub(crate) fn with_cancel(mut self, token: CancelToken) -> Mailbox {
        self.cancel = Some(token);
        self
    }

    fn check_liveness(&self, awaiting: Option<StreamTag>) -> Result<()> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Err(HybridError::Cancelled {
                    worker: self.endpoint.to_string(),
                });
            }
        }
        if self.fabric.is_disconnected(self.endpoint) {
            // this worker was killed by failure injection: typed error,
            // carrying the stream it was serving when it died
            return Err(HybridError::Disconnected {
                endpoint: self.endpoint.to_string(),
                stream: awaiting.map(|s| s.label().to_string()),
            });
        }
        Ok(())
    }

    /// File one delivery into the stream buffers / EOS counts. Chaos
    /// retransmissions (same sender, stream, and non-zero sequence number
    /// as an earlier delivery) are dropped here, exactly once per
    /// duplicate.
    fn absorb_delivery(&mut self, d: Delivery<Message>) {
        let tag = d.msg.stream();
        if d.seq != 0 && !self.seen.insert((d.from, tag, d.seq)) {
            self.fabric.chaos_incr("net.chaos.deduped");
            return;
        }
        if let Message::Eos { .. } = d.msg {
            *self.eos_seen.entry(tag).or_insert(0) += 1;
        } else {
            self.buffered.entry(tag).or_default().push(d);
        }
    }

    /// Send one message, never blocking the fabric: while the target inbox
    /// is full, drain this endpoint's own inbox into the stream buffers and
    /// retry. Gives up with a Net error after the receive timeout.
    ///
    /// Under an active chaos plan this is also the recovery loop: an
    /// injected drop burns one attempt of the fabric's [`RetryPolicy`]
    /// budget and the message is retried after a backoff sleep; only an
    /// exhausted budget surfaces the typed `FaultInjected` error. A `Full`
    /// hand-back is congestion, not a fault — it never consumes an attempt.
    ///
    /// [`RetryPolicy`]: hybrid_net::RetryPolicy
    pub(crate) fn send(&mut self, to: Endpoint, msg: Message) -> Result<()> {
        let deadline = Instant::now() + self.timeout;
        let retry = self.fabric.retry_policy().clone();
        let mut msg = msg;
        let mut attempt = 0u32;
        loop {
            match self
                .fabric
                .try_send_attempt(self.endpoint, to, msg, attempt)?
            {
                SendAttempt::Delivered => return Ok(()),
                SendAttempt::Full(back) => {
                    msg = back;
                    self.check_liveness(Some(msg.stream()))?;
                    if Instant::now() >= deadline {
                        return Err(HybridError::Net(format!(
                            "{} send to {to} stalled on a full inbox",
                            self.endpoint
                        )));
                    }
                    if let Ok(d) = self.rx.recv_timeout(PUMP_SLICE) {
                        self.absorb_delivery(d);
                    }
                }
                SendAttempt::Dropped(back, err) => {
                    attempt += 1;
                    if attempt >= retry.attempts.max(1) {
                        return Err(err);
                    }
                    self.fabric.chaos_incr("net.chaos.send_retries");
                    self.check_liveness(Some(back.stream()))?;
                    std::thread::sleep(retry.backoff(attempt));
                    msg = back;
                }
            }
        }
    }

    /// Send `batch` as chunked data messages on `stream` (no EOS).
    pub(crate) fn send_data(
        &mut self,
        to: Endpoint,
        stream: StreamTag,
        batch: &Batch,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        for chunk in batch.chunks(self.chunk_rows) {
            self.send(
                to,
                Message::Data {
                    stream,
                    batch: chunk,
                },
            )?;
        }
        Ok(())
    }

    /// Send an end-of-stream marker.
    pub(crate) fn send_eos(&mut self, to: Endpoint, stream: StreamTag) -> Result<()> {
        self.send(to, Message::Eos { stream })
    }

    /// Send a serialized Bloom filter / bitmap payload.
    pub(crate) fn send_bloom(
        &mut self,
        to: Endpoint,
        stream: StreamTag,
        bytes: Vec<u8>,
    ) -> Result<()> {
        self.send(to, Message::Bloom { stream, bytes })
    }

    /// Block until `expected_eos` end-of-stream markers have arrived on
    /// `stream`; return all of its data. Messages of other streams are
    /// buffered for later `take_stream` calls. The wait is sliced so a
    /// cancelled run or a disconnected endpoint aborts promptly; the idle
    /// timeout (no message for `recv_timeout`) stays a generic Net error.
    pub(crate) fn take_stream(
        &mut self,
        stream: StreamTag,
        expected_eos: usize,
    ) -> Result<StreamData> {
        let mut out = StreamData::default();
        let mut deadline = Instant::now() + self.timeout;
        loop {
            for d in self.buffered.remove(&stream).unwrap_or_default() {
                absorb(&mut out, d.from, d.msg);
            }
            if self.eos_seen.get(&stream).copied().unwrap_or(0) >= expected_eos {
                return Ok(out);
            }
            // one sliced wait; any delivery (on any stream) resets the
            // idle clock, matching the per-receive timeout this replaced
            loop {
                self.check_liveness(Some(stream))?;
                let now = Instant::now();
                if now >= deadline {
                    return Err(HybridError::Net(format!(
                        "{} timed out waiting for {stream:?} ({}/{} EOS)",
                        self.endpoint,
                        self.eos_seen.get(&stream).copied().unwrap_or(0),
                        expected_eos
                    )));
                }
                let slice = RECV_SLICE.min(deadline - now);
                if let Ok(d) = self.rx.recv_timeout(slice) {
                    self.absorb_delivery(d);
                    deadline = Instant::now() + self.timeout;
                    break;
                }
            }
        }
    }
}

fn absorb(out: &mut StreamData, from: Endpoint, msg: Message) {
    match msg {
        Message::Data { batch, .. } => {
            out.batch_senders.push(from);
            out.batches.push(batch);
        }
        Message::Bloom { bytes, .. } => {
            out.bloom_senders.push(from);
            out.blooms.push(bytes);
        }
        Message::Eos { .. } => unreachable!("EOS handled by caller"),
    }
}

// ---------------------------------------------------------------------------
// per-worker task states and shared steps
// ---------------------------------------------------------------------------

/// Per-worker state threaded through a JEN [`TaskSet`].
pub(crate) struct JenTask {
    pub mailbox: Mailbox,
    /// This worker's own shuffle partition (never crosses the wire).
    pub local_part: Option<Batch>,
    /// The local hash joiner, built on the shuffled HDFS data.
    pub joiner: Option<LocalJoiner>,
    /// This worker's partial aggregate.
    pub partial: Option<Batch>,
    /// A locally built Bloom filter awaiting the global merge (zigzag BF_H).
    pub local_bf: Option<BloomFilter>,
    /// The filtered `L'` parked across an adaptive observation point
    /// ([`crate::adapt`]), which a resumed plan takes through
    /// [`LSource::blocks`] instead of re-reading `L`.
    pub blocks: Option<Vec<Batch>>,
    /// A star plan's running intermediate: the fact scan, then each local
    /// join's output, and the dimension tables not yet probed with it.
    pub star_run: StarRun,
}

/// Per-worker state threaded through a DB [`TaskSet`].
pub(crate) struct DbTask {
    pub mailbox: Mailbox,
    /// This worker's `T'` partition.
    pub part: Option<Batch>,
    /// Locally collected distinct join keys (semi-join).
    pub keys: Option<Batch>,
    /// HDFS data landed on this worker (DB-side join).
    pub landed: Option<Batch>,
    /// The final query result (worker 0 only).
    pub result: Option<Batch>,
}

pub(crate) fn jen_tasks(sys: &HybridSystem, driver: &Driver) -> Result<Vec<JenTask>> {
    sys.jen_workers
        .iter()
        .map(|w| {
            Ok(JenTask {
                mailbox: Mailbox::new(sys, Endpoint::Jen(w.id()))?
                    .with_cancel(driver.cancel_token()),
                local_part: None,
                joiner: None,
                partial: None,
                local_bf: None,
                blocks: None,
                star_run: StarRun::default(),
            })
        })
        .collect()
}

pub(crate) fn db_tasks(sys: &HybridSystem, driver: &Driver) -> Result<Vec<DbTask>> {
    (0..sys.config.db_workers)
        .map(|w| {
            Ok(DbTask {
                mailbox: Mailbox::new(sys, Endpoint::Db(DbWorkerId(w)))?
                    .with_cancel(driver.cancel_token()),
                part: None,
                keys: None,
                landed: None,
                result: None,
            })
        })
        .collect()
}

/// The schema of a DB table after projection (`T'`, a star dimension),
/// known before any worker has scanned — probe steps need it even when
/// zero rows arrive.
pub(crate) fn db_schema(sys: &HybridSystem, table: &str, proj: &[usize]) -> Result<Schema> {
    sys.db.worker(0).partition(table)?.schema().project(proj)
}

/// DB worker `w` applies a table's local predicate and projection, under a
/// compute permit and a `Scan` span.
pub(crate) fn db_scan(
    sys: &HybridSystem,
    driver: &Driver,
    w: usize,
    table: &str,
    pred: &Expr,
    proj: &[usize],
) -> Result<Batch> {
    let _permit = driver.compute_permit();
    let span = sys.tracer.start(format!("db-{w}"), Stage::Scan);
    let part = sys.db.worker(w).scan_filter_project(table, pred, proj)?;
    span.done(0, part.num_rows() as u64);
    Ok(part)
}

/// The DB step every algorithm starts with, per worker: this worker's
/// slice of `T'` (Fig. 1–4, step 1).
pub(crate) fn db_scan_step(
    sys: &HybridSystem,
    query: &HybridQuery,
    driver: &Driver,
    w: usize,
) -> Result<Batch> {
    let (table, pred, proj) = (&query.db_table, &query.db_pred, &query.db_proj);
    let part = db_scan(sys, driver, w, table, pred, proj)?;
    sys.metrics.add("core.t_prime_rows", part.num_rows() as u64);
    Ok(part)
}

/// Serialized global `BF_DB`, built by the database. The per-partition
/// filters and their merge are metered inside `build_global_bloom`.
///
/// When the system has a cross-query Bloom cache, the serialized filter is
/// looked up there first — a hit skips the per-partition build entirely
/// (the cached bytes are exactly what a cold build would multicast).
fn build_bf_db(sys: &HybridSystem, query: &HybridQuery) -> Result<Arc<Vec<u8>>> {
    let bf_span = sys.tracer.start("db", Stage::BloomBuild);
    let build = || -> Result<Arc<Vec<u8>>> {
        let bf = sys.db.build_global_bloom(
            &query.db_table,
            &query.db_pred,
            query.db_key_base(),
            query.bloom,
        )?;
        Ok(Arc::new(bf.to_bytes()))
    };
    let bytes = match &sys.bloom_cache {
        Some(cache) => {
            let key = crate::cache::BloomKey::for_query(query);
            match cache.get(&key) {
                Some(cached) => cached,
                None => {
                    // Snapshot the table's load generation before reading
                    // it: if a rewrite lands mid-build (sessions keep the
                    // old partitions alive via `Arc`), the insert below is
                    // dropped instead of caching a pre-rewrite filter.
                    let generation = cache.generation(&query.db_table);
                    let fresh = build()?;
                    cache.insert(key, Arc::clone(&fresh), generation);
                    fresh
                }
            }
        }
        None => build()?,
    };
    bf_span.done(bytes.len() as u64, 0);
    Ok(bytes)
}

/// Serialized `BF_DB` for a run resumed from a prescan that did not apply
/// it: the Bloom cache's bytes on a hit (the abandoned attempt, or any
/// earlier query, built this filter), otherwise built from the parked `T'`
/// partitions — same key set, no second table access.
fn parked_bf_db(
    sys: &HybridSystem,
    query: &HybridQuery,
    t_parts: &[Batch],
) -> Result<Arc<Vec<u8>>> {
    if let Some(cached) = sys
        .bloom_cache
        .as_ref()
        .and_then(|cache| cache.get(&crate::cache::BloomKey::for_query(query)))
    {
        return Ok(cached);
    }
    let span = sys.tracer.start("db", Stage::BloomBuild);
    let mut bf = BloomFilter::new(query.bloom);
    for part in t_parts {
        let keys = part.column(query.db_key)?;
        for row in 0..part.num_rows() {
            bf.insert(keys.key_at(row)?);
        }
    }
    let bytes = bf.to_bytes();
    span.done(bytes.len() as u64, 0);
    Ok(Arc::new(bytes))
}

// ---------------------------------------------------------------------------
// first-phase inputs: a cold scan or the parked prescan
// ---------------------------------------------------------------------------

/// Where an advisor-priced algorithm's first phase — `T'` on the database,
/// `BF_DB`, the filtered `L'` on JEN — takes its data from. Both inputs run
/// the same step list; only the first phase's steps differ.
pub(crate) enum Input {
    /// Scan and filter both tables: the plain [`run`].
    Cold,
    /// Resume from the prescan parked at the adaptive observation point
    /// ([`crate::adapt`]); no table is read a second time.
    Parked(PrescanData),
}

/// How each JEN worker obtains its filtered `L'` blocks (see
/// [`first_phase`]).
pub(crate) struct LSource {
    /// `L'`: the HDFS table after projection.
    pub schema: Schema,
    plan: ScanPlan,
    spec: ScanSpec,
    /// Whether each worker takes `BF_DB` off the wire and applies it.
    takes_bf: bool,
    /// Whether the blocks sit in [`JenTask::blocks`], parked by the
    /// prescan, instead of waiting to be scanned.
    parked: bool,
}

impl LSource {
    /// Take `BF_DB` off the wire when this worker applies it. This blocks on
    /// the mailbox, so call it before claiming a compute permit.
    pub(crate) fn take_bloom(&self, st: &mut JenTask) -> Result<Option<BloomFilter>> {
        if !self.takes_bf {
            return Ok(None);
        }
        let got = st.mailbox.take_stream(StreamTag::DbBloom, 1)?;
        let bytes = got
            .blooms
            .first()
            .ok_or_else(|| HybridError::Net("BF_DB never arrived".into()))?;
        Ok(Some(BloomFilter::from_bytes(bytes)?))
    }

    /// Worker `w`'s `L'` blocks in block order, reduced by `bf` (from
    /// [`LSource::take_bloom`]) when given. Cold: the batched scan, applying
    /// `bf` as it reads. Parked: the prescan's blocks, filtered here — the
    /// work the prescan would have folded into its scan had the original
    /// plan used the filter. Compute only: callers hold their permit.
    pub(crate) fn blocks(
        &self,
        sys: &HybridSystem,
        query: &HybridQuery,
        st: &mut JenTask,
        w: usize,
        bf: Option<&BloomFilter>,
    ) -> Result<Vec<Batch>> {
        let worker = &sys.jen_workers[w];
        if !self.parked {
            let (blocks, _) = scan_blocks_batched(
                worker,
                &self.plan.table,
                &self.plan.blocks[w],
                &self.spec,
                bf,
            )?;
            return Ok(blocks);
        }
        let blocks = st.blocks.take().unwrap_or_default();
        let Some(bf) = bf else {
            return Ok(blocks);
        };
        let span = sys.tracer.start(worker.span_label(), Stage::BloomApply);
        let rows = blocks.iter().map(|b| b.num_rows() as u64).sum();
        let kept = blocks
            .iter()
            .map(|b| Ok(filter_batch(b, query.hdfs_key, bf)?.0))
            .collect::<Result<Vec<_>>>()?;
        span.done(0, rows);
        Ok(kept)
    }
}

/// Create a run's two task sets with its first phase wired in; `bf_seq` is
/// the sequence number of the plan's `BF_DB` step (`None` for plans that
/// never ship the filter).
///
/// Cold: step 10 scans `T'` on every DB worker, and step `bf_seq` builds
/// `BF_DB` on DB worker 0 and multicasts it. Parked: the prescan's `T'`
/// partitions and `L'` blocks are injected into the worker states, and step
/// `bf_seq` multicasts `BF_DB` only when the prescan did not already apply
/// it. The returned [`LSource`] tells every JEN worker where its `L'` comes
/// from; the algorithm registers the rest of its step list on the sets.
pub(crate) fn first_phase<'env>(
    sys: &'env HybridSystem,
    query: &'env HybridQuery,
    driver: &'env Driver,
    input: Input,
    bf_seq: Option<u32>,
) -> Result<(LSource, TaskSet<'env, DbTask>, TaskSet<'env, JenTask>)> {
    let plan = sys.coordinator.plan_scan(&query.hdfs_table)?;
    let schema = plan.table.schema.project(&query.hdfs_proj)?;
    let spec = ScanSpec {
        pred: query.hdfs_pred.clone(),
        proj: query.hdfs_proj.clone(),
        bloom_key: bf_seq.map(|_| query.hdfs_key_base()),
    };
    let mut db_states = db_tasks(sys, driver)?;
    let mut jen_states = jen_tasks(sys, driver)?;
    // `bf_db` is `Some` when the plan registers its `BF_DB` step; the inner
    // bytes are `None` when that step builds the filter itself (cold).
    let (parked, bf_db) = match input {
        Input::Cold => (false, bf_seq.map(|_| None)),
        Input::Parked(pre) => {
            let bf_db = match bf_seq {
                Some(_) if !pre.bloomed => Some(Some(parked_bf_db(sys, query, &pre.t_parts)?)),
                _ => None,
            };
            for (st, part) in db_states.iter_mut().zip(pre.t_parts) {
                st.part = Some(part);
            }
            for (st, blocks) in jen_states.iter_mut().zip(pre.l_blocks) {
                st.blocks = Some(blocks);
            }
            (true, bf_db)
        }
    };
    let takes_bf = bf_db.is_some();

    let mut db = TaskSet::new("db", db_states);
    if !parked {
        db.step(10, move |w, st| {
            st.part = Some(db_scan_step(sys, query, driver, w)?);
            Ok(())
        });
    }
    if let (Some(seq), Some(bf_db)) = (bf_seq, bf_db) {
        db.step(seq, move |w, st| {
            if w != 0 {
                return Ok(());
            }
            let bytes = match &bf_db {
                Some(parked) => Arc::clone(parked),
                None => build_bf_db(sys, query)?,
            };
            for jen in sys.fabric.jen_endpoints() {
                st.mailbox
                    .send_bloom(jen, StreamTag::DbBloom, bytes.to_vec())?;
                st.mailbox.send_eos(jen, StreamTag::DbBloom)?;
            }
            Ok(())
        });
    }
    let l_src = LSource {
        schema,
        plan,
        spec,
        takes_bf,
        parked,
    };
    Ok((l_src, db, TaskSet::new("jen", jen_states)))
}

/// The agreed-hash route on column `key`: each row to the owner of its
/// key's hash partition. With a [`SaltRouter`] this is the split side of a
/// salted join: heavy-hitter rows cycle round-robin over the key's salt
/// workers, the cursors threaded across every block of one sender's share,
/// which makes the split a function of scan order alone — any `batch_rows`
/// reproduces the whole-share routing bit for bit.
pub(crate) fn hash_route(
    num_jen: usize,
    key: usize,
    salt: Option<&SaltRouter>,
) -> impl FnMut(&Batch) -> Result<Vec<SelectionVector>> + '_ {
    let mut cursors = SaltCursors::new();
    move |block| match salt {
        Some(r) => r.partition_build_sel(block, key, &mut cursors),
        None => partition_sel(block, key, num_jen, agreed_shuffle_partition),
    }
}

/// The agreed-hash route on column `key` for the replicating side of a
/// salted join: heavy-hitter rows go to *every* salt worker of their key,
/// each of which holds a slice of the split side.
pub(crate) fn salted_replicate_route(
    num_jen: usize,
    key: usize,
    salt: Option<&SaltRouter>,
) -> impl FnMut(&Batch) -> Result<Vec<SelectionVector>> + '_ {
    move |batch| match salt {
        Some(r) => r.partition_probe_sel(batch, key),
        None => partition_sel(batch, key, num_jen, agreed_shuffle_partition),
    }
}

/// Every row to every JEN worker.
pub(crate) fn broadcast_route(
    num_jen: usize,
) -> impl FnMut(&Batch) -> Result<Vec<SelectionVector>> {
    move |batch| Ok(vec![SelectionVector::identity(batch.num_rows()); num_jen])
}

/// Send a DB batch to the JEN workers on `stream`: `route` selects each
/// worker's rows (a row may go to several — salted, broadcast and per-axis
/// replication). One EOS per worker; returns the rows and bytes sent, which
/// the ShuffleSend span counts too.
pub(crate) fn db_route_to_jen(
    sys: &HybridSystem,
    st: &mut DbTask,
    w: usize,
    batch: &Batch,
    stream: StreamTag,
    route: impl FnOnce(&Batch) -> Result<Vec<SelectionVector>>,
) -> Result<(u64, u64)> {
    let span = sys.tracer.start(format!("db-{w}"), Stage::ShuffleSend);
    let (mut rows, mut bytes) = (0u64, 0u64);
    for (jen_idx, sel) in route(batch)?.iter().enumerate() {
        let piece = batch.take_sel(sel);
        rows += piece.num_rows() as u64;
        bytes += piece.serialized_bytes() as u64;
        let dst = Endpoint::Jen(JenWorkerId(jen_idx));
        st.mailbox.send_data(dst, stream, &piece)?;
        st.mailbox.send_eos(dst, stream)?;
    }
    span.done(bytes, rows);
    Ok((rows, bytes))
}

/// Send-side accumulation buffer for one shuffle destination. Routed rows
/// append in scan order; every full `batch_rows` window ships as one
/// message and the tail stays pending. Because rows reach each destination
/// in the same order as a whole-share partition would produce them, the
/// per-destination message framing is *identical* to partitioning the
/// concatenated share and chunking it at `batch_rows` — at every batch
/// size, which is what keeps `net.*` message/byte counters independent of
/// how the scan framed its blocks.
struct ShuffleBuffer {
    schema: Schema,
    batch_rows: usize,
    pending: BatchBuilder,
}

impl ShuffleBuffer {
    fn new(schema: Schema, batch_rows: usize) -> ShuffleBuffer {
        ShuffleBuffer {
            pending: BatchBuilder::new(schema.clone()),
            schema,
            batch_rows,
        }
    }

    /// Gather-append the selected rows of `src`.
    fn append(&mut self, src: &Batch, sel: &SelectionVector) -> Result<()> {
        self.pending.append_rows(src, sel.as_slice())
    }

    /// Drain every full `batch_rows` message that is ready to ship; rows
    /// that don't yet fill a window stay pending for the next append (or
    /// the final [`ShuffleBuffer::finish`]).
    fn take_full(&mut self) -> Result<Vec<Batch>> {
        if self.pending.num_rows() < self.batch_rows {
            return Ok(Vec::new());
        }
        let drained =
            std::mem::replace(&mut self.pending, BatchBuilder::new(self.schema.clone())).finish();
        let mut full = drained.chunks(self.batch_rows);
        if let Some(last) = full.last() {
            if last.num_rows() < self.batch_rows {
                let tail = full.pop().expect("chunks of a non-empty batch");
                let keep: Vec<u32> = (0..tail.num_rows() as u32).collect();
                self.pending.append_rows(&tail, &keep)?;
            }
        }
        Ok(full)
    }

    /// The pending tail (possibly empty) as one batch.
    fn finish(self) -> Batch {
        self.pending.finish()
    }
}

/// Route this JEN worker's `blocks` (of `schema`) among the JEN workers on
/// `stream`. `route` maps each block to one selection per worker, block by
/// block in order — so a stateful route (salted round-robin, hot-key
/// cursors) sees the share in scan order — and each worker's rows gather
/// into its own [`ShuffleBuffer`]. Shuffling thus overlaps the scan's
/// framing instead of waiting for a concatenated share, with one selection
/// pass per block and no per-row dispatch.
///
/// Returns this worker's own piece, which never crosses the wire, and the
/// rows and bytes sent to the others (one EOS each), which the ShuffleSend
/// span counts too.
pub(crate) fn jen_shuffle_share(
    sys: &HybridSystem,
    st: &mut JenTask,
    w: usize,
    stream: StreamTag,
    schema: &Schema,
    blocks: &[Batch],
    mut route: impl FnMut(&Batch) -> Result<Vec<SelectionVector>>,
) -> Result<(Batch, u64, u64)> {
    let span = sys
        .tracer
        .start(sys.jen_workers[w].span_label(), Stage::ShuffleSend);
    let (mut rows, mut bytes) = (0u64, 0u64);
    let mut bufs: Vec<ShuffleBuffer> = (0..sys.config.jen_workers)
        .map(|_| ShuffleBuffer::new(schema.clone(), sys.config.batch_rows))
        .collect();
    for block in blocks.iter().filter(|b| !b.is_empty()) {
        for (dst_idx, sel) in route(block)?.iter().enumerate() {
            if sel.is_empty() {
                continue;
            }
            bufs[dst_idx].append(block, sel)?;
            if dst_idx != w {
                let dst = Endpoint::Jen(JenWorkerId(dst_idx));
                for batch in bufs[dst_idx].take_full()? {
                    rows += batch.num_rows() as u64;
                    bytes += batch.serialized_bytes() as u64;
                    st.mailbox.send(dst, Message::Data { stream, batch })?;
                }
            }
        }
    }
    let mut own = Batch::empty(schema.clone());
    for (dst_idx, buf) in bufs.into_iter().enumerate() {
        let tail = buf.finish();
        if dst_idx == w {
            own = tail;
            continue;
        }
        rows += tail.num_rows() as u64;
        bytes += tail.serialized_bytes() as u64;
        let dst = Endpoint::Jen(JenWorkerId(dst_idx));
        st.mailbox.send_data(dst, stream, &tail)?;
        st.mailbox.send_eos(dst, stream)?;
    }
    span.done(bytes, rows);
    Ok((own, rows, bytes))
}

/// The binary plans' `L'` shuffle: hash-route the filtered blocks on the
/// HDFS join key ([`hash_route`]); the worker's own partition stays in
/// `st.local_part` for [`jen_recv_build`].
pub(crate) fn jen_shuffle_l(
    sys: &HybridSystem,
    query: &HybridQuery,
    st: &mut JenTask,
    w: usize,
    l_blocks: &[Batch],
    l_schema: &Schema,
    salt: Option<&SaltRouter>,
) -> Result<()> {
    let route = hash_route(sys.config.jen_workers, query.hdfs_key, salt);
    let stream = StreamTag::HdfsShuffle;
    let (own, ..) = jen_shuffle_share(sys, st, w, stream, l_schema, l_blocks, route)?;
    st.local_part = Some(own);
    Ok(())
}

/// A JEN worker's local hash joiner over `schema`, keyed on `key`.
/// In-memory by default, hybrid-hash with dynamic partition eviction when
/// the engine has a build-side memory budget (a row limit or this worker's
/// byte share of the query's grant).
pub(crate) fn local_joiner(sys: &HybridSystem, schema: Schema, key: usize) -> Result<LocalJoiner> {
    LocalJoiner::new(
        schema,
        key,
        sys.config.jen_memory_limit_rows,
        sys.query_budget
            .as_ref()
            .map(|q| q.worker_share(sys.config.jen_workers)),
        sys.metrics.clone(),
    )
}

/// JEN epilogue, first half (repartition/zigzag/semijoin): receive the
/// shuffled HDFS partitions and build the local hash joiner over them plus
/// the local partition ([`local_joiner`]).
pub(crate) fn jen_recv_build(
    sys: &HybridSystem,
    query: &HybridQuery,
    driver: &Driver,
    st: &mut JenTask,
    w: usize,
    l_schema: &Schema,
) -> Result<()> {
    let num_jen = sys.config.jen_workers;
    let label = sys.jen_workers[w].span_label();
    let recv_span = sys.tracer.start(label.clone(), Stage::ShuffleRecv);
    let shuffled = st
        .mailbox
        .take_stream(StreamTag::HdfsShuffle, num_jen - 1)?;
    let recv_rows: u64 = shuffled.batches.iter().map(|b| b.num_rows() as u64).sum();
    recv_span.done(0, recv_rows);
    let local = st
        .local_part
        .take()
        .unwrap_or_else(|| Batch::empty(l_schema.clone()));
    let built_rows = local.num_rows() as u64 + recv_rows;
    // Per-worker shuffle balance: local + received build rows. Independent
    // of schedule, so snapshots stay identical across thread counts.
    sys.metrics
        .add(&format!("net.shuffle.rows.jen-{w}"), built_rows);
    let _permit = driver.compute_permit();
    let build_span = sys.tracer.start(label, Stage::HashBuild);
    let mut joiner = local_joiner(sys, l_schema.clone(), query.hdfs_key)?;
    joiner.build(local)?;
    for b in shuffled.batches {
        joiner.build(b)?;
    }
    build_span.done(0, built_rows);
    st.joiner = Some(joiner);
    Ok(())
}

/// JEN epilogue, second half: receive the DB tuples, probe the joiner built
/// earlier, and fold the matches through the post-join predicate into a
/// partial aggregate. The joined layout is L' ++ T', so the remapped query
/// expressions apply.
pub(crate) fn jen_probe_aggregate(
    sys: &HybridSystem,
    query: &HybridQuery,
    driver: &Driver,
    st: &mut JenTask,
    w: usize,
) -> Result<()> {
    let num_db = sys.config.db_workers;
    let label = sys.jen_workers[w].span_label();
    let db_data = st.mailbox.take_stream(StreamTag::DbData, num_db)?;
    let joiner = st
        .joiner
        .take()
        .ok_or_else(|| HybridError::exec("probe step reached before a joiner was built"))?;
    let probe_rows: u64 = db_data.batches.iter().map(|b| b.num_rows() as u64).sum();
    let mut sink = JoinAggregator::new(
        query.post_predicate_hdfs_layout().as_ref(),
        &query.group_expr_hdfs_layout(),
        &query.aggs_hdfs_layout(),
    );
    let _permit = driver.compute_permit();
    let probe_span = sys.tracer.start(label.clone(), Stage::Probe);
    joiner.probe_into(db_data.batches, query.db_key, |j, p, key| {
        sink.probe(j, p, key)
    })?;
    probe_span.done(0, probe_rows);
    st.partial = Some(partial_aggregate(sys, label, sink, &[])?);
    Ok(())
}

/// The post-join tail of every HDFS-side plan, binary or star: fold
/// `joined` — batches already in the sink's joined layout, if any — into
/// `sink`, and emit one worker's partial aggregate. The `Aggregate` span
/// counts the rows that passed the post-join predicate, however they
/// reached the sink.
pub(crate) fn partial_aggregate(
    sys: &HybridSystem,
    label: String,
    mut sink: JoinAggregator,
    joined: &[Batch],
) -> Result<Batch> {
    let agg_span = sys.tracer.start(label, Stage::Aggregate);
    for b in joined {
        sink.consume(b)?;
    }
    let survivors = sink.survivors();
    let partial = sink.finish();
    agg_span.done(0, survivors);
    Ok(partial)
}

/// Append the HDFS-side epilogue every plan but DB-side shares, binary or
/// star, at sequence numbers `seq..seq+2`: partial aggregates travel to the
/// designated worker, which merges them and ships the final result to DB
/// worker 0 (Figures 2–4, final steps). `aggs` are the query's canonical
/// aggregates: merging folds accumulator columns, so no layout remap
/// applies to partials.
pub(crate) fn add_final_aggregation_steps<'env>(
    sys: &'env HybridSystem,
    aggs: &'env [AggSpec],
    jen: &mut TaskSet<'env, JenTask>,
    db: &mut TaskSet<'env, DbTask>,
    seq: u32,
) -> Result<()> {
    let designated = sys.coordinator.designated_worker()?;
    let num_jen = sys.config.jen_workers;
    jen.step(seq, move |w, st| {
        if w == designated.index() {
            return Ok(());
        }
        let partial = st
            .partial
            .take()
            .ok_or_else(|| HybridError::exec("missing partial aggregate"))?;
        let to = Endpoint::Jen(designated);
        st.mailbox.send_data(to, StreamTag::PartialAgg, &partial)?;
        st.mailbox.send_eos(to, StreamTag::PartialAgg)
    });
    jen.step(seq + 1, move |w, st| {
        if w != designated.index() {
            return Ok(());
        }
        let agg_span = sys
            .tracer
            .start(format!("jen-{}", designated.index()), Stage::Aggregate);
        let mut merger = HashAggregator::new(aggs.to_vec());
        if let Some(p) = st.partial.take() {
            merger.merge_partial(&p)?;
        }
        let received = st.mailbox.take_stream(StreamTag::PartialAgg, num_jen - 1)?;
        for p in &received.batches {
            merger.merge_partial(p)?;
        }
        let final_batch = merger.finish();
        agg_span.done(0, final_batch.num_rows() as u64);
        // ship to the database (a single DB worker returns it to the user)
        let db0 = Endpoint::Db(DbWorkerId(0));
        st.mailbox
            .send_data(db0, StreamTag::FinalResult, &final_batch)?;
        st.mailbox.send_eos(db0, StreamTag::FinalResult)
    });
    db.step(seq + 2, move |w, st| {
        if w != 0 {
            return Ok(());
        }
        let got = st.mailbox.take_stream(StreamTag::FinalResult, 1)?;
        // an all-EOS stream means an empty result; the aggregate schema is
        // a property of the query, so build it from an empty aggregator
        let schema = HashAggregator::new(aggs.to_vec()).finish().schema().clone();
        st.result = Some(if got.batches.is_empty() {
            Batch::empty(schema)
        } else {
            Batch::concat(schema, &got.batches)?
        });
        Ok(())
    });
    Ok(())
}

/// Run a plan's two task sets to completion and pull the final result off
/// DB worker 0.
pub(crate) fn run_to_result(
    driver: &Driver,
    db: TaskSet<'_, DbTask>,
    jen: TaskSet<'_, JenTask>,
) -> Result<Batch> {
    let (mut db_states, _jen_states) = driver.run_pair(db, jen)?;
    db_states
        .first_mut()
        .and_then(|st| st.result.take())
        .ok_or_else(|| HybridError::exec("no final result on DB worker 0"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_reference;
    use crate::system::SystemConfig;
    use hybrid_bloom::BloomParams;
    use hybrid_common::batch::Column;
    use hybrid_common::datum::DataType;
    use hybrid_common::expr::Expr;
    use hybrid_common::hash::splitmix64;
    use hybrid_common::ops::AggSpec;
    use hybrid_common::schema::Schema;
    use hybrid_storage::FileFormat;

    fn t_schema() -> Schema {
        Schema::from_pairs(&[
            ("uniqKey", DataType::I64),
            ("joinKey", DataType::I32),
            ("corPred", DataType::I32),
            ("tdate", DataType::Date),
        ])
    }

    fn l_schema() -> Schema {
        Schema::from_pairs(&[
            ("joinKey", DataType::I32),
            ("corPred", DataType::I32),
            ("ldate", DataType::Date),
            ("grp", DataType::Utf8),
        ])
    }

    /// Deterministic pseudo-random tables: T has 400 rows over 50 keys,
    /// L has 1200 rows over 80 keys (keys 0..50 overlap T).
    fn t_data() -> Batch {
        let n = 400usize;
        Batch::new(
            t_schema(),
            vec![
                Column::I64((0..n as i64).collect()),
                Column::I32((0..n).map(|i| (splitmix64(i as u64) % 50) as i32).collect()),
                Column::I32(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 7) % 100) as i32)
                        .collect(),
                ),
                Column::Date(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 9) % 30) as i32)
                        .collect(),
                ),
            ],
        )
        .unwrap()
    }

    fn l_data() -> Batch {
        let n = 1200usize;
        Batch::new(
            l_schema(),
            vec![
                Column::I32(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 100) % 80) as i32)
                        .collect(),
                ),
                Column::I32(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 101) % 100) as i32)
                        .collect(),
                ),
                Column::Date(
                    (0..n)
                        .map(|i| (splitmix64(i as u64 ^ 102) % 30) as i32)
                        .collect(),
                ),
                Column::Utf8(
                    (0..n)
                        .map(|i| format!("url_{}/p", splitmix64(i as u64 ^ 103) % 7))
                        .collect(),
                ),
            ],
        )
        .unwrap()
    }

    fn paper_query() -> HybridQuery {
        HybridQuery {
            db_table: "T".into(),
            hdfs_table: "L".into(),
            db_pred: Expr::col_le(2, 49),
            db_proj: vec![1, 3], // joinKey, tdate
            db_key: 0,
            hdfs_pred: Expr::col_le(1, 59),
            hdfs_proj: vec![0, 2, 3], // joinKey, ldate, grp
            hdfs_key: 0,
            post_predicate: Some(
                Expr::col(1)
                    .sub(Expr::col(3))
                    .ge(Expr::lit_i64(0))
                    .and(Expr::col(1).sub(Expr::col(3)).le(Expr::lit_i64(1))),
            ),
            group_expr: Expr::ExtractGroup(Box::new(Expr::col(4))),
            aggs: vec![AggSpec::Count],
            bloom: BloomParams::new(1 << 12, 2).unwrap(),
        }
    }

    fn system(format: FileFormat) -> HybridSystem {
        let mut cfg = SystemConfig::paper_shape(3, 4);
        cfg.rows_per_block = 100;
        let mut sys = HybridSystem::new(cfg).unwrap();
        sys.load_db_table("T", 0, t_data()).unwrap();
        sys.create_db_index("T", &[2, 1]).unwrap();
        sys.load_hdfs_table("L", format, l_schema(), &l_data())
            .unwrap();
        sys
    }

    /// Raw fabric sends, bypassing the mailbox pump (tests drive one
    /// endpoint at a time, so there is nobody to drain an inbox). Frames at
    /// the default batch size, like a default-configured mailbox.
    fn send_data(sys: &HybridSystem, from: Endpoint, to: Endpoint, stream: StreamTag, b: &Batch) {
        for chunk in b.chunks(crate::system::DEFAULT_BATCH_ROWS) {
            sys.fabric
                .send(
                    from,
                    to,
                    Message::Data {
                        stream,
                        batch: chunk,
                    },
                )
                .unwrap();
        }
    }

    fn send_eos(sys: &HybridSystem, from: Endpoint, to: Endpoint, stream: StreamTag) {
        sys.fabric.send(from, to, Message::Eos { stream }).unwrap();
    }

    #[test]
    fn all_algorithms_agree_with_reference() {
        let expected = run_reference(&t_data(), &l_data(), &paper_query()).unwrap();
        assert!(expected.num_rows() > 0, "test query must be non-trivial");
        for format in [FileFormat::Columnar, FileFormat::Text] {
            let mut sys = system(format);
            for alg in JoinAlgorithm::paper_variants()
                .into_iter()
                .chain([JoinAlgorithm::SemiJoin])
            {
                let out = run(&mut sys, &paper_query(), alg).unwrap();
                assert_eq!(
                    out.result, expected,
                    "algorithm {alg} diverged on {format} format"
                );
            }
        }
    }

    /// Cross-algorithm, cross-format invariants of one run:
    /// * every algorithm on every storage format returns the bit-identical
    ///   aggregated result;
    /// * the *set* of pipeline stages an algorithm records is a property of
    ///   the algorithm, not of the storage format — both formats must
    ///   produce identical Timeline stage-name sets;
    /// * every timeline is non-empty, scans on a JEN worker, and stays
    ///   within the tracer's clock (spans ordered, inside the makespan).
    #[test]
    fn cross_format_results_and_stage_sets_identical() {
        let expected = run_reference(&t_data(), &l_data(), &paper_query()).unwrap();
        assert!(expected.num_rows() > 0, "test query must be non-trivial");
        for alg in JoinAlgorithm::paper_variants()
            .into_iter()
            .chain([JoinAlgorithm::SemiJoin, JoinAlgorithm::PerfJoin])
        {
            let mut stage_sets = Vec::new();
            for format in [FileFormat::Columnar, FileFormat::Text] {
                let mut sys = system(format);
                let out = run(&mut sys, &paper_query(), alg).unwrap();
                assert_eq!(
                    out.result, expected,
                    "algorithm {alg} diverged on {format} format"
                );
                assert!(
                    !out.timeline.spans.is_empty(),
                    "{alg} on {format} recorded no spans"
                );
                assert!(
                    out.timeline
                        .spans
                        .iter()
                        .any(|s| s.worker.starts_with("jen-")
                            && s.stage == hybrid_common::trace::Stage::Scan),
                    "{alg} on {format} has no JEN scan span"
                );
                let makespan = out.timeline.makespan_us();
                for s in &out.timeline.spans {
                    assert!(s.t_start <= s.t_end, "{alg}: span ends before it starts");
                    assert!(s.t_end <= makespan, "{alg}: span outside makespan");
                }
                stage_sets.push(out.timeline.stage_names());
            }
            assert_eq!(
                stage_sets[0], stage_sets[1],
                "algorithm {alg}: stage set differs between storage formats"
            );
        }
    }

    #[test]
    fn bloom_variants_move_fewer_tuples() {
        let mut sys = system(FileFormat::Columnar);
        let q = paper_query();
        let plain = run(&mut sys, &q, JoinAlgorithm::Repartition { bloom: false }).unwrap();
        let bloomed = run(&mut sys, &q, JoinAlgorithm::Repartition { bloom: true }).unwrap();
        let zz = run(&mut sys, &q, JoinAlgorithm::Zigzag).unwrap();
        assert!(
            bloomed.summary.hdfs_tuples_shuffled <= plain.summary.hdfs_tuples_shuffled,
            "BF should not increase shuffle volume"
        );
        assert!(
            zz.summary.db_tuples_sent <= bloomed.summary.db_tuples_sent,
            "zigzag's BF_H should shrink the DB transfer"
        );
    }

    #[test]
    fn db_side_bloom_reduces_cross_traffic() {
        let mut sys = system(FileFormat::Columnar);
        let q = paper_query();
        let plain = run(&mut sys, &q, JoinAlgorithm::DbSide { bloom: false }).unwrap();
        let bloomed = run(&mut sys, &q, JoinAlgorithm::DbSide { bloom: true }).unwrap();
        assert!(bloomed.summary.hdfs_tuples_sent <= plain.summary.hdfs_tuples_sent);
        assert!(plain.summary.hdfs_tuples_sent > 0);
    }

    #[test]
    fn broadcast_sends_t_prime_to_every_worker() {
        let mut sys = system(FileFormat::Columnar);
        let q = paper_query();
        let out = run(&mut sys, &q, JoinAlgorithm::Broadcast).unwrap();
        // T' rows × 4 JEN workers
        let t_rows: u64 = sys
            .db
            .scan_filter_project(&q.db_table, &q.db_pred, &q.db_proj)
            .unwrap()
            .iter()
            .map(|b| b.num_rows() as u64)
            .sum();
        assert_eq!(out.summary.db_tuples_sent, t_rows * 4);
        assert_eq!(
            out.summary.hdfs_tuples_shuffled, 0,
            "broadcast never shuffles HDFS data"
        );
    }

    #[test]
    fn mailbox_demultiplexes_streams() {
        let sys = HybridSystem::new(SystemConfig::paper_shape(1, 2)).unwrap();
        let j0 = Endpoint::Jen(hybrid_common::ids::JenWorkerId(0));
        let j1 = Endpoint::Jen(hybrid_common::ids::JenWorkerId(1));
        let mk = |n: i32| {
            Batch::new(
                Schema::from_pairs(&[("x", DataType::I32)]),
                vec![Column::I32(vec![n])],
            )
            .unwrap()
        };
        // interleave two streams
        send_data(&sys, j1, j0, StreamTag::HdfsShuffle, &mk(1));
        send_data(&sys, j1, j0, StreamTag::DbData, &mk(2));
        send_data(&sys, j1, j0, StreamTag::HdfsShuffle, &mk(3));
        send_eos(&sys, j1, j0, StreamTag::HdfsShuffle);
        send_eos(&sys, j1, j0, StreamTag::DbData);
        let mut mb = Mailbox::new(&sys, j0).unwrap();
        let shuffle = mb.take_stream(StreamTag::HdfsShuffle, 1).unwrap();
        assert_eq!(shuffle.batches.len(), 2);
        let db = mb.take_stream(StreamTag::DbData, 1).unwrap();
        assert_eq!(db.batches.len(), 1);
        assert_eq!(db.batches[0].column(0).unwrap().as_i32().unwrap(), &[2]);
    }

    /// Satellite coverage for chaos retransmissions: for *every* logical
    /// stream, a duplicated data/bloom delivery and a duplicated EOS must
    /// both be discarded by the receiving mailbox. A surviving duplicate
    /// EOS is the dangerous case — it would inflate `eos_seen` and let a
    /// receiver stop before its peers' real data arrived.
    #[test]
    fn mailbox_dedups_duplicate_deliveries_on_every_stream() {
        let all_tags = [
            StreamTag::HdfsShuffle,
            StreamTag::DbData,
            StreamTag::HdfsData,
            StreamTag::DbBloom,
            StreamTag::HdfsBloom,
            StreamTag::PartialAgg,
            StreamTag::FinalResult,
            StreamTag::DbKeySet,
            StreamTag::PerfKeys,
            StreamTag::PerfBitmap,
            StreamTag::DimData0,
            StreamTag::DimData1,
            StreamTag::DimData2,
            StreamTag::CascadeShuffle0,
            StreamTag::CascadeShuffle1,
            StreamTag::CascadeShuffle2,
        ];
        for tag in all_tags {
            let mut cfg = SystemConfig::paper_shape(1, 2);
            cfg.fault_spec = Some(hybrid_net::FaultSpec::quiet(7).with_dups(1.0));
            let sys = HybridSystem::new(cfg).unwrap();
            let j0 = Endpoint::Jen(hybrid_common::ids::JenWorkerId(0));
            let j1 = Endpoint::Jen(hybrid_common::ids::JenWorkerId(1));
            let payload_is_bloom = matches!(
                tag,
                StreamTag::DbBloom | StreamTag::HdfsBloom | StreamTag::PerfBitmap
            );
            if payload_is_bloom {
                sys.fabric
                    .send(
                        j1,
                        j0,
                        Message::Bloom {
                            stream: tag,
                            bytes: vec![1, 2, 3],
                        },
                    )
                    .unwrap();
            } else {
                let b = Batch::new(
                    Schema::from_pairs(&[("x", DataType::I32)]),
                    vec![Column::I32(vec![42])],
                )
                .unwrap();
                sys.fabric
                    .send(
                        j1,
                        j0,
                        Message::Data {
                            stream: tag,
                            batch: b,
                        },
                    )
                    .unwrap();
            }
            sys.fabric
                .send(j1, j0, Message::Eos { stream: tag })
                .unwrap();

            let mut mb = Mailbox::new(&sys, j0).unwrap();
            let data = mb.take_stream(tag, 1).unwrap();
            if payload_is_bloom {
                assert_eq!(data.blooms.len(), 1, "{tag:?}: duplicate bloom survived");
            } else {
                assert_eq!(data.batches.len(), 1, "{tag:?}: duplicate batch survived");
            }
            // `take_stream` returns at the first EOS; the EOS's
            // retransmission is still queued. Drain it through the same
            // absorption path and check it was binned, not counted.
            while let Ok(d) = mb.rx.try_recv() {
                mb.absorb_delivery(d);
            }
            assert_eq!(
                mb.eos_seen.get(&tag).copied().unwrap_or(0),
                1,
                "{tag:?}: duplicate EOS inflated the barrier count"
            );
            // Both the payload's retransmission and the EOS's were binned.
            assert_eq!(
                sys.metrics.get("net.chaos.deduped"),
                2,
                "{tag:?}: expected exactly two deduped deliveries"
            );
        }
    }

    #[test]
    fn mailbox_timeout_on_missing_eos() {
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.recv_timeout = std::time::Duration::from_millis(20);
        let sys = HybridSystem::new(cfg).unwrap();
        let j0 = Endpoint::Jen(hybrid_common::ids::JenWorkerId(0));
        let mut mb = Mailbox::new(&sys, j0).unwrap();
        let err = mb.take_stream(StreamTag::DbData, 1).unwrap_err();
        assert!(matches!(err, HybridError::Net(_)));
    }

    #[test]
    fn panicking_step_fails_the_run_without_waiting_out_the_timeout() {
        // DB worker 0's handle is joined first, and it waits for traffic
        // from a JEN worker whose step panics
        let mut cfg = SystemConfig::paper_shape(2, 4);
        cfg.threads = 8;
        cfg.recv_timeout = Duration::from_secs(30);
        let sys = HybridSystem::new(cfg).unwrap();
        let driver = Driver::from_config(&sys.config);
        let mailboxes = (0..2)
            .map(|w| Mailbox::new(&sys, Endpoint::Db(DbWorkerId(w))).unwrap())
            .map(|mb| mb.with_cancel(driver.cancel_token()))
            .collect();
        let mut db = TaskSet::new("db", mailboxes);
        db.step(10, |_, mb: &mut Mailbox| {
            mb.take_stream(StreamTag::FinalResult, 1).map(drop)
        });
        let mut jen = TaskSet::new("jen", vec![(); 4]);
        jen.step(10, |w, _| {
            assert_ne!(w, 3, "a bug in a JEN step");
            Ok(())
        });
        let start = Instant::now();
        let Err(err) = driver.run_pair(db, jen) else {
            panic!("the run succeeded");
        };
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
        assert!(
            matches!(&err, HybridError::Exec(m) if m.starts_with("worker jen-3 panicked")),
            "{err:?}"
        );
    }

    #[test]
    fn algorithm_names_are_unique() {
        let mut names: Vec<&str> = JoinAlgorithm::paper_variants()
            .into_iter()
            .chain([JoinAlgorithm::SemiJoin])
            .map(|a| a.name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn single_worker_clusters_work() {
        // degenerate 1×1 deployment exercises the "no peers" paths
        let mut cfg = SystemConfig::paper_shape(1, 1);
        cfg.rows_per_block = 64;
        let mut sys = HybridSystem::new(cfg).unwrap();
        sys.load_db_table("T", 0, t_data()).unwrap();
        sys.load_hdfs_table("L", FileFormat::Columnar, l_schema(), &l_data())
            .unwrap();
        let expected = run_reference(&t_data(), &l_data(), &paper_query()).unwrap();
        for alg in JoinAlgorithm::paper_variants() {
            let out = run(&mut sys, &paper_query(), alg).unwrap();
            assert_eq!(out.result, expected, "algorithm {alg} on 1x1");
        }
    }
}
