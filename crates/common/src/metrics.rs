//! A shared metrics registry with a sharded, lock-free hot path.
//!
//! Every component of the simulation (fabric links, scans, Bloom filter
//! builds, hash joins) increments named counters here. The experiment
//! harness reads a [`MetricsSnapshot`] after each run; Table 1 of the paper
//! ("# tuples shuffled / sent") is literally two counters from this registry.
//!
//! # Design
//!
//! The original registry was an `Arc<Mutex<BTreeMap<String, u64>>>`: every
//! increment took a process-wide lock and a string allocation, which
//! serialized the engines' worker threads once scans and shuffles got busy.
//! The per-add cost of the replacement is tracked by the `benchmark`
//! crate's `common.metrics.add_id_ns` kernel (see `benchmark/README.md`).
//!
//! The registry is now split in two planes:
//!
//! * a **name plane** — counter names are interned once into a [`CounterId`]
//!   (a dense `u32` index). Interning takes a lock, but hot paths register
//!   their ids up front and never touch it again.
//! * a **value plane** — `NUM_SHARDS` shards, each holding one
//!   `AtomicU64` slot per registered counter. A thread is assigned a shard
//!   round-robin on first use (thread-local) and does a single
//!   `fetch_add(Relaxed)` per update: no lock, and threads on different
//!   shards never touch the same cache line set.
//!
//! Slots live in fixed-size chunks that are allocated on demand and never
//! move, so readers index into them without any lock: the chunk table is an
//! array of `AtomicPtr`s published with release/acquire ordering.
//!
//! [`Metrics::snapshot`] merges the shards by summing each counter's slots.
//! Counters whose merged value is zero are omitted, which preserves the old
//! map semantics: a reset (or never-written) counter does not appear in the
//! snapshot.
//!
//! The string-keyed `add`/`incr`/`get` API is unchanged — those do one
//! read-locked name lookup, then the same lock-free slot update.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// An immutable copy of all counters at a point in time.
pub type MetricsSnapshot = BTreeMap<String, u64>;

/// Interned handle for a counter name.
///
/// Obtained from [`Metrics::register`]; valid only for the registry that
/// issued it (and its clones). Hot paths hold a `CounterId` and call
/// [`Metrics::add_id`] / [`Metrics::incr_id`] to skip the name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

impl CounterId {
    /// Dense index of this counter (0-based registration order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Number of value shards. Must be a power of two.
const NUM_SHARDS: usize = 16;
/// Slots per chunk. Must be a power of two.
const CHUNK_SLOTS: usize = 256;
/// Chunks per shard; caps the registry at `MAX_CHUNKS * CHUNK_SLOTS` ids.
const MAX_CHUNKS: usize = 64;

/// One shard of the value plane: a grow-only table of `AtomicU64` slots,
/// stored as chunks that never move once allocated.
struct Shard {
    chunks: [AtomicPtr<[AtomicU64; CHUNK_SLOTS]>; MAX_CHUNKS],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// Slot for `id`, or `None` if its chunk was never allocated (the
    /// counter has never been written through this shard's chunk range).
    fn slot(&self, id: usize) -> Option<&AtomicU64> {
        let chunk = self.chunks[id / CHUNK_SLOTS].load(Ordering::Acquire);
        if chunk.is_null() {
            return None;
        }
        // SAFETY: a non-null chunk pointer was produced by `Box::into_raw`
        // in `ensure_chunk` and is never freed or moved until the owning
        // `Inner` is dropped; `self` borrows the `Inner`.
        let chunk = unsafe { &*chunk };
        Some(&chunk[id % CHUNK_SLOTS])
    }

    /// Allocate the chunk covering `id` if it does not exist yet. Called
    /// under the registration lock, so allocation is not racy with itself;
    /// publication uses `Release` so lock-free readers see zeroed slots.
    fn ensure_chunk(&self, id: usize) {
        let idx = id / CHUNK_SLOTS;
        if self.chunks[idx].load(Ordering::Acquire).is_null() {
            let chunk: Box<[AtomicU64; CHUNK_SLOTS]> =
                Box::new(std::array::from_fn(|_| AtomicU64::new(0)));
            self.chunks[idx].store(Box::into_raw(chunk), Ordering::Release);
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        for chunk in &self.chunks {
            let p = chunk.load(Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: pointer came from `Box::into_raw` and is dropped
                // exactly once, here.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// Name plane: bidirectional name <-> id mapping.
#[derive(Default)]
struct Interner {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

struct Inner {
    interner: RwLock<Interner>,
    /// Serializes registration (interning + chunk allocation).
    register_lock: Mutex<()>,
    shards: Vec<Shard>,
}

/// Cloneable handle to a set of named `u64` counters.
///
/// Clones share the same underlying counters (the registry is handed to
/// every worker thread of both engines).
#[derive(Clone)]
pub struct Metrics {
    inner: Arc<Inner>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("counters", &self.snapshot())
            .finish()
    }
}

/// Round-robin shard assignment: each thread picks a shard on first use and
/// sticks with it, spreading threads evenly without per-update hashing.
fn my_shard() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize =
            NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (NUM_SHARDS - 1);
    }
    SHARD.with(|s| *s)
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics {
            inner: Arc::new(Inner {
                interner: RwLock::new(Interner::default()),
                register_lock: Mutex::new(()),
                shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
            }),
        }
    }

    /// Whether `other` is a handle to the same underlying registry (clones
    /// share counters; [`Metrics::new`] makes an independent one).
    pub fn same_registry(&self, other: &Metrics) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Intern `name`, returning its stable [`CounterId`].
    ///
    /// Idempotent; components that update counters in a hot loop should
    /// call this once at construction time and use [`Metrics::add_id`].
    pub fn register(&self, name: &str) -> CounterId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let _reg = self
            .inner
            .register_lock
            .lock()
            .expect("metrics register lock");
        // Double-check: another thread may have registered between the
        // read-locked lookup and taking the registration lock.
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let mut interner = self.inner.interner.write().expect("metrics interner");
        let id = interner.names.len();
        assert!(id < MAX_CHUNKS * CHUNK_SLOTS, "counter registry full");
        for shard in &self.inner.shards {
            shard.ensure_chunk(id);
        }
        interner.names.push(name.to_string());
        interner.by_name.insert(name.to_string(), id as u32);
        CounterId(id as u32)
    }

    fn lookup(&self, name: &str) -> Option<CounterId> {
        self.inner
            .interner
            .read()
            .expect("metrics interner")
            .by_name
            .get(name)
            .map(|&id| CounterId(id))
    }

    /// Add `delta` to the counter `id` points at. Lock-free.
    pub fn add_id(&self, id: CounterId, delta: u64) {
        if delta == 0 {
            return;
        }
        let shard = &self.inner.shards[my_shard()];
        shard
            .slot(id.index())
            .expect("CounterId from a different registry")
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Increment the counter `id` points at by one. Lock-free.
    pub fn incr_id(&self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Add `delta` to the counter `name`, creating it at zero if absent.
    pub fn add(&self, name: &str, delta: u64) {
        let id = match self.lookup(name) {
            Some(id) => id,
            None => self.register(name),
        };
        self.add_id(id, delta);
    }

    /// Increment by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Raise the counter `id` points at to at least `value` (a high-water
    /// mark). Lock-free.
    ///
    /// Max-maintenance always targets shard 0, so the snapshot's per-shard
    /// *sum* equals the maximum ever reported — but only if the counter is
    /// written exclusively through `set_max*`. Never mix `set_max*` and
    /// `add*` on the same counter: the other shards would contribute to the
    /// sum and the snapshot would read high. Zero is skipped so an unused
    /// high-water counter stays absent from snapshots, like an unwritten
    /// additive counter.
    pub fn set_max_id(&self, id: CounterId, value: u64) {
        if value == 0 {
            return;
        }
        self.inner.shards[0]
            .slot(id.index())
            .expect("CounterId from a different registry")
            .fetch_max(value, Ordering::Relaxed);
    }

    /// Raise the counter `name` to at least `value`, creating it if absent.
    /// See [`Metrics::set_max_id`] for the no-mixing-with-`add` rule.
    pub fn set_max(&self, name: &str, value: u64) {
        if value == 0 {
            return;
        }
        let id = match self.lookup(name) {
            Some(id) => id,
            None => self.register(name),
        };
        self.set_max_id(id, value);
    }

    /// Merged value of the counter `id` points at.
    pub fn get_id(&self, id: CounterId) -> u64 {
        self.inner
            .shards
            .iter()
            .filter_map(|s| s.slot(id.index()))
            .map(|slot| slot.load(Ordering::Relaxed))
            .sum()
    }

    /// Read one counter (0 if never written).
    pub fn get(&self, name: &str) -> u64 {
        match self.lookup(name) {
            Some(id) => self.get_id(id),
            None => 0,
        }
    }

    /// Copy out all counters, merging shards.
    ///
    /// Counters whose merged value is zero are omitted, matching the
    /// original map-backed registry where unwritten/reset counters had no
    /// entry. The merge is not a single atomic cut across counters, but
    /// each counter's value is a sum of per-shard reads, so no individual
    /// counter is ever observed torn or mid-decrement (counters only grow
    /// between resets).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let interner = self.inner.interner.read().expect("metrics interner");
        let mut out = BTreeMap::new();
        for (idx, name) in interner.names.iter().enumerate() {
            let v = self.get_id(CounterId(idx as u32));
            if v != 0 {
                out.insert(name.clone(), v);
            }
        }
        out
    }

    /// Reset all counters to zero (between experiment configurations).
    ///
    /// Registered names and their [`CounterId`]s remain valid.
    pub fn reset(&self) {
        let interner = self.inner.interner.read().expect("metrics interner");
        for idx in 0..interner.names.len() {
            for shard in &self.inner.shards {
                if let Some(slot) = shard.slot(idx) {
                    slot.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Sum of every counter whose name starts with `prefix`.
    ///
    /// Link-class accounting uses hierarchical names such as
    /// `net.cross.bytes` / `net.intra_hdfs.bytes`, so callers can aggregate
    /// with `sum_prefix("net.")`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        let interner = self.inner.interner.read().expect("metrics interner");
        interner
            .names
            .iter()
            .enumerate()
            .filter(|(_, name)| name.starts_with(prefix))
            .map(|(idx, _)| self.get_id(CounterId(idx as u32)))
            .sum()
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two plus the
/// zero bucket, covering the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket latency histogram with a lock-free record path.
///
/// Buckets are powers of two: value `v` lands in bucket `⌈log2(v+1)⌉`, so
/// bucket `i > 0` covers `[2^(i-1), 2^i)` and bucket 0 holds exact zeros.
/// Recording is a single `fetch_add(Relaxed)` plus min/max maintenance —
/// no locks, safe from any number of client threads. Quantiles come from a
/// [`HistogramSnapshot`]; the log-bucket layout guarantees the reported
/// quantile is within 2× of the true order statistic (and clamped to the
/// observed min/max, which tightens the tails).
///
/// Clones share state, like [`Metrics`].
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Bucket index for a recorded value.
fn histogram_bucket(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation (e.g. a latency in microseconds).
    pub fn record(&self, v: u64) {
        let i = &self.inner;
        i.buckets[histogram_bucket(v)].fetch_add(1, Ordering::Relaxed);
        i.count.fetch_add(1, Ordering::Relaxed);
        i.sum.fetch_add(v, Ordering::Relaxed);
        i.min.fetch_min(v, Ordering::Relaxed);
        i.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let i = &self.inner;
        HistogramSnapshot {
            buckets: std::array::from_fn(|b| i.buckets[b].load(Ordering::Relaxed)),
            count: i.count.load(Ordering::Relaxed),
            sum: i.sum.load(Ordering::Relaxed),
            min: i.min.load(Ordering::Relaxed),
            max: i.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state; merge snapshots from
/// several histograms (per-client, per-phase) to get aggregate quantiles.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the corresponding order statistic, clamped to the observed
    /// min/max. Within 2× of the exact order statistic by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank of the order statistic: ceil(q * count), at least 1
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // bucket b covers [2^(b-1), 2^b); report the upper bound
                let upper = if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A labelled family of [`Histogram`]s (e.g. one latency distribution per
/// tenant).
///
/// Labels are interned on first use; `with_label` hands back a cheap
/// [`Histogram`] clone whose record path is the same lock-free
/// `fetch_add` as an unlabelled histogram — the family lock is only taken
/// to resolve a label, so hot paths resolve once and keep the handle.
/// Clones of the family share state, like [`Metrics`].
#[derive(Clone, Default)]
pub struct HistogramVec {
    inner: Arc<RwLock<BTreeMap<String, Histogram>>>,
}

impl HistogramVec {
    pub fn new() -> HistogramVec {
        HistogramVec::default()
    }

    /// The histogram for `label`, created empty on first use. The returned
    /// handle shares state with the family — hold it across records
    /// instead of re-resolving the label per observation.
    pub fn with_label(&self, label: &str) -> Histogram {
        if let Some(h) = self.inner.read().expect("histogram vec").get(label) {
            return h.clone();
        }
        let mut map = self.inner.write().expect("histogram vec");
        map.entry(label.to_string()).or_default().clone()
    }

    /// Record one observation under `label`.
    pub fn record(&self, label: &str, v: u64) {
        self.with_label(label).record(v);
    }

    /// Labels seen so far, in sorted order.
    pub fn labels(&self) -> Vec<String> {
        self.inner
            .read()
            .expect("histogram vec")
            .keys()
            .cloned()
            .collect()
    }

    /// Point-in-time snapshot of every label's distribution.
    pub fn snapshot_all(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.inner
            .read()
            .expect("histogram vec")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }

    /// All labels merged into one aggregate distribution.
    pub fn merged(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for snap in self.snapshot_all().values() {
            out.merge(snap);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn add_get_reset() {
        let m = Metrics::new();
        assert_eq!(m.get("x"), 0);
        m.add("x", 5);
        m.incr("x");
        assert_eq!(m.get("x"), 6);
        m.reset();
        assert_eq!(m.get("x"), 0);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.add("shared", 3);
        assert_eq!(m.get("shared"), 3);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let m = Metrics::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        m.incr("c");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.get("c"), 8000);
    }

    #[test]
    fn set_max_tracks_high_water_across_threads() {
        let m = Metrics::new();
        let id = m.register("hw");
        thread::scope(|s| {
            for t in 0..8u64 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        m.set_max_id(id, t * 1000 + i);
                    }
                });
            }
        });
        // snapshot sum == max because set_max only ever touches shard 0
        assert_eq!(m.get_id(id), 7999);
        assert_eq!(m.snapshot().get("hw"), Some(&7999));
        // lowering never takes effect; zero is a no-op
        m.set_max("hw", 5);
        m.set_max("hw", 0);
        assert_eq!(m.get("hw"), 7999);
        m.reset();
        assert_eq!(m.get("hw"), 0);
    }

    #[test]
    fn set_max_zero_leaves_counter_absent() {
        let m = Metrics::new();
        m.set_max("never", 0);
        assert!(m.snapshot().is_empty());
    }

    /// Exact quantile from a sorted copy: the value at rank ceil(q*n).
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn histogram_quantiles_track_sorted_reference() {
        // deterministic skewed values: mostly small, a heavy tail
        let values: Vec<u64> = (0..10_000u64)
            .map(|i| {
                let x = crate::hash::splitmix64(i);
                match x % 100 {
                    0..=89 => x % 500,           // bulk: < 500
                    90..=98 => 1_000 + x % 9000, // mid tail
                    _ => 100_000 + x % 400_000,  // far tail
                }
            })
            .collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count(), values.len() as u64);
        assert_eq!(snap.sum(), values.iter().sum::<u64>());
        assert_eq!(snap.min(), sorted[0]);
        assert_eq!(snap.max(), *sorted.last().unwrap());
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let approx = snap.quantile(q);
            // log2 buckets: reported value within [exact, 2*exact]
            assert!(
                approx >= exact && approx <= exact.max(1) * 2,
                "q={q}: exact {exact}, histogram {approx}"
            );
        }
    }

    #[test]
    fn histogram_merge_equals_single() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for i in 0..1000u64 {
            let v = i * 37 % 4096;
            if i % 2 == 0 { &a } else { &b }.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let single = all.snapshot();
        assert_eq!(merged.count(), single.count());
        assert_eq!(merged.sum(), single.sum());
        assert_eq!(merged.min(), single.min());
        assert_eq!(merged.max(), single.max());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(merged.quantile(q), single.quantile(q));
        }
    }

    #[test]
    fn histogram_edge_cases() {
        let h = Histogram::new();
        let empty = h.snapshot();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.mean(), 0.0);

        h.record(0);
        let one = h.snapshot();
        assert_eq!(one.p50(), 0);
        assert_eq!(one.max(), 0);

        h.record(7);
        let two = h.snapshot();
        assert_eq!(two.quantile(1.0), 7); // clamped to observed max
        assert_eq!(two.quantile(0.0), 0);
        assert!(two.mean() > 3.4 && two.mean() < 3.6);
    }

    #[test]
    fn histogram_concurrent_records_do_not_lose_updates() {
        let h = Histogram::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 8000);
    }

    #[test]
    fn histogram_vec_labels_are_independent_and_mergeable() {
        let v = HistogramVec::new();
        v.record("a", 10);
        v.record("a", 20);
        v.record("b", 1000);
        assert_eq!(v.labels(), vec!["a".to_string(), "b".to_string()]);
        let snaps = v.snapshot_all();
        assert_eq!(snaps["a"].count(), 2);
        assert_eq!(snaps["b"].count(), 1);
        assert_eq!(snaps["b"].min(), 1000);
        let merged = v.merged();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 1030);
        // clones share state; resolved handles keep recording into the family
        let h = v.with_label("a");
        let v2 = v.clone();
        h.record(30);
        assert_eq!(v2.snapshot_all()["a"].count(), 3);
    }

    #[test]
    fn histogram_vec_concurrent_labels() {
        let v = HistogramVec::new();
        thread::scope(|s| {
            for t in 0..8u64 {
                let v = v.clone();
                s.spawn(move || {
                    let h = v.with_label(&format!("t{}", t % 4));
                    for i in 0..1000u64 {
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(v.merged().count(), 8000);
        assert_eq!(v.labels().len(), 4);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(histogram_bucket(0), 0);
        assert_eq!(histogram_bucket(1), 1);
        assert_eq!(histogram_bucket(2), 2);
        assert_eq!(histogram_bucket(3), 2);
        assert_eq!(histogram_bucket(4), 3);
        assert_eq!(histogram_bucket(u64::MAX), 64);
    }

    #[test]
    fn prefix_sum_aggregates() {
        let m = Metrics::new();
        m.add("net.cross.bytes", 10);
        m.add("net.intra_hdfs.bytes", 20);
        m.add("scan.bytes", 99);
        assert_eq!(m.sum_prefix("net."), 30);
        assert_eq!(m.sum_prefix("nope."), 0);
    }

    #[test]
    fn snapshot_is_a_copy() {
        let m = Metrics::new();
        m.add("a", 1);
        let snap = m.snapshot();
        m.add("a", 1);
        assert_eq!(snap.get("a"), Some(&1));
        assert_eq!(m.get("a"), 2);
    }

    #[test]
    fn register_is_idempotent_and_ids_survive_reset() {
        let m = Metrics::new();
        let id = m.register("hot.path");
        assert_eq!(m.register("hot.path"), id);
        m.add_id(id, 41);
        m.incr_id(id);
        assert_eq!(m.get_id(id), 42);
        assert_eq!(m.get("hot.path"), 42);
        m.reset();
        assert_eq!(m.get_id(id), 0);
        m.add_id(id, 7);
        assert_eq!(m.get("hot.path"), 7);
    }

    #[test]
    fn snapshot_omits_zero_counters() {
        let m = Metrics::new();
        m.register("never.written");
        m.add("written", 1);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.get("written"), Some(&1));
        m.reset();
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn string_and_id_paths_hit_the_same_counter() {
        let m = Metrics::new();
        m.add("mixed", 2);
        let id = m.register("mixed");
        m.add_id(id, 3);
        assert_eq!(m.get("mixed"), 5);
        assert_eq!(m.snapshot().get("mixed"), Some(&5));
    }

    /// The ISSUE's stress bar: 16 threads × 100k increments spread over a
    /// set of overlapping counters. Totals must be exact (no lost updates)
    /// and snapshots taken while writers run must never observe a torn
    /// value — counters only grow, so every observed value must be between
    /// 0 and the final total and monotonic per counter across snapshots.
    #[test]
    fn stress_16_threads_100k_increments_exact_and_untorn() {
        const THREADS: usize = 16;
        const OPS: usize = 100_000;
        const COUNTERS: usize = 10;
        let m = Metrics::new();
        let names: Vec<String> = (0..COUNTERS).map(|i| format!("stress.c{i}")).collect();
        // half the threads use pre-registered ids, half the string path —
        // both must land on the same counters
        let ids: Vec<CounterId> = names.iter().map(|n| m.register(n)).collect();
        thread::scope(|s| {
            for t in 0..THREADS {
                let m = m.clone();
                let names = &names;
                let ids = &ids;
                s.spawn(move || {
                    for i in 0..OPS {
                        let c = (t + i) % COUNTERS;
                        if t % 2 == 0 {
                            m.add_id(ids[c], 1);
                        } else {
                            m.add(&names[c], 1);
                        }
                    }
                });
            }
            // concurrent snapshot reader: values never exceed the final
            // total and never decrease per counter
            let m2 = m.clone();
            let names2 = &names;
            s.spawn(move || {
                let mut last = [0u64; COUNTERS];
                for _ in 0..50 {
                    let snap = m2.snapshot();
                    for (c, name) in names2.iter().enumerate() {
                        let v = snap.get(name).copied().unwrap_or(0);
                        assert!(
                            v <= (THREADS * OPS) as u64,
                            "torn/overshot snapshot: {name}={v}"
                        );
                        assert!(v >= last[c], "{name} went backwards: {} -> {v}", last[c]);
                        last[c] = v;
                    }
                    thread::yield_now();
                }
            });
        });
        // every counter received exactly THREADS*OPS/COUNTERS increments
        // (each thread walks all counters round-robin, OPS/COUNTERS each)
        let expect = (THREADS * OPS / COUNTERS) as u64;
        for name in &names {
            assert_eq!(m.get(name), expect, "{name}");
        }
        let total: u64 = m.snapshot().values().sum();
        assert_eq!(total, (THREADS * OPS) as u64);
    }

    #[test]
    fn many_counters_cross_chunk_boundary() {
        let m = Metrics::new();
        let n = CHUNK_SLOTS + 10;
        let ids: Vec<CounterId> = (0..n).map(|i| m.register(&format!("c{i}"))).collect();
        for (i, id) in ids.iter().enumerate() {
            m.add_id(*id, i as u64 + 1);
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(m.get_id(*id), i as u64 + 1);
        }
        assert_eq!(m.snapshot().len(), n);
    }
}
