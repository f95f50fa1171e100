//! Seeded, deterministic fault injection for the fabric and driver.
//!
//! A [`FaultPlan`] is built from a [`FaultSpec`] — a `u64` seed plus
//! per-fault rates — and decides, for every delivery, whether to drop,
//! delay, duplicate, or reorder it, and (via the driver) whether to kill
//! or slow a worker mid-phase. Decisions are **schedule-independent**:
//! each one is a pure hash of `(seed, namespace, sender, receiver, stream,
//! per-edge sequence number, attempt)`, never of wall-clock time or a
//! shared RNG stream, so a run with the same seed injects exactly the
//! same faults no matter how the OS schedules the worker threads. That is
//! what makes a failing chaos seed replayable from the printed seed
//! alone.
//!
//! The seed feeds the in-workspace `rand` shim once, at plan
//! construction, to derive independent per-fault salts; after that every
//! decision is a stateless splitmix chain, so concurrent senders never
//! contend on (or perturb) an RNG stream.

use crate::Endpoint;
use hybrid_common::hash::{hash_bytes, splitmix64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Bounded retry-with-backoff for fabric sends. An injected drop fails
/// one *attempt*; the mailbox retries the same logical message up to
/// `attempts` times total, sleeping an exponentially growing backoff
/// between tries, and surfaces the typed
/// [`hybrid_common::error::HybridError::FaultInjected`] only when the
/// budget is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts per logical message (≥ 1).
    pub attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// Sleep before retry number `retry` (1-based): `base · 2^(retry-1)`,
    /// capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Which cluster a worker-targeted fault applies to. Matches the driver's
/// `TaskSet` labels ("db" / "jen").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    Db,
    Jen,
}

impl FaultTarget {
    pub fn label(self) -> &'static str {
        match self {
            FaultTarget::Db => "db",
            FaultTarget::Jen => "jen",
        }
    }
}

/// Kill one worker immediately before it would execute its `step`-th step
/// (0-based, counted per worker). A kill past the worker's last step
/// never fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill {
    pub target: FaultTarget,
    pub worker: usize,
    pub step: usize,
}

/// Slow one worker into a straggler: it sleeps `delay` before every step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Straggler {
    pub target: FaultTarget,
    pub worker: usize,
    pub delay: Duration,
}

/// The requested fault mix. Rates are per-delivery probabilities in
/// `[0, 1]`; `drop_rate` is per *attempt* (retries re-roll with a fresh
/// attempt index, so a message survives unless every attempt drops).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub seed: u64,
    pub drop_rate: f64,
    pub dup_rate: f64,
    pub delay_rate: f64,
    pub reorder_rate: f64,
    /// Cap on one injected delivery delay.
    pub max_delay: Duration,
    pub kill: Option<WorkerKill>,
    pub straggler: Option<Straggler>,
}

impl FaultSpec {
    /// A plan that injects nothing but still stamps sequence numbers —
    /// the base the builder methods start from.
    pub fn quiet(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            reorder_rate: 0.0,
            max_delay: Duration::from_millis(1),
            kill: None,
            straggler: None,
        }
    }

    pub fn with_drops(mut self, rate: f64) -> FaultSpec {
        self.drop_rate = rate;
        self
    }

    pub fn with_dups(mut self, rate: f64) -> FaultSpec {
        self.dup_rate = rate;
        self
    }

    pub fn with_delays(mut self, rate: f64, max: Duration) -> FaultSpec {
        self.delay_rate = rate;
        self.max_delay = max;
        self
    }

    pub fn with_reorders(mut self, rate: f64) -> FaultSpec {
        self.reorder_rate = rate;
        self
    }

    pub fn with_kill(mut self, target: FaultTarget, worker: usize, step: usize) -> FaultSpec {
        self.kill = Some(WorkerKill {
            target,
            worker,
            step,
        });
        self
    }

    pub fn with_straggler(
        mut self,
        target: FaultTarget,
        worker: usize,
        delay: Duration,
    ) -> FaultSpec {
        self.straggler = Some(Straggler {
            target,
            worker,
            delay,
        });
        self
    }

    /// A seed-derived fault mix at intensity `rate` — what the bench
    /// `--chaos-seed`/`--fault-rate` flags and the soak suite use. The
    /// seed picks one of four mix classes so a seed sweep exercises
    /// drops, duplication + reordering, delays, and the combined mix.
    pub fn from_seed(seed: u64, rate: f64) -> FaultSpec {
        let mut rng = StdRng::seed_from_u64(seed);
        let class = rng.gen_range(0u32..4);
        let spec = FaultSpec::quiet(seed);
        match class {
            0 => spec.with_drops(rate),
            1 => spec.with_dups(rate).with_reorders(rate),
            2 => spec.with_delays(rate, Duration::from_millis(1)),
            _ => spec
                .with_drops(rate / 2.0)
                .with_dups(rate / 2.0)
                .with_reorders(rate / 2.0)
                .with_delays(rate / 2.0, Duration::from_millis(1)),
        }
    }

    /// All rates must be probabilities.
    pub fn validate(&self) -> std::result::Result<(), String> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("dup_rate", self.dup_rate),
            ("delay_rate", self.delay_rate),
            ("reorder_rate", self.reorder_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(format!("fault {name} {rate} is not a probability"));
            }
        }
        Ok(())
    }
}

/// Salt indices into [`FaultPlan::salts`] — one independent decision
/// stream per fault kind.
const SALT_DROP: usize = 0;
const SALT_DUP: usize = 1;
const SALT_DELAY: usize = 2;
const SALT_REORDER: usize = 3;

/// A compiled [`FaultSpec`]: the spec plus per-fault salts drawn once
/// from the seeded `rand` shim. All decision methods are pure functions
/// of their arguments.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    salts: [u64; 4],
}

/// One splitmix step folding `v` into the running hash `h`.
fn chain(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Dense, collision-free key for an endpoint.
fn endpoint_key(e: Endpoint) -> u64 {
    match e {
        Endpoint::Db(w) => (1 << 32) | w.index() as u64,
        Endpoint::Jen(w) => (2 << 32) | w.index() as u64,
        Endpoint::JenCoordinator => 3 << 32,
    }
}

fn label_key(label: Option<&str>) -> u64 {
    match label {
        Some(l) => hash_bytes(l.as_bytes(), 0x5eed),
        None => 0,
    }
}

/// Map a hash to a uniform chance in `[0, 1)` (top 53 bits).
fn chance(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    pub fn new(spec: FaultSpec) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut salts = [0u64; 4];
        for s in &mut salts {
            *s = rng.next_u64();
        }
        FaultPlan { spec, salts }
    }

    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The decision hash for one (fault kind, delivery) pair.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        salt: usize,
        ns: u64,
        from: Endpoint,
        to: Endpoint,
        label: Option<&str>,
        seq: u64,
        attempt: u64,
    ) -> u64 {
        let mut h = self.salts[salt];
        for v in [
            ns,
            endpoint_key(from),
            endpoint_key(to),
            label_key(label),
            seq,
            attempt,
        ] {
            h = chain(h, v);
        }
        h
    }

    /// Drop this send attempt? Re-rolls per `attempt` so retries can
    /// succeed.
    pub fn should_drop(
        &self,
        ns: u64,
        from: Endpoint,
        to: Endpoint,
        label: Option<&str>,
        seq: u64,
        attempt: u32,
    ) -> bool {
        self.spec.drop_rate > 0.0
            && chance(self.decide(SALT_DROP, ns, from, to, label, seq, attempt as u64))
                < self.spec.drop_rate
    }

    /// Retransmit this delivery (same sequence number) after it lands?
    pub fn should_duplicate(
        &self,
        ns: u64,
        from: Endpoint,
        to: Endpoint,
        label: Option<&str>,
        seq: u64,
    ) -> bool {
        self.spec.dup_rate > 0.0
            && chance(self.decide(SALT_DUP, ns, from, to, label, seq, 0)) < self.spec.dup_rate
    }

    /// Hold this delivery one slot so it lands after the edge's next
    /// message?
    pub fn should_reorder(
        &self,
        ns: u64,
        from: Endpoint,
        to: Endpoint,
        label: Option<&str>,
        seq: u64,
    ) -> bool {
        self.spec.reorder_rate > 0.0
            && chance(self.decide(SALT_REORDER, ns, from, to, label, seq, 0))
                < self.spec.reorder_rate
    }

    /// Deterministic delivery delay, if any: 1..=`max_delay` derived from
    /// the same decision hash.
    pub fn delay(
        &self,
        ns: u64,
        from: Endpoint,
        to: Endpoint,
        label: Option<&str>,
        seq: u64,
    ) -> Option<Duration> {
        if self.spec.delay_rate <= 0.0 {
            return None;
        }
        let h = self.decide(SALT_DELAY, ns, from, to, label, seq, 0);
        if chance(h) >= self.spec.delay_rate {
            return None;
        }
        let cap = self.spec.max_delay.as_micros().max(1) as u64;
        Some(Duration::from_micros(1 + splitmix64(h) % cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::ids::{DbWorkerId, JenWorkerId};

    fn edge() -> (Endpoint, Endpoint) {
        (Endpoint::Db(DbWorkerId(0)), Endpoint::Jen(JenWorkerId(1)))
    }

    #[test]
    fn decisions_replay_exactly_by_seed() {
        let (from, to) = edge();
        let a = FaultPlan::new(FaultSpec::quiet(7).with_drops(0.3).with_dups(0.3));
        let b = FaultPlan::new(FaultSpec::quiet(7).with_drops(0.3).with_dups(0.3));
        for seq in 1..500 {
            assert_eq!(
                a.should_drop(1, from, to, Some("db_data"), seq, 0),
                b.should_drop(1, from, to, Some("db_data"), seq, 0)
            );
            assert_eq!(
                a.should_duplicate(1, from, to, Some("db_data"), seq),
                b.should_duplicate(1, from, to, Some("db_data"), seq)
            );
        }
    }

    #[test]
    fn decisions_vary_with_namespace_and_seed() {
        let (from, to) = edge();
        let plan = FaultPlan::new(FaultSpec::quiet(11).with_drops(0.5));
        let other = FaultPlan::new(FaultSpec::quiet(12).with_drops(0.5));
        let differs_by_ns = (1..200).any(|seq| {
            plan.should_drop(1, from, to, None, seq, 0)
                != plan.should_drop(2, from, to, None, seq, 0)
        });
        let differs_by_seed = (1..200).any(|seq| {
            plan.should_drop(1, from, to, None, seq, 0)
                != other.should_drop(1, from, to, None, seq, 0)
        });
        assert!(differs_by_ns, "namespace must re-roll the decisions");
        assert!(differs_by_seed, "seed must re-roll the decisions");
    }

    #[test]
    fn rates_zero_and_one_are_absolute() {
        let (from, to) = edge();
        let none = FaultPlan::new(FaultSpec::quiet(3));
        let all = FaultPlan::new(FaultSpec::quiet(3).with_drops(1.0).with_dups(1.0));
        for seq in 1..100 {
            assert!(!none.should_drop(0, from, to, None, seq, 0));
            assert!(!none.should_duplicate(0, from, to, None, seq));
            assert!(none.delay(0, from, to, None, seq).is_none());
            assert!(all.should_drop(0, from, to, None, seq, 0));
            assert!(all.should_duplicate(0, from, to, None, seq));
        }
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let (from, to) = edge();
        let plan = FaultPlan::new(FaultSpec::quiet(21).with_drops(0.2));
        let drops = (1..=10_000)
            .filter(|&seq| plan.should_drop(0, from, to, Some("hdfs_shuffle"), seq, 0))
            .count();
        assert!(
            (1_600..2_400).contains(&drops),
            "20% of 10k deliveries should drop, got {drops}"
        );
    }

    #[test]
    fn retries_reroll_the_drop_decision() {
        let (from, to) = edge();
        let plan = FaultPlan::new(FaultSpec::quiet(5).with_drops(0.5));
        let survives = (1..100).any(|seq| {
            plan.should_drop(0, from, to, None, seq, 0)
                && !plan.should_drop(0, from, to, None, seq, 1)
        });
        assert!(
            survives,
            "a retry must be able to succeed where attempt 0 dropped"
        );
    }

    #[test]
    fn delay_is_bounded_and_deterministic() {
        let (from, to) = edge();
        let max = Duration::from_micros(750);
        let plan = FaultPlan::new(FaultSpec::quiet(9).with_delays(1.0, max));
        for seq in 1..200 {
            let d = plan.delay(4, from, to, Some("db_data"), seq).unwrap();
            assert!(d >= Duration::from_micros(1) && d <= max, "delay {d:?}");
            assert_eq!(plan.delay(4, from, to, Some("db_data"), seq), Some(d));
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            attempts: 5,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(350),
        };
        assert_eq!(p.backoff(1), Duration::from_micros(100));
        assert_eq!(p.backoff(2), Duration::from_micros(200));
        assert_eq!(p.backoff(3), Duration::from_micros(350), "capped");
        assert_eq!(p.backoff(40), Duration::from_micros(350), "no overflow");
    }

    #[test]
    fn from_seed_covers_every_mix_class() {
        let mut saw_drop = false;
        let mut saw_dup = false;
        let mut saw_delay = false;
        for seed in 0..64 {
            let spec = FaultSpec::from_seed(seed, 0.1);
            spec.validate().unwrap();
            saw_drop |= spec.drop_rate > 0.0;
            saw_dup |= spec.dup_rate > 0.0;
            saw_delay |= spec.delay_rate > 0.0;
        }
        assert!(saw_drop && saw_dup && saw_delay);
    }

    #[test]
    fn validate_rejects_bad_rates() {
        assert!(FaultSpec::quiet(0).with_drops(1.5).validate().is_err());
        assert!(FaultSpec::quiet(0).with_dups(-0.1).validate().is_err());
        assert!(FaultSpec::quiet(0).with_drops(1.0).validate().is_ok());
    }
}
