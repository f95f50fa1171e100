//! Admission control and tenant-fair scheduling for the query service.
//!
//! The controller enforces three bounds: at most `max_in_flight` queries
//! executing globally, at most `max_queued` waiting globally, and — per
//! tenant — at most `TenantQuota::max_in_flight` executing and
//! `TenantQuota::max_queued` waiting. A submission past the global queue
//! bound is **rejected** ([`ServiceError::Rejected`]); one past its
//! tenant's queue bound gets the typed, retryable
//! [`ServiceError::QuotaExceeded`]; a queued submission that cannot start
//! within `queue_timeout` (or its own deadline, whichever is sooner)
//! **times out** ([`ServiceError::TimedOut`]).
//!
//! When a slot frees, *which* waiting query starts is decided in two
//! steps:
//!
//! 1. **Across tenants**: weighted virtual-time
//!    round-robin. Every grant advances the tenant's virtual clock by
//!    `VTIME_SCALE / weight`; the eligible tenant with the smallest clock
//!    runs next, so a tenant with weight `w` gets a `w`-proportional share
//!    of grants and a flooding tenant cannot starve a trickle tenant — the
//!    trickle tenant's clock is always at (or lifted to) the floor of the
//!    active set, so it is chosen within one round of grants. A tenant
//!    re-activating after idling has its clock lifted to the current
//!    active floor, so banked idle time never converts into a burst.
//! 2. **Within a tenant**: the configured [`SchedulePolicy`] — FIFO
//!    (arrival order) or SJF (shortest estimated cost first, arrival
//!    order breaking ties).
//!
//! Step 1 is what keeps SJF from starving an expensive query behind a
//! flood of cheap ones from another tenant (see
//! `fair_mode_schedules_a_flooded_victim_within_two_grants`).
//!
//! New arrivals never barge past a startable waiter: a submission is only
//! fast-pathed into a slot when no queued ticket could start right now.

use crate::{ServiceError, TenantQuota};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which waiting query within one tenant runs when an execution slot
/// frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Arrival order.
    #[default]
    Fifo,
    /// Shortest estimated cost first; arrival order breaks ties.
    Sjf,
}

impl SchedulePolicy {
    pub fn name(self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "fifo",
            SchedulePolicy::Sjf => "sjf",
        }
    }

    /// Parse the bench-driver spelling.
    pub fn parse(s: &str) -> Option<SchedulePolicy> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Some(SchedulePolicy::Fifo),
            "sjf" => Some(SchedulePolicy::Sjf),
            _ => None,
        }
    }
}

/// Virtual-time advance per grant at weight 1. A power of two so the
/// per-grant division by the weight stays exact for power-of-two weights.
const VTIME_SCALE: u64 = 1 << 20;

#[derive(Debug, Clone, Copy)]
struct Ticket {
    seq: u64,
    cost: f64,
}

#[derive(Debug)]
struct TenantState {
    name: String,
    quota: TenantQuota,
    in_flight: usize,
    queue: Vec<Ticket>,
    /// Weighted virtual clock: advanced by `VTIME_SCALE / weight` per
    /// grant, lifted to the active floor on re-activation.
    vtime: u64,
}

impl TenantState {
    fn active(&self) -> bool {
        self.in_flight > 0 || !self.queue.is_empty()
    }

    /// Whether this tenant could start another query right now.
    fn below_cap(&self) -> bool {
        self.in_flight < self.quota.max_in_flight.max(1)
    }
}

#[derive(Debug)]
struct State {
    in_flight: usize,
    /// Total queued across tenants (== sum of queue lens).
    queued: usize,
    /// Global virtual clock: the largest post-grant tenant clock seen, so
    /// a tenant waking into an otherwise idle scheduler still re-enters
    /// at the level service has reached, not at its stale clock.
    vnow: u64,
    tenants: Vec<TenantState>,
}

/// The clock value a re-activating tenant is lifted to: the smallest
/// clock among the *other* active tenants, falling back to the global
/// clock when nobody else is active.
fn lift_floor(st: &State, tenant: usize) -> u64 {
    st.tenants
        .iter()
        .enumerate()
        .filter(|(i, t)| *i != tenant && t.active())
        .map(|(_, t)| t.vtime)
        .min()
        .unwrap_or(st.vnow)
}

/// The admission controller + tenant-fair scheduler. `admit` blocks the
/// calling client thread (the service is closed-loop: clients are the
/// executors) until a slot is granted or a typed error says why not.
#[derive(Debug)]
pub(crate) struct Scheduler {
    max_in_flight: usize,
    max_queued: usize,
    queue_timeout: Duration,
    policy: SchedulePolicy,
    state: Mutex<State>,
    cv: Condvar,
}

/// The pre-registered tenant every legacy (tenant-less) submission runs
/// as. Unlimited quota: the global bounds are the only limits, exactly
/// the pre-tenancy behavior.
#[cfg(test)]
pub(crate) const DEFAULT_TENANT: usize = 0;

impl Scheduler {
    pub fn new(
        max_in_flight: usize,
        max_queued: usize,
        queue_timeout: Duration,
        policy: SchedulePolicy,
    ) -> Scheduler {
        let s = Scheduler {
            max_in_flight: max_in_flight.max(1),
            max_queued,
            queue_timeout,
            policy,
            state: Mutex::new(State {
                in_flight: 0,
                queued: 0,
                vnow: 0,
                tenants: Vec::new(),
            }),
            cv: Condvar::new(),
        };
        s.add_tenant("default", TenantQuota::unlimited());
        s
    }

    /// Register a tenant; returns its dense index. Idempotent on name
    /// (re-registering updates the quota but keeps index and clock).
    pub fn add_tenant(&self, name: &str, quota: TenantQuota) -> usize {
        let mut st = self.state.lock().expect("scheduler mutex poisoned");
        if let Some(i) = st.tenants.iter().position(|t| t.name == name) {
            st.tenants[i].quota = quota;
            return i;
        }
        st.tenants.push(TenantState {
            name: name.to_string(),
            quota,
            in_flight: 0,
            queue: Vec::new(),
            vtime: 0,
        });
        st.tenants.len() - 1
    }

    /// The best ticket of `tenant`'s queue under the intra-tenant policy.
    fn best_of(&self, queue: &[Ticket]) -> Option<Ticket> {
        match self.policy {
            SchedulePolicy::Fifo => queue.iter().min_by_key(|t| t.seq).copied(),
            SchedulePolicy::Sjf => queue
                .iter()
                .min_by(|a, b| {
                    a.cost
                        .partial_cmp(&b.cost)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.seq.cmp(&b.seq))
                })
                .copied(),
        }
    }

    /// The `(tenant, seq)` the scheduler would start next, respecting
    /// per-tenant in-flight caps — `None` when no queued ticket can start.
    /// The *global* slot check is the caller's.
    fn chosen(&self, st: &State) -> Option<(usize, u64)> {
        // Across tenants: smallest virtual clock among those with a queued
        // ticket and a free tenant slot; ties break toward the oldest head
        // ticket so equal-clock tenants alternate stably.
        st.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.queue.is_empty() && t.below_cap())
            .min_by_key(|(_, t)| {
                let head = self.best_of(&t.queue).map(|b| b.seq).unwrap_or(u64::MAX);
                (t.vtime, head)
            })
            .and_then(|(i, t)| self.best_of(&t.queue).map(|b| (i, b.seq)))
    }

    /// Grant a slot to `tenant`: bump both in-flight counts and advance
    /// the tenant's virtual clock by its weighted quantum. A tenant that
    /// was inactive (the fast-path case — the queued path lifts at
    /// enqueue) is first lifted to the floor so idling banks no credit.
    fn grant(&self, st: &mut State, tenant: usize) {
        if !st.tenants[tenant].active() {
            let floor = lift_floor(st, tenant);
            let t = &mut st.tenants[tenant];
            t.vtime = t.vtime.max(floor);
        }
        st.in_flight += 1;
        let t = &mut st.tenants[tenant];
        t.in_flight += 1;
        t.vtime += VTIME_SCALE / t.quota.weight.max(1);
        st.vnow = st.vnow.max(t.vtime);
    }

    /// Wait for an execution slot. Returns how long the query queued.
    /// `cost` is the scheduler's estimate for this query (ignored under
    /// FIFO); `seq` must be unique and monotone with submission order.
    /// `deadline` caps the queue wait below `queue_timeout` when set —
    /// the protocol's deadline hook.
    pub fn admit(
        &self,
        tenant: usize,
        seq: u64,
        cost: f64,
        deadline: Option<Duration>,
    ) -> Result<Duration, ServiceError> {
        let timeout = crate::tenant::effective_timeout(self.queue_timeout, deadline);
        let start = Instant::now();
        let mut st = self.state.lock().expect("scheduler mutex poisoned");
        assert!(tenant < st.tenants.len(), "unregistered tenant {tenant}");
        // Fast path only when nobody startable is waiting — no barging —
        // and both the global and the tenant's own in-flight caps have
        // room.
        if st.in_flight < self.max_in_flight
            && st.tenants[tenant].below_cap()
            && self.chosen(&st).is_none()
        {
            self.grant(&mut st, tenant);
            return Ok(Duration::ZERO);
        }
        // Per-tenant queue quota first: the typed, retryable signal that
        // *this tenant* is over its share (the global queue may be near
        // empty).
        {
            let t = &st.tenants[tenant];
            if t.queue.len() >= t.quota.max_queued {
                return Err(ServiceError::QuotaExceeded {
                    tenant: t.name.clone(),
                    queued: t.queue.len(),
                    max_queued: t.quota.max_queued,
                });
            }
        }
        if st.queued >= self.max_queued {
            return Err(ServiceError::Rejected {
                queued: st.queued,
                max_queued: self.max_queued,
            });
        }
        // Re-activation: a tenant with no pending work has its virtual
        // clock lifted to the active floor, so idling never banks credit
        // it could later spend as a burst.
        if !st.tenants[tenant].active() {
            let floor = lift_floor(&st, tenant);
            let t = &mut st.tenants[tenant];
            t.vtime = t.vtime.max(floor);
        }
        st.tenants[tenant].queue.push(Ticket { seq, cost });
        st.queued += 1;
        loop {
            if st.in_flight < self.max_in_flight && self.chosen(&st) == Some((tenant, seq)) {
                st.tenants[tenant].queue.retain(|t| t.seq != seq);
                st.queued -= 1;
                self.grant(&mut st, tenant);
                // With slots still free and a startable waiter still
                // queued, the next chosen waiter may have rechecked before
                // we left the queue (it saw itself not chosen and went
                // back to sleep). Nobody else will notify it — a release()
                // only fires when a query *finishes* — so wake the queue
                // again or that waiter sleeps until its full queue timeout.
                if st.in_flight < self.max_in_flight && self.chosen(&st).is_some() {
                    self.cv.notify_all();
                }
                return Ok(start.elapsed());
            }
            let waited = start.elapsed();
            if waited >= timeout {
                st.tenants[tenant].queue.retain(|t| t.seq != seq);
                st.queued -= 1;
                // Our departure may make a different waiter eligible.
                self.cv.notify_all();
                return Err(ServiceError::TimedOut { waited });
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, timeout - waited)
                .expect("scheduler mutex poisoned");
            st = guard;
        }
    }

    /// Give an execution slot back (the query finished or failed).
    pub fn release(&self, tenant: usize) {
        let mut st = self.state.lock().expect("scheduler mutex poisoned");
        debug_assert!(st.in_flight > 0, "release without admit");
        st.in_flight = st.in_flight.saturating_sub(1);
        let t = &mut st.tenants[tenant];
        debug_assert!(t.in_flight > 0, "tenant release without admit");
        t.in_flight = t.in_flight.saturating_sub(1);
        drop(st);
        self.cv.notify_all();
    }

    /// (in-flight, queued) right now — observability for the driver.
    pub fn load(&self) -> (usize, usize) {
        let st = self.state.lock().expect("scheduler mutex poisoned");
        (st.in_flight, st.queued)
    }

    /// (in-flight, queued) for one tenant.
    pub fn tenant_load(&self, tenant: usize) -> (usize, usize) {
        let st = self.state.lock().expect("scheduler mutex poisoned");
        let t = &st.tenants[tenant];
        (t.in_flight, t.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sched(policy: SchedulePolicy, max_queued: usize) -> Arc<Scheduler> {
        Arc::new(Scheduler::new(
            1,
            max_queued,
            Duration::from_secs(5),
            policy,
        ))
    }

    #[test]
    fn fast_path_counts_in_flight() {
        let s = sched(SchedulePolicy::Fifo, 4);
        assert_eq!(s.admit(0, 0, 1.0, None).unwrap(), Duration::ZERO);
        assert_eq!(s.load(), (1, 0));
        assert_eq!(s.tenant_load(0), (1, 0));
        s.release(0);
        assert_eq!(s.load(), (0, 0));
    }

    #[test]
    fn full_queue_rejects() {
        let s = sched(SchedulePolicy::Fifo, 0);
        s.admit(0, 0, 1.0, None).unwrap();
        match s.admit(0, 1, 1.0, None) {
            Err(ServiceError::Rejected { queued, max_queued }) => {
                assert_eq!((queued, max_queued), (0, 0));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        s.release(0);
    }

    #[test]
    fn tenant_queue_quota_exceeds_with_typed_error() {
        let s = sched(SchedulePolicy::Fifo, 64);
        let limited = s.add_tenant(
            "limited",
            TenantQuota {
                weight: 1,
                max_in_flight: 1,
                max_queued: 0,
            },
        );
        s.admit(limited, 0, 1.0, None).unwrap(); // occupies the only slot
        match s.admit(limited, 1, 1.0, None) {
            Err(ServiceError::QuotaExceeded {
                tenant,
                queued,
                max_queued,
            }) => {
                assert_eq!(tenant, "limited");
                assert_eq!((queued, max_queued), (0, 0));
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        s.release(limited);
        assert_eq!(s.load(), (0, 0));
    }

    /// A tenant at its own in-flight cap queues even while global slots
    /// idle — and an *other* tenant's arrival still fast-paths past it
    /// (the capped waiter is not startable, so this is not barging).
    #[test]
    fn tenant_in_flight_cap_blocks_only_its_own() {
        let s = Arc::new(Scheduler::new(
            4,
            16,
            Duration::from_secs(5),
            SchedulePolicy::Fifo,
        ));
        let capped = s.add_tenant(
            "capped",
            TenantQuota {
                weight: 1,
                max_in_flight: 1,
                max_queued: 8,
            },
        );
        s.admit(capped, 0, 1.0, None).unwrap();
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.admit(capped, 1, 1.0, None));
        while s.tenant_load(capped).1 < 1 {
            std::thread::yield_now();
        }
        // Global slots idle, capped tenant queued: another tenant starts
        // immediately.
        assert_eq!(s.admit(0, 2, 1.0, None).unwrap(), Duration::ZERO);
        s.release(capped); // frees the capped tenant's slot -> waiter runs
        waiter.join().unwrap().unwrap();
        assert_eq!(s.tenant_load(capped), (1, 0));
        s.release(capped);
        s.release(0);
        assert_eq!(s.load(), (0, 0));
    }

    /// Queue timeouts across 100 seeded schedules: each seed perturbs the
    /// timeout length, the scheduling policy, how many extra waiters pile
    /// up behind the stuck one, and when they arrive. Whatever the
    /// interleaving, every waiter must surface `TimedOut` (the slot holder
    /// never releases), report `waited >= timeout`, and leave the queue
    /// empty — a ticket leaked by one schedule would fail the load check.
    #[test]
    fn queued_submission_times_out() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let timeout = Duration::from_micros(rng.gen_range(500..4000u64));
            let policy = if rng.gen_range(0..2u32) == 0 {
                SchedulePolicy::Fifo
            } else {
                SchedulePolicy::Sjf
            };
            let extra_waiters = rng.gen_range(0..3usize);
            let s = Arc::new(Scheduler::new(1, 4, timeout, policy));
            s.admit(0, 0, 1.0, None).unwrap();
            let handles: Vec<_> = (0..extra_waiters)
                .map(|i| {
                    let s2 = Arc::clone(&s);
                    let pre_sleep = Duration::from_micros(rng.gen_range(0..300u64));
                    let cost = rng.gen_range(1..100u64) as f64;
                    std::thread::spawn(move || {
                        std::thread::sleep(pre_sleep);
                        s2.admit(0, 2 + i as u64, cost, None)
                    })
                })
                .collect();
            match s.admit(0, 1, 1.0, None) {
                Err(ServiceError::TimedOut { waited }) => {
                    assert!(waited >= timeout, "seed {seed}: waited {waited:?}");
                }
                other => panic!("seed {seed}: expected TimedOut, got {other:?}"),
            }
            for h in handles {
                match h.join().unwrap() {
                    Err(ServiceError::TimedOut { waited }) => {
                        assert!(waited >= timeout, "seed {seed}: waited {waited:?}");
                    }
                    other => panic!("seed {seed}: expected TimedOut, got {other:?}"),
                }
            }
            assert_eq!(
                s.load(),
                (1, 0),
                "seed {seed}: timed-out tickets must leave the queue"
            );
            s.release(0);
        }
    }

    /// A deadline below the queue timeout caps the wait — the protocol's
    /// deadline hook.
    #[test]
    fn deadline_caps_the_queue_wait() {
        let s = Arc::new(Scheduler::new(
            1,
            4,
            Duration::from_secs(30),
            SchedulePolicy::Fifo,
        ));
        s.admit(0, 0, 1.0, None).unwrap();
        let deadline = Duration::from_millis(20);
        let t0 = Instant::now();
        match s.admit(0, 1, 1.0, Some(deadline)) {
            Err(ServiceError::TimedOut { waited }) => {
                assert!(waited >= deadline);
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "deadline did not cap the 30s queue timeout"
                );
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        s.release(0);
    }

    /// Park `n` waiters with the given costs behind an occupied slot, then
    /// release slots one at a time and observe the start order.
    fn start_order(policy: SchedulePolicy, costs: &[f64]) -> Vec<u64> {
        let s = sched(policy, costs.len());
        s.admit(0, 0, 0.0, None).unwrap();
        let started = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (i, &cost) in costs.iter().enumerate() {
            let seq = (i + 1) as u64;
            let s2 = Arc::clone(&s);
            let started2 = Arc::clone(&started);
            // Stagger spawns so seq order == arrival order.
            while s.load().1 < i {
                std::thread::yield_now();
            }
            handles.push(std::thread::spawn(move || {
                s2.admit(0, seq, cost, None).unwrap();
                started2.lock().unwrap().push(seq);
                s2.release(0);
            }));
        }
        while s.load().1 < costs.len() {
            std::thread::yield_now();
        }
        s.release(0); // waiters drain one slot at a time
        for h in handles {
            h.join().unwrap();
        }
        Arc::try_unwrap(started).unwrap().into_inner().unwrap()
    }

    #[test]
    fn fifo_starts_in_arrival_order() {
        assert_eq!(
            start_order(SchedulePolicy::Fifo, &[3.0, 2.0, 1.0]),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn sjf_starts_cheapest_first() {
        assert_eq!(
            start_order(SchedulePolicy::Sjf, &[3.0, 1.0, 2.0]),
            vec![2, 3, 1]
        );
    }

    /// Regression for a missed wakeup with more than one execution slot:
    /// two slots are occupied, two waiters queue, then both slots free in
    /// quick succession. Both `notify_all`s can land before either waiter
    /// runs; the non-chosen waiter then rechecks, sees itself not chosen,
    /// and goes back to sleep — after which only the admitted winner knows
    /// a slot is still free. Without the winner's hand-off notify the
    /// second waiter sleeps until its full queue timeout.
    #[test]
    fn second_free_slot_admits_the_next_waiter_promptly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // 100 seeded schedules: each seed perturbs the slot count, the
        // policy, the waiters' costs and arrival jitter,
        // and — the key lever for this race — the gap between the
        // releases.
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let slots = rng.gen_range(2..4usize);
            let waiters = slots; // every freed slot must re-admit promptly
            let policy = if rng.gen_range(0..2u32) == 0 {
                SchedulePolicy::Fifo
            } else {
                SchedulePolicy::Sjf
            };
            let s = Arc::new(Scheduler::new(
                slots,
                waiters + 1,
                Duration::from_secs(10),
                policy,
            ));
            // spread the holders and waiters across two tenants so the
            // fair path's tenant selection is exercised too
            let other = s.add_tenant("other", TenantQuota::unlimited());
            for seq in 0..slots as u64 {
                s.admit((seq % 2) as usize * other, seq, 0.0, None).unwrap();
            }
            let handles: Vec<_> = (0..waiters)
                .map(|i| {
                    let s2 = Arc::clone(&s);
                    let jitter = Duration::from_micros(rng.gen_range(0..200u64));
                    let cost = rng.gen_range(0..50u64) as f64;
                    let seq = (slots + i) as u64;
                    let tenant = (i % 2) * other;
                    std::thread::spawn(move || {
                        std::thread::sleep(jitter);
                        s2.admit(tenant, seq, cost, None).unwrap();
                        tenant
                    })
                })
                .collect();
            while s.load().1 < waiters {
                std::thread::yield_now();
            }
            let freed = Instant::now();
            for seq in 0..slots as u64 {
                s.release((seq % 2) as usize * other);
                let gap = rng.gen_range(0..150u64);
                if gap > 0 {
                    std::thread::sleep(Duration::from_micros(gap));
                }
            }
            let mut held = Vec::new();
            for h in handles {
                held.push(h.join().unwrap());
            }
            assert!(
                freed.elapsed() < Duration::from_secs(5),
                "seed {seed}: a waiter missed its wakeup and slept toward the queue timeout"
            );
            assert_eq!(
                s.load(),
                (waiters, 0),
                "seed {seed}: every waiter must hold a slot"
            );
            for tenant in held {
                s.release(tenant);
            }
        }
    }

    /// Drive the selection function directly through a flood-vs-victim
    /// schedule: one slot, the flooding tenant always has a cheap ticket
    /// queued (replenished after every grant), the victim tenant has one
    /// expensive ticket. Weighted round-robin across tenants chooses the
    /// victim within two grants under either intra-tenant policy — SJF
    /// alone would pick the flood's cheap ticket forever.
    #[test]
    fn fair_mode_schedules_a_flooded_victim_within_two_grants() {
        let grants_until_victim = |policy: SchedulePolicy, max_grants: usize| -> Option<usize> {
            let s = Scheduler::new(1, 64, Duration::from_secs(5), policy);
            let flood = DEFAULT_TENANT;
            let victim = s.add_tenant("victim", TenantQuota::unlimited());
            let mut st = s.state.lock().unwrap();
            let mut next_seq = 0u64;
            let push = |st: &mut State, tenant: usize, cost: f64, seq: &mut u64| {
                st.tenants[tenant].queue.push(Ticket { seq: *seq, cost });
                st.queued += 1;
                *seq += 1;
            };
            push(&mut st, flood, 0.0, &mut next_seq);
            push(&mut st, flood, 0.0, &mut next_seq);
            push(&mut st, victim, 1e9, &mut next_seq);
            for grant_no in 0..max_grants {
                let (tenant, seq) = s.chosen(&st).expect("queues are never empty");
                st.tenants[tenant].queue.retain(|t| t.seq != seq);
                st.queued -= 1;
                s.grant(&mut st, tenant);
                if tenant == victim {
                    return Some(grant_no);
                }
                // the granted query "finishes" instantly and the flood
                // replenishes its queue before the next grant
                st.in_flight -= 1;
                st.tenants[tenant].in_flight -= 1;
                push(&mut st, flood, 0.0, &mut next_seq);
            }
            None
        };
        for policy in [SchedulePolicy::Fifo, SchedulePolicy::Sjf] {
            let g = grants_until_victim(policy, 10_000)
                .unwrap_or_else(|| panic!("{policy:?}: the victim must be scheduled"));
            assert!(g <= 2, "{policy:?}: the victim ran after {g} grants");
        }
    }

    /// Weighted share: tenants at weight 3 and 1 with always-full queues
    /// split 1000 grants 3:1 (±1 grant of rounding).
    #[test]
    fn weights_split_grants_proportionally() {
        let s = Scheduler::new(1, 64, Duration::from_secs(5), SchedulePolicy::Fifo);
        let heavy = s.add_tenant(
            "heavy",
            TenantQuota {
                weight: 3,
                ..TenantQuota::unlimited()
            },
        );
        let light = s.add_tenant("light", TenantQuota::unlimited());
        let mut st = s.state.lock().unwrap();
        let mut next_seq = 0u64;
        let mut counts = [0usize; 2];
        for tenant in [heavy, light] {
            for _ in 0..2 {
                st.tenants[tenant].queue.push(Ticket {
                    seq: next_seq,
                    cost: 1.0,
                });
                st.queued += 1;
                next_seq += 1;
            }
        }
        for _ in 0..1000 {
            let (tenant, seq) = s.chosen(&st).expect("queues stay full");
            st.tenants[tenant].queue.retain(|t| t.seq != seq);
            s.grant(&mut st, tenant);
            st.in_flight -= 1;
            st.tenants[tenant].in_flight -= 1;
            counts[if tenant == heavy { 0 } else { 1 }] += 1;
            st.tenants[tenant].queue.push(Ticket {
                seq: next_seq,
                cost: 1.0,
            });
            next_seq += 1;
        }
        assert!(
            (counts[0] as i64 - 750).abs() <= 1,
            "weight-3 tenant got {} of 1000 grants, expected ~750",
            counts[0]
        );
    }

    /// Re-activation lifts the clock to the active floor: a tenant that
    /// idled through 100 grants does not get a 100-grant burst when it
    /// wakes — its first grant comes at parity with the active tenant.
    #[test]
    fn idle_tenant_banks_no_credit() {
        let s = Scheduler::new(2, 64, Duration::from_secs(5), SchedulePolicy::Fifo);
        let sleeper = s.add_tenant("sleeper", TenantQuota::unlimited());
        // the default tenant runs 100 queries while the sleeper idles
        for seq in 0..100 {
            s.admit(DEFAULT_TENANT, seq, 1.0, None).unwrap();
            s.release(DEFAULT_TENANT);
        }
        // sleeper wakes: its clock is lifted to the floor, so after its
        // first grant the two clocks differ by at most one quantum
        s.admit(sleeper, 100, 1.0, None).unwrap();
        s.release(sleeper);
        let st = s.state.lock().unwrap();
        let d = st.tenants[DEFAULT_TENANT].vtime as i64 - st.tenants[sleeper].vtime as i64;
        assert!(
            d.unsigned_abs() <= VTIME_SCALE,
            "sleeper woke {d} virtual ticks behind — banked idle credit"
        );
    }

    #[test]
    fn policy_parse_round_trips() {
        assert_eq!(SchedulePolicy::parse("fifo"), Some(SchedulePolicy::Fifo));
        assert_eq!(SchedulePolicy::parse("SJF"), Some(SchedulePolicy::Sjf));
        assert_eq!(SchedulePolicy::parse("lifo"), None);
    }
}
