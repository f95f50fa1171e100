//! The parallel execution driver: every DB worker and every JEN worker
//! runs its phase steps on its own OS thread.
//!
//! An algorithm describes itself as two [`TaskSet`]s — one per cluster —
//! whose steps carry a global sequence number. With `threads == 1` the
//! driver replays the steps in ascending sequence order, worker 0..n within
//! each step: exactly the order the sequential implementations used, so a
//! single-threaded run is bit-for-bit the old behavior. With `threads > 1`
//! it spawns one scoped thread per worker ([`std::thread::scope`], no new
//! dependencies); each thread walks its own step list in sequence order and
//! workers synchronize only through fabric messages. A counting semaphore
//! bounds how many workers occupy a *compute* section at once, so
//! `--threads 2` and `--threads 8` genuinely differ on a 30-worker cluster.
//!
//! Error propagation: the first failing step trips a shared [`CancelToken`];
//! peers blocked in a mailbox receive notice it within one poll slice and
//! abort with [`HybridError::Cancelled`]. The driver reports the first
//! *root-cause* error (never a secondary cancellation) and catches worker
//! panics, converting them into [`HybridError::Exec`]; a panicking worker
//! trips the token as it unwinds, so its peers abort at once — no poisoned
//! mutexes, no orphan threads ([`std::thread::scope`] joins everything).

use crate::system::SystemConfig;
use hybrid_common::error::{HybridError, Result};
use hybrid_net::{Straggler, WorkerKill};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Shared cancellation flag: set once by the first failing worker, polled
/// by everyone else (steps between phases, mailboxes inside blocking waits).
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A counting semaphore (std has none): caps concurrently *computing*
/// workers at the configured thread budget.
struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Semaphore {
    fn new(n: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(n),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut p = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        while *p == 0 {
            p = self.freed.wait(p).unwrap_or_else(|e| e.into_inner());
        }
        *p -= 1;
    }

    fn release(&self) {
        *self.permits.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.freed.notify_one();
    }
}

/// RAII guard for one compute slot. IMPORTANT: never hold one across a
/// blocking fabric send or receive — a worker waiting on the network while
/// occupying a slot could starve the workers it is waiting *for*.
pub struct ComputePermit<'a> {
    sem: Option<&'a Semaphore>,
}

impl Drop for ComputePermit<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.sem {
            s.release();
        }
    }
}

/// One step of one task set: called once per worker with that worker's
/// mutable state. `Sync` because in parallel mode every worker thread calls
/// the same closure (on disjoint states).
pub type StepFn<'env, S> = Box<dyn Fn(usize, &mut S) -> Result<()> + Sync + 'env>;

/// A cluster's share of an algorithm: per-worker states plus a list of
/// `(sequence, step)` pairs. Sequence numbers are global across the DB and
/// JEN task sets of one run; they define the sequential replay order.
pub struct TaskSet<'env, S> {
    label: &'static str,
    states: Vec<S>,
    steps: Vec<(u32, StepFn<'env, S>)>,
}

impl<'env, S> TaskSet<'env, S> {
    /// `label` names the cluster in error messages ("db" / "jen").
    pub fn new(label: &'static str, states: Vec<S>) -> TaskSet<'env, S> {
        TaskSet {
            label,
            states,
            steps: Vec::new(),
        }
    }

    /// Append a step at sequence number `seq`. Steps sharing a `seq` run in
    /// insertion order (the sort is stable); across the two task sets of a
    /// run, ties go to the first (DB) set.
    pub fn step(&mut self, seq: u32, f: impl Fn(usize, &mut S) -> Result<()> + Sync + 'env) {
        self.steps.push((seq, Box::new(f)));
    }
}

/// The execution driver. One per algorithm run; algorithms borrow it inside
/// their step closures for [`Driver::compute_permit`] and hand their
/// mailboxes its [`CancelToken`].
pub struct Driver {
    threads: usize,
    cancel: CancelToken,
    sem: Semaphore,
    kill: Option<WorkerKill>,
    straggler: Option<Straggler>,
}

impl Driver {
    pub fn new(threads: usize) -> Driver {
        let threads = threads.max(1);
        Driver {
            threads,
            cancel: CancelToken::new(),
            sem: Semaphore::new(threads),
            kill: None,
            straggler: None,
        }
    }

    pub fn from_config(config: &SystemConfig) -> Driver {
        let mut driver = Driver::new(config.threads);
        if let Some(spec) = &config.fault_spec {
            driver.kill = spec.kill;
            driver.straggler = spec.straggler;
        }
        driver
    }

    /// The injected-kill error: the worker "crashed", so from the query's
    /// perspective its endpoint went away. Typed, so the chaos suite can
    /// match the variant instead of message text.
    fn kill_error(label: &str, w: usize) -> HybridError {
        HybridError::Disconnected {
            endpoint: format!("{label}-worker-{w}"),
            stream: None,
        }
    }

    /// Whether the configured kill lands on worker `w` of the `label` set
    /// at step ordinal `step` (index into that worker's sorted step list).
    fn kill_matches(kill: &Option<WorkerKill>, label: &str, w: usize, step: usize) -> bool {
        kill.as_ref()
            .is_some_and(|k| k.target.label() == label && k.worker == w && k.step == step)
    }

    /// The straggler delay for worker `w` of the `label` set, if any.
    fn straggle_delay(straggler: &Option<Straggler>, label: &str, w: usize) -> Option<Duration> {
        straggler
            .as_ref()
            .filter(|s| s.target.label() == label && s.worker == w)
            .map(|s| s.delay)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when workers run on their own threads.
    pub fn parallel(&self) -> bool {
        self.threads > 1
    }

    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Claim a compute slot (blocks until one frees up). Sequential runs
    /// short-circuit: one thread can never contend with itself.
    pub fn compute_permit(&self) -> ComputePermit<'_> {
        if !self.parallel() {
            return ComputePermit { sem: None };
        }
        self.sem.acquire();
        ComputePermit {
            sem: Some(&self.sem),
        }
    }

    /// Run a DB task set and a JEN task set to completion; returns the final
    /// per-worker states. On any failure every surviving worker is
    /// cancelled, all threads are joined, and the first root-cause error is
    /// returned.
    pub fn run_pair<'env, A, B>(
        &self,
        a: TaskSet<'env, A>,
        b: TaskSet<'env, B>,
    ) -> Result<(Vec<A>, Vec<B>)>
    where
        A: Send,
        B: Send,
    {
        if self.parallel() {
            self.run_parallel(a, b)
        } else {
            self.run_sequential(a, b)
        }
    }

    /// Replay in global sequence order, worker 0..n inside each step —
    /// byte-for-byte the pre-driver sequential execution. Fault hooks: a
    /// configured [`WorkerKill`] fires right before its victim's k-th step
    /// (steps are counted per set here, since every worker of a set walks
    /// the same list), a [`Straggler`] sleeps before each of its steps.
    fn run_sequential<'env, A, B>(
        &self,
        mut a: TaskSet<'env, A>,
        mut b: TaskSet<'env, B>,
    ) -> Result<(Vec<A>, Vec<B>)> {
        // (seq, set, index-within-set); stable sort keeps insertion order
        // for equal keys and puts set A first on sequence ties.
        let mut order: Vec<(u32, u8, usize)> = Vec::with_capacity(a.steps.len() + b.steps.len());
        order.extend(a.steps.iter().enumerate().map(|(i, (s, _))| (*s, 0u8, i)));
        order.extend(b.steps.iter().enumerate().map(|(i, (s, _))| (*s, 1u8, i)));
        order.sort_by_key(|&(s, which, _)| (s, which));
        // Per-set step ordinals: how many steps of each set have run so
        // far, i.e. the index of the current step in a worker's own list.
        let (mut done_a, mut done_b) = (0usize, 0usize);
        for (_, which, i) in order {
            if which == 0 {
                let f = &a.steps[i].1;
                for (w, st) in a.states.iter_mut().enumerate() {
                    if Self::kill_matches(&self.kill, a.label, w, done_a) {
                        return Err(Self::kill_error(a.label, w));
                    }
                    if let Some(d) = Self::straggle_delay(&self.straggler, a.label, w) {
                        std::thread::sleep(d);
                    }
                    f(w, st)?;
                }
                done_a += 1;
            } else {
                let f = &b.steps[i].1;
                for (w, st) in b.states.iter_mut().enumerate() {
                    if Self::kill_matches(&self.kill, b.label, w, done_b) {
                        return Err(Self::kill_error(b.label, w));
                    }
                    if let Some(d) = Self::straggle_delay(&self.straggler, b.label, w) {
                        std::thread::sleep(d);
                    }
                    f(w, st)?;
                }
                done_b += 1;
            }
        }
        Ok((a.states, b.states))
    }

    fn run_parallel<'env, A, B>(
        &self,
        mut a: TaskSet<'env, A>,
        mut b: TaskSet<'env, B>,
    ) -> Result<(Vec<A>, Vec<B>)>
    where
        A: Send,
        B: Send,
    {
        a.steps.sort_by_key(|(s, _)| *s);
        b.steps.sort_by_key(|(s, _)| *s);
        let (steps_a, steps_b) = (&a.steps, &b.steps);
        let (label_a, label_b) = (a.label, b.label);
        let cancel = &self.cancel;
        let (kill, straggler) = (&self.kill, &self.straggler);

        // Trips the token while its worker's thread unwinds, so a panicking
        // step cancels its peers at once: `collect` only sees the panic when
        // it reaches that worker's handle, after joining every lower one,
        // and those may be waiting on the dead worker's traffic.
        struct CancelOnPanic<'a>(&'a CancelToken);

        impl Drop for CancelOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.cancel();
                }
            }
        }

        // Walk one worker's whole step list on its thread. Checking the
        // token *between* steps catches peers that failed while this worker
        // was computing; mailboxes catch failures mid-receive. An injected
        // kill fires before the victim's k-th step and trips the token so
        // peers blocked on the dead worker's traffic abort too; an injected
        // straggler sleeps before every step.
        fn drive<S>(
            steps: &[(u32, StepFn<'_, S>)],
            w: usize,
            mut st: S,
            label: &str,
            cancel: &CancelToken,
            kill: &Option<WorkerKill>,
            straggle: Option<Duration>,
        ) -> std::result::Result<S, HybridError> {
            let _guard = CancelOnPanic(cancel);
            for (step, (_, f)) in steps.iter().enumerate() {
                if Driver::kill_matches(kill, label, w, step) {
                    cancel.cancel();
                    return Err(Driver::kill_error(label, w));
                }
                if let Some(d) = straggle {
                    std::thread::sleep(d);
                }
                if cancel.is_cancelled() {
                    return Err(HybridError::Cancelled {
                        worker: format!("{label}-{w}"),
                    });
                }
                f(w, &mut st).inspect_err(|_| cancel.cancel())?;
            }
            Ok(st)
        }

        // Join every handle, converting panics into errors.
        fn collect<'scope, S>(
            handles: Vec<
                std::thread::ScopedJoinHandle<'scope, std::result::Result<S, HybridError>>,
            >,
            label: &str,
        ) -> (Vec<S>, Vec<HybridError>) {
            let mut states = Vec::with_capacity(handles.len());
            let mut errors = Vec::new();
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(Ok(st)) => states.push(st),
                    Ok(Err(e)) => errors.push(e),
                    Err(payload) => {
                        errors.push(HybridError::Exec(format!(
                            "worker {label}-{w} panicked: {}",
                            panic_message(&payload)
                        )));
                    }
                }
            }
            (states, errors)
        }

        let (res_a, res_b) = std::thread::scope(|scope| {
            let handles_a: Vec<_> = a
                .states
                .drain(..)
                .enumerate()
                .map(|(w, st)| {
                    let straggle = Driver::straggle_delay(straggler, label_a, w);
                    scope.spawn(move || drive(steps_a, w, st, label_a, cancel, kill, straggle))
                })
                .collect();
            let handles_b: Vec<_> = b
                .states
                .drain(..)
                .enumerate()
                .map(|(w, st)| {
                    let straggle = Driver::straggle_delay(straggler, label_b, w);
                    scope.spawn(move || drive(steps_b, w, st, label_b, cancel, kill, straggle))
                })
                .collect();
            (collect(handles_a, label_a), collect(handles_b, label_b))
        });
        let (states_a, mut errors) = res_a;
        let (states_b, errors_b) = res_b;
        errors.extend(errors_b);
        if errors.is_empty() {
            return Ok((states_a, states_b));
        }
        // Prefer the root cause: a Cancelled error only says "someone else
        // failed first" and is reported only if nothing better exists.
        let root = errors
            .iter()
            .find(|e| !matches!(e, HybridError::Cancelled { .. }))
            .or_else(|| errors.first())
            .cloned()
            .expect("errors is non-empty");
        Err(root)
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn two_sets<'env>(
        log: &'env Mutex<Vec<String>>,
    ) -> (TaskSet<'env, usize>, TaskSet<'env, usize>) {
        let mut a = TaskSet::new("db", vec![0usize; 2]);
        let mut b = TaskSet::new("jen", vec![0usize; 3]);
        a.step(10, move |w, _| {
            log.lock().unwrap().push(format!("db{w}.s10"));
            Ok(())
        });
        b.step(20, move |w, _| {
            log.lock().unwrap().push(format!("jen{w}.s20"));
            Ok(())
        });
        a.step(30, move |w, _| {
            log.lock().unwrap().push(format!("db{w}.s30"));
            Ok(())
        });
        (a, b)
    }

    #[test]
    fn sequential_replays_in_seq_then_worker_order() {
        let log = Mutex::new(Vec::new());
        let (a, b) = two_sets(&log);
        Driver::new(1).run_pair(a, b).unwrap();
        assert_eq!(
            log.into_inner().unwrap(),
            vec!["db0.s10", "db1.s10", "jen0.s20", "jen1.s20", "jen2.s20", "db0.s30", "db1.s30"]
        );
    }

    #[test]
    fn sequential_breaks_seq_ties_db_first() {
        let log: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let logr = &log;
        let mut a = TaskSet::new("db", vec![(); 1]);
        let mut b = TaskSet::new("jen", vec![(); 1]);
        b.step(5, move |_, _| {
            logr.lock().unwrap().push("jen".into());
            Ok(())
        });
        a.step(5, move |_, _| {
            logr.lock().unwrap().push("db".into());
            Ok(())
        });
        Driver::new(1).run_pair(a, b).unwrap();
        assert_eq!(log.into_inner().unwrap(), vec!["db", "jen"]);
    }

    #[test]
    fn parallel_runs_every_step_once_per_worker() {
        let count = AtomicUsize::new(0);
        let countr = &count;
        let mut a = TaskSet::new("db", vec![(); 4]);
        let mut b = TaskSet::new("jen", vec![(); 5]);
        a.step(1, move |_, _| {
            countr.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        b.step(2, move |_, _| {
            countr.fetch_add(10, Ordering::SeqCst);
            Ok(())
        });
        Driver::new(8).run_pair(a, b).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 4 + 50);
    }

    #[test]
    fn states_return_in_worker_order() {
        let mut a = TaskSet::new("db", vec![0usize; 3]);
        let b: TaskSet<()> = TaskSet::new("jen", vec![]);
        a.step(1, |w, st| {
            *st = w * 100;
            Ok(())
        });
        let (states, _) = Driver::new(4).run_pair(a, b).unwrap();
        assert_eq!(states, vec![0, 100, 200]);
    }

    #[test]
    fn error_cancels_peers_and_wins_over_cancelled() {
        let driver = Driver::new(4);
        let cancel = driver.cancel_token();
        let mut a = TaskSet::new("db", vec![(); 1]);
        let mut b = TaskSet::new("jen", vec![(); 2]);
        a.step(1, move |_, _| Err(HybridError::exec("root cause")));
        // peers poll the token as a mailbox would
        let c2 = cancel.clone();
        b.step(1, move |w, _| loop {
            if c2.is_cancelled() {
                return Err(HybridError::Cancelled {
                    worker: format!("jen-{w}"),
                });
            }
            std::thread::yield_now();
        });
        let err = driver.run_pair(a, b).unwrap_err();
        assert_eq!(err, HybridError::exec("root cause"));
        assert!(cancel.is_cancelled());
    }

    #[test]
    fn panic_is_captured_not_propagated() {
        let driver = Driver::new(2);
        let mut a = TaskSet::new("db", vec![(); 1]);
        let b: TaskSet<()> = TaskSet::new("jen", vec![]);
        a.step(1, |_, _| panic!("kaboom"));
        let err = driver.run_pair(a, b).unwrap_err();
        match err {
            HybridError::Exec(m) => {
                assert!(m.contains("db-0") && m.contains("kaboom"), "{m}");
            }
            other => panic!("expected Exec, got {other:?}"),
        }
    }

    #[test]
    fn compute_permits_bound_concurrency() {
        let driver = Driver::new(2);
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (activer, peakr) = (&active, &peak);
        let driverr = &driver;
        let mut a = TaskSet::new("db", vec![(); 6]);
        let b: TaskSet<()> = TaskSet::new("jen", vec![]);
        a.step(1, move |_, _| {
            let _permit = driverr.compute_permit();
            let now = activer.fetch_add(1, Ordering::SeqCst) + 1;
            peakr.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            activer.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        });
        driver.run_pair(a, b).unwrap();
        assert!(peak.load(Ordering::SeqCst) <= 2, "permit cap violated");
        assert!(peak.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn sequential_permit_is_a_noop() {
        let driver = Driver::new(1);
        let _p1 = driver.compute_permit();
        let _p2 = driver.compute_permit(); // would deadlock if it counted
    }

    use hybrid_net::FaultTarget;

    fn counting_sets<'env>(
        count: &'env AtomicUsize,
    ) -> (TaskSet<'env, usize>, TaskSet<'env, usize>) {
        let mut a = TaskSet::new("db", vec![0usize; 2]);
        let mut b = TaskSet::new("jen", vec![0usize; 3]);
        for seq in [10, 30] {
            a.step(seq, move |_, _| {
                count.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        }
        for seq in [20, 40] {
            b.step(seq, move |_, _| {
                count.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        }
        (a, b)
    }

    #[test]
    fn sequential_kill_is_typed_and_stops_the_replay() {
        let count = AtomicUsize::new(0);
        let (a, b) = counting_sets(&count);
        let mut driver = Driver::new(1);
        driver.kill = Some(WorkerKill {
            target: FaultTarget::Jen,
            worker: 1,
            step: 1,
        });
        let err = driver.run_pair(a, b).unwrap_err();
        assert_eq!(
            err,
            HybridError::Disconnected {
                endpoint: "jen-worker-1".into(),
                stream: None,
            }
        );
        // db steps 10+30 (2 workers each) + jen step 20 (3 workers) + jen
        // worker 0 of step 40 ran before the kill landed on jen worker 1.
        assert_eq!(count.load(Ordering::SeqCst), 2 + 3 + 2 + 1);
    }

    #[test]
    fn parallel_kill_cancels_peers_and_wins_root_cause() {
        let mut driver = Driver::new(4);
        driver.kill = Some(WorkerKill {
            target: FaultTarget::Db,
            worker: 0,
            step: 0,
        });
        let cancel = driver.cancel_token();
        let mut a = TaskSet::new("db", vec![(); 1]);
        let mut b = TaskSet::new("jen", vec![(); 2]);
        a.step(1, |_, _| Ok(()));
        let c2 = cancel.clone();
        b.step(1, move |w, _| loop {
            if c2.is_cancelled() {
                return Err(HybridError::Cancelled {
                    worker: format!("jen-{w}"),
                });
            }
            std::thread::yield_now();
        });
        let err = driver.run_pair(a, b).unwrap_err();
        assert_eq!(
            err,
            HybridError::Disconnected {
                endpoint: "db-worker-0".into(),
                stream: None,
            }
        );
        assert!(cancel.is_cancelled());
    }

    #[test]
    fn kill_past_the_last_step_never_fires() {
        let count = AtomicUsize::new(0);
        let (a, b) = counting_sets(&count);
        let mut driver = Driver::new(1);
        driver.kill = Some(WorkerKill {
            target: FaultTarget::Db,
            worker: 0,
            step: 99,
        });
        driver.run_pair(a, b).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn straggler_slows_a_worker_without_changing_results() {
        for threads in [1, 4] {
            let count = AtomicUsize::new(0);
            let (a, b) = counting_sets(&count);
            let mut driver = Driver::new(threads);
            driver.straggler = Some(Straggler {
                target: FaultTarget::Jen,
                worker: 2,
                delay: Duration::from_micros(200),
            });
            let start = std::time::Instant::now();
            driver.run_pair(a, b).unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 10, "threads={threads}");
            // 2 jen steps × 200µs lower-bounds the run.
            assert!(start.elapsed() >= Duration::from_micros(400));
        }
    }
}
