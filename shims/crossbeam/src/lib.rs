//! Offline shim for the `crossbeam` API surface this workspace uses:
//! MPMC channels with cloneable receivers, bounded back-pressure, and
//! timeout receives. Built on a `Mutex<VecDeque>` + two `Condvar`s; the
//! build environment has no crates.io access, so the real crate cannot be
//! fetched. Throughput is adequate for the simulator's message volumes.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Sender::send`]: all receivers dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`]; both variants hand the
    /// message back so the caller can retry (or drop it).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// Bounded channel at capacity.
        Full(T),
        /// All receivers dropped.
        Disconnected(T),
    }

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Signalled when a message is pushed (wakes receivers).
        not_empty: Condvar,
        /// Signalled when a message is popped (wakes bounded senders).
        not_full: Condvar,
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The sending half; clones share the queue.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clones share the queue (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    // Both hang-up notifications are sent under the queue mutex. A peer
    // checks the count and starts waiting under that mutex, so a notify
    // outside it could land between the check and the wait and be lost.
    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // last sender gone: wake receivers so they observe the hangup
                let _q = lock(&self.shared.queue);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _q = lock(&self.shared.queue);
                self.shared.not_full.notify_all();
            }
        }
    }

    fn lock<'a, T>(m: &'a Mutex<VecDeque<T>>) -> std::sync::MutexGuard<'a, VecDeque<T>> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    impl<T> Sender<T> {
        /// Send, blocking while a bounded channel is full. Errors when every
        /// receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = lock(&self.shared.queue);
            loop {
                if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(value));
                }
                match self.shared.capacity {
                    Some(cap) if q.len() >= cap => {
                        q = self
                            .shared
                            .not_full
                            .wait(q)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    _ => break,
                }
            }
            q.push_back(value);
            drop(q);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Non-blocking send: fails with [`TrySendError::Full`] instead of
        /// waiting when a bounded channel is at capacity.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut q = lock(&self.shared.queue);
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.shared.capacity {
                if q.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            q.push_back(value);
            drop(q);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = lock(&self.shared.queue);
            match q.pop_front() {
                Some(v) => {
                    drop(q);
                    self.shared.not_full.notify_one();
                    Ok(v)
                }
                None if self.shared.senders.load(Ordering::SeqCst) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Block until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = lock(&self.shared.queue);
            loop {
                if let Some(v) = q.pop_front() {
                    drop(q);
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self
                    .shared
                    .not_empty
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Block until a message arrives, every sender is dropped, or
        /// `timeout` elapses.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = lock(&self.shared.queue);
            loop {
                if let Some(v) = q.pop_front() {
                    drop(q);
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .not_empty
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        }

        pub fn is_empty(&self) -> bool {
            lock(&self.shared.queue).is_empty()
        }

        pub fn len(&self) -> usize {
            lock(&self.shared.queue).len()
        }
    }

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// An unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A bounded MPMC channel: `send` blocks while `cap` messages queue.
    /// `cap == 0` is treated as capacity 1 (the shim has no rendezvous mode;
    /// nothing in this workspace uses one).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_on_sender_drop() {
            let (tx, rx) = unbounded::<i32>();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert!(rx.recv().is_err());
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn send_fails_when_receivers_gone() {
            let (tx, rx) = unbounded::<i32>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn timeout_expires() {
            let (_tx, rx) = unbounded::<i32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn bounded_applies_backpressure() {
            let (tx, rx) = bounded::<usize>(2);
            let producer = thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
            }
            producer.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn try_send_reports_full_and_disconnected() {
            let (tx, rx) = bounded::<i32>(1);
            tx.try_send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            assert_eq!(rx.try_recv(), Ok(1));
            tx.try_send(3).unwrap();
            drop(rx);
            assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
        }

        /// Run `blocked` on its own thread and call `hang_up` the moment
        /// that thread starts, so the hang-up tends to land between its
        /// peer-count check and its wait. Returns `blocked`'s value, and
        /// fails instead of hanging when the wake-up is lost (the thread
        /// is then left blocked; the test has already failed).
        fn hang_up_while_blocked<R: Send + 'static>(
            blocked: impl FnOnce() -> R + Send + 'static,
            hang_up: impl FnOnce(),
        ) -> R {
            let started = Arc::new(AtomicUsize::new(0));
            let flag = Arc::clone(&started);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let handle = thread::spawn(move || {
                flag.store(1, Ordering::SeqCst);
                let value = blocked();
                let _ = done_tx.send(());
                value
            });
            // Spin briefly (yielding only if the thread is slow to start,
            // as on an oversubscribed machine) so the hang-up follows the
            // start as closely as possible.
            let spin_until = Instant::now() + Duration::from_micros(200);
            while started.load(Ordering::SeqCst) == 0 {
                if Instant::now() < spin_until {
                    std::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
            hang_up();
            let waited = done_rx.recv_timeout(Duration::from_secs(10));
            if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = waited {
                panic!("a blocked peer missed the hang-up wake-up");
            }
            handle.join().expect("the blocked thread panicked")
        }

        #[test]
        fn last_sender_drop_wakes_a_blocked_receiver() {
            for _ in 0..10_000 {
                let (tx, rx) = bounded::<u8>(1);
                let got = hang_up_while_blocked(move || rx.recv(), move || drop(tx));
                assert_eq!(got, Err(RecvError));
            }
        }

        #[test]
        fn last_receiver_drop_wakes_a_blocked_sender() {
            for _ in 0..10_000 {
                let (tx, rx) = bounded::<u8>(1);
                tx.send(0).unwrap();
                let sent = hang_up_while_blocked(move || tx.send(1), move || drop(rx));
                assert!(sent.is_err());
            }
        }

        #[test]
        fn cloned_receivers_share_stream() {
            let (tx, rx) = unbounded::<usize>();
            let rx2 = rx.clone();
            for i in 0..50 {
                tx.send(i).unwrap();
            }
            let a = thread::spawn(move || (0..25).filter(|_| rx.recv().is_ok()).count());
            let b = thread::spawn(move || (0..25).filter(|_| rx2.recv().is_ok()).count());
            assert_eq!(a.join().unwrap() + b.join().unwrap(), 50);
        }
    }
}
