//! Offline stand-in for the `crossbeam` facade crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of the crossbeam API that `bib-parallel`
//! actually uses:
//!
//! * multi-producer/single-consumer channels created with
//!   [`channel::bounded`] (clonable senders, an iterable receiver) —
//!   the replicate executor's result fan-in;
//! * [`pool::scoped`], a scoped worker pool with a per-round barrier
//!   ([`pool::Rounds`]) for round-synchronous supersteps — the shape
//!   the concurrent single-run engine and the sharded serve driver in
//!   `bib-parallel` need.
//!
//! The implementations delegate to `std::sync` (`mpsc`, `Mutex`,
//! `Condvar`, `thread::scope`), which provide the same semantics for
//! these usage patterns. Swapping in the real crossbeam later only
//! requires deleting this crate from the workspace and pointing
//! `[workspace.dependencies]` at the registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool {
    //! A scoped worker pool with a per-round barrier, for
    //! round-synchronous supersteps: every worker runs the same closure,
    //! and [`Rounds::sync`] separates the phases of a round so that all
    //! writes before the barrier are visible to every worker after it.
    //!
    //! # Panic propagation
    //!
    //! The barrier is *poisonable*: when any worker panics, every other
    //! worker parked (or later arriving) at [`Rounds::sync`] is released
    //! by unwinding instead of waiting for a round that can never
    //! complete, and the first panic's original payload is re-raised on
    //! the calling thread after the scope joins. Without this, a
    //! `std::sync::Barrier` would strand the surviving workers forever
    //! (the scope join waits on them, they wait on the dead worker).

    use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex, MutexGuard};

    /// Private unwind payload used to release workers parked at a
    /// poisoned barrier; never surfaced to callers (the *original*
    /// panic payload is what propagates).
    struct BarrierPoisoned;

    struct BarrierState {
        count: usize,
        generation: u64,
        poisoned: bool,
    }

    /// The per-round synchronization handle passed to every worker.
    pub struct Rounds {
        lock: Mutex<BarrierState>,
        cvar: Condvar,
        workers: usize,
    }

    impl Rounds {
        fn new(workers: usize) -> Self {
            Self {
                lock: Mutex::new(BarrierState {
                    count: 0,
                    generation: 0,
                    poisoned: false,
                }),
                cvar: Condvar::new(),
                workers,
            }
        }

        /// The barrier's own mutex poisoning is impossible by
        /// construction (no caller panics while holding the guard), but
        /// recovering the inner state keeps the release path alive even
        /// if that invariant is ever broken.
        fn state(&self) -> MutexGuard<'_, BarrierState> {
            self.lock.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Blocks until every worker has called `sync`. All memory
        /// writes sequenced before any worker's `sync` happen-before
        /// everything sequenced after the matching `sync` in every
        /// other worker (mutex release/acquire on the shared barrier
        /// state) — this is the only inter-phase ordering the round
        /// engines rely on.
        ///
        /// # Panics
        ///
        /// Unwinds (with a private sentinel payload) if the barrier was
        /// poisoned by a panicking worker; [`scoped`] catches the
        /// sentinel and re-raises the original panic on the caller.
        pub fn sync(&self) {
            let mut st = self.state();
            if st.poisoned {
                drop(st);
                panic_any(BarrierPoisoned);
            }
            let gen = st.generation;
            st.count += 1;
            if st.count == self.workers {
                st.count = 0;
                st.generation += 1;
                self.cvar.notify_all();
                return;
            }
            // RETRY: condvar wait loop; exits when the round completes
            // (generation bump) or the barrier is poisoned — both are
            // one-way transitions, so the loop terminates.
            while st.generation == gen && !st.poisoned {
                st = self.cvar.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.poisoned && st.generation == gen {
                // Released by poison, not by a completed round: this
                // round can never complete, so unwind out of the phase.
                drop(st);
                panic_any(BarrierPoisoned);
            }
        }

        /// Marks the barrier dead and releases every parked worker.
        fn poison(&self) {
            let mut st = self.state();
            st.poisoned = true;
            self.cvar.notify_all();
        }

        /// Number of workers in the pool.
        pub fn workers(&self) -> usize {
            self.workers
        }
    }

    /// Runs `f(worker_id, rounds)` on `workers` workers (ids
    /// `0..workers`) inside one `std::thread::scope`. Worker 0 runs on
    /// the calling thread, so a single-worker pool spawns nothing and a
    /// multi-worker pool keeps the caller busy instead of parked.
    ///
    /// # Panics
    ///
    /// If any worker panics, the pool poisons the barrier (releasing
    /// workers parked at [`Rounds::sync`]), joins every worker, and
    /// re-raises the **first** panic's original payload on the calling
    /// thread.
    pub fn scoped<F>(workers: usize, f: F)
    where
        F: Fn(usize, &Rounds) + Sync,
    {
        let workers = workers.max(1);
        let rounds = Rounds::new(workers);
        if workers == 1 {
            f(0, &rounds);
            return;
        }
        // First panic's payload; later (sentinel-released) unwinds are
        // collateral and dropped.
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let run = |w: usize| {
            // AssertUnwindSafe: on unwind the shared state is either
            // poisoned (and every observer unwinds too) or untouched by
            // this worker; nothing is observed in a broken state.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(w, &rounds))) {
                if !payload.is::<BarrierPoisoned>() {
                    let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
                rounds.poison();
            }
        };
        std::thread::scope(|s| {
            let run = &run;
            for w in 1..workers {
                s.spawn(move || run(w));
            }
            run(0);
        });
        if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_unwind(payload);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        // ORDERING: each use below carries its own argument.
        use std::sync::atomic::{AtomicU64, Ordering};

        #[test]
        fn single_worker_runs_inline() {
            // ORDERING: Relaxed-only tally; see the increment below.
            let hits = AtomicU64::new(0);
            scoped(1, |w, r| {
                assert_eq!(w, 0);
                assert_eq!(r.workers(), 1);
                r.sync(); // must not block with one worker
                          // ORDERING: Relaxed — single increment, checked after
                          // `scoped` returns (sequenced on this thread).
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 1);
        }

        #[test]
        fn barrier_separates_phases() {
            // Phase A: every worker contributes; phase B: every worker
            // must observe the full phase-A total — only true if sync()
            // is a real barrier with release/acquire semantics.
            // ORDERING: Relaxed adds; the barrier publishes.
            let total = AtomicU64::new(0);
            scoped(4, |_, rounds| {
                for round in 1..=8u64 {
                    // ORDERING: Relaxed — the barrier below publishes.
                    total.fetch_add(round, Ordering::Relaxed);
                    rounds.sync();
                    // ORDERING: Relaxed — the barrier above ordered all
                    // phase-A adds before this read.
                    assert_eq!(total.load(Ordering::Relaxed) % 4, 0);
                    rounds.sync(); // keep rounds aligned across workers
                }
            });
            // ORDERING: Relaxed — read after the scope joins.
            assert_eq!(total.load(Ordering::Relaxed), 4 * 36);
        }

        #[test]
        fn worker_ids_cover_the_pool() {
            // ORDERING: Relaxed-only bitmask; see the union below.
            let seen = AtomicU64::new(0);
            scoped(3, |w, _| {
                // ORDERING: Relaxed — bitmask union, read after join.
                seen.fetch_or(1 << w, Ordering::Relaxed);
            });
            assert_eq!(seen.load(Ordering::Relaxed), 0b111);
        }

        #[test]
        fn spawned_worker_panic_releases_the_barrier_and_propagates() {
            // The strand-on-panic regression: worker 2 dies before its
            // sync() while the others park at the barrier. Without
            // poisoning, the survivors wait forever and the scope join
            // never returns; with it, the pool unwinds with the dead
            // worker's original payload.
            let caught = std::panic::catch_unwind(|| {
                scoped(4, |w, rounds| {
                    if w == 2 {
                        panic!("worker 2 injected failure");
                    }
                    rounds.sync();
                });
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .expect("original payload type preserved");
            assert_eq!(msg, "worker 2 injected failure");
        }

        #[test]
        fn caller_worker_panic_releases_spawned_workers() {
            // Same strand, other direction: worker 0 (the caller) dies
            // while spawned workers park at the barrier.
            let caught = std::panic::catch_unwind(|| {
                scoped(3, |w, rounds| {
                    if w == 0 {
                        panic!("caller died");
                    }
                    rounds.sync();
                });
            });
            let payload = caught.expect_err("panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller died"));
        }

        #[test]
        fn panic_after_rounds_still_propagates() {
            // A worker that dies *between* barriers (others already past
            // the round) must still poison and propagate.
            let caught = std::panic::catch_unwind(|| {
                scoped(4, |w, rounds| {
                    rounds.sync(); // round 1 completes on all workers
                    if w == 1 {
                        panic!("late failure");
                    }
                    rounds.sync(); // round 2 can never complete
                });
            });
            let payload = caught.expect_err("panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"late failure"));
        }
    }
}

pub mod channel {
    //! MPMC-style channels; see the crate docs for the supported subset.

    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};

    /// Sending half of a channel. Clonable, like crossbeam's.
    pub struct Sender<T> {
        inner: mpsc::SyncSender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    /// Error returned by [`Sender::send`] when the receiver has hung up.
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T> Sender<T> {
        /// Blocks until the message is delivered or the channel disconnects.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner
                .send(value)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Receiving half of a channel.
    ///
    /// Unlike `std::sync::mpsc::Receiver`, crossbeam receivers are
    /// `Sync + Clone`; the `Arc<Mutex<_>>` wrapper preserves that
    /// contract for callers that share one receiver across scoped
    /// threads.
    pub struct Receiver<T> {
        inner: Arc<Mutex<mpsc::Receiver<T>>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner
                .lock()
                .expect("receiver mutex poisoned")
                .recv()
                .map_err(|_| RecvError)
        }

        /// Iterates over received messages until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Blocking iterator over a receiver; ends when all senders drop.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    /// Owning blocking iterator over a receiver.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Creates a channel holding at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (
            Sender { inner: tx },
            Receiver {
                inner: Arc::new(Mutex::new(rx)),
            },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fan_in_from_clones() {
            let (tx, rx) = bounded::<usize>(64);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let tx = tx.clone();
                    s.spawn(move || {
                        for i in 0..16 {
                            tx.send(t * 16 + i).unwrap();
                        }
                    });
                }
                drop(tx);
            });
            let mut got: Vec<usize> = rx.into_iter().collect();
            got.sort_unstable();
            assert_eq!(got, (0..64).collect::<Vec<_>>());
        }

        #[test]
        fn recv_err_after_disconnect() {
            let (tx, rx) = bounded::<u8>(1);
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }
    }
}
