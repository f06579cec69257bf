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
//! `Condvar`, atomics, `thread::scope`), which provide the same
//! semantics for these usage patterns; the barrier is a spin-then-park
//! one (see [`pool::Rounds`]). Swapping in the real crossbeam later only
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
    //! # Spin, then park
    //!
    //! A superstep's phases are short and nearly balanced, so most
    //! waits at the barrier end within microseconds, while parking on
    //! a `Condvar` costs a futex sleep and a wake-up per worker and
    //! round. A waiter therefore first polls the round counter for a
    //! bounded number of `spin_loop` iterations (no clock) and parks
    //! only after that. A pool with more workers than the host has
    //! cores parks at once: there, a spinning waiter would hold the
    //! core the worker it waits for needs.
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
    // ORDERING: import only; every use site documents its own ordering.
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard};

    /// Private unwind payload used to release workers parked at a
    /// poisoned barrier; never surfaced to callers (the *original*
    /// panic payload is what propagates).
    struct BarrierPoisoned;

    /// `spin_loop` iterations a waiter polls the round counter before
    /// it parks. No clock (rule D1): a bounded count of CPU pause
    /// hints, from a few hundred microseconds to a few milliseconds
    /// depending on the pause latency of the core — long enough to
    /// cover the phase imbalance of a superstep round, short enough
    /// that a long wait still sleeps.
    const SPIN_LIMIT: u32 = 1 << 16;

    /// How long a waiter spins before parking: [`SPIN_LIMIT`] when every
    /// worker can own a core, 0 when the pool is oversubscribed (a
    /// spinning waiter would then steal the core of the very worker it
    /// waits for).
    pub(crate) fn spin_limit(workers: usize, available: usize) -> u32 {
        if workers <= available {
            SPIN_LIMIT
        } else {
            0
        }
    }

    /// The per-round synchronization handle passed to every worker.
    ///
    /// A spin-then-park barrier. Arrival is an atomic counter; release
    /// is a round (generation) counter the last arriver bumps with a
    /// `Release` store and waiters poll with `Acquire` loads, spinning
    /// up to a bounded number of iterations and then parking on a
    /// `Condvar`.
    pub struct Rounds {
        /// Workers that reached the current round's barrier.
        // ORDERING: AcqRel increments (see `sync`).
        arrived: AtomicUsize,
        /// Completed rounds.
        // ORDERING: Release store by the last arriver, Acquire loads.
        generation: AtomicU64,
        // ORDERING: SeqCst store in `poison`, re-checked under the lock.
        poisoned: AtomicBool,
        /// Waiters parked (or about to park) on `cvar`.
        // ORDERING: SeqCst handshake with the generation store.
        sleepers: AtomicUsize,
        lock: Mutex<()>,
        cvar: Condvar,
        workers: usize,
        spin: u32,
    }

    impl Rounds {
        fn new(workers: usize, spin: u32) -> Self {
            Self {
                // ORDERING: construction; see `sync` for the protocol.
                arrived: AtomicUsize::new(0),
                generation: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
                // ORDERING: construction; see `sync` for the protocol.
                sleepers: AtomicUsize::new(0),
                lock: Mutex::new(()),
                cvar: Condvar::new(),
                workers,
                spin,
            }
        }

        /// The parking mutex guards no data (the protocol state is
        /// atomic), so its poisoning carries nothing to recover from.
        fn park_lock(&self) -> MutexGuard<'_, ()> {
            self.lock.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Blocks until every worker has called `sync`. All memory
        /// writes sequenced before any worker's `sync` happen-before
        /// everything sequenced after the matching `sync` in every
        /// other worker — this is the only inter-phase ordering the
        /// round engines rely on. The edge: each arrival's `AcqRel`
        /// increment joins the arrival counter's release sequence, the
        /// last arriver's increment acquires all of them, and its
        /// `Release` store of the next generation is what every
        /// waiter's `Acquire` load (spinning or after parking)
        /// synchronizes with.
        ///
        /// # Panics
        ///
        /// Unwinds (with a private sentinel payload) if the barrier was
        /// poisoned by a panicking worker; [`scoped`] catches the
        /// sentinel and re-raises the original panic on the caller.
        pub fn sync(&self) {
            // ORDERING: Acquire — pairs with `poison`'s SeqCst store.
            if self.poisoned.load(Ordering::Acquire) {
                panic_any(BarrierPoisoned);
            }
            // ORDERING: Acquire — this round's number; it cannot move
            // until this worker arrives below.
            let gen = self.generation.load(Ordering::Acquire);
            // ORDERING: AcqRel — releases this worker's phase writes
            // into the arrival counter's release sequence; the last
            // arriver's increment acquires every earlier one.
            if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.workers {
                // ORDERING: Relaxed — ordered before the generation
                // store below; no worker re-arrives before seeing it.
                self.arrived.store(0, Ordering::Relaxed);
                // ORDERING: SeqCst — the Release edge every waiter
                // acquires, and one half of the sleeper handshake
                // (store generation, then load sleepers).
                self.generation.store(gen + 1, Ordering::SeqCst);
                // ORDERING: SeqCst — the other half of the handshake.
                if self.sleepers.load(Ordering::SeqCst) > 0 {
                    // A parker between its checks and its wait holds
                    // the lock; taking it here means it is waiting.
                    drop(self.park_lock());
                    self.cvar.notify_all();
                }
                return;
            }
            for _ in 0..self.spin {
                // ORDERING: Acquire — pairs with the last arriver's
                // generation store.
                if self.generation.load(Ordering::Acquire) != gen {
                    return;
                }
                // ORDERING: Relaxed — a hint to stop spinning; the
                // parked path re-checks it under the lock.
                if self.poisoned.load(Ordering::Relaxed) {
                    break;
                }
                std::hint::spin_loop();
            }
            self.park(gen);
        }

        /// Parks until round `gen` completes or the barrier is
        /// poisoned.
        fn park(&self, gen: u64) {
            let mut guard = self.park_lock();
            // ORDERING: SeqCst — announce before re-checking the
            // generation: the last arriver either sees a sleeper and
            // notifies, or its store is visible to the check below.
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            // RETRY: condvar wait loop; exits when the round completes
            // (generation bump) or the barrier is poisoned — both are
            // one-way transitions, so the loop terminates.
            // ORDERING: SeqCst — the sleeper handshake (see `sync`).
            while self.generation.load(Ordering::SeqCst) == gen
                // ORDERING: SeqCst — `poison` notifies under the lock.
                && !self.poisoned.load(Ordering::SeqCst)
            {
                guard = self.cvar.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
            // ORDERING: SeqCst — leaving the handshake.
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            // ORDERING: SeqCst — same reads as the loop condition.
            let released = self.generation.load(Ordering::SeqCst) != gen;
            drop(guard);
            if !released {
                // Released by poison, not by a completed round: this
                // round can never complete, so unwind out of the phase.
                panic_any(BarrierPoisoned);
            }
        }

        /// Marks the barrier dead and releases every waiting worker.
        fn poison(&self) {
            // ORDERING: SeqCst — spinners see it on their next poll;
            // parkers re-check it under the lock taken below.
            self.poisoned.store(true, Ordering::SeqCst);
            drop(self.park_lock());
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
        let spin = if workers > 1 {
            let available = std::thread::available_parallelism().map_or(1, |n| n.get());
            spin_limit(workers, available)
        } else {
            0
        };
        scoped_spinning(workers, spin, f);
    }

    /// [`scoped`] with an explicit spin budget per barrier wait.
    fn scoped_spinning<F>(workers: usize, spin: u32, f: F)
    where
        F: Fn(usize, &Rounds) + Sync,
    {
        let workers = workers.max(1);
        let rounds = Rounds::new(workers, spin);
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
        fn spin_only_when_every_worker_has_a_core() {
            assert_eq!(spin_limit(1, 1), SPIN_LIMIT);
            assert_eq!(spin_limit(2, 2), SPIN_LIMIT);
            assert_eq!(spin_limit(4, 64), SPIN_LIMIT);
            assert_eq!(spin_limit(3, 2), 0, "oversubscribed pools park at once");
            assert_eq!(spin_limit(8, 2), 0, "oversubscribed pools park at once");
        }

        #[test]
        fn panic_while_a_waiter_spins_propagates_the_original_payload() {
            // Worker 1 spins with an effectively unbounded budget, so
            // only the poison flag can end its wait; worker 0 panics
            // once worker 1 has provably arrived.
            let caught = std::panic::catch_unwind(|| {
                scoped_spinning(2, u32::MAX, |w, rounds| {
                    if w == 0 {
                        // ORDERING: Acquire — observes worker 1's
                        // AcqRel arrival.
                        while rounds.arrived.load(Ordering::Acquire) == 0 {
                            std::hint::spin_loop();
                        }
                        panic!("leader died mid-round");
                    }
                    rounds.sync();
                });
            });
            let payload = caught.expect_err("panic must propagate");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"leader died mid-round")
            );
        }

        #[test]
        fn imbalanced_rounds_stay_separated() {
            // Each round one worker (rotating) does far more work than
            // the rest, so the others wait in the spin phase, in the
            // parked phase, or cross between them; every round must
            // still see every worker's contribution and none of the
            // next round's.
            const ROUNDS: u64 = 200;
            for spin in [0, 64, SPIN_LIMIT] {
                // ORDERING: Relaxed adds; the barrier publishes.
                let total = AtomicU64::new(0);
                scoped_spinning(4, spin, |w, rounds| {
                    for round in 0..ROUNDS {
                        if round % 4 == w as u64 {
                            let mut x = round;
                            for i in 0..5_000u64 {
                                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                            }
                        }
                        // ORDERING: Relaxed — the barrier below
                        // publishes.
                        total.fetch_add(1, Ordering::Relaxed);
                        rounds.sync();
                        // ORDERING: Relaxed — ordered by the barrier
                        // above; the next round's adds wait for the
                        // barrier below.
                        assert_eq!(total.load(Ordering::Relaxed), 4 * (round + 1));
                        rounds.sync();
                    }
                });
                // ORDERING: Relaxed — read after the scope joins.
                assert_eq!(total.load(Ordering::Relaxed), 4 * ROUNDS, "spin {spin}");
            }
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
