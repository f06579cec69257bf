//! The sharded concurrent single-run engine ([`Engine::Concurrent`])
//! for the parallel round family.
//!
//! The faithful paths in [`super::collision`], [`super::bounded_load`]
//! and [`super::parallel_greedy`] simulate one synchronous round at a
//! time on sequential state. This module executes *one run* on
//! `cfg.threads` worker threads instead: per-bin state lives in shared
//! arrays of atomics (the "shards"), each worker processes disjoint
//! chunks of balls within a round, and placements are accepted through
//! commutative atomic read-modify-writes — `fetch_add` tallies and
//! `fetch_min` lotteries.
//!
//! # Memory model
//!
//! Every atomic in this module is accessed with `Ordering::Relaxed`.
//! That is sound because the engine is a strict sequence of
//! *supersteps*: workers advance in lockstep through per-round phases
//! separated by [`crossbeam::pool::Rounds::sync`] barriers, and a
//! barrier crossing establishes happens-before from everything every
//! worker did before it to everything every worker does after it. No
//! atomic here ever orders *other* data — each phase either writes a
//! shard or reads it, never both racily:
//!
//! * the leader (worker 0) publishes round parameters in a serial
//!   section while the other workers wait at the top-of-round barrier,
//!   and reads the round's accumulators after the end-of-round barrier;
//! * within a phase, shard updates are commutative (`fetch_add` /
//!   `fetch_min`), or plain loads and stores by the one worker that
//!   owns the cell for that phase, so the final value is independent
//!   of thread interleaving;
//! * reads that must see a phase's writes happen after the next
//!   barrier.
//!
//! No update is a compare-and-swap: nothing here retries.
//!
//! # Determinism
//!
//! Every random draw comes from a per-`(round, chunk)` child stream of
//! one engine seed, chunks are assigned to workers by a fixed
//! round-robin ([`crate::shard`]), and every shared update is
//! commutative — so the outcome is *bit-identical for every thread
//! count*, including `--threads 1`. Placement conflicts are resolved
//! by scheduling-independent lotteries: each contending entry draws a
//! 32-bit priority and `fetch_min` keeps the smallest
//! `(priority, ball)` key, which is a uniform pick among the entries
//! (ties fall back to the smaller ball id, a ~2⁻³² bias). Each driver
//! reproduces its faithful path's per-round *law* exactly (argued at
//! each driver), it just draws from different streams — the
//! equivalence suite (`tests/concurrent_equivalence.rs`) checks both
//! the thread-count invariance and the distributional match, and
//! `tests/concurrent_golden.rs` pins the streams themselves.
//!
//! Observer contract: `on_ball` never fires (round protocols place
//! balls simultaneously); stage ends fire once per protocol round with
//! the same labels, loads and placed counts as the faithful paths —
//! the leader snapshots them during its serial section and the caller
//! replays them after the workers join.
//!
//! [`Engine::Concurrent`]: bib_core::protocol::Engine::Concurrent

use crate::shard::{chunk_stream, owned_chunks, unwrap_loads};
use bib_core::error::ProtocolError;
use bib_core::protocol::{Observer, Outcome, RunConfig};
use bib_core::scenario::Scenario;
use bib_rng::{Rng64, RngExt, SeedSequence};
use crossbeam::pool;
// ORDERING: every atomic op in this module carries an inline argument;
// the module docs give the barrier-superstep memory model.
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Sentinel for an unclaimed lottery slot — larger than every packed
/// `(priority, ball)` key because ball ids are `< u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// Packs a `(priority, ball)` pair of u32 halves into a lottery key.
fn pack(hi: u32, lo: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

/// Low half (the ball id) of a packed lottery key.
fn lo32(v: u64) -> u32 {
    u32::try_from(v & u64::from(u32::MAX)).expect("a masked u64 low half fits u32")
}

/// Narrows a ball id for a packed lottery key; every driver using ball
/// ids asserts `m ≤ u32::MAX` on entry.
fn ball32(j: u64) -> u32 {
    u32::try_from(j).expect("ball ids fit u32 (m is asserted on entry)")
}

/// Stage snapshots buffered by the leader: `(label, loads, placed)`.
type Stages = Mutex<Vec<(u64, Vec<u32>, u64)>>;

/// Replays the buffered stage ends into the observer after the
/// workers have joined (observers are `&mut` and cannot be shared with
/// the worker closure).
fn replay_stages<O: Observer + ?Sized>(stages: Stages, obs: &mut O) {
    let buffered = stages
        .into_inner()
        .expect("only the leader locks the stage buffer and it does not panic");
    for (label, loads, placed) in buffered {
        obs.on_stage_end(label, &loads, placed);
    }
}

/// Reads a loads shard into a plain vector for a stage snapshot.
///
/// ORDERING: Relaxed — the leader only calls this in its serial
/// section, after the end-of-round barrier ordered every worker's
/// placement writes before it.
fn snapshot_loads(loads: &[AtomicU32]) -> Vec<u32> {
    loads.iter().map(|l| l.load(Ordering::Relaxed)).collect()
}

// ---------------------------------------------------------------------
// Collision
// ---------------------------------------------------------------------

/// The concurrent collision driver. Semantics mirror
/// [`super::collision::Collision`]'s faithful path round for round:
/// contacts, all-or-nothing acceptance at multiplicity ≤ `c`, the
/// stall fallback, and the message/round accounting.
///
/// Determinism argument: phase A accumulates per-bin contact counts
/// with commutative `fetch_add`s, so the counts multiset after the
/// barrier is schedule-independent; phase B's accept decision is a
/// pure function of a bin's count, and the load increments commute.
/// Balls carry no state here (the faithful path also only tracks the
/// unplaced count), so chunks relabel the unplaced balls `0..u` each
/// round.
pub(super) fn collision<R, O>(
    c: u32,
    max_rounds: u32,
    stall_limit: u32,
    name: String,
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
) -> Outcome
where
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    let (n, m) = (cfg.n, cfg.m);
    assert!(n > 0, "need at least one bin");
    let workers = cfg.threads.max(1);
    let seeds = SeedSequence::new(rng.next_u64());
    let want_stages = obs.wants_stage_ends();

    // Bin shards. ORDERING: Relaxed throughout — phase A only writes
    // `counts`, phase B only writes `loads`; the phase barriers order
    // the cross-phase reads (module docs).
    let loads: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();

    // Control block. ORDERING: Relaxed throughout — the leader writes
    // these in its serial section before the top-of-round barrier and
    // reads the accumulators after the end-of-round barrier; workers
    // only read parameters / add to accumulators in between.
    let round = AtomicU32::new(0);
    let unplaced = AtomicU64::new(0);
    let in_fallback = AtomicBool::new(false);
    // ORDERING: Relaxed throughout — same serial-section contract.
    let done = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    let placed_round = AtomicU64::new(0);
    // ORDERING: Relaxed throughout — same serial-section contract.
    let messages = AtomicU64::new(0);
    let rounds_out = AtomicU32::new(0);
    let stages: Stages = Mutex::new(Vec::new());

    pool::scoped(workers, |w, bar| {
        // Bins this worker first-touched in phase A — exclusively
        // owned, so phase B sweeps them without coordination.
        let mut touched: Vec<usize> = Vec::new();
        // Leader-only round bookkeeping (inert in workers 1..).
        let mut l_round = 0u32;
        let mut l_unplaced = m;
        let mut l_stalled = 0u32;
        let mut l_fallback = false;
        let mut l_started = false;
        loop {
            if w == 0 {
                // Serial section: settle the finished round, schedule
                // the next one. The other workers wait at the barrier
                // below.
                if l_started {
                    // ORDERING: Relaxed — the end-of-round barrier
                    // ordered every worker's adds before this read.
                    let pr = placed_round.swap(0, Ordering::Relaxed);
                    if l_fallback {
                        // The fallback one-choice throw placed every
                        // remaining ball; the faithful path fires one
                        // stage end for the whole stall+fallback
                        // iteration, labelled after the extra round.
                        l_unplaced = 0;
                        l_fallback = false;
                        if want_stages {
                            let snap = snapshot_loads(&loads);
                            stages.lock().expect("leader-only lock").push((
                                u64::from(l_round),
                                snap,
                                m,
                            ));
                        }
                    } else {
                        l_unplaced -= pr;
                        if pr == 0 {
                            l_stalled += 1;
                        } else {
                            l_stalled = 0;
                        }
                        if pr == 0 && l_stalled >= stall_limit && l_unplaced > 0 {
                            // Livelock: schedule the one-choice
                            // fallback as an extension of this round
                            // (request + forced accept per ball).
                            l_round += 1;
                            l_fallback = true;
                            // ORDERING: Relaxed — leader-only add in
                            // the serial section.
                            messages.fetch_add(2 * l_unplaced, Ordering::Relaxed);
                        } else if want_stages {
                            let snap = snapshot_loads(&loads);
                            stages.lock().expect("leader-only lock").push((
                                u64::from(l_round),
                                snap,
                                m - l_unplaced,
                            ));
                        }
                    }
                }
                l_started = true;
                if !l_fallback {
                    if l_unplaced == 0 {
                        // ORDERING: Relaxed — published before the
                        // barrier every worker crosses below.
                        rounds_out.store(l_round, Ordering::Relaxed);
                        done.store(true, Ordering::Relaxed);
                    } else {
                        l_round += 1;
                        if l_round > max_rounds {
                            // Panicking here would strand the other
                            // workers at the barrier; flag and stop
                            // instead, the caller panics after join.
                            // ORDERING: Relaxed — pre-barrier publish.
                            failed.store(true, Ordering::Relaxed);
                            done.store(true, Ordering::Relaxed);
                        } else {
                            // ORDERING: Relaxed — leader-only add: one
                            // contact message per unplaced ball.
                            messages.fetch_add(l_unplaced, Ordering::Relaxed);
                        }
                    }
                }
                // ORDERING: Relaxed — round parameters, published
                // before the top-of-round barrier.
                round.store(l_round, Ordering::Relaxed);
                unplaced.store(l_unplaced, Ordering::Relaxed);
                in_fallback.store(l_fallback, Ordering::Relaxed);
            }
            bar.sync();
            // ORDERING: Relaxed — all workers read the parameters the
            // leader stored before the barrier above.
            if done.load(Ordering::Relaxed) {
                break;
            }
            // ORDERING: Relaxed — same pre-barrier publications.
            let r = round.load(Ordering::Relaxed);
            let u = unplaced.load(Ordering::Relaxed);
            let fb = in_fallback.load(Ordering::Relaxed);
            if fb {
                // Fallback: every remaining ball lands one-choice.
                for (chunk, lo, hi) in owned_chunks(w, workers, u) {
                    let mut crng = chunk_stream(seeds, u64::from(r), chunk);
                    for _ in lo..hi {
                        let b = crng.range_usize(n);
                        // ORDERING: Relaxed — unconditional commutative
                        // placement tally.
                        loads[b].fetch_add(1, Ordering::Relaxed);
                    }
                }
            } else {
                // Phase A: contacts. The first toucher of a bin (its
                // fetch_add returned 0) takes exclusive ownership of
                // resolving it in phase B.
                for (chunk, lo, hi) in owned_chunks(w, workers, u) {
                    let mut crng = chunk_stream(seeds, u64::from(r), chunk);
                    for _ in lo..hi {
                        let b = crng.range_usize(n);
                        // ORDERING: Relaxed — a commutative tally; the
                        // returned old value atomically elects exactly
                        // one first toucher per bin.
                        if counts[b].fetch_add(1, Ordering::Relaxed) == 0 {
                            touched.push(b);
                        }
                    }
                }
                bar.sync();
                // Phase B: each worker resolves the bins it owns. The
                // barrier above made every contact count visible.
                let mut placed = 0u64;
                for bin in touched.drain(..) {
                    // ORDERING: Relaxed — exclusive owner; the phase-A
                    // barrier settled the count, so unlocked loads and
                    // stores replace the (much costlier) locked RMWs.
                    let cnt = counts[bin].load(Ordering::Relaxed);
                    counts[bin].store(0, Ordering::Relaxed);
                    if cnt <= c {
                        // ORDERING: Relaxed — the owner is the only
                        // phase-B writer of this bin's load.
                        let l = loads[bin].load(Ordering::Relaxed);
                        loads[bin].store(l + cnt, Ordering::Relaxed);
                        placed += u64::from(cnt);
                    }
                }
                // ORDERING: Relaxed — accumulators the leader reads
                // after the end-of-round barrier. Accept messages are
                // one per placed ball.
                placed_round.fetch_add(placed, Ordering::Relaxed);
                messages.fetch_add(placed, Ordering::Relaxed);
            }
            bar.sync();
        }
    });

    assert!(
        !failed.into_inner(),
        "collision protocol failed to converge in {max_rounds} rounds"
    );
    if want_stages {
        replay_stages(stages, obs);
    }
    let messages = messages.into_inner();
    let rounds = rounds_out.into_inner();
    Outcome {
        protocol: name,
        n,
        m,
        total_samples: messages,
        max_samples_per_ball: if m > 0 { u64::from(rounds) } else { 0 },
        loads: unwrap_loads(loads).into(),
        scenario: Scenario::rounds(rounds, messages),
    }
}

// ---------------------------------------------------------------------
// Bounded load
// ---------------------------------------------------------------------

/// The faithful contact schedule `k_r = min(2^{r-1}, n)`.
fn contacts_for(round: u32, n: usize) -> u64 {
    1u64.checked_shl(round - 1)
        .map_or(n as u64, |k| k.min(n as u64))
}

/// The bounded-load three-phase bin lottery.
///
/// Phase A (over balls, relabelled `j ∈ 0..u`): every unplaced ball
/// draws its `k_r` contact entries `(bin, priority)` and submits the
/// packed key `(priority, j)` to the bin's lottery slot with
/// `fetch_min`. Entries across bins are disjoint and priorities are
/// iid, so after the barrier each touched bin's surviving key is a
/// uniform pick among its request entries — exactly the faithful
/// `rng.choose(requests)` law, independently per bin (ties: lower ball
/// id, a ~2⁻³² bias; a duplicate contact puts two entries of the same
/// ball in one bin, double-weighting it exactly like the faithful
/// list).
///
/// Phase B (over bins): each touched bin (`slot != EMPTY`) clears its
/// slot; if it is open (`load < cap`, frozen — loads are written only
/// in phase C) it counts one accept message and notifies its winning
/// ball through `accepted[ball].fetch_min(bin)` — the min over a
/// ball's accepting bins is the faithful "commit to the first
/// acceptance in ascending bin index" rule, and the accepts a ball
/// does *not* commit to are the faithful wasted accepts.
///
/// Phase C (over balls): a notified ball commits to `accepted[j]`,
/// clears the cell, and counts toward the round's placements.
///
/// Phase A draws from per-`(round, chunk)` streams on a fixed chunk
/// round-robin; every cross-thread update above is a commutative
/// `fetch_min`/`fetch_add`, so the outcome is thread-count invariant.
pub(super) fn bounded_load<R, O>(
    cap: u32,
    max_rounds: u32,
    name: String,
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
) -> Result<Outcome, ProtocolError>
where
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    let (n, m) = (cfg.n, cfg.m);
    assert!(n > 0, "need at least one bin");
    if m > u64::from(cap) * n as u64 {
        return Err(ProtocolError::InfeasibleCapacity {
            m,
            capacity: u64::from(cap) * n as u64,
        });
    }
    assert!(m <= u64::from(u32::MAX), "ball ids are u32");
    assert!(n <= u32::MAX as usize, "bin ids are u32 in lottery cells");
    let workers = cfg.threads.max(1);
    let seeds = SeedSequence::new(rng.next_u64());
    let want_stages = obs.wants_stage_ends();

    // Bin shards. ORDERING: Relaxed throughout — each phase either
    // only writes a shard or reads values settled by the previous
    // phase's barrier (module docs): `slot` takes commutative mins in
    // phase A and is cleared by its bin's exclusive phase-B sweeper;
    // `loads` is frozen in phases A/B and written in phase C.
    let loads: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let slot: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(EMPTY)).collect();
    // Ball shard: the lowest-indexed bin that accepted this ball this
    // round. ORDERING: Relaxed — phase-B commutative `fetch_min`,
    // phase-C exclusive read-and-clear.
    let accepted: Vec<AtomicU64> = (0..m as usize).map(|_| AtomicU64::new(EMPTY)).collect();

    // Control block. ORDERING: Relaxed throughout — leader-published
    // parameters and barrier-settled accumulators (module docs).
    let round = AtomicU32::new(0);
    let unplaced = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // ORDERING: Relaxed throughout — same control-block contract.
    let failed = AtomicBool::new(false);
    let placed_round = AtomicU64::new(0);
    let messages = AtomicU64::new(0);
    // ORDERING: Relaxed throughout — same control-block contract.
    let rounds_out = AtomicU32::new(0);
    let max_contacts_out = AtomicU64::new(0);
    let stages: Stages = Mutex::new(Vec::new());

    pool::scoped(workers, |w, bar| {
        // Leader-only bookkeeping.
        let mut l_round = 0u32;
        let mut l_unplaced = m;
        let mut l_contacts_cum = 0u64;
        let mut l_max_contacts = 0u64;
        let mut l_started = false;
        loop {
            if w == 0 {
                if l_started {
                    // ORDERING: Relaxed — settled by the end-of-round
                    // barrier.
                    let pr = placed_round.swap(0, Ordering::Relaxed);
                    l_unplaced -= pr;
                    if pr > 0 {
                        // Any ball placed this round had sent the full
                        // cumulative contact count — the per-ball max.
                        l_max_contacts = l_contacts_cum;
                    }
                    if want_stages {
                        let snap = snapshot_loads(&loads);
                        stages.lock().expect("leader-only lock").push((
                            u64::from(l_round),
                            snap,
                            m - l_unplaced,
                        ));
                    }
                }
                l_started = true;
                if l_unplaced == 0 {
                    // ORDERING: Relaxed — published before the barrier.
                    rounds_out.store(l_round, Ordering::Relaxed);
                    max_contacts_out.store(l_max_contacts, Ordering::Relaxed);
                    done.store(true, Ordering::Relaxed);
                } else {
                    l_round += 1;
                    if l_round > max_rounds {
                        // ORDERING: Relaxed — failure flag published
                        // before the barrier; the caller panics after
                        // the workers join.
                        failed.store(true, Ordering::Relaxed);
                        done.store(true, Ordering::Relaxed);
                    } else {
                        let k = contacts_for(l_round, n);
                        l_contacts_cum += k;
                        // ORDERING: Relaxed — leader-only adds/stores
                        // in the serial section: k contact messages
                        // per unplaced ball, then round parameters.
                        messages.fetch_add(l_unplaced * k, Ordering::Relaxed);
                        round.store(l_round, Ordering::Relaxed);
                        unplaced.store(l_unplaced, Ordering::Relaxed);
                    }
                }
            }
            bar.sync();
            // ORDERING: Relaxed — parameters published before the
            // barrier above.
            if done.load(Ordering::Relaxed) {
                break;
            }
            // ORDERING: Relaxed — same pre-barrier publications.
            let r = round.load(Ordering::Relaxed);
            let u = unplaced.load(Ordering::Relaxed);
            let k = contacts_for(r, n);
            // Phase A: submit every contact entry to its bin's lottery.
            for (chunk, lo, hi) in owned_chunks(w, workers, u) {
                let mut crng = chunk_stream(seeds, u64::from(r), chunk);
                for j in lo..hi {
                    let key_ball = ball32(j);
                    for _ in 0..k {
                        let b = crng.range_usize(n);
                        let prio = crng.next_u32();
                        // ORDERING: Relaxed — a commutative min; the
                        // surviving key is the entry lottery winner.
                        slot[b].fetch_min(pack(prio, key_ball), Ordering::Relaxed);
                    }
                }
            }
            bar.sync();
            // Phase B: sweep the bins, clear the lotteries, notify the
            // winners of open bins.
            let mut accepts = 0u64;
            for (_, lo, hi) in owned_chunks(w, workers, n as u64) {
                for b in lo as usize..hi as usize {
                    // ORDERING: Relaxed — this worker is bin b's
                    // exclusive phase-B sweeper; the phase-A barrier
                    // settled the lottery, so an unlocked load +
                    // sentinel store replaces a (much costlier) swap.
                    let key = slot[b].load(Ordering::Relaxed);
                    if key == EMPTY {
                        continue;
                    }
                    // ORDERING: Relaxed — exclusive sweeper, see above.
                    slot[b].store(EMPTY, Ordering::Relaxed);
                    // ORDERING: Relaxed — loads are frozen until
                    // phase C, so this is the round-start value.
                    if loads[b].load(Ordering::Relaxed) < cap {
                        accepts += 1;
                        let winner = lo32(key) as usize;
                        // ORDERING: Relaxed — commutative min across
                        // the ball's accepting bins: the smallest bin
                        // index wins the commit.
                        accepted[winner].fetch_min(b as u64, Ordering::Relaxed);
                    }
                }
            }
            // ORDERING: Relaxed — accept-message tally, read by the
            // caller after the scope joins.
            messages.fetch_add(accepts, Ordering::Relaxed);
            bar.sync();
            // Phase C: notified balls commit to their lowest-indexed
            // accepting bin.
            let mut placed = 0u64;
            for (_, lo, hi) in owned_chunks(w, workers, u) {
                for cell in &accepted[lo as usize..hi as usize] {
                    // ORDERING: Relaxed — the ball's exclusive phase-C
                    // cell (settled by the phase-B barrier); unlocked
                    // load + store instead of a swap.
                    let bin = cell.load(Ordering::Relaxed);
                    if bin == EMPTY {
                        continue;
                    }
                    // ORDERING: Relaxed — exclusive cell, see above.
                    cell.store(EMPTY, Ordering::Relaxed);
                    // ORDERING: Relaxed — commutative placement tally.
                    loads[bin as usize].fetch_add(1, Ordering::Relaxed);
                    placed += 1;
                }
            }
            // ORDERING: Relaxed — settled by the end-of-round barrier
            // below before the leader reads it.
            placed_round.fetch_add(placed, Ordering::Relaxed);
            bar.sync();
        }
    });

    if failed.into_inner() {
        return Err(ProtocolError::Unconverged {
            protocol: name,
            rounds: u64::from(max_rounds),
        });
    }
    if want_stages {
        replay_stages(stages, obs);
    }
    let messages = messages.into_inner();
    let rounds = rounds_out.into_inner();
    Ok(Outcome {
        protocol: name,
        n,
        m,
        total_samples: messages,
        max_samples_per_ball: max_contacts_out.into_inner(),
        loads: unwrap_loads(loads).into(),
        scenario: Scenario::rounds(rounds, messages),
    })
}

// ---------------------------------------------------------------------
// Parallel greedy
// ---------------------------------------------------------------------

/// The concurrent parallel-greedy driver. Semantics mirror [`super::parallel_greedy::ParallelGreedy`]'s
/// faithful path: committed candidates drawn up front, negotiation
/// rounds where every unplaced ball asks its least-loaded candidate
/// (round-start loads, first minimum in candidate order) and each bin
/// admits a uniform ≤ `q` subset of its requesters, then a forced
/// final round against a load snapshot.
pub(super) fn parallel_greedy<R, O>(
    d: u32,
    total_rounds: u32,
    q: u32,
    name: String,
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
) -> Outcome
where
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    let (n, m) = (cfg.n, cfg.m);
    assert!(n > 0, "need at least one bin");
    assert!(m <= u64::from(u32::MAX), "ball ids are u32");
    assert!(
        n <= u32::MAX as usize,
        "bin ids are u32 in the candidate table"
    );
    let workers = cfg.threads.max(1);
    let seeds = SeedSequence::new(rng.next_u64());
    let want_stages = obs.wants_stage_ends();
    let d_us = d as usize;

    // Per-ball shards: committed candidates (ball-major), the round's
    // request target, and the placement flag.
    // ORDERING: Relaxed throughout — candidates are written only in
    // the prelude, targets only in a round's first (target) phase, and
    // the placement flag flips once; every cross-phase read is ordered
    // by a barrier (module docs).
    let candidates: Vec<AtomicU32> = (0..m as usize * d_us).map(|_| AtomicU32::new(0)).collect();
    let targets: Vec<AtomicU32> = (0..m as usize).map(|_| AtomicU32::new(0)).collect();
    let placed: Vec<AtomicBool> = (0..m as usize).map(|_| AtomicBool::new(false)).collect();

    // Bin shards: loads, plus the wave lottery slots.
    // ORDERING: Relaxed throughout (module docs).
    let loads: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let slot: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(EMPTY)).collect();
    // Wave admission tallies (ORDERING: Relaxed — barrier-settled),
    // one per wave so no resets or extra barriers are needed; all
    // workers read a wave's tally after the admit barrier to agree on
    // early exit.
    let wave_placed: Vec<AtomicU64> = (0..q as usize).map(|_| AtomicU64::new(0)).collect();

    // Control block. ORDERING: Relaxed throughout (module docs).
    let round = AtomicU32::new(0);
    let forced = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    // ORDERING: Relaxed throughout — same control-block contract.
    let placed_round = AtomicU64::new(0);
    let messages = AtomicU64::new(0);
    let rounds_out = AtomicU32::new(0);
    let stages: Stages = Mutex::new(Vec::new());

    // The faithful tie-break: first minimum in candidate order.
    // ORDERING: Relaxed — candidates are frozen after the prelude and
    // loads are frozen during every target phase (loads are written
    // only in admit/commit phases, on the other side of a barrier),
    // so every load below reads round-start values.
    let best_candidate = |j: usize, first_round: bool| -> usize {
        let cs = &candidates[j * d_us..(j + 1) * d_us];
        let mut best = cs[0].load(Ordering::Relaxed) as usize;
        // Round 1 sees every load at zero, so the first-minimum
        // tie-break always resolves to the first candidate — skip the
        // `d` random load reads that otherwise dominate the sweep.
        if first_round {
            return best;
        }
        // ORDERING: Relaxed — the same frozen shards.
        let mut best_load = loads[best].load(Ordering::Relaxed);
        for cand in &cs[1..] {
            // ORDERING: Relaxed — the same frozen shards.
            let b = cand.load(Ordering::Relaxed) as usize;
            let l = loads[b].load(Ordering::Relaxed);
            if l < best_load {
                best = b;
                best_load = l;
            }
        }
        best
    };

    pool::scoped(workers, |w, bar| {
        // Prelude: draw the committed candidates from the round-0
        // streams (protocol rounds start at 1). The top-of-round
        // barrier below orders these writes before the first target
        // phase reads them.
        for (chunk, lo, hi) in owned_chunks(w, workers, m) {
            let mut crng = chunk_stream(seeds, 0, chunk);
            for j in lo..hi {
                for t in 0..d_us {
                    let b = crng.range_usize(n);
                    // ORDERING: Relaxed — prelude-only write, read
                    // after the barrier below.
                    candidates[j as usize * d_us + t].store(
                        u32::try_from(b).expect("bin ids fit u32 (n is asserted on entry)"),
                        Ordering::Relaxed,
                    );
                }
            }
        }

        // Leader-only bookkeeping. `l_neg_left` counts the remaining
        // negotiation rounds (the faithful `for _ in 1..rounds` loop);
        // the final round is forced.
        let mut l_round = 0u32;
        let mut l_unplaced = m;
        let mut l_neg_left = total_rounds - 1;
        let mut l_forced = false;
        let mut l_started = false;
        loop {
            if w == 0 {
                if l_started {
                    if l_forced {
                        // The forced round placed everything.
                        l_unplaced = 0;
                    } else {
                        // ORDERING: Relaxed — settled by the
                        // end-of-round barrier.
                        let pr = placed_round.swap(0, Ordering::Relaxed);
                        l_unplaced -= pr;
                    }
                    if want_stages {
                        let snap = snapshot_loads(&loads);
                        stages.lock().expect("leader-only lock").push((
                            u64::from(l_round),
                            snap,
                            m - l_unplaced,
                        ));
                    }
                }
                l_started = true;
                if l_unplaced == 0 {
                    // ORDERING: Relaxed — published before the barrier.
                    rounds_out.store(l_round, Ordering::Relaxed);
                    done.store(true, Ordering::Relaxed);
                } else {
                    l_round += 1;
                    if l_neg_left > 0 {
                        l_neg_left -= 1;
                        l_forced = false;
                        // One request message per unplaced ball;
                        // accepts are counted by the admitting workers.
                        // ORDERING: Relaxed — leader-only serial adds.
                        messages.fetch_add(l_unplaced, Ordering::Relaxed);
                    } else {
                        l_forced = true;
                        // ORDERING: Relaxed — leader-only serial add:
                        // request + forced accept per remaining ball.
                        messages.fetch_add(2 * l_unplaced, Ordering::Relaxed);
                    }
                    // ORDERING: Relaxed — round parameters and wave
                    // tallies, published before the barrier.
                    round.store(l_round, Ordering::Relaxed);
                    forced.store(l_forced, Ordering::Relaxed);
                    for wp in &wave_placed {
                        // ORDERING: Relaxed — same publication.
                        wp.store(0, Ordering::Relaxed);
                    }
                }
            }
            bar.sync();
            // ORDERING: Relaxed — parameters published before the
            // barrier above.
            if done.load(Ordering::Relaxed) {
                break;
            }
            // ORDERING: Relaxed — same pre-barrier publications.
            let r = round.load(Ordering::Relaxed);
            let fb = forced.load(Ordering::Relaxed);
            if fb {
                // Forced round, phase 1: pick targets against the
                // frozen loads — the faithful snapshot semantics fall
                // out of the phase split (nobody writes loads here).
                for (_, lo, hi) in owned_chunks(w, workers, m) {
                    for j in lo..hi {
                        let j_us = j as usize;
                        // ORDERING: Relaxed — flags flipped in earlier
                        // rounds, ordered by their barriers.
                        if placed[j_us].load(Ordering::Relaxed) {
                            continue;
                        }
                        let b = best_candidate(j_us, r == 1);
                        // ORDERING: Relaxed — read back below, after
                        // the phase barrier.
                        targets[j_us].store(
                            u32::try_from(b).expect("bin ids fit u32 (n is asserted on entry)"),
                            Ordering::Relaxed,
                        );
                    }
                }
                bar.sync();
                // Forced round, phase 2: commutative unconditional
                // placements.
                for (_, lo, hi) in owned_chunks(w, workers, m) {
                    for j in lo..hi {
                        let j_us = j as usize;
                        // ORDERING: Relaxed — see the target phase; the
                        // load add is a commutative tally.
                        if placed[j_us].load(Ordering::Relaxed) {
                            continue;
                        }
                        // ORDERING: Relaxed — same contract.
                        let b = targets[j_us].load(Ordering::Relaxed) as usize;
                        loads[b].fetch_add(1, Ordering::Relaxed);
                    }
                }
            } else {
                // Negotiation round: one fixed 32-bit priority per
                // ball per round (replayed from the chunk stream),
                // admitted through `q` lottery waves. Wave w admits
                // each contested bin's lowest-priority pending
                // requester; over waves that is a uniform
                // without-replacement subset — the faithful
                // shuffle-take(q) law. Every ball draws its priority
                // in every sweep/admit pass (placed or not) to keep
                // the replay streams aligned.
                for (wave, wave_tally) in wave_placed.iter().enumerate().take(q as usize) {
                    // Sweep: pending requesters submit to their target.
                    for (chunk, lo, hi) in owned_chunks(w, workers, m) {
                        let mut stream = chunk_stream(seeds, u64::from(r), chunk);
                        for j in lo..hi {
                            let prio = stream.next_u32();
                            let j_us = j as usize;
                            // ORDERING: Relaxed — placement flags from
                            // earlier waves/rounds are barrier-ordered.
                            if placed[j_us].load(Ordering::Relaxed) {
                                continue;
                            }
                            if wave == 0 {
                                let b = u32::try_from(best_candidate(j_us, r == 1))
                                    .expect("bin ids fit u32 (n is asserted on entry)");
                                // ORDERING: Relaxed — the round's
                                // target, fixed in wave 0 and read in
                                // later phases past their barriers.
                                targets[j_us].store(b, Ordering::Relaxed);
                            }
                            // ORDERING: Relaxed — the wave-0 target.
                            let t = targets[j_us].load(Ordering::Relaxed) as usize;
                            // Slot keys only decrease within a wave, so
                            // a pre-read that already beats this key
                            // lets us skip the locked RMW: once the
                            // cell is ≤ key it stays ≤ key.
                            let key = pack(prio, ball32(j));
                            // ORDERING: Relaxed — monotone pre-check,
                            // see above; the fetch_min is the
                            // commutative lottery min.
                            if slot[t].load(Ordering::Relaxed) > key {
                                slot[t].fetch_min(key, Ordering::Relaxed);
                            }
                        }
                    }
                    bar.sync();
                    // Admit: sweep the bins; a contested bin's
                    // surviving key names the wave winner, the sweeper
                    // places it and clears the slot for the next wave.
                    // A ball submits to exactly one target per round,
                    // so it wins at most one bin — the sweeper is
                    // exclusive on the winner's flag too, and the
                    // whole pass runs on unlocked sequential loads and
                    // stores (no priority replay, no locked RMWs).
                    let mut placed_acc = 0u64;
                    for (_, lo, hi) in owned_chunks(w, workers, n as u64) {
                        for t in lo as usize..hi as usize {
                            // ORDERING: Relaxed — this worker is bin
                            // t's exclusive admit sweeper; the sweep
                            // barrier settled the lottery.
                            let key = slot[t].load(Ordering::Relaxed);
                            if key == EMPTY {
                                continue;
                            }
                            // ORDERING: Relaxed — exclusive sweeper,
                            // see above; the flag's only writer this
                            // phase is the winner's unique bin.
                            slot[t].store(EMPTY, Ordering::Relaxed);
                            let l = loads[t].load(Ordering::Relaxed);
                            loads[t].store(l + 1, Ordering::Relaxed);
                            // ORDERING: Relaxed — same exclusivity.
                            placed[lo32(key) as usize].store(true, Ordering::Relaxed);
                            placed_acc += 1;
                        }
                    }
                    // ORDERING: Relaxed — tallies read by every worker
                    // after the admit barrier below.
                    wave_tally.fetch_add(placed_acc, Ordering::Relaxed);
                    placed_round.fetch_add(placed_acc, Ordering::Relaxed);
                    messages.fetch_add(placed_acc, Ordering::Relaxed);
                    bar.sync();
                    // ORDERING: Relaxed — every worker reads the same
                    // settled tally, so all agree on the early exit
                    // (an empty wave means no pending requesters
                    // remain anywhere).
                    if wave_tally.load(Ordering::Relaxed) == 0 {
                        break;
                    }
                }
            }
            bar.sync();
        }
    });

    if want_stages {
        replay_stages(stages, obs);
    }
    let messages = messages.into_inner();
    let rounds = rounds_out.into_inner();
    Outcome {
        protocol: name,
        n,
        m,
        total_samples: messages,
        max_samples_per_ball: if m > 0 { u64::from(rounds) } else { 0 },
        loads: unwrap_loads(loads).into(),
        scenario: Scenario::rounds(rounds, messages),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{BoundedLoad, Collision, ParallelGreedy};
    use bib_core::protocol::{Engine, NullObserver, Protocol, RunConfig, StageTrace};
    use bib_rng::SeedSequence;

    fn cfg(n: usize, m: u64, threads: usize) -> RunConfig {
        RunConfig::new(n, m)
            .with_engine(Engine::Concurrent)
            .with_threads(threads)
    }

    #[test]
    fn collision_smoke_all_modes() {
        for threads in [1, 3] {
            let mut rng = SeedSequence::new(11).rng();
            let out =
                Collision::new(1).allocate(&cfg(512, 512, threads), &mut rng, &mut NullObserver);
            out.validate();
            assert!(out.rounds() >= 1);
            assert_eq!(
                out.loads
                    .as_slice()
                    .iter()
                    .map(|&l| u64::from(l))
                    .sum::<u64>(),
                512
            );
        }
    }

    #[test]
    fn bounded_load_smoke_and_capacity() {
        for threads in [1, 4] {
            let mut rng = SeedSequence::new(12).rng();
            let out =
                BoundedLoad::new(2).allocate(&cfg(128, 256, threads), &mut rng, &mut NullObserver);
            out.validate();
            // m = cap·n: every slot must fill.
            assert_eq!(out.loads, vec![2u32; 128]);
            assert!(out.max_samples_per_ball >= 1);
        }
    }

    #[test]
    fn greedy_smoke_places_everything() {
        for threads in [1, 4] {
            let mut rng = SeedSequence::new(13).rng();
            let out = ParallelGreedy::new(2, 3, 1).allocate(
                &cfg(256, 256, threads),
                &mut rng,
                &mut NullObserver,
            );
            out.validate();
            assert!(out.rounds() <= 3);
            assert_eq!(
                out.loads
                    .as_slice()
                    .iter()
                    .map(|&l| u64::from(l))
                    .sum::<u64>(),
                256
            );
        }
    }

    #[test]
    fn zero_balls_all_drivers() {
        let c = cfg(8, 0, 4);
        let mut rng = SeedSequence::new(14).rng();
        for out in [
            Collision::new(1).allocate(&c, &mut rng, &mut NullObserver),
            BoundedLoad::new(2).allocate(&c, &mut rng, &mut NullObserver),
            ParallelGreedy::new(2, 3, 1).allocate(&c, &mut rng, &mut NullObserver),
        ] {
            out.validate();
            assert_eq!(out.rounds(), 0);
            assert_eq!(out.messages(), 0);
        }
    }

    #[test]
    fn stage_trace_fires_once_per_round() {
        let c = cfg(128, 128, 3);
        let mut rng = SeedSequence::new(15).rng();
        let mut trace = StageTrace::new();
        let out = BoundedLoad::new(2).allocate(&c, &mut rng, &mut trace);
        out.validate();
        assert_eq!(trace.stages.len(), out.rounds() as usize);
        assert_eq!(trace.stages, (1..=out.rounds() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn collision_stall_fallback_fires_concurrently() {
        // n = 1, m = 2, c = 1: both balls collide forever until the
        // stall fallback places them one-choice.
        let mut rng = SeedSequence::new(16).rng();
        let out = Collision::new(1).allocate(&cfg(1, 2, 2), &mut rng, &mut NullObserver);
        out.validate();
        assert_eq!(out.loads, vec![2]);
        assert_eq!(
            u64::from(out.rounds()),
            u64::from(Collision::STALL_LIMIT) + 1
        );
    }
}
