//! The concurrent (dense, sharded) streaming driver.
//!
//! The serial driver in `bib_core::stream` collapses the fleet to
//! occupancy histograms; this one keeps **dense per-bin state** — a
//! load and a [`BinState`] per bin — and shards every phase of a tick
//! over a worker pool, the same superstep shape as the concurrent batch
//! engine in [`super::protocols`]:
//!
//! ```text
//! tick:  [leader: faults, params, arrivals count, due retries]
//!        barrier
//!        [all: place due retries + fresh arrivals]   (chunked items)
//!        barrier
//!        [all: per-bin binomial departures,          (chunked bins)
//!              write next tick's snapshot,
//!              fold accepting min/max (gap)]
//!        barrier
//!        [leader: merge retry fails, record series]  (then next tick)
//! ```
//!
//! Three barriers per tick. There is no snapshot phase: faults never
//! move loads, so the loads a tick's departures leave are exactly the
//! next tick's placement snapshot, and the departure phase writes them
//! there. The gap needs no leader scan either: each worker folds the
//! accepting bins it owns into one `fetch_min` and one `fetch_max`.
//! Departures draw through [`SplitBinomialTable`], the per-run memo of
//! `split_binomial`'s exact CDF walk, bit-identical to calling it. A
//! probe reads one packed word per bin (state code and tick-start
//! load), so it costs one cache miss, not two.
//!
//! # Determinism across thread counts
//!
//! Every random decision is a pure function of `(seed, tick, chunk)`:
//! items and bins are split by static chunk ownership
//! (`chunk % workers == w`, see `shard.rs`), each chunk draws
//! from its own seed-derived stream, placements read the tick-start
//! *snapshot* and commit with commutative `fetch_add`s, and the retry
//! queue is rebuilt by the leader in global item order. The result —
//! every load, every counter, the whole [`TickStats`] series — is
//! bit-identical for 1, 2 or 4 workers (regression-tested, and pinned
//! by `tests/concurrent_golden.rs`).
//!
//! The adaptive/threshold acceptance bound is frozen at tick start
//! (superstep semantics): `in_system` and the alive count are leader
//! snapshots, matching how the batch concurrent engine freezes
//! round-start loads. Faults apply through
//! [`FaultPlan::apply_dense`] on the leader's master state vector, and
//! every contact consults the shared per-bin state: a dead or draining
//! bin costs the probe and forces a re-draw, a slow bin costs an extra
//! sample.

use crate::shard::{chunk_stream, owned_chunks, unwrap_loads};
use bib_core::faults::BinState;
use bib_core::histogram::SplitBinomialTable;
use bib_core::loads::Loads;
use bib_core::protocol::{Outcome, RunConfig};
use bib_core::scenario::{strict_int_bound, Family, Scenario};
use bib_core::stream::{
    arrival_count, stream_name, LatencyTail, StreamReport, StreamSpec, TickStats,
};
use bib_rng::{Rng64, RngExt, SeedSequence};
use crossbeam::pool;
// ORDERING: import only; every use site documents its own ordering.
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// A ball awaiting placement: attempts so far and samples already
/// spent (carried across retries for the latency tail).
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    attempts: u32,
    samples: u64,
}

/// Acceptance law for one tick, frozen by the leader: 0 = uniform
/// (one-choice / fallback), 1 = below-bound (adaptive / threshold),
/// 2 = least-of-d (greedy).
#[derive(Clone, Copy)]
enum Style {
    Uniform,
    Below(u32),
    LeastOf(u32),
}

/// One bin's probe view: state code in the high half, load in the low.
fn pack(state: BinState, load: u32) -> u64 {
    u64::from(state.code()) << 32 | u64::from(load)
}

/// Inverse of [`pack`].
#[inline]
fn unpack(view: u64) -> (BinState, u32) {
    let code = u32::try_from(view >> 32).expect("a shifted u64 fits u32");
    let load = u32::try_from(view & u64::from(u32::MAX)).expect("masked to 32 bits");
    (BinState::from_code(code), load)
}

/// Runs a stream on the dense sharded engine with `cfg.threads`
/// workers, returning the same [`StreamReport`] surface as the serial
/// [`bib_core::stream::serve`]. Deterministic in `(seed, spec, cfg)`
/// and independent of the worker count.
pub fn serve_concurrent(
    spec: &StreamSpec,
    family: Family,
    cfg: &RunConfig,
    seed: u64,
) -> StreamReport {
    let n = cfg.n;
    if let Err(e) = spec.validate(n) {
        panic!("serve_concurrent: {e}");
    }
    let retry = spec.retry;
    let workers = cfg.threads.max(1);
    let budget = u64::from(retry.probe_budget);
    let ring_len = retry.backoff_cap.max(1) as u64 + 1;
    let name = stream_name(family);
    let engine_seed = SeedSequence::new(seed).child_str(&name).rng().next_u64();
    let place_seeds = SeedSequence::new(engine_seed).child_str("place");
    let depart_seeds = SeedSequence::new(engine_seed).child_str("depart");
    let churn = spec.depart_prob > 0.0;
    let departures = SplitBinomialTable::new(spec.depart_prob);

    // Dense bin shards. ORDERING: Relaxed throughout this driver — each
    // phase either only writes its own chunk (departures and the next
    // snapshot), takes commutative `fetch_add`s (placements), or
    // reads values settled by the previous phase's barrier; the barrier
    // is the only inter-phase publication (module docs).
    let loads: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    // What a probe reads, packed so it costs one cache miss: the bin's
    // state code (high half) and its tick-start load (low half).
    // ORDERING: Relaxed — same barrier-publication contract as above.
    let probe_view: Vec<AtomicU64> = (0..n)
        .map(|_| AtomicU64::new(pack(BinState::Alive, 0)))
        .collect();

    // Per-tick parameters, leader-published before the top-of-tick
    // barrier. ORDERING: Relaxed — barrier-separated control block.
    let due_len = AtomicU64::new(0);
    let fresh_count = AtomicU64::new(0);
    let style_kind = AtomicU32::new(0);
    // ORDERING: Relaxed — leader-published, barrier-separated (above).
    let style_param = AtomicU32::new(0);
    let fallback_flag = AtomicU32::new(0);

    // Run accumulators. ORDERING: Relaxed — commutative adds/maxes,
    // read by the leader only after a barrier (or after the pool).
    let placed_total = AtomicU64::new(0);
    let departed_total = AtomicU64::new(0);
    let shed_total = AtomicU64::new(0);
    // ORDERING: Relaxed — same commutative-accumulator contract.
    let fallback_total = AtomicU64::new(0);
    let arrivals_total = AtomicU64::new(0);
    let samples_total = AtomicU64::new(0);
    // ORDERING: Relaxed — same commutative-accumulator contract.
    let max_samples = AtomicU64::new(0);
    let alive_final = AtomicU64::new(n as u64);
    // The accepting bins' min and max load after a tick's departures,
    // folded per worker; the leader resets them at every tick start.
    // ORDERING: Relaxed — same commutative-accumulator contract.
    let gap_min = AtomicU32::new(u32::MAX);
    let gap_max = AtomicU32::new(0);

    // Leader-rebuilt per-tick structures (locked only at phase edges).
    let due_shared: Mutex<Vec<Pending>> = Mutex::new(Vec::new());
    let retry_out: Mutex<Vec<(u64, Pending)>> = Mutex::new(Vec::new());
    let series_shared: Mutex<Vec<TickStats>> = Mutex::new(Vec::with_capacity(spec.ticks as usize));
    let latency_shared: Mutex<LatencyTail> = Mutex::new(LatencyTail::new());

    // lint:allow(D1): the wall clock is serve mode's observable (sustained ops/sec), never an input to the deterministic outcome
    let start = std::time::Instant::now();
    pool::scoped(workers, |w, bar| {
        let leader = w == 0;
        // Leader-only persistent state (other workers carry None).
        let mut master: Option<Vec<BinState>> = leader.then(|| vec![BinState::Alive; n]);
        let mut ring: Option<Vec<Vec<Pending>>> =
            leader.then(|| vec![Vec::new(); ring_len as usize]);
        let mut leader_rng =
            leader.then(|| SeedSequence::new(engine_seed).child_str("arrivals").rng());
        let mut alive_n = n as u64;
        // Worker-persistent state.
        let mut due_local: Vec<Pending> = Vec::new();
        let mut fails_local: Vec<(u64, Pending)> = Vec::new();
        let mut local_latency = LatencyTail::new();

        for tick in 0..spec.ticks {
            if leader {
                let master = master.as_mut().expect("leader state");
                let ring = ring.as_mut().expect("leader state");
                // Faults fire at the tick boundary; re-derive the
                // shared dense states and the alive count only when
                // something changed.
                if spec.faults.apply_dense(tick, master) {
                    for (b, s) in master.iter().enumerate() {
                        // ORDERING: Relaxed — leader-only read-modify-
                        // write, published by the barrier below; the
                        // low half is the settled post-departure load.
                        let (_, load) = unpack(probe_view[b].load(Ordering::Relaxed));
                        probe_view[b].store(pack(*s, load), Ordering::Relaxed);
                    }
                    alive_n = master.iter().filter(|s| s.accepts()).count() as u64;
                }
                // ORDERING: Relaxed — leader reads of barrier-settled
                // accumulators.
                let in_system =
                    placed_total.load(Ordering::Relaxed) - departed_total.load(Ordering::Relaxed);
                let fallback = !matches!(family, Family::OneChoice)
                    && (alive_n as f64) < retry.fallback_alive_frac * n as f64;
                let style = if alive_n == 0 || fallback {
                    Style::Uniform
                } else {
                    match family {
                        Family::OneChoice => Style::Uniform,
                        Family::Greedy(d) => Style::LeastOf(d.max(1)),
                        Family::Adaptive => Style::Below(strict_int_bound(
                            (in_system + 1) as f64 / alive_n as f64 + 1.0,
                        )),
                        Family::Threshold => {
                            Style::Below(strict_int_bound(cfg.m as f64 / alive_n as f64 + 1.0))
                        }
                    }
                };
                let (kind, param) = match style {
                    Style::Uniform => (0, 0),
                    Style::Below(t) => (1, t),
                    Style::LeastOf(d) => (2, d),
                };
                let rng = leader_rng.as_mut().expect("leader rng");
                let fresh = arrival_count(cfg.m, spec.ticks, tick, spec.poisson, rng);
                let due = std::mem::take(&mut ring[(tick % ring_len) as usize]);
                // ORDERING: Relaxed — leader-published tick parameters,
                // separated from the readers by the barrier below.
                arrivals_total.fetch_add(fresh, Ordering::Relaxed);
                due_len.store(due.len() as u64, Ordering::Relaxed);
                fresh_count.store(fresh, Ordering::Relaxed);
                // ORDERING: Relaxed — same leader-published block.
                style_kind.store(kind, Ordering::Relaxed);
                style_param.store(param, Ordering::Relaxed);
                fallback_flag.store(u32::from(fallback), Ordering::Relaxed);
                // ORDERING: Relaxed — reset before the barrier below;
                // the departure phase folds into them after it.
                gap_min.store(u32::MAX, Ordering::Relaxed);
                gap_max.store(0, Ordering::Relaxed);
                *due_shared.lock().expect("due lock") = due;
            }
            bar.sync();

            // Placement phase: due retries first (global item indices
            // 0..due_len), then fresh arrivals.
            // ORDERING: Relaxed — leader-published tick parameters read
            // after the barrier.
            let due_n = due_len.load(Ordering::Relaxed);
            let fresh = fresh_count.load(Ordering::Relaxed);
            let fallback = fallback_flag.load(Ordering::Relaxed) != 0;
            // ORDERING: Relaxed — same leader-published block.
            let style = match style_kind.load(Ordering::Relaxed) {
                0 => Style::Uniform,
                1 => Style::Below(style_param.load(Ordering::Relaxed)),
                // ORDERING: Relaxed — same leader-published block.
                _ => Style::LeastOf(style_param.load(Ordering::Relaxed)),
            };
            let total_items = due_n + fresh;
            if due_n > 0 {
                due_local.clear();
                due_local.extend_from_slice(&due_shared.lock().expect("due lock"));
            }
            let mut placed = 0u64;
            let mut shed = 0u64;
            let mut fellback = 0u64;
            let mut samples_spent = 0u64;
            let mut samples_peak = 0u64;
            for (chunk, lo, hi) in owned_chunks(w, workers, total_items) {
                let mut crng = chunk_stream(place_seeds, tick, chunk);
                for i in lo..hi {
                    let mut ball = if i < due_n {
                        due_local[i as usize]
                    } else {
                        Pending::default()
                    };
                    let mut samples = 0u64;
                    let mut best: Option<(u32, usize)> = None;
                    let mut found = 0u32;
                    let mut landed = false;
                    while samples < budget {
                        let b = crng.range_usize(n);
                        // ORDERING: Relaxed — the view is frozen for the
                        // whole placement phase (barrier-separated
                        // writes in the leader and departure phases).
                        let (st, load) = unpack(probe_view[b].load(Ordering::Relaxed));
                        if !st.accepts() {
                            // A contacted dead/draining bin costs the
                            // probe and forces a re-draw.
                            samples += 1;
                            continue;
                        }
                        samples += st.contact_cost();
                        let commit = match style {
                            Style::Uniform => Some(b),
                            Style::Below(t) => (load < t).then_some(b),
                            Style::LeastOf(d) => {
                                if best.is_none_or(|(bl, _)| load < bl) {
                                    best = Some((load, b));
                                }
                                found += 1;
                                (found >= d).then(|| best.expect("candidate").1)
                            }
                        };
                        if let Some(bin) = commit {
                            // ORDERING: Relaxed — commutative placement
                            // tally; the final value is settled by the
                            // end-of-phase barrier.
                            loads[bin].fetch_add(1, Ordering::Relaxed);
                            landed = true;
                            break;
                        }
                    }
                    ball.samples += samples;
                    samples_spent += samples;
                    samples_peak = samples_peak.max(ball.samples);
                    if landed {
                        placed += 1;
                        fellback += u64::from(fallback);
                        local_latency.record(ball.samples);
                    } else {
                        ball.attempts += 1;
                        if ball.attempts >= retry.retry_budget {
                            shed += 1;
                        } else {
                            fails_local.push((i, ball));
                        }
                    }
                }
            }
            // ORDERING: Relaxed — commutative accumulators, read by the
            // leader after the end-of-phase barrier.
            placed_total.fetch_add(placed, Ordering::Relaxed);
            shed_total.fetch_add(shed, Ordering::Relaxed);
            fallback_total.fetch_add(fellback, Ordering::Relaxed);
            // ORDERING: Relaxed — same commutative-accumulator block.
            samples_total.fetch_add(samples_spent, Ordering::Relaxed);
            max_samples.fetch_max(samples_peak, Ordering::Relaxed);
            if !fails_local.is_empty() {
                retry_out
                    .lock()
                    .expect("retry lock")
                    .append(&mut fails_local);
            }
            bar.sync();

            // Departure phase: every resident ball departs with
            // probability p; dead bins freeze. Exclusive chunk
            // ownership makes the plain load/store safe. Faults never
            // move loads, so the post-departure loads are next tick's
            // placement snapshot, and the gap over the accepting bins
            // folds into one min and one max per worker.
            let mut departed = 0u64;
            let (mut lo_acc, mut hi_acc) = (u32::MAX, 0u32);
            for (chunk, lo, hi) in owned_chunks(w, workers, n as u64) {
                let mut crng = chunk_stream(depart_seeds, tick, chunk);
                for b in lo as usize..hi as usize {
                    // ORDERING: Relaxed — states are frozen outside
                    // the leader phase; loads owned by this chunk.
                    let (st, _) = unpack(probe_view[b].load(Ordering::Relaxed));
                    let mut load = loads[b].load(Ordering::Relaxed);
                    if churn && st.departs() && load > 0 {
                        let gone: u32 = departures
                            .sample(u64::from(load), &mut crng)
                            .try_into()
                            .expect("binomial sample bounded by its u32 trial count");
                        if gone > 0 {
                            load -= gone;
                            // ORDERING: Relaxed — exclusive owner.
                            loads[b].store(load, Ordering::Relaxed);
                            departed += u64::from(gone);
                        }
                    }
                    // ORDERING: Relaxed — exclusive chunk owner; read
                    // only after the next tick's first barrier.
                    probe_view[b].store(pack(st, load), Ordering::Relaxed);
                    if st.accepts() {
                        lo_acc = lo_acc.min(load);
                        hi_acc = hi_acc.max(load);
                    }
                }
            }
            // ORDERING: Relaxed — commutative add/min/max, read by the
            // leader after the barrier below.
            departed_total.fetch_add(departed, Ordering::Relaxed);
            gap_min.fetch_min(lo_acc, Ordering::Relaxed);
            gap_max.fetch_max(hi_acc, Ordering::Relaxed);
            bar.sync();

            if leader {
                let ring = ring.as_mut().expect("leader state");
                // Rebuild the retry ring in global item order so its
                // contents are independent of which worker failed which
                // ball.
                let mut fails = std::mem::take(&mut *retry_out.lock().expect("retry lock"));
                fails.sort_unstable_by_key(|(i, _)| *i);
                for (_, ball) in fails {
                    let delay = (1u64 << (ball.attempts - 1).min(31)).min(ring_len - 1);
                    ring[((tick + delay) % ring_len) as usize].push(ball);
                }
                // Tick record: gap/max over the accepting bins, folded
                // by the departure phase.
                let (gap, max_load) = if alive_n > 0 {
                    // ORDERING: Relaxed — settled by the barrier above.
                    let (min_l, max_l) = (
                        gap_min.load(Ordering::Relaxed),
                        gap_max.load(Ordering::Relaxed),
                    );
                    (max_l - min_l, max_l)
                } else {
                    (0, 0)
                };
                // ORDERING: Relaxed — barrier-settled accumulators.
                let placed_c = placed_total.load(Ordering::Relaxed);
                let departed_c = departed_total.load(Ordering::Relaxed);
                let alive_ppm = u32::try_from(alive_n * 1_000_000 / n as u64)
                    .expect("alive fraction in parts-per-million fits u32");
                series_shared.lock().expect("series lock").push(TickStats {
                    tick,
                    in_system: placed_c - departed_c,
                    gap,
                    max_load,
                    alive_ppm,
                    placed: placed_c,
                    departed: departed_c,
                    // ORDERING: Relaxed — barrier-settled accumulators.
                    shed: shed_total.load(Ordering::Relaxed),
                    fallbacks: fallback_total.load(Ordering::Relaxed),
                    samples: samples_total.load(Ordering::Relaxed),
                });
            }
        }

        if leader {
            // Balls still waiting for a retry slot are shed.
            let ring = ring.as_mut().expect("leader state");
            let waiting: u64 = ring.iter().map(|s| s.len() as u64).sum();
            // ORDERING: Relaxed — read after the pool joins.
            shed_total.fetch_add(waiting, Ordering::Relaxed);
            alive_final.store(alive_n, Ordering::Relaxed);
        }
        let mut lat = latency_shared.lock().expect("latency lock");
        lat.merge(&local_latency);
    });
    let wall = start.elapsed();

    // ORDERING: the pool has joined — into_inner takes unique ownership.
    let loads = unwrap_loads(loads);
    let arrivals = arrivals_total.into_inner();
    let departed = departed_total.into_inner();
    let shed = shed_total.into_inner();
    let placed = placed_total.into_inner();
    let resident: u64 = loads.iter().map(|&l| u64::from(l)).sum();
    assert_eq!(
        resident,
        placed - departed,
        "serve_concurrent: ball mass drifted from placed − departed"
    );
    let outcome = Outcome {
        protocol: name,
        n,
        m: placed - departed,
        total_samples: samples_total.into_inner(),
        max_samples_per_ball: max_samples.into_inner(),
        loads: Loads::from_vec(loads),
        scenario: Scenario::stream(
            spec.ticks,
            arrivals,
            departed,
            shed,
            fallback_total.into_inner(),
            alive_final.into_inner() as f64 / n as f64,
        ),
    };
    outcome.validate();
    StreamReport {
        outcome,
        series: series_shared.into_inner().expect("series lock"),
        latency: latency_shared.into_inner().expect("latency lock"),
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_core::faults::FaultPlan;
    use bib_core::stream::RetryPolicy;

    fn cfg(n: usize, m: u64, threads: usize) -> RunConfig {
        RunConfig::new(n, m).with_threads(threads)
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let spec = StreamSpec::new(60, 0.05)
            .with_faults(FaultPlan::mass_failure(20, 0.5, 40, 9))
            .with_retry(RetryPolicy {
                probe_budget: 6,
                retry_budget: 3,
                backoff_cap: 4,
                fallback_alive_frac: 0.6,
            });
        let c = cfg(512, 60 * 128, 1);
        let base = serve_concurrent(&spec, Family::Greedy(2), &c, 41);
        for threads in [2usize, 4] {
            let c = cfg(512, 60 * 128, threads);
            let run = serve_concurrent(&spec, Family::Greedy(2), &c, 41);
            assert_eq!(run.outcome.loads, base.outcome.loads, "{threads} threads");
            assert_eq!(
                run.outcome.scenario, base.outcome.scenario,
                "{threads} threads"
            );
            assert_eq!(run.outcome.total_samples, base.outcome.total_samples);
            assert_eq!(run.series, base.series, "{threads} threads");
            assert_eq!(run.latency, base.latency, "{threads} threads");
        }
    }

    #[test]
    fn four_workers_still_degrade_gracefully() {
        let spec = StreamSpec::new(50, 0.05)
            .with_faults(FaultPlan::mass_failure(15, 0.6, 35, 3))
            .with_retry(RetryPolicy {
                probe_budget: 4,
                retry_budget: 2,
                backoff_cap: 4,
                fallback_alive_frac: 0.7,
            });
        let c = cfg(256, 50 * 64, 4);
        let report = serve_concurrent(&spec, Family::Adaptive, &c, 5);
        report.outcome.validate();
        let s = &report.outcome.scenario;
        assert!(s.shed + s.fallbacks > 0, "faults left no trace");
        assert_eq!(s.alive_frac, 1.0, "everyone recovered");
    }

    #[test]
    #[should_panic(expected = "serve_concurrent: fallback_alive_frac = 2 is outside [0, 1]")]
    fn shares_the_serial_drivers_spec_check() {
        let spec = StreamSpec::new(4, 0.1).with_retry(RetryPolicy {
            fallback_alive_frac: 2.0,
            ..RetryPolicy::default()
        });
        serve_concurrent(&spec, Family::Adaptive, &cfg(64, 256, 2), 1);
    }

    #[test]
    fn fault_free_stream_conserves_and_balances() {
        let spec = StreamSpec::new(40, 0.0).deterministic();
        let c = cfg(128, 40 * 32, 2);
        let report = serve_concurrent(&spec, Family::OneChoice, &c, 8);
        assert_eq!(report.outcome.m, 40 * 32);
        assert_eq!(report.outcome.scenario.shed, 0);
        assert_eq!(report.outcome.scenario.label(), "stream");
        assert!(report.ops() >= 40 * 32);
    }
}
