//! Correctness contract of the sharded concurrent engine.
//!
//! Two claims (see `bib_parallel::protocols::concurrent`):
//!
//! * The engine is bit-reproducible across thread counts — the same
//!   seed gives the *identical* outcome at `threads = 1, 2, 8`.
//! * It induces the same distribution as `Engine::Faithful` on the
//!   outcome marginals (it reproduces each faithful path's per-round
//!   law exactly, from different streams). Checked by two-sample
//!   chi-square on the max-load, rounds and messages marginals.
//!
//! Plus the plumbing: stage traces fire once per round on the
//! concurrent path, sure invariants hold serially and threaded, and
//! `Auto` promotes to `Concurrent` when threads are requested.

use bib_analysis::chisq::chi_square_sf;
use bib_core::prelude::*;
use bib_core::protocol::StageTrace;
use bib_core::run::{run_protocol, run_with_observer};
use bib_parallel::protocols::{BoundedLoad, Collision, ParallelGreedy};

const ALPHA: f64 = 1e-4;

/// Two-sample Pearson chi-square on a pair of histograms with pooling
/// of sparse cells; returns the p-value of "same distribution" (same
/// idiom as `round_engine_equivalence`).
fn two_sample_p(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    assert!(na > 0 && nb > 0);
    let (na, nb) = (na as f64, nb as f64);
    let mut cells: Vec<(f64, f64)> = Vec::new();
    let mut acc = (0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        acc.0 += x as f64;
        acc.1 += y as f64;
        if acc.0 + acc.1 >= 10.0 {
            cells.push(acc);
            acc = (0.0, 0.0);
        }
    }
    if acc.0 + acc.1 > 0.0 {
        if let Some(last) = cells.last_mut() {
            last.0 += acc.0;
            last.1 += acc.1;
        } else {
            cells.push(acc);
        }
    }
    if cells.len() < 2 {
        return 1.0;
    }
    let mut stat = 0.0;
    for &(x, y) in &cells {
        let tot = x + y;
        let ex = tot * na / (na + nb);
        let ey = tot * nb / (na + nb);
        stat += (x - ex) * (x - ex) / ex + (y - ey) * (y - ey) / ey;
    }
    chi_square_sf((cells.len() - 1) as u64, stat)
}

/// Histograms a per-outcome statistic over replicate ensembles of the
/// faithful engine and a concurrent configuration.
fn vs_faithful_histograms<P, F>(
    proto: &P,
    n: usize,
    m: u64,
    reps: u64,
    cells: usize,
    stat: F,
) -> (Vec<u64>, Vec<u64>)
where
    P: Protocol,
    F: Fn(&Outcome) -> usize,
{
    let configs = [
        RunConfig::new(n, m).with_engine(Engine::Faithful),
        RunConfig::new(n, m)
            .with_engine(Engine::Concurrent)
            .with_threads(3),
    ];
    let mut hists = Vec::new();
    for (which, cfg) in configs.iter().enumerate() {
        let mut h = vec![0u64; cells];
        for rep in 0..reps {
            // Distinct seed spaces per engine: the comparison is
            // distributional, not stream-coupled.
            let seed = rep + which as u64 * 1_000_000;
            let out = run_protocol(proto, cfg, seed);
            let idx = stat(&out).min(cells - 1);
            h[idx] += 1;
        }
        hists.push(h);
    }
    let b = hists.pop().unwrap();
    let a = hists.pop().unwrap();
    (a, b)
}

/// Asserts the three standard marginals match the faithful law.
fn assert_marginals_match<P: Protocol>(proto: &P, msg_floor: u64, msg_step: u64) {
    let (n, m, reps) = (1024usize, 1024u64, 300u64);
    let (a, b) = vs_faithful_histograms(proto, n, m, reps, 12, |o| o.max_load() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > ALPHA, "max-load: p = {p:.2e} ({a:?} vs {b:?})");
    let (a, b) = vs_faithful_histograms(proto, n, m, reps, 16, |o| o.rounds() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > ALPHA, "rounds: p = {p:.2e} ({a:?} vs {b:?})");
    let (a, b) = vs_faithful_histograms(proto, n, m, reps, 40, |o| {
        (o.messages().saturating_sub(msg_floor) / msg_step) as usize
    });
    let p = two_sample_p(&a, &b);
    assert!(p > ALPHA, "messages: p = {p:.2e} ({a:?} vs {b:?})");
}

// ---------------------------------------------------------------------
// Bit-reproducibility across thread counts.
// ---------------------------------------------------------------------

#[test]
fn deterministic_mode_is_thread_count_invariant() {
    // The whole point of the per-(round, chunk) stream discipline: the
    // outcome is a pure function of the seed, not of the worker count.
    let (n, m) = (4096usize, 4096u64);
    for proto in [
        Box::new(Collision::new(1)) as Box<dyn DynProtocol>,
        Box::new(BoundedLoad::new(2)),
        Box::new(ParallelGreedy::new(2, 4, 1)),
    ] {
        let reference = run_protocol(
            proto.as_ref(),
            &RunConfig::new(n, m)
                .with_engine(Engine::Concurrent)
                .with_threads(1),
            42,
        );
        reference.validate();
        for threads in [2usize, 8] {
            let cfg = RunConfig::new(n, m)
                .with_engine(Engine::Concurrent)
                .with_threads(threads);
            let out = run_protocol(proto.as_ref(), &cfg, 42);
            assert_eq!(
                out, reference,
                "{} diverged at {threads} threads",
                reference.protocol
            );
        }
    }
}

#[test]
fn auto_with_threads_promotes_to_concurrent() {
    // `Auto` + `--threads N>1` must take the concurrent path, not
    // silently run a serial engine (the single-replicate routing fix).
    let cfg_auto = RunConfig::new(512, 512)
        .with_engine(Engine::Auto)
        .with_threads(4);
    let cfg_conc = RunConfig::new(512, 512)
        .with_engine(Engine::Concurrent)
        .with_threads(4);
    for proto in [
        Box::new(Collision::new(1)) as Box<dyn DynProtocol>,
        Box::new(BoundedLoad::new(2)),
        Box::new(ParallelGreedy::new(2, 3, 1)),
    ] {
        let a = run_protocol(proto.as_ref(), &cfg_auto, 7);
        let b = run_protocol(proto.as_ref(), &cfg_conc, 7);
        assert_eq!(a, b, "Auto+threads should alias Concurrent");
    }
}

// ---------------------------------------------------------------------
// Distributional equivalence against the faithful engine.
// ---------------------------------------------------------------------

#[test]
fn collision_deterministic_marginals_match() {
    assert_marginals_match(&Collision::new(1), 2 * 1024, 1024 / 24);
}

#[test]
fn bounded_load_deterministic_marginals_match() {
    assert_marginals_match(&BoundedLoad::new(2), 1024, 1024 / 12);
}

#[test]
fn parallel_greedy_deterministic_marginals_match() {
    assert_marginals_match(&ParallelGreedy::new(2, 4, 1), 1024, 1024 / 16);
}

// ---------------------------------------------------------------------
// Sure invariants and plumbing on the concurrent path.
// ---------------------------------------------------------------------

#[test]
fn concurrent_invariants_both_modes() {
    // Both modes: one worker, and four sharing the run.
    for threads in [1usize, 4] {
        for (n, m) in [(1usize, 3u64), (2, 2), (8, 8), (100, 100), (5000, 5000)] {
            let cfg = RunConfig::new(n, m)
                .with_engine(Engine::Concurrent)
                .with_threads(threads);
            let out = run_protocol(&Collision::new(1), &cfg, n as u64);
            out.validate();
            assert_eq!(out.scenario.label(), "parallel");
            assert!(out.rounds() >= 1);
            assert!(out.messages() >= m);
            let out = run_protocol(&ParallelGreedy::new(2, 3, 1), &cfg, n as u64);
            out.validate();
            assert!(out.rounds() <= 3);
            if 2 * n as u64 >= m {
                let out = run_protocol(&BoundedLoad::new(2), &cfg, n as u64);
                out.validate();
                assert!(out.max_load() <= 2, "cap violated: {}", out.max_load());
            }
        }
    }
}

#[test]
fn concurrent_exact_fill_at_capacity() {
    // m = cap·n: every slot must fill, surely, serially and threaded.
    for threads in [1usize, 4] {
        let cfg = RunConfig::new(64, 128)
            .with_engine(Engine::Concurrent)
            .with_threads(threads);
        let out = run_protocol(&BoundedLoad::new(2), &cfg, 9);
        assert_eq!(out.loads, vec![2u32; 64]);
    }
}

#[test]
fn concurrent_stage_traces_fire_once_per_round() {
    for threads in [1usize, 3] {
        let cfg = RunConfig::new(256, 256)
            .with_engine(Engine::Concurrent)
            .with_threads(threads);
        for proto in [
            Box::new(Collision::new(1)) as Box<dyn DynProtocol>,
            Box::new(BoundedLoad::new(2)),
            Box::new(ParallelGreedy::new(2, 4, 1)),
        ] {
            let mut trace = StageTrace::new();
            let out = run_with_observer(proto.as_ref(), &cfg, 11, &mut trace);
            assert_eq!(
                trace.stages,
                (1..=out.rounds() as u64).collect::<Vec<_>>(),
                "{} ({threads} threads)",
                out.protocol
            );
            // The last trace frame is the final state: its gap matches.
            assert_eq!(*trace.gaps.last().unwrap(), out.gap(), "{}", out.protocol);
        }
    }
}
