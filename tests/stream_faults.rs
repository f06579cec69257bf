//! Cross-crate tests for the fault-tolerant streaming allocator.
//!
//! The three contracts the fault layer promises (ISSUE 10):
//!
//! 1. **Determinism under faults** — same seed + same [`FaultPlan`] →
//!    bit-identical outcomes on the dense sharded engine across 1, 2
//!    and 4 threads.
//! 2. **Distributional fidelity** — a zero-churn, zero-fault stream is
//!    the same allocation process as the batch engine: two-sample
//!    chi-square on final-load occupancy cannot tell them apart.
//! 3. **Self-stabilization** — kill half the fleet mid-run; the run
//!    completes without panicking, the degradation is *counted*
//!    (nonzero shed and/or fallbacks), and after the recovery event the
//!    gap returns to the pre-fault band.

use balls_into_bins::analysis::chisq::chi_square_sf;
use balls_into_bins::core::prelude::*;
use balls_into_bins::core::run::run_protocol;
use balls_into_bins::parallel::serve_concurrent;

/// Two-sample Pearson chi-square on a pair of occupancy histograms
/// (bins-at-load counts), pooling sparse cells; returns the p-value of
/// "same distribution".
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
    assert!(cells.len() >= 2, "need at least two pooled cells");
    let mut stat = 0.0;
    for (x, y) in &cells {
        let total = x + y;
        let ex = total * na / (na + nb);
        let ey = total * nb / (na + nb);
        stat += (x - ex).powi(2) / ex + (y - ey).powi(2) / ey;
    }
    chi_square_sf(cells.len() as u64 - 1, stat)
}

/// Occupancy counts (bins at load 0, 1, …, cap) of one outcome.
fn occupancy(out: &Outcome, cap: u32) -> Vec<u64> {
    let mut counts = vec![0u64; cap as usize + 1];
    for (load, bins) in out.loads.histogram().levels() {
        counts[(load.min(cap)) as usize] += bins;
    }
    counts
}

#[test]
fn faulted_stream_is_bit_identical_across_1_2_4_threads() {
    let spec = StreamSpec::new(80, 0.08)
        .with_faults(FaultPlan::mass_failure(25, 0.5, 55, 17))
        .with_retry(RetryPolicy {
            probe_budget: 6,
            retry_budget: 3,
            backoff_cap: 4,
            fallback_alive_frac: 0.6,
        });
    let base = serve_concurrent(
        &spec,
        Family::Adaptive,
        &RunConfig::new(400, 80 * 100).with_threads(1),
        2013,
    );
    base.outcome.validate();
    for threads in [2usize, 4] {
        let cfg = RunConfig::new(400, 80 * 100).with_threads(threads);
        let run = serve_concurrent(&spec, Family::Adaptive, &cfg, 2013);
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
fn zero_churn_stream_is_chi_square_equivalent_to_batch() {
    // With no departures and no faults the serial stream driver is the
    // batch greedy[2] process split across ticks: same acceptance rule,
    // same histogram dynamics. Pool occupancy over replicate ensembles
    // and compare distributions.
    let n = 512usize;
    let m = 2048u64;
    let reps = 40u64;
    let cap = 12u32;
    let spec = StreamSpec::new(8, 0.0).deterministic();
    let mut stream_occ = vec![0u64; cap as usize + 1];
    let mut batch_occ = vec![0u64; cap as usize + 1];
    for rep in 0..reps {
        let cfg = RunConfig::new(n, m);
        let report = serve(&spec, Family::Greedy(2), &cfg, 9000 + rep);
        report.outcome.validate();
        assert_eq!(report.outcome.m, m, "zero churn must place every ball");
        assert_eq!(report.outcome.scenario.shed, 0);
        for (i, c) in occupancy(&report.outcome, cap).iter().enumerate() {
            stream_occ[i] += c;
        }
        let out = run_protocol(&GreedyD::new(2), &cfg, 9000 + rep);
        for (i, c) in occupancy(&out, cap).iter().enumerate() {
            batch_occ[i] += c;
        }
    }
    let p = two_sample_p(&stream_occ, &batch_occ);
    assert!(
        p > 1e-4,
        "stream vs batch occupancy distinguishable: p = {p:.6}\n\
         stream {stream_occ:?}\nbatch  {batch_occ:?}"
    );
}

#[test]
fn gap_returns_to_pre_fault_band_after_mass_failure() {
    let crash_at = 120u64;
    let recover_at = 200u64;
    let ticks = 320u64;
    let spec = StreamSpec::new(ticks, 0.10)
        .with_faults(FaultPlan::mass_failure(crash_at, 0.5, recover_at, 5))
        .with_retry(RetryPolicy {
            probe_budget: 6,
            retry_budget: 2,
            backoff_cap: 4,
            fallback_alive_frac: 0.6,
        });
    let cfg = RunConfig::new(1000, ticks * 200);
    let report = serve(&spec, Family::Greedy(2), &cfg, 2013);
    report.outcome.validate(); // completed, ledger balanced, no panic

    let s = &report.outcome.scenario;
    assert!(
        s.shed + s.fallbacks > 0,
        "killing half the fleet must leave a counted trace"
    );
    assert_eq!(s.alive_frac, 1.0, "the whole fleet recovered");

    // Pre-fault band: worst gap over the 40 ticks before the crash.
    let band = report
        .series
        .iter()
        .filter(|t| t.tick >= crash_at - 40 && t.tick < crash_at)
        .map(|t| t.gap)
        .max()
        .expect("pre-fault window");
    // During the outage the gap leaves the band...
    let worst_outage = report
        .series
        .iter()
        .filter(|t| t.tick >= crash_at && t.tick < recover_at)
        .map(|t| t.gap)
        .max()
        .expect("outage window");
    assert!(
        worst_outage > band,
        "outage should visibly disturb the gap (band {band}, outage max {worst_outage})"
    );
    // ...and settles back inside it after recovery.
    let settled = report
        .series
        .iter()
        .find(|t| t.tick > recover_at && t.gap <= band)
        .unwrap_or_else(|| panic!("gap never returned to the pre-fault band ≤ {band}"));
    assert!(
        settled.tick < ticks - 10,
        "recovery should happen with margin, not at the buzzer"
    );
    // And it stays healthy at the end.
    let last = report.series.last().expect("nonempty series");
    assert!(
        last.gap <= band + 1,
        "final gap {} outside recovered band ≤ {}",
        last.gap,
        band + 1
    );
}

#[test]
fn four_worker_faulted_stream_completes_and_counts_degradation() {
    let spec = StreamSpec::new(60, 0.05)
        .with_faults(FaultPlan::mass_failure(20, 0.6, 40, 3))
        .with_retry(RetryPolicy {
            probe_budget: 4,
            retry_budget: 2,
            backoff_cap: 4,
            fallback_alive_frac: 0.7,
        });
    let cfg = RunConfig::new(300, 60 * 80).with_threads(4);
    let report = serve_concurrent(&spec, Family::Greedy(2), &cfg, 31);
    report.outcome.validate();
    let s = &report.outcome.scenario;
    assert!(s.shed + s.fallbacks > 0);
    assert_eq!(s.alive_frac, 1.0);
}
