//! Threshold schedules and the faithful retry loop.
//!
//! A ball under `threshold`/`adaptive` repeatedly samples uniform bins
//! until it hits one whose load is below an integer bound `t` — the
//! paper's pseudocode (Figures 1 and 2), played out sample by sample by
//! [`place_below`]. Every such protocol describes its bound through a
//! [`ThresholdSchedule`], and [`allocate_scheduled`] runs it on one of
//! its two concrete paths: this retry loop, or the occupancy-histogram
//! engine ([`crate::histogram::drive_histogram`]).

use crate::bins::LoadVector;
use crate::protocol::{drive_sequential, Engine, Observer, Outcome, Protocol, RunConfig};
use bib_rng::{Rng64, RngExt};

/// A protocol whose acceptance bound is a function of the ball index
/// alone, constant over contiguous segments and never decreasing from
/// one segment to the next.
pub trait ThresholdSchedule {
    /// Acceptance bound for ball `ball` (1-based): a bin accepts iff
    /// `load < bound`.
    fn bound(&self, cfg: &RunConfig, ball: u64) -> u32;

    /// Inclusive index of the last ball sharing `ball`'s bound
    /// (`ball ≤ segment_end ≤ cfg.m`).
    fn segment_end(&self, cfg: &RunConfig, ball: u64) -> u64;
}

/// Places one ball into a uniformly random bin with load `< t` by
/// sampling bins until one accepts (Figures 1 and 2 of the paper),
/// returning `(bin, samples_used)`.
///
/// Panics if `bins.total() ≥ n·t`. Below that, some bin has load `< t`
/// by pigeonhole, so a passing check can never hang the loop. Under a
/// non-decreasing schedule started from empty bins every load stays
/// `≤ t`, so the check is exact: it fires iff no bin accepts — a state
/// neither paper protocol can reach, and reaching it indicates a
/// threshold bug.
pub fn place_below<R: Rng64 + ?Sized>(bins: &mut LoadVector, t: u32, rng: &mut R) -> (usize, u64) {
    let n = bins.n();
    assert!(
        u128::from(bins.total()) < n as u128 * u128::from(t),
        "place_below: no bin has load < {t}; the protocol threshold is wrong"
    );
    let mut samples = 0u64;
    loop {
        samples += 1;
        let j = rng.range_usize(n);
        if bins.load(j) < t {
            bins.place(j);
            return (j, samples);
        }
    }
}

/// The shared `allocate` body of every threshold-scheduled protocol:
/// resolves [`Engine::Auto`] (and `Concurrent`, which has no
/// sequential-family path) through [`Engine::resolve_auto`], then runs
/// the histogram driver or the faithful retry loop.
///
/// Panics if the schedule's bound decreases from one segment to the
/// next: [`place_below`]'s liveness check is exact only under
/// non-decreasing bounds.
pub fn allocate_scheduled<P, R, O>(
    protocol: &P,
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
) -> Outcome
where
    P: Protocol + ThresholdSchedule,
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    let engine = match cfg.engine {
        Engine::Auto | Engine::Concurrent => Engine::resolve_auto(cfg.n, cfg.m),
        engine => engine,
    };
    match engine {
        Engine::Histogram => {
            crate::histogram::drive_histogram(protocol.name(), cfg, rng, obs, protocol)
        }
        _ => {
            // Memoize the bound per constant-threshold segment: the
            // division inside `bound` is measurable per-ball cost on
            // the retry hot loop.
            let mut seg_end = 0u64;
            let mut t = 0u32;
            drive_sequential(protocol.name(), cfg, rng, obs, move |bins, ball, rng| {
                if ball > seg_end {
                    let next = protocol.bound(cfg, ball);
                    assert!(
                        next >= t,
                        "threshold schedule decreased from {t} to {next} at ball {ball}"
                    );
                    t = next;
                    seg_end = protocol.segment_end(cfg, ball);
                }
                place_below(bins, t, rng)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NullObserver;
    use bib_rng::SplitMix64;

    #[test]
    fn all_bins_open_costs_one_sample() {
        let mut bins = LoadVector::new(10);
        let mut rng = SplitMix64::new(1);
        let (bin, samples) = place_below(&mut bins, 1, &mut rng);
        assert_eq!(samples, 1);
        assert!(bin < 10);
        assert_eq!(bins.total(), 1);
    }

    #[test]
    fn single_open_bin_is_always_found() {
        // Bins 0..9 at load 1, bin 9 empty; threshold 1 ⇒ only bin 9.
        let mut loads = vec![1u32; 10];
        loads[9] = 0;
        let mut bins = LoadVector::from_loads(loads);
        let mut rng = SplitMix64::new(2);
        let (bin, samples) = place_below(&mut bins, 1, &mut rng);
        assert_eq!(bin, 9);
        assert!(samples >= 1);
    }

    #[test]
    #[should_panic(expected = "the protocol threshold is wrong")]
    fn naive_engine_rejects_impossible_threshold() {
        let mut bins = LoadVector::from_loads(vec![2, 2]);
        let mut rng = SplitMix64::new(3);
        place_below(&mut bins, 1, &mut rng);
    }

    /// Filling every bin up to the bound is fine; one ball more trips
    /// the liveness check instead of spinning forever.
    #[test]
    #[should_panic(expected = "the protocol threshold is wrong")]
    fn liveness_check_fires_once_every_bin_is_full() {
        let mut bins = LoadVector::new(4);
        let mut rng = SplitMix64::new(5);
        for _ in 0..4 * 3 {
            place_below(&mut bins, 3, &mut rng);
        }
        assert_eq!(bins.as_slice(), &[3, 3, 3, 3]);
        place_below(&mut bins, 3, &mut rng);
    }

    /// With k of n bins open, the sample count must average ≈ n/k and
    /// the chosen bin must be uniform among the open ones.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn retry_law_holds_statistically() {
        let n = 8usize;
        let open = 2usize; // bins 6, 7 open at threshold 1
        let template: Vec<u32> = (0..n).map(|i| if i < n - open { 1 } else { 0 }).collect();
        let reps = 40_000;
        let mut rng = SplitMix64::new(50);
        let mut total_samples = 0u64;
        let mut bin_counts = vec![0u64; n];
        for _ in 0..reps {
            let mut bins = LoadVector::from_loads(template.clone());
            let (bin, samples) = place_below(&mut bins, 1, &mut rng);
            total_samples += samples;
            bin_counts[bin] += 1;
        }
        let mean = total_samples as f64 / reps as f64;
        let expect = n as f64 / open as f64; // 4.0
        assert!(
            (mean - expect).abs() < 0.1,
            "mean samples {mean} vs {expect}"
        );
        for b in 0..n - open {
            assert_eq!(bin_counts[b], 0, "closed bin {b} chosen");
        }
        let half = reps as u64 / 2;
        for b in n - open..n {
            let c = bin_counts[b];
            assert!(c > half - 1500 && c < half + 1500, "bin {b} count {c}");
        }
    }

    /// The sample count is `Geometric(k/n)`: compare its histogram cell
    /// by cell with the exact law (n = 4, k = 1).
    #[test]
    fn sample_count_distributions_match() {
        let template = vec![1u32, 1, 1, 0];
        let reps = 30_000u64;
        let mut rng = SplitMix64::new(60);
        let mut hist = [0u64; 12];
        for _ in 0..reps {
            let mut bins = LoadVector::from_loads(template.clone());
            let (_, samples) = place_below(&mut bins, 1, &mut rng);
            let idx = ((samples - 1) as usize).min(hist.len() - 1);
            hist[idx] += 1;
        }
        let last = hist.len() - 1;
        for (cell, &observed) in hist.iter().enumerate() {
            // P[samples = cell + 1] = (3/4)^cell · 1/4; the last cell
            // pools the tail P[samples > last] = (3/4)^last.
            let p = if cell == last {
                0.75f64.powi(cell as i32)
            } else {
                0.75f64.powi(cell as i32) * 0.25
            };
            let expected = p * reps as f64;
            if expected < 50.0 {
                continue;
            }
            let diff = (observed as f64 - expected).abs();
            assert!(
                diff < 6.0 * expected.sqrt(),
                "cell {cell}: {observed} vs {expected}"
            );
        }
    }

    /// A schedule whose bound drops after the first segment.
    struct Shrinking;

    impl ThresholdSchedule for Shrinking {
        fn bound(&self, _cfg: &RunConfig, ball: u64) -> u32 {
            if ball <= 2 {
                3
            } else {
                1
            }
        }
        fn segment_end(&self, cfg: &RunConfig, ball: u64) -> u64 {
            if ball <= 2 {
                2
            } else {
                cfg.m
            }
        }
    }

    impl Protocol for Shrinking {
        fn name(&self) -> String {
            "shrinking".into()
        }
        fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
        where
            R: Rng64 + ?Sized,
            O: Observer + ?Sized,
        {
            allocate_scheduled(self, cfg, rng, obs)
        }
    }

    #[test]
    #[should_panic(expected = "threshold schedule decreased from 3 to 1")]
    fn decreasing_schedule_is_rejected() {
        let cfg = RunConfig::new(4, 4);
        Shrinking.allocate(&cfg, &mut SplitMix64::new(7), &mut NullObserver);
    }
}
