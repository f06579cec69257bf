//! Shared pieces of the three workloads: output checks, the
//! deterministic counts a pass produces, metric lists and small
//! statistics.

use bib_core::protocol::Outcome;
use bib_core::stream::LatencyTail;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Worker threads every multi-thread call uses. The benchmark refuses
/// to run on a host that offers fewer (see `main`).
pub const THREADS: usize = 2;

/// Attempted and failed operations, with the reason of each failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted: checked runs, plus arrivals on serve runs
    /// (except those still waiting for a retry when the run ends).
    pub attempted: u64,
    /// Operations that failed: runs that panicked or failed a check,
    /// plus arrivals a serve run shed after exhausting their retries.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Checks {
    /// Runs `f` as `runs` checked operations. A returned error or a panic
    /// (the library's own `Outcome::validate` panics) fails all of them.
    pub fn guard<T>(
        &mut self,
        runs: u64,
        what: &str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += runs;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into()),
        };
        self.failed += runs;
        self.errors.push(format!("{what}: {err}"));
        None
    }

    /// A check outside any run (counts as one operation).
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Arrivals of a serve run and the ones it shed after exhausting
    /// their retries.
    pub fn arrivals(&mut self, arrivals: u64, shed: u64) {
        self.attempted += arrivals;
        self.failed += shed;
        if shed > 0 {
            self.errors
                .push(format!("{shed} of {arrivals} arrivals shed"));
        }
    }
}

/// What one pass of a workload's fixed work produced, apart from time.
/// Every field is a pure function of the workload's inputs, so two
/// passes over the same inputs must produce equal counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Counts {
    /// Balls placed (batch: `m` summed over runs; serve: placements).
    pub balls: u64,
    /// Bin samples drawn, the paper's allocation time.
    pub samples: u64,
    /// Completed operations: balls placed, plus departures on serve runs.
    pub ops: u64,
    /// The max−min gaps a user sees: each batch outcome's final gap, and
    /// the accepting bins' gap at every tick of a serve run.
    pub gaps: Vec<u32>,
    /// Serve runs: merged per-placement sample counts.
    pub latency: Option<LatencyTail>,
    /// Serve runs: ticks from the recovery event until the gap is back
    /// in its pre-fault band (inclusive of the recovery tick).
    pub recovery_ticks: Vec<u64>,
}

impl Counts {
    /// Adds one batch outcome.
    pub fn add_batch(&mut self, o: &Outcome) {
        self.balls += o.m;
        self.ops += o.m;
        self.samples += o.total_samples;
        self.gaps.push(o.gap());
    }

    /// Allocation time per placed ball.
    pub fn samples_per_ball(&self) -> f64 {
        ratio(self.samples as f64, self.balls as f64)
    }

    /// Mean of the observed gaps.
    pub fn gap_mean(&self) -> f64 {
        let sum: u64 = self.gaps.iter().map(|&g| u64::from(g)).sum();
        ratio(sum as f64, self.gaps.len() as f64)
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Moves every metric of `other` in.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `xs` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `xs` (0 when empty).
pub fn quantile_u32(xs: &[u32], q: f64) -> u32 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_u32(&xs, 0.95), 95);
        assert_eq!(quantile_u32(&xs, 0.5), 50);
        assert_eq!(quantile_u32(&[7], 0.99), 7);
    }

    #[test]
    fn guard_counts_errors_and_panics() {
        let mut c = Checks::default();
        assert_eq!(c.guard(3, "ok", || Ok(1)), Some(1));
        assert_eq!(c.guard(2, "err", || Err::<(), _>("bad".into())), None);
        assert_eq!(
            c.guard(1, "panic", || -> Result<(), String> { panic!("boom") }),
            None
        );
        assert_eq!((c.attempted, c.failed), (6, 3));
        assert!(c.errors[1].contains("boom"));
    }
}
