//! The occupancy-histogram engine ([`Engine::Histogram`]).
//!
//! Every protocol this engine accepts is *symmetric*: bins with equal
//! load are exchangeable, so the load vector carries no information
//! beyond its histogram. The engine therefore collapses the bin
//! dimension entirely — state is `counts[ℓ] = #bins with load ℓ` — and
//! the per-round work drops from `O(n)` (a per-bin open list) to
//! `O(#distinct loads)`, which the paper's smoothness results keep at
//! `O(log n)`. On the heavy regimes of Lemma 4.2 and
//! Corollary 3.5 (`m = n²` and beyond) the hot path becomes independent
//! of `n`.
//!
//! # How a round works
//!
//! For threshold-style rules (uniform over bins with load `< t`) a
//! *round* throws all `left` remaining balls at the open bins frozen at
//! round start: in the faithful sample stream these are the next `left`
//! hits on the round-start open set (conditioned on acceptance, a
//! uniform hit on that set is uniform over the still-open bins, which
//! is the faithful law), hits beyond a bin's remaining capacity are
//! rejections, and the rejected overflow re-enters the next round. The
//! hits land in two steps:
//!
//! 1. the round's *occupancy profile* over the whole open set —
//!    `cells[j]` = number of open bins receiving exactly `j` hits — is
//!    drawn by [`occupancy_profile`]: exactly for small intakes
//!    (`h ≤ 64`: per-hit collision walk) and small open sets (`k ≤ 64`:
//!    per-bin binomial chain), and otherwise by a hazard walk over
//!    i.i.d. `Poisson(h/k)` counts (an exact multinomial over that
//!    marginal — given their sum, the occupancy of that many uniform
//!    hits) followed by one repair that removes or adds uniform hits
//!    until `Σ j·cells[j] = h`, surely;
//! 2. each multiplicity group of `cells[j]` bins is spread over the
//!    occupancy classes without replacement by [`block_composition`]
//!    (exact for small groups and small open sets, a moment-matched
//!    hypergeometric chain otherwise), and a bin at load `ℓ` keeps
//!    `min(j, t − ℓ)` of its hits — the capacity bound holds surely.
//!
//! Once fewer than a small cutoff of balls remain, the tail runs the
//! *exact* collapsed Markov chain, one ball at a time: pick a class with
//! probability proportional to its open-bin count, move one bin up a
//! level.
//!
//! `greedy[d]` needs no rounds at all: order the bins by load and the
//! least loaded of `d` uniform samples is the class containing the
//! minimum of `d` uniform *ranks*. The kernel ([`place_least_of_d`])
//! keeps the classes as a `u32` prefix array and works in blocks of
//! 256 balls: one `fill_u64` call draws a block's words, each rank is
//! the minimum of `d` exact 32-bit Lemire lanes, one vectorizable pass
//! per class classifies the block against the thresholds frozen at its
//! start, and a sequential fix-up pass moves a ball up while its rank
//! has outgrown the (only shrinking) threshold — exact, with no
//! per-ball class walk. `one-choice` is the `t = ∞` threshold rule (no
//! bin ever closes, a single round places everything).
//!
//! # What is and is not preserved
//!
//! *Final loads*: exact in distribution for `greedy[d]` at every size,
//! for every per-ball tail, and for every round whose profile and group
//! spread both sit below the exact-path thresholds (in particular every
//! round with at most 64 open bins); the large-profile walk (its
//! rounded-normal links, and the chain passes of repairs above 64
//! hits) and the wide hypergeometric splits (rounded-normal above a
//! variance floor) are moment-exact approximations — expected cell
//! counts sit at their exact marginals, mass conservation and the
//! `⌈m/n⌉+1` capacity bound hold surely — whose residual error the
//! chi-square suite in `tests/histogram_equivalence.rs` bounds against
//! the faithful engine. The rejected overflow of a round is whatever
//! the drawn profile exceeds the per-level caps by, so the re-thrown
//! mass — and with it the allocation time — carries the profile's own
//! error and nothing else.
//! *Bin identities*: synthetic — and **lazy**: a no-observer run
//! returns the histogram itself plus a reconstruction seed
//! ([`crate::loads::Loads`]), and a concrete vector is only built if a
//! caller demands per-bin loads (uniform seeded assignment; the
//! faithful law is exchangeable, so the reconstructed vector has the
//! correct joint distribution to the extent the histogram does). Runs
//! with a stage-trace observer materialize eagerly through one seeded
//! permutation so bin identities stay consistent across the trace.
//! *Total samples*: a
//! CLT-faithful negative-binomial draw per round, exact geometrics on
//! the tail, exactly `d·m` / `m` for `greedy[d]` / `one-choice`.
//! *Per-ball events*: `Observer::on_ball` never fires; stage traces fire
//! exactly when the observer wants them (segments cap at stage
//! boundaries).

use crate::protocol::{Observer, Outcome, RunConfig};
use crate::sampler::ThresholdSchedule;
use crate::scenario::Scenario;
use bib_rng::dist::{BinomialSampler, Distribution, GeometricSampler, Normal};
use bib_rng::{Rng64, RngExt, SeedSequence, SplitMix64};

/// Below this many remaining balls a batched round stops paying for its
/// fixed `O(#levels)` cost and the exact per-ball tail takes over.
const ROUND_CUTOFF: u64 = 32;

/// Groups of at most this many bins are assigned to their classes one
/// exact uniform pick at a time (and hypergeometric draws of at most
/// this many items run sequentially); larger groups run the class
/// chain, whose draws amortise over the group.
const PER_HIT_SPLIT: u64 = 8;

/// Profiles over at most this many bins come from an exact per-bin
/// binomial chain, and hypergeometric draws from at most this many
/// items run sequentially, so a round with this few open bins never
/// touches an approximate sampler (the small-case equivalence tests
/// rely on this).
const EXACT_BINS: u64 = 64;

/// Intakes of at most this many hits are profiled by an exact per-hit
/// collision walk; for large open sets the hazard walk is cheaper once
/// the intake passes a few hits, so the per-hit path only covers
/// intakes short enough to beat it. Drift repairs of at most this many
/// hits likewise move one exact pick at a time.
const EXACT_HITS: u64 = 64;

/// Conditional-split binomials with variance `n·p·(1−p)` at or above
/// this switch to a rounded-normal draw (mean exact, distributional
/// error `O(1/√var)`, bias-free — validated by the chi-square suite),
/// capping the `O(√var)` cost of the mode-centred inversion on the
/// per-stage hot path.
const SPLIT_NORMAL_VAR: f64 = 4.0;

/// Exact-summation ceiling for the negative-binomial allocation-time
/// draw of a round; larger rounds use the CLT limit. Kept small because
/// this engine runs several small rounds per adaptive stage and their
/// geometric sums would dominate the collapsed hot path.
const SAMPLES_EXACT_CUTOFF: u64 = 32;

/// Sample accounting for one batched segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Total bin samples consumed (allocation time of the segment).
    pub samples: u64,
    /// Largest per-ball sample count *observed* — exact for tail balls,
    /// a lower bound (1) for batched balls.
    pub max_samples_per_ball: u64,
}

/// The occupancy histogram: `count(ℓ)` bins currently hold exactly `ℓ`
/// balls. Loads only grow, so the live span `[min_load, max_load]` only
/// moves up; storage is a dense vector over the span with a sliding
/// base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyHistogram {
    /// `counts[i]` = number of bins with load `base + i`.
    counts: Vec<u64>,
    base: u32,
    n: u64,
}

impl OccupancyHistogram {
    /// `n` empty bins; panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "OccupancyHistogram: need at least one bin");
        Self {
            counts: vec![n as u64],
            base: 0,
            n: n as u64,
        }
    }

    /// A histogram holding zero bins — the birth state of the
    /// streaming driver's drained/dead shelves, which bins enter and
    /// leave through [`OccupancyHistogram::add_bins`] /
    /// [`OccupancyHistogram::remove_bins`]. Span queries
    /// (`min_load`/`max_load`) require at least one bin; callers guard
    /// on [`OccupancyHistogram::n`].
    pub fn empty() -> Self {
        Self {
            counts: Vec::new(),
            base: 0,
            n: 0,
        }
    }

    /// Number of bins.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Adds `count` bins holding exactly `load` balls each — the
    /// re-entry half of moving bins between health classes (fault
    /// recovery). Grows the span in either direction as needed.
    pub fn add_bins(&mut self, load: u32, count: u64) {
        if count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.base = load;
            self.counts.push(0);
        } else if load < self.base {
            let grow = (self.base - load) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = load;
        } else if (load - self.base) as usize >= self.counts.len() {
            self.counts.resize((load - self.base) as usize + 1, 0);
        }
        self.counts[(load - self.base) as usize] += count;
        self.n += count;
    }

    /// Removes `count` bins holding exactly `load` balls each — the
    /// extraction half of moving bins between health classes (crash,
    /// drain). Panics if fewer than `count` bins hold `load`.
    pub fn remove_bins(&mut self, load: u32, count: u64) {
        if count == 0 {
            return;
        }
        assert!(
            self.count(load) >= count,
            "remove_bins: class {load} underflow"
        );
        self.counts[(load - self.base) as usize] -= count;
        self.n -= count;
    }

    /// Number of bins with load exactly `l`.
    pub fn count(&self, l: u32) -> u64 {
        if l < self.base {
            return 0;
        }
        self.counts
            .get((l - self.base) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Smallest load with a non-zero count.
    pub fn min_load(&self) -> u32 {
        let lead = self.counts.iter().take_while(|&&c| c == 0).count();
        self.base + lead as u32
    }

    /// Largest load with a non-zero count.
    pub fn max_load(&self) -> u32 {
        let trail = self.counts.iter().rev().take_while(|&&c| c == 0).count();
        self.base + (self.counts.len() - trail) as u32 - 1
    }

    /// Number of bins with load strictly below `t` (`None` = all bins
    /// are always open).
    pub fn open_bins(&self, t: Option<u32>) -> u64 {
        match t {
            None => self.n,
            Some(t) => {
                if t <= self.base {
                    return 0;
                }
                let hi = ((t - self.base) as usize).min(self.counts.len());
                self.counts[..hi].iter().sum()
            }
        }
    }

    /// Total remaining capacity below `t`: `Σ_{ℓ<t} (t−ℓ)·count(ℓ)`.
    pub fn capacity_below(&self, t: u32) -> u64 {
        if t <= self.base {
            return 0;
        }
        let hi = ((t - self.base) as usize).min(self.counts.len());
        self.counts[..hi]
            .iter()
            .enumerate()
            .map(|(i, &c)| (t - self.base - i as u32) as u64 * c)
            .sum()
    }

    /// Moves `bins` bins from load `l` up `levels` levels. A no-op when
    /// either is zero.
    pub fn promote(&mut self, l: u32, bins: u64, levels: u32) {
        if bins == 0 || levels == 0 {
            return;
        }
        let i = (l - self.base) as usize;
        debug_assert!(self.counts[i] >= bins, "promote: class {l} underflow");
        self.counts[i] -= bins;
        let target_load = l + levels;
        if (target_load - self.base) as usize >= self.counts.len() {
            // Slide the base past the (now possibly empty) low end
            // before growing, so the vector tracks the live span.
            let lead = self.counts.iter().take_while(|&&c| c == 0).count();
            self.counts.drain(..lead);
            self.base += lead as u32;
            if self.counts.is_empty() {
                // Everything was in class `l`: restart the span at the
                // target (the single-bin long-jump case).
                self.base = target_load;
            }
            self.counts
                .resize((target_load - self.base) as usize + 1, 0);
        }
        self.counts[(target_load - self.base) as usize] += bins;
    }

    /// Moves `bins` bins from load `l` *down* `levels` levels — the
    /// departure primitive of the streaming driver, the exact inverse
    /// of [`OccupancyHistogram::promote`]. A no-op when either count is
    /// zero; panics (in debug) on class underflow and always when the
    /// target load would go below zero.
    ///
    /// Unlike the batch engines, a churning system's span moves in both
    /// directions, so the base can slide *down*: when the target load
    /// falls below the current base the vector grows at the front (and
    /// the trailing dead span is trimmed opportunistically, keeping
    /// storage proportional to the live span).
    pub fn demote(&mut self, l: u32, bins: u64, levels: u32) {
        if bins == 0 || levels == 0 {
            return;
        }
        assert!(l >= levels, "demote: load {l} below {levels} levels");
        let i = (l - self.base) as usize;
        debug_assert!(self.counts[i] >= bins, "demote: class {l} underflow");
        self.counts[i] -= bins;
        let target_load = l - levels;
        if target_load < self.base {
            // Trim the (now possibly empty) high end before growing at
            // the front, so the vector tracks the live span.
            let trail = self.counts.iter().rev().take_while(|&&c| c == 0).count();
            self.counts.truncate(self.counts.len() - trail);
            let grow = (self.base - target_load) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = target_load;
        }
        self.counts[(target_load - self.base) as usize] += bins;
    }

    /// The live occupancy classes in ascending load order: `(load,
    /// count)` pairs with `count > 0`. The span is `O(#distinct loads)`,
    /// so callers snapshotting the classes (the round engines, the
    /// weighted engine) pay nothing for the collapsed state.
    pub fn levels(&self) -> impl Iterator<Item = (u32, u64)> + Clone + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(move |(i, &c)| (self.base + i as u32, c))
    }

    /// Assigns the histogram's loads to bin indices uniformly at random
    /// — the same law as [`random_permutation`] + [`materialize`] but
    /// cache-friendly (no `O(n)` random-access scatter). The parallel
    /// round engines use this for their final reconstruction, where the
    /// `O(n)` output pass is the whole residual cost at `m = n`.
    ///
    /// Small outputs (`n ≤ 4096`) run an *exact* sequential
    /// without-replacement class pick per bin. Large outputs are built
    /// in blocks of 1024: each block draws its class composition with
    /// the [`hypergeometric`] chain (exact below the moment-matched
    /// switch — the same approximation family as the engines' level
    /// splits) and arranges it with an in-block Fisher–Yates whose index
    /// draws come from exact 16-bit Lemire lanes, four per `u64` —
    /// class totals and mass conservation hold surely, and the per-bin
    /// cost is a fraction of a full-width draw.
    pub fn shuffled_loads<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Vec<u32> {
        const BLOCK: u64 = 1024;
        let mut classes: Vec<(u32, u64)> = self.levels().collect();
        if classes.len() == 1 {
            return vec![classes[0].0; self.n as usize];
        }
        let n = self.n;
        if n <= 4 * BLOCK {
            // Exact sequential conditional picks, classes descending by
            // count so the CDF walk terminates early.
            let mut loads: Vec<u32> = Vec::with_capacity(n as usize);
            classes.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
            let mut rem = n;
            for _ in 0..n {
                let mut r = rng.range_u64(rem);
                for &mut (l, ref mut c) in classes.iter_mut() {
                    if r < *c {
                        loads.push(l);
                        *c -= 1;
                        break;
                    }
                    r -= *c;
                }
                rem -= 1;
            }
            debug_assert_eq!(loads.len() as u64, n);
            return loads;
        }

        let shuffler = BlockShuffler::new(BLOCK as usize);
        let mut loads = vec![0u32; n as usize];
        let mut remaining = n;
        let mut offset = 0usize;
        let mut runs: Vec<(u32, u64)> = Vec::with_capacity(classes.len());
        while remaining > 0 {
            let b = BLOCK.min(remaining);
            runs.clear();
            block_composition(&mut classes, remaining, b, rng, |_, l, t| runs.push((l, t)));
            // Arrange the composition's runs in one fused pass.
            let mut stream = runs
                .iter()
                .flat_map(|&(l, t)| std::iter::repeat_n(l, t as usize));
            shuffler.arrange(
                &mut loads[offset..offset + b as usize],
                || stream.next().expect("run stream exhausted early"),
                rng,
            );
            offset += b as usize;
            remaining -= b;
        }
        debug_assert_eq!(offset as u64, n);
        loads
    }

    /// Builds the histogram of an existing load vector (one counting
    /// pass; storage is the live span, not the max load). Panics on an
    /// empty slice — a histogram needs at least one bin.
    pub fn from_loads(loads: &[u32]) -> Self {
        assert!(!loads.is_empty(), "OccupancyHistogram: need ≥ 1 bin");
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for &l in loads {
            lo = lo.min(l);
            hi = hi.max(l);
        }
        let mut counts = vec![0u64; (hi - lo) as usize + 1];
        for &l in loads {
            counts[(l - lo) as usize] += 1;
        }
        Self {
            counts,
            base: lo,
            n: loads.len() as u64,
        }
    }

    /// Total balls held: `Σ ℓ·count(ℓ)` over the live span.
    pub fn total_balls(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            // lint:allow(N1): i indexes the live span, bounded by the u32 load range
            .map(|(i, &c)| (self.base + i as u32) as u64 * c)
            .sum()
    }

    /// All loads in ascending order (length `n`).
    pub fn to_sorted_loads(&self) -> Vec<u32> {
        let mut loads = Vec::with_capacity(self.n as usize);
        for (i, &c) in self.counts.iter().enumerate() {
            let l = self.base + i as u32;
            loads.extend(std::iter::repeat_n(l, c as usize));
        }
        debug_assert_eq!(loads.len() as u64, self.n);
        loads
    }

    /// Internal consistency check (tests): bin count conserved.
    pub fn check_invariants(&self) {
        assert_eq!(
            self.counts.iter().sum::<u64>(),
            self.n,
            "bins not conserved"
        );
    }
}

/// How the balls of one segment choose their landing class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandingRule {
    /// Uniform among bins with load strictly below the bound (`None`
    /// means every bin always accepts — the `one-choice` law). Sample
    /// cost per ball is `Geometric(open/n)`.
    UniformBelow(Option<u32>),
    /// The least loaded of `d` uniform samples (`greedy[d]`; both
    /// tie-break rules land in the same class). Sample cost per ball is
    /// exactly `d`.
    LeastOfD(u32),
}

/// One constant-rule segment of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSegment {
    /// Landing law for every ball of the segment.
    pub rule: LandingRule,
    /// Inclusive index of the last ball sharing the rule.
    pub end: u64,
}

/// A protocol the histogram engine can drive: its landing law is a
/// function of the ball index alone, constant over contiguous segments.
///
/// Every [`ThresholdSchedule`] gets this for free (blanket impl below);
/// `one-choice` and `greedy[d]` implement it directly with their fixed
/// whole-run rules.
pub trait HistogramSchedule {
    /// The segment containing ball `ball` (1-based).
    fn histogram_segment(&self, cfg: &RunConfig, ball: u64) -> HistogramSegment;
}

impl<S: ThresholdSchedule + ?Sized> HistogramSchedule for S {
    fn histogram_segment(&self, cfg: &RunConfig, ball: u64) -> HistogramSegment {
        HistogramSegment {
            rule: LandingRule::UniformBelow(Some(self.bound(cfg, ball))),
            end: self.segment_end(cfg, ball),
        }
    }
}

/// A standard-normal draw by inverting the CDF on one uniform
/// (Acklam's rational approximation: relative error < 1.2e-9, full
/// tails). One `next_f64` plus a handful of flops — an order of
/// magnitude cheaper than Box–Muller on the per-stage hot path, where
/// the split draws dominate the engine's runtime.
#[allow(clippy::excessive_precision)] // coefficients verbatim from Acklam
fn cheap_std_normal<R: Rng64 + ?Sized>(rng: &mut R) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.383577518672690e2,
        -3.066479806614716e1,
        2.506628277459239e0,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838e0,
        -2.549732539343734e0,
        4.374664141464968e0,
        2.938163982698783e0,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-3,
        3.224671290700398e-1,
        2.445134137142996e0,
        3.754408661907416e0,
    ];
    const P_LOW: f64 = 0.02425;
    let p = rng.next_f64().clamp(f64::MIN_POSITIVE, 1.0 - 1e-16);
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

/// `Binomial(n, p)` for the wide conditional splits: exact while the
/// variance is moderate, rounded-normal (clamped to the support) above
/// [`SPLIT_NORMAL_VAR`]. Shared with the weight-class engine's
/// cross-class intake splits and the parallel round-occupancy engine's
/// open-set request splits.
pub fn split_binomial<R: Rng64 + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let var = n as f64 * p * (1.0 - p);
    if var < SPLIT_NORMAL_VAR {
        return BinomialSampler::new(n, p).sample(rng);
    }
    rounded_normal_count(n as f64 * p, var, 0, n, rng)
}

/// Largest trial count [`SplitBinomialTable`] memoizes: `split_binomial`
/// walks exactly up to about `4/p` trials, so a tiny `p` would
/// otherwise grow the table without bound; capped, it stays near a
/// megabyte at most.
const TABLE_MAX_TRIALS: u64 = 4096;

/// [`split_binomial`]`(ℓ, p)` for one fixed `p` and many `ℓ`, drawn
/// bit-identically but without re-walking the pmf on every call: the
/// per-bin departure law of the dense serve driver, where every bin of
/// the fleet draws `Binomial(load, p)` every tick.
///
/// For each `ℓ` where `split_binomial` runs the exact CDF walk
/// ([`BinomialSampler::sample_inversion`], mirrored at `p > ½`), the
/// table stores that walk's CDF values — built by the same recurrence
/// ([`BinomialSampler::inversion_walk`]), so the same `f64`s — and a
/// draw is one `next_f64` plus a compare walk over them. Every other
/// `ℓ` (the rounded-normal regime, or beyond [`TABLE_MAX_TRIALS`])
/// calls `split_binomial` itself.
#[derive(Debug, Clone)]
pub struct SplitBinomialTable {
    p: f64,
    /// Draws count failures (`ℓ − k`) when `p > ½`, as the sampler's
    /// mirror does.
    flipped: bool,
    /// `blocks[start[ℓ−1]..start[ℓ]]` holds the stored CDF prefix for
    /// `ℓ` trials, padded with `+∞` to whole blocks; `start.len() − 1`
    /// is the largest memoized `ℓ`.
    start: Vec<usize>,
    /// `stored[ℓ−1]`: length of that prefix.
    stored: Vec<usize>,
    blocks: Vec<[f64; CDF_BLOCK]>,
}

/// CDF entries compared per step of a [`SplitBinomialTable`] draw: one
/// cache line, and more than a small-mean walk almost ever needs.
const CDF_BLOCK: usize = 8;

impl SplitBinomialTable {
    /// Builds the table for departure probability `p` (empty when `p`
    /// is 0 or 1, where `split_binomial` draws nothing).
    pub fn new(p: f64) -> Self {
        let flipped = p > 0.5;
        let q = if flipped { 1.0 - p } else { p };
        let mut table = Self {
            p,
            flipped,
            start: vec![0],
            stored: Vec::new(),
            blocks: Vec::new(),
        };
        let mut prefix = Vec::new();
        let mut trials = 1u64;
        // The same variance test `split_binomial` routes on; below 4,
        // `trials·q < 8` keeps `BinomialSampler` on its walk from 0.
        while p > 0.0 && p < 1.0 && trials <= TABLE_MAX_TRIALS {
            if trials as f64 * p * (1.0 - p) >= SPLIT_NORMAL_VAR {
                break;
            }
            prefix.clear();
            let mut prev_pmf = f64::INFINITY;
            for (pmf, c) in BinomialSampler::inversion_walk(trials, q) {
                // Past the mode the pmf only falls, so once an addend
                // leaves the CDF unchanged every later one does too: a
                // draw above the stored prefix walks to `ℓ`.
                if pmf < prev_pmf && prefix.last() == Some(&c) {
                    break;
                }
                prefix.push(c);
                // No uniform exceeds 1 − 2⁻⁵³, so the walk stops here.
                if c >= 1.0 - f64::EPSILON / 2.0 {
                    break;
                }
                prev_pmf = pmf;
            }
            for chunk in prefix.chunks(CDF_BLOCK) {
                let mut block = [f64::INFINITY; CDF_BLOCK];
                block[..chunk.len()].copy_from_slice(chunk);
                table.blocks.push(block);
            }
            table.start.push(table.blocks.len());
            table.stored.push(prefix.len());
            trials += 1;
        }
        table
    }

    /// One `Binomial(trials, p)` draw, bit-identical to
    /// `split_binomial(trials, p, rng)` (same value, same randomness
    /// consumed).
    #[inline]
    pub fn sample<R: Rng64 + ?Sized>(&self, trials: u64, rng: &mut R) -> u64 {
        let l = usize::try_from(trials).unwrap_or(usize::MAX);
        if l == 0 || l >= self.start.len() {
            return split_binomial(trials, self.p, rng);
        }
        let u = rng.next_f64();
        // The walk stops at the first `k` with `u ≤ cdf(k)`; the CDF is
        // non-decreasing, so that `k` is the number of entries below
        // `u`, counted a block at a time without a data-dependent
        // branch inside the block. A draw above the whole stored
        // prefix walks to `trials`.
        let mut below = 0;
        for block in &self.blocks[self.start[l - 1]..self.start[l]] {
            let in_block: usize = block.iter().map(|&c| usize::from(c < u)).sum();
            below += in_block;
            if in_block < CDF_BLOCK {
                break;
            }
        }
        let k = if below == self.stored[l - 1] {
            trials
        } else {
            below as u64
        };
        if self.flipped {
            trials - k
        } else {
            k
        }
    }
}

/// Draws the total number of uniform bin samples needed to obtain
/// `hits` hits in an accepting set of probability `p` — a sum of `hits`
/// geometrics, i.e. `hits + NegativeBinomial(hits, p)` failures. Exact
/// summation up to [`SAMPLES_EXACT_CUTOFF`] hits; rounded CLT draw
/// (mean `hits/p`, variance `hits·(1−p)/p²`) beyond, clamped to the
/// support `≥ hits`. Shared with the weight-class engine.
pub(crate) fn round_samples<R: Rng64 + ?Sized>(hits: u64, p: f64, rng: &mut R) -> u64 {
    if hits == 0 {
        return 0;
    }
    if p >= 1.0 {
        return hits;
    }
    if hits <= SAMPLES_EXACT_CUTOFF {
        let g = GeometricSampler::new(p);
        return (0..hits).map(|_| g.sample(rng)).sum();
    }
    let mean = hits as f64 / p;
    let sd = (hits as f64 * (1.0 - p)).sqrt() / p;
    let draw = Normal::new(mean, sd).sample(rng).round();
    // f64 → u64 casts saturate, so a deep-left-tail draw clamps to 0
    // and then to the support minimum.
    (draw as u64).max(hits)
}

/// Guaranteed stopping level for a hazard walk over a marginal of mean
/// `mean` whose support ends at `top`: the true mass beyond
/// `mean + 40√mean + 64` is below `e⁻³⁰⁰` (binomial and Poisson alike),
/// so parking the stragglers there is the same approximation the
/// `tail < 1e-12` exhaustion break makes — but it triggers *surely*.
/// The exhaustion break alone is fragile: float error in the seeded pmf
/// floors the walked tail at the seed's relative error, and when that
/// floor sits above the cutoff the stragglers ride `j` all the way to
/// the top of the support — an O(hits) walk plus an O(hits) cells
/// vector for the drift repair to crawl, which at `n = 2²⁷` turned
/// sub-millisecond rounds into minutes.
fn park_level(top: u64, mean: f64) -> u64 {
    ((mean + 40.0 * mean.max(1.0).sqrt() + 64.0) as u64).min(top)
}

/// The conditional-binomial hazard walk behind [`binomial_profile`] and
/// [`occupancy_profile`]: draws the profile of `bins` independent
/// counts of a marginal given by `ln P(X = 0) = ln_pmf0` and the ratio
/// `P(X = j+1)/P(X = j) = num(j)/(j+1) · factor`. Level `j` takes
/// `Binomial(bins left, pmf_j / tail_j)` of the bins not yet placed —
/// an exact multinomial over the marginal as a chain (each link a
/// [`split_binomial`], rounded-normal above its variance floor). The
/// pmf is seeded in log space and carried there until it surfaces:
/// `P(X = 0)` underflows long before the bulk of a heavy law, and
/// `powi`'s relative error grows with the exponent. Stragglers park at
/// `park` or once the walked tail is exhausted. Leading empty levels
/// are not stored: on return `cells[i]` counts the bins at `base + i`,
/// and `base` is returned.
fn hazard_walk<R, F>(
    bins: u64,
    ln_pmf0: f64,
    factor: f64,
    num: F,
    park: u64,
    cells: &mut Vec<u64>,
    rng: &mut R,
) -> u64
where
    R: Rng64 + ?Sized,
    F: Fn(u64) -> f64,
{
    cells.clear();
    let ln_factor = factor.ln();
    let mut ln_pmf = ln_pmf0;
    let mut pmf = ln_pmf.exp();
    let mut log_mode = pmf < 1e-290;
    let mut tail = 1.0f64; // P(X ≥ j)
    let mut base = 0u64;
    let mut c_rem = bins;
    let mut j = 0u64;
    while c_rem > 0 {
        if j >= park || tail < 1e-12 {
            cells.push(c_rem);
            break;
        }
        let hazard = if tail <= pmf {
            1.0
        } else {
            (pmf / tail).clamp(0.0, 1.0)
        };
        let nj = if hazard == 0.0 {
            0
        } else {
            split_binomial(c_rem, hazard, rng)
        };
        if cells.is_empty() && nj == 0 {
            base = j + 1;
        } else {
            cells.push(nj);
        }
        c_rem -= nj;
        tail = (tail - pmf).max(0.0);
        let (n, den) = (num(j), (j + 1) as f64);
        if log_mode {
            ln_pmf += n.ln() - den.ln() + ln_factor;
            pmf = ln_pmf.exp();
            log_mode = pmf < 1e-290;
        } else {
            pmf *= n / den * factor;
        }
        j += 1;
    }
    base
}

/// Draws the profile of `bins` independent `Bin(trials, p)` counts: on
/// return `cells[i]` = number of bins whose count is exactly
/// `base + i`, where `base` — the smallest count drawn — is the return
/// value (`Σ cells[i] = bins`, surely). Storage spans the drawn counts,
/// not `[0, max]`; cost is `O(max count)` draws, independent of `bins`.
///
/// This is the hazard walk over the exact `Bin(trials, p)` marginal,
/// seeded in log space so `(1−p)^trials` underflowing at heavy loads
/// does not zero the walk, and stopped surely at `park_level`. The
/// streaming driver's departure split (`trials` = a class's load) and
/// the parallel-greedy defector split (`trials` = a cell's pinned
/// balls) draw their per-bin counts here.
pub fn binomial_profile<R: Rng64 + ?Sized>(
    bins: u64,
    trials: u64,
    p: f64,
    cells: &mut Vec<u64>,
    rng: &mut R,
) -> u64 {
    if trials == 0 || p <= 0.0 || p >= 1.0 {
        cells.clear();
        cells.push(bins);
        return if p >= 1.0 { trials } else { 0 };
    }
    let park = park_level(trials, trials as f64 * p);
    let ln_pmf0 = trials as f64 * (-p).ln_1p();
    let num = |j: u64| (trials - j) as f64;
    hazard_walk(bins, ln_pmf0, p / (1.0 - p), num, park, cells, rng)
}

/// Draws the *occupancy profile* of `hits` uniform throws over `bins`
/// exchangeable bins: on return `cells[i]` = number of bins receiving
/// exactly `base + i` throws, where `base` is the return value
/// (`Σ cells[i] = bins`, `Σ (base + i)·cells[i] = hits`, surely).
///
/// This is the one answer to "how many of these exchangeable bins end
/// up with exactly `j` of the hits": the histogram engine's rounds
/// (`round_uniform`, shared with the weight-class engine) and the
/// parallel round-occupancy engines (collision / bounded-load /
/// parallel-greedy) all draw their multiplicity profiles here. Paths:
///
/// * `hits ≤ 64`: the exact per-hit collision walk (each throw lands on
///   an already-hit bin with probability `#hit/bins`);
/// * `bins ≤ 64`: the exact per-bin binomial chain (bin `i` takes
///   `Bin(hits left, 1/bins left)`);
/// * otherwise the hazard walk over i.i.d. `Poisson(hits/bins)` counts,
///   then one drift repair to exactly `hits` (`repair_drift`). Given
///   their sum `S`, i.i.d. Poisson counts *are* the occupancy of `S`
///   uniform hits, and the repair removes or adds uniform hits, so the
///   result is the exact multinomial law up to the walk's rounded-normal
///   links and the repair's `O(drift/hits)` chain-pass error.
///
/// Cost is `O(max multiplicity)` draws on the walks and `O(bins)` on the
/// chain; storage spans the drawn multiplicities only.
pub fn occupancy_profile<R: Rng64 + ?Sized>(
    bins: u64,
    hits: u64,
    cells: &mut Vec<u64>,
    rng: &mut R,
) -> u64 {
    assert!(bins > 0, "occupancy_profile: need at least one bin");
    cells.clear();
    if hits == 0 || bins == 1 {
        cells.push(bins);
        return if bins == 1 { hits } else { 0 };
    }
    if hits <= EXACT_HITS {
        // Exact per-hit walk: index the hit bins 0..; a throw lands on
        // hit bin `r` iff `r < #hit` (each specific bin w.p. 1/bins).
        let mut counts = [0u8; EXACT_HITS as usize];
        let mut touched = 0usize;
        for _ in 0..hits {
            let r = rng.range_u64(bins);
            if (r as usize) < touched {
                counts[r as usize] += 1;
            } else {
                counts[touched] = 1;
                touched += 1;
            }
        }
        let max_mult = counts[..touched].iter().copied().max().unwrap_or(0) as usize;
        cells.resize(max_mult + 1, 0);
        cells[0] = bins - touched as u64;
        for &c in &counts[..touched] {
            cells[c as usize] += 1;
        }
        return 0;
    }
    if bins <= EXACT_BINS {
        // Exact multinomial as a chain of per-bin conditional binomials.
        let mut xs = [0u64; EXACT_BINS as usize];
        let xs = &mut xs[..bins as usize];
        let mut rem = hits;
        for (i, x) in xs.iter_mut().enumerate() {
            if rem == 0 {
                break;
            }
            let rem_bins = bins - i as u64;
            *x = if rem_bins == 1 {
                rem
            } else {
                BinomialSampler::new(rem, 1.0 / rem_bins as f64).sample(rng)
            };
            rem -= *x;
        }
        let lo = xs.iter().copied().min().unwrap_or(0);
        let hi = xs.iter().copied().max().unwrap_or(0);
        cells.resize((hi - lo) as usize + 1, 0);
        for &x in xs.iter() {
            cells[(x - lo) as usize] += 1;
        }
        return lo;
    }
    let lambda = hits as f64 / bins as f64;
    let park = park_level(hits, lambda);
    let base = hazard_walk(bins, -lambda, lambda, |_| 1.0, park, cells, rng);
    repair_drift(cells, base, hits, rng)
}

/// Moves a profile (`cells[i]` bins at multiplicity `base + i`, drawn
/// from i.i.d. Poisson counts) to a total of exactly `target` hits with
/// single-level moves, and returns the (possibly lowered) base.
///
/// Given their total `S`, i.i.d. Poisson counts are the occupancy of
/// `S` uniform hits, so the exact way to reach `target` is to remove
/// `S − target` hits chosen uniformly among all hits (a bin is picked
/// with weight equal to its multiplicity) or to add `target − S` hits
/// on uniformly chosen bins (every bin weighs one). Drifts of at most
/// [`EXACT_HITS`] hits move one pick at a time, exactly; larger drifts
/// (intakes of thousands of hits and up) move in proportional chain
/// passes — one conditional binomial per cell, at most one move per bin
/// per pass — whose error, from sampling the cells with replacement and
/// from a bin owed two moves in one pass, is `O(drift/target)`.
///
/// Weighting removals by multiplicity and additions by bin is what
/// keeps the capped rounds' overflow — and with it the allocation time
/// — unbiased: moving uniformly chosen *bins* instead leaves the upper
/// cells overfull and inflated the adaptive rule's `T/m` by about 0.4%
/// at `n ≈ 128`.
fn repair_drift<R: Rng64 + ?Sized>(
    cells: &mut Vec<u64>,
    mut base: u64,
    target: u64,
    rng: &mut R,
) -> u64 {
    let bins: u64 = cells.iter().sum();
    let mut total: u64 = (base..).zip(cells.iter()).map(|(j, &c)| j * c).sum();
    while total > target {
        // Removals move bins one level down: keep an empty level below
        // the lowest stored one.
        if base > 0 && cells[0] > 0 {
            cells.insert(0, 0);
            base -= 1;
        }
        let surplus = total - target;
        if surplus > EXACT_HITS {
            // Ascending apply: cell i−1 has already donated before it
            // receives from cell i.
            let (mut pool, mut want) = (total, surplus);
            for i in 1..cells.len() {
                if want == 0 {
                    break;
                }
                let w = (base + i as u64) * cells[i];
                let mi = if pool == w {
                    want
                } else {
                    split_binomial(want, w as f64 / pool as f64, rng)
                }
                .min(cells[i]);
                pool -= w;
                cells[i] -= mi;
                cells[i - 1] += mi;
                want -= mi;
                total -= mi;
            }
        } else {
            let mut r = rng.range_u64(total);
            for i in 1..cells.len() {
                let w = (base + i as u64) * cells[i];
                if r < w {
                    cells[i] -= 1;
                    cells[i - 1] += 1;
                    total -= 1;
                    break;
                }
                r -= w;
            }
        }
    }
    while total < target {
        let deficit = target - total;
        if deficit > EXACT_HITS {
            // Descending apply: cell i+1 has already donated before it
            // receives from cell i.
            let (mut pool, mut want) = (bins, deficit);
            for i in (0..cells.len()).rev() {
                if want == 0 {
                    break;
                }
                pool -= cells[i];
                let mi = if pool == 0 {
                    want
                } else {
                    split_binomial(want, cells[i] as f64 / (pool + cells[i]) as f64, rng)
                }
                .min(cells[i]);
                if mi > 0 {
                    if i + 1 == cells.len() {
                        cells.push(0);
                    }
                    cells[i] -= mi;
                    cells[i + 1] += mi;
                    want -= mi;
                    total += mi;
                }
            }
        } else {
            let mut r = rng.range_u64(bins);
            for i in 0..cells.len() {
                if r < cells[i] {
                    if i + 1 == cells.len() {
                        cells.push(0);
                    }
                    cells[i] -= 1;
                    cells[i + 1] += 1;
                    total += 1;
                    break;
                }
                r -= cells[i];
            }
        }
    }
    base
}

/// One batched round: throws `thrown` balls uniformly over the bins
/// open under `t` at round start, where a bin at load `ℓ` keeps at most
/// `t − ℓ` of its hits. Returns the number of balls kept (the overflow
/// re-enters the caller's loop). Shared with the weight-class engine in
/// [`crate::weighted`], which runs one such round per weight class.
///
/// The hit multiplicities are resolved once over the whole open set
/// ([`occupancy_profile`]) and each multiplicity group is spread over
/// the occupancy classes without replacement ([`block_composition`]):
/// one decomposition of the round's multinomial whose cost is
/// `O(levels + multiplicities)` draws, not `O(levels · multiplicities)`
/// — with the adaptive lag distribution spanning ~log n levels, the
/// difference between the engine being level-bound and hit-bound.
pub(crate) fn round_uniform<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    t: Option<u32>,
    thrown: u64,
    scratch: &mut Vec<(u32, u64)>,
    cells: &mut Vec<u64>,
    rng: &mut R,
) -> u64 {
    // Snapshot the open classes *descending* by load: the mass piles up
    // just below the bound, so the class chains end early. Promotes only
    // move bins up, out of the snapshot, so a class still holds at least
    // its unassigned snapshot count when a later group draws from it.
    scratch.clear();
    let top = match t {
        Some(t) => (t.saturating_sub(hist.base) as usize).min(hist.counts.len()),
        None => hist.counts.len(),
    };
    for i in (0..top).rev() {
        let c = hist.counts[i];
        if c > 0 {
            scratch.push((hist.base + i as u32, c));
        }
    }
    let k: u64 = scratch.iter().map(|&(_, c)| c).sum();
    debug_assert!(k > 0, "round_uniform: no open bin");
    if thrown == 0 {
        return 0;
    }
    let base = occupancy_profile(k, thrown, cells, rng);
    let mut kept = 0u64;
    let mut unassigned = k;
    // Largest multiplicity first; the untouched bins (j = 0) stay put.
    for (i, &group) in cells.iter().enumerate().rev() {
        let j = base + i as u64;
        if j == 0 || group == 0 {
            continue;
        }
        block_composition(scratch, unassigned, group, rng, |_, l, bins| {
            let keep = t.map_or(j, |t| j.min(u64::from(t - l)));
            hist.promote(
                l,
                bins,
                u32::try_from(keep).expect("kept hits are bounded by a u32 load"),
            );
            kept += keep * bins;
        });
        unassigned -= group;
    }
    kept
}

/// Number of *distinct* bins hit by `hits` uniform throws over `bins`
/// exchangeable bins. Exact per-hit walk for `hits ≤ 64`; above that a
/// rounded-normal draw on the closed-form moments
/// (`q1 = (1−1/bins)^hits`, `q2 = (1−2/bins)^hits`):
///
/// ```text
/// E[D]   = bins·(1−q1)
/// Var[D] = bins·(q1−q2) + bins²·(q2−q1²)
/// ```
///
/// clamped to the sure support `[1, min(bins, hits)]`. The
/// bounded-load round engine's accepting-bin count reduces to this
/// draw.
pub fn distinct_hit_count<R: Rng64 + ?Sized>(bins: u64, hits: u64, rng: &mut R) -> u64 {
    if hits == 0 || bins == 0 {
        return 0;
    }
    if bins == 1 {
        return 1;
    }
    if hits <= EXACT_HITS {
        // The per-hit walk of `occupancy_profile`, keeping only the
        // distinct count.
        let mut distinct = 0u64;
        for _ in 0..hits {
            if rng.range_u64(bins) >= distinct {
                distinct += 1;
            }
        }
        return distinct;
    }
    let lam = 1.0 / bins as f64;
    let q1 = (hits as f64 * (-lam).ln_1p()).exp();
    let q2 = (hits as f64 * (-2.0 * lam).ln_1p()).exp();
    let mean = bins as f64 * (1.0 - q1);
    let var = bins as f64 * (q1 - q2) + (bins as f64) * (bins as f64) * (q2 - q1 * q1);
    rounded_normal_count(mean, var, 1, bins.min(hits), rng)
}

/// `Hypergeometric(total, marked, draws)` — the number of marked items
/// among `draws` drawn without replacement from `total` items of which
/// `marked` are marked.
///
/// Exact sequential draw for `draws ≤ 8` (one uniform pick per draw);
/// above that an exact binomial clamped to the support while the
/// finite-population variance stays below the normal switch, and a
/// rounded normal with the exact mean and variance beyond — the
/// moment-matched link of [`block_composition`]'s class chain.
pub fn hypergeometric<R: Rng64 + ?Sized>(total: u64, marked: u64, draws: u64, rng: &mut R) -> u64 {
    assert!(
        marked <= total && draws <= total,
        "hypergeometric: marked ({marked}) and draws ({draws}) must be ≤ total ({total})"
    );
    let lo = draws.saturating_sub(total - marked);
    let hi = draws.min(marked);
    if lo == hi {
        return lo;
    }
    if draws <= PER_HIT_SPLIT {
        let mut got = 0u64;
        let mut rem_marked = marked;
        let mut rem = total;
        for _ in 0..draws {
            if rng.range_u64(rem) < rem_marked {
                got += 1;
                rem_marked -= 1;
            }
            rem -= 1;
        }
        return got;
    }
    let f = marked as f64 / total as f64;
    let mean = draws as f64 * f;
    let fpc = (total - draws) as f64 / (total - 1).max(1) as f64;
    let var = mean * (1.0 - f) * fpc;
    if var < SPLIT_NORMAL_VAR {
        // Narrow split: the exact binomial is within the clamp and
        // keeps randomness a rounded mean would destroy.
        split_binomial(draws, f, rng).clamp(lo, hi)
    } else {
        rounded_normal_count(mean, var, lo, hi, rng)
    }
}

/// Assigns `block` of the `remaining` unassigned bins to the occupancy
/// `classes` (`(load, unassigned count)`) uniformly without
/// replacement, decrementing `classes` in place and calling
/// `take(class_index, load, count)` for the bins each class gives up
/// (counts for one class add up). `remaining` must equal the sum of the
/// class counts and `block ≤ remaining`.
///
/// * A block that is the whole pool, or a pool held by one class, is
///   taken without a draw.
/// * Small blocks (`≤ 8` bins) and small pools (`≤ 64` bins) are
///   assigned one exact uniform pick at a time, one `take` per pick.
/// * Otherwise one conditional [`hypergeometric`] per class runs over
///   the remaining counts; the `pool == count` guard hands the last
///   contributing class the exact remainder, so the chain surely
///   completes.
///
/// This is the one class-spreading chain: the histogram engine's
/// multiplicity groups (`round_uniform`), the parallel round
/// engines' level slots, and the blocked load reconstructions
/// ([`OccupancyHistogram::shuffled_loads`],
/// [`sharded_shuffled_loads`]) all run it.
pub fn block_composition<R, F>(
    classes: &mut [(u32, u64)],
    remaining: u64,
    block: u64,
    rng: &mut R,
    mut take: F,
) where
    R: Rng64 + ?Sized,
    F: FnMut(usize, u32, u64),
{
    let picks = (block <= PER_HIT_SPLIT || remaining <= EXACT_BINS)
        && block < remaining
        && classes.iter().all(|&(_, c)| c < remaining);
    if picks {
        let mut pool = remaining;
        for _ in 0..block {
            let mut r = rng.range_u64(pool);
            for (i, &mut (l, ref mut c)) in classes.iter_mut().enumerate() {
                if r < *c {
                    take(i, l, 1);
                    *c -= 1;
                    break;
                }
                r -= *c;
            }
            pool -= 1;
        }
        return;
    }
    let mut pool = remaining;
    let mut left = block;
    for (i, &mut (l, ref mut c)) in classes.iter_mut().enumerate() {
        if left == 0 {
            break;
        }
        let cv = *c;
        if cv == 0 {
            continue;
        }
        let t = if pool == cv {
            left
        } else {
            hypergeometric(pool, cv, left, rng)
        };
        if t > 0 {
            take(i, l, t);
            *c -= t;
            left -= t;
        }
        pool -= cv;
    }
    debug_assert_eq!(left, 0, "block composition incomplete");
}

/// A rounded-normal count with the given mean and variance, clamped to
/// `[lo, hi]` — the moment-matched draw the approximate engine paths
/// share for quantities whose exact law has no cheap sampler (e.g. the
/// bounded-load engine's per-round placed-ball count). Degenerate
/// supports (`lo ≥ hi`) return `lo` without consuming randomness.
pub fn rounded_normal_count<R: Rng64 + ?Sized>(
    mean: f64,
    var: f64,
    lo: u64,
    hi: u64,
    rng: &mut R,
) -> u64 {
    if lo >= hi {
        return lo;
    }
    let draw = (mean + var.max(0.0).sqrt() * cheap_std_normal(rng)).round();
    ((draw.max(0.0)) as u64).clamp(lo, hi)
}

/// Places `count` balls under the uniform-below-`t` rule (`None` = the
/// `one-choice` law), batched by occupancy class. Panics if no bin is
/// open or `count` exceeds the remaining capacity below `t` (either
/// indicates a threshold bug, mirroring the other engines).
pub fn place_histogram_below<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    t: Option<u32>,
    count: u64,
    rng: &mut R,
) -> BatchStats {
    place_histogram_below_with(hist, t, count, &mut Vec::new(), &mut Vec::new(), rng)
}

/// [`place_histogram_below`] with caller-owned scratch buffers, so a
/// driver placing one segment per stage reuses the same allocations for
/// the whole run.
fn place_histogram_below_with<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    t: Option<u32>,
    count: u64,
    scratch: &mut Vec<(u32, u64)>,
    cells: &mut Vec<u64>,
    rng: &mut R,
) -> BatchStats {
    if count == 0 {
        return BatchStats {
            samples: 0,
            max_samples_per_ball: 0,
        };
    }
    let n = hist.n;
    if let Some(t) = t {
        assert!(
            hist.open_bins(Some(t)) > 0,
            "place_histogram_below: no bin has load < {t}"
        );
        let capacity = hist.capacity_below(t);
        assert!(
            count <= capacity,
            "place_histogram_below: {count} balls exceed the remaining capacity {capacity} \
             below {t}"
        );
    }

    let mut left = count;
    let mut samples = 0u64;
    while left >= ROUND_CUTOFF {
        let k = hist.open_bins(t);
        samples += round_samples(left, k as f64 / n as f64, rng);
        let kept = round_uniform(hist, t, left, scratch, cells, rng);
        debug_assert!(kept > 0, "a round with open capacity must place something");
        if kept == 0 {
            break; // defensive: the exact tail below is always correct
        }
        left -= kept;
    }

    let mut max_samples = u64::from(count > left);
    // Exact per-ball tail on the collapsed chain: class ∝ open count.
    let mut k = hist.open_bins(t);
    let mut geo: Option<(u64, GeometricSampler)> = None;
    while left > 0 {
        debug_assert!(k > 0);
        let s = if k == n {
            1
        } else {
            // The sampler caches ln(1−p); rebuild only when k changes
            // (a bin closed), not per ball.
            let g = match &geo {
                Some((gk, g)) if *gk == k => *g,
                _ => {
                    let g = GeometricSampler::new(k as f64 / n as f64);
                    geo = Some((k, g));
                    g
                }
            };
            g.sample(rng)
        };
        samples += s;
        max_samples = max_samples.max(s);
        // CDF walk from the top open class downward: under a threshold
        // rule the mass piles up just below the bound, so the reversed
        // walk terminates after a couple of classes.
        let mut r = rng.range_u64(k);
        let top = match t {
            Some(t) => ((t - hist.base) as usize).min(hist.counts.len()),
            None => hist.counts.len(),
        };
        let mut chosen = hist.base;
        for i in (0..top).rev() {
            let c = hist.counts[i];
            if r < c {
                chosen = hist.base + i as u32;
                break;
            }
            r -= c;
        }
        hist.promote(chosen, 1, 1);
        if t == Some(chosen + 1) {
            k -= 1;
        }
        left -= 1;
    }

    BatchStats {
        samples,
        max_samples_per_ball: max_samples,
    }
}

/// Balls per block of the `greedy[d]` kernel: one `fill_u64` call draws
/// a block's words, and one classification pass per occupancy class
/// sorts the block's ranks against the thresholds frozen at its start.
const LEAST_OF_D_BLOCK: usize = 256;

/// Places `count` balls under the `greedy[d]` law, exactly: order the
/// bins ascending by load and the least loaded of `d` uniform samples
/// (with replacement) is the class containing the minimum of `d`
/// uniform ranks; within the class the receiving bin is exchangeable,
/// and both tie-break rules collapse to the same class choice.
///
/// The balls run in blocks of [`LEAST_OF_D_BLOCK`]: [`MinRanks`] draws
/// the block's ranks, then [`ClassCdf`] places them in ball order.
/// Panics if `n` exceeds the workspace's `u32` bin-id range.
pub fn place_least_of_d<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    d: u32,
    count: u64,
    rng: &mut R,
) -> BatchStats {
    debug_assert!(d >= 1);
    let n = u32::try_from(hist.n).expect("greedy[d] bin ids are u32: n ≤ u32::MAX");
    let mut min_ranks = MinRanks::new(n, d as usize);
    let mut cdf = ClassCdf::new(hist, n);
    let mut ranks = [0u32; LEAST_OF_D_BLOCK];
    let mut left = count;
    while left > 0 {
        let b = left.min(LEAST_OF_D_BLOCK as u64) as usize;
        min_ranks.fill(&mut ranks[..b], rng);
        cdf.place(&ranks[..b]);
        left -= b as u64;
    }
    cdf.write_back(hist);
    BatchStats {
        samples: count * u64::from(d),
        max_samples_per_ball: if count > 0 { u64::from(d) } else { 0 },
    }
}

/// The low 32 bits of a word.
const LOW32: u64 = 0xFFFF_FFFF;

/// Draws blocks of `greedy[d]` ranks: each ball's rank is the minimum
/// of `d` exactly uniform ranks in `[0, n)`, each from one 32-bit
/// Lemire lane (two lanes per word), with a rejected lane redrawn.
struct MinRanks {
    n: u32,
    d: usize,
    /// `2^32 mod n`: a lane `x` is rejected iff `(x·n) mod 2^32` is
    /// below this.
    reject_below: u64,
    words: Vec<u64>,
    /// Choice-major lane ranks: choice `j` of ball `i` sits at
    /// `j·b + i` for a block of `b` balls, so the min over choices is a
    /// contiguous elementwise pass.
    lanes: Vec<u32>,
}

impl MinRanks {
    fn new(n: u32, d: usize) -> Self {
        let words = (LEAST_OF_D_BLOCK * d).div_ceil(2);
        Self {
            n,
            d,
            reject_below: (1u64 << 32) % u64::from(n),
            words: vec![0; words],
            lanes: vec![0; 2 * words],
        }
    }

    /// The rank of lane `x`, or `None` when Lemire's rejection step
    /// throws the lane away.
    #[inline]
    fn rank(&self, x: u64) -> Option<u32> {
        let m = x * u64::from(self.n);
        ((m & LOW32) >= self.reject_below).then(|| hi32(m))
    }

    /// Fills `ranks` (at most one block) with independent `greedy[d]`
    /// ranks. The block's words come from one `fill_u64` call: lane `k`
    /// is the low half of word `k` and lane `w + k` its high half.
    fn fill<R: Rng64 + ?Sized>(&mut self, ranks: &mut [u32], rng: &mut R) {
        let b = ranks.len();
        let w = (b * self.d).div_ceil(2);
        let words = &mut self.words[..w];
        rng.fill_u64(words);
        let n = u64::from(self.n);
        let (low, high) = self.lanes[..2 * w].split_at_mut(w);
        let mut rejected = false;
        for ((lo, hi), &x) in low.iter_mut().zip(high.iter_mut()).zip(words.iter()) {
            let ml = (x & LOW32) * n;
            let mh = (x >> 32) * n;
            rejected |= ((ml & LOW32) < self.reject_below) | ((mh & LOW32) < self.reject_below);
            *lo = hi32(ml);
            *hi = hi32(mh);
        }
        if rejected {
            self.redraw_rejected(w, rng);
        }
        let (first, rest) = self.lanes[..b * self.d].split_at(b);
        ranks.copy_from_slice(first);
        for choice in rest.chunks_exact(b) {
            for (r, &x) in ranks.iter_mut().zip(choice) {
                *r = (*r).min(x);
            }
        }
    }

    /// Replaces every rejected lane of the last block (`w` words) with
    /// a fresh accepted one, drawn two lanes per word in lane order.
    #[cold]
    fn redraw_rejected<R: Rng64 + ?Sized>(&mut self, w: usize, rng: &mut R) {
        let mut spare: Option<u64> = None;
        let mut next_lane = || match spare.take() {
            Some(x) => x,
            None => {
                let x = rng.next_u64();
                spare = Some(x >> 32);
                x & LOW32
            }
        };
        for k in 0..2 * w {
            let x = if k < w {
                self.words[k] & LOW32
            } else {
                self.words[k - w] >> 32
            };
            if self.rank(x).is_none() {
                self.lanes[k] = loop {
                    if let Some(r) = self.rank(next_lane()) {
                        break r;
                    }
                };
            }
        }
    }
}

/// The high 32 bits of a word.
#[inline]
fn hi32(x: u64) -> u32 {
    u32::try_from(x >> 32).unwrap_or(u32::MAX)
}

/// The class index just past `j`, out of line: the placement loop then
/// branches on the rare emptied class instead of carrying `lo` through
/// a conditional move, which would chain every ball's class lookup to
/// the previous ball's decrement.
#[cold]
#[inline(never)]
fn past(j: usize) -> usize {
    j + 1
}

/// The occupancy classes of a histogram as a `u32` prefix array:
/// `cum[j]` = number of bins with load `≤ base + j`, so the class of a
/// rank `r` is the first `j` with `r < cum[j]`, and a ball landing in
/// class `j` only decrements `cum[j]`. Entries past the top class
/// (the first `cum[j] = n`) are padding, also `n`.
struct ClassCdf {
    cum: Vec<u32>,
    base: u32,
    n: u32,
    /// Per-ball class of the current block against its frozen
    /// thresholds.
    class: [u32; LEAST_OF_D_BLOCK],
}

impl ClassCdf {
    fn new(hist: &OccupancyHistogram, n: u32) -> Self {
        let mut total = 0u64;
        let cum = hist
            .counts
            .iter()
            .map(|&c| {
                total += c;
                u32::try_from(total).expect("prefix counts are bounded by n ≤ u32::MAX")
            })
            .collect();
        Self {
            cum,
            base: hist.base,
            n,
            class: [0; LEAST_OF_D_BLOCK],
        }
    }

    /// Index of the top class, the first with `cum = n`.
    fn top(&self) -> usize {
        self.cum
            .iter()
            .position(|&c| c == self.n)
            .expect("the prefix counts reach n")
    }

    /// Places one block of ranks (at most [`LEAST_OF_D_BLOCK`]) in
    /// order. Each rank is first classified against the thresholds
    /// frozen at block start, one vectorizable pass per threshold; then
    /// a sequential pass places the balls, moving a ball's class up
    /// while `r ≥ cum[j]`. Thresholds only shrink within the block, so
    /// the true class is never below the frozen one and the result is
    /// the per-ball chain's, exactly.
    fn place(&mut self, ranks: &[u32]) {
        // Slide the base past the empty low classes.
        let lead = self.cum.iter().take_while(|&&c| c == 0).count();
        if lead > 0 {
            self.cum.drain(..lead);
            self.base += u32::try_from(lead).expect("the span is bounded by the u32 load range");
        }
        let top = self.top();
        let class = &mut self.class[..ranks.len()];
        class.fill(0);
        for &t in &self.cum[..top] {
            for (c, &r) in class.iter_mut().zip(ranks) {
                *c += u32::from(r >= t);
            }
        }
        // Each ball raises the top class by at most one.
        self.cum.resize(top + 1 + ranks.len(), self.n);
        let cum = &mut self.cum[..];
        // Classes below `lo` have emptied during this block.
        let mut lo = 0usize;
        for (&r, &c) in ranks.iter().zip(class.iter()) {
            let mut j = (c as usize).max(lo);
            while r >= cum[j] {
                j += 1;
            }
            cum[j] -= 1;
            if cum[j] == 0 {
                lo = past(j);
            }
        }
        let top = self.top();
        self.cum.truncate(top + 1);
    }

    /// Writes the classes back into `hist`.
    fn write_back(&self, hist: &mut OccupancyHistogram) {
        let mut prev = 0u32;
        hist.counts.clear();
        hist.counts.extend(self.cum[..=self.top()].iter().map(|&c| {
            let count = u64::from(c - prev);
            prev = c;
            count
        }));
        hist.base = self.base;
    }
}

/// An exact in-place Fisher–Yates for cache-resident blocks, drawing
/// its index picks from 16-bit Lemire lanes — four exactly-uniform
/// small-range draws per `u64`, with the rejection thresholds
/// (`2^16 mod r`) precomputed so the hot loop never divides. This is
/// the arrangement half of the blocked load materialization
/// ([`OccupancyHistogram::shuffled_loads`] and the parallel round
/// engines' sharded reconstruction); at `n = 10⁷` it is ~4× cheaper
/// than a full-width Fisher–Yates.
pub struct BlockShuffler {
    /// `thresh[r] = 2^16 mod r` — a 16-bit lane `x` is accepted for
    /// range `r` iff `(x·r) & 0xFFFF ≥ thresh[r]`.
    thresh: Vec<u32>,
}

impl BlockShuffler {
    /// Builds the rejection table for blocks of at most `max_block`
    /// elements (`max_block ≤ 2^16` so a 16-bit lane covers every
    /// range).
    pub fn new(max_block: usize) -> Self {
        assert!(max_block <= 1 << 16, "BlockShuffler: block too large");
        let mut thresh = vec![0u32; max_block + 1];
        for (r, t) in thresh.iter_mut().enumerate().skip(1) {
            *t = ((1u64 << 16) % r as u64) as u32;
        }
        Self { thresh }
    }

    /// Writes a uniformly random arrangement of the element stream
    /// `next` into `block` by the *inside-out* Fisher–Yates — one fused
    /// pass instead of fill-then-shuffle, which is what the `O(n)`
    /// reconstruction at `m = n` scale wants. `next` is called exactly
    /// `block.len()` times; the result is an exact uniform shuffle of
    /// that sequence (`block`'s prior contents are overwritten).
    pub fn arrange<R, F>(&self, block: &mut [u32], mut next: F, rng: &mut R)
    where
        R: Rng64 + ?Sized,
        F: FnMut() -> u32,
    {
        debug_assert!(block.len() < self.thresh.len());
        let mut bits = 0u64;
        let mut lanes = 0u32;
        for i in 0..block.len() {
            let range = (i + 1) as u32;
            let j = loop {
                if lanes == 0 {
                    bits = rng.next_u64();
                    lanes = 4;
                }
                let x = (bits & 0xFFFF) as u32;
                bits >>= 16;
                lanes -= 1;
                let m = x * range;
                if (m & 0xFFFF) >= self.thresh[range as usize] {
                    break (m >> 16) as usize;
                }
            };
            block[i] = block[j];
            block[j] = next();
        }
    }
}

/// A uniform random permutation of `0..n` (Fisher–Yates).
pub fn random_permutation<R: Rng64 + ?Sized>(n: usize, rng: &mut R) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.range_usize(i + 1));
    }
    perm
}

/// Assigns the histogram's sorted loads to bin indices through `perm` —
/// the identity-reconstruction step shared by every histogram-state
/// engine: drivers that emit stage traces draw one permutation up front
/// and materialize through it at every stage so the synthetic bin
/// identities stay consistent across the run.
pub fn materialize(hist: &OccupancyHistogram, perm: &[u32]) -> Vec<u32> {
    let sorted = hist.to_sorted_loads();
    let mut loads = vec![0u32; perm.len()];
    for (i, &l) in sorted.iter().enumerate() {
        loads[perm[i] as usize] = l;
    }
    loads
}

/// Block size of the sharded reconstruction: compositions are drawn per
/// block of this many bins, shuffled independently.
const SHARD_BLOCK: u64 = 1024;

/// Below this many bins the sharded reconstruction's thread-scope setup
/// costs more than it saves; [`crate::loads::Loads`] materializes
/// inline with [`OccupancyHistogram::shuffled_loads`] below it.
pub const SHARD_MIN_BINS: u64 = 1 << 21;

/// The blocked uniform load assignment of
/// [`OccupancyHistogram::shuffled_loads`], with the per-block
/// fill-and-shuffle work sharded over scoped OS threads. Fully
/// deterministic in the caller's seed and **independent of the thread
/// count**: the block compositions are drawn sequentially from the
/// caller's stream (one conditional [`hypergeometric`] per class per
/// block), the caller's stream then contributes one base seed, and
/// every block shuffles with its own child rng
/// (`SeedSequence(base).child(block)`) — the same seed discipline that
/// makes replicated runs scheduling-independent.
pub fn sharded_shuffled_loads<R: Rng64 + ?Sized>(
    hist: &OccupancyHistogram,
    rng: &mut R,
) -> Vec<u32> {
    let n = hist.n();
    let mut classes: Vec<(u32, u64)> = hist.levels().collect();
    if classes.len() == 1 {
        return vec![classes[0].0; n as usize];
    }
    let k = classes.len();
    let num_blocks = n.div_ceil(SHARD_BLOCK) as usize;
    // Block compositions, block-major (`comps[b·k + i]` = bins of class
    // `i` in block `b`), drawn sequentially through the shared
    // [`block_composition`] chain — ~`k` draws per block, a fraction of
    // a percent of the fill-and-shuffle work.
    let mut comps: Vec<u32> = vec![0; num_blocks * k];
    let mut remaining = n;
    for b in 0..num_blocks {
        let block = SHARD_BLOCK.min(remaining);
        block_composition(&mut classes, remaining, block, rng, |i, _, t| {
            // lint:allow(N1): t ≤ SHARD_BLOCK = 2¹⁰ fits u32 by construction
            comps[b * k + i] += t as u32
        });
        remaining -= block;
    }
    let base = rng.next_u64();
    let levels: Vec<u32> = hist.levels().map(|(l, _)| l).collect();

    let mut loads = vec![0u32; n as usize];
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(num_blocks)
        .max(1);
    let blocks_per_thread = num_blocks.div_ceil(threads);
    let chunk_len = blocks_per_thread * SHARD_BLOCK as usize;
    let fill_chunk = |t: usize, chunk: &mut [u32]| {
        let shuffler = BlockShuffler::new(SHARD_BLOCK as usize);
        let first_block = t * blocks_per_thread;
        for (bi, block) in chunk.chunks_mut(SHARD_BLOCK as usize).enumerate() {
            let b = first_block + bi;
            // Stream the block's composition runs through the fused
            // inside-out arrangement, on the block's own child stream.
            let mut stream = comps[b * k..(b + 1) * k]
                .iter()
                .zip(levels.iter())
                .flat_map(|(&t, &l)| std::iter::repeat_n(l, t as usize));
            let mut brng = SeedSequence::new(base).child(b as u64).rng();
            shuffler.arrange(
                block,
                || stream.next().expect("run stream exhausted early"),
                &mut brng,
            );
        }
    };
    if threads == 1 {
        // Single worker: run inline, no scope overhead. Identical
        // output — block streams never depend on the thread layout.
        fill_chunk(0, &mut loads);
    } else {
        std::thread::scope(|scope| {
            for (t, chunk) in loads.chunks_mut(chunk_len).enumerate() {
                let fill_chunk = &fill_chunk;
                scope.spawn(move || fill_chunk(t, chunk));
            }
        });
    }
    loads
}

/// Runs a whole allocation under [`Engine::Histogram`]: walks the
/// schedule's constant-rule segments and places each with the batched
/// class machinery. Bin identities are synthetic — and stay *virtual*
/// on the no-observer path: the outcome carries the histogram plus one
/// reconstruction seed ([`crate::loads::Loads::from_histogram`]), so no
/// `O(n)` pass runs unless a caller later asks for per-bin loads.
/// Drivers with a stage-trace observer instead draw one uniform seeded
/// permutation up front (derived from the same seed) and materialize
/// through it at every stage end and for the final outcome, keeping the
/// synthetic bin identities consistent across the trace. The per-bin
/// marginal law is exact either way because the faithful process is
/// exchangeable.
///
/// [`Engine::Histogram`]: crate::protocol::Engine::Histogram
pub fn drive_histogram<S, R, O>(
    name: String,
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
    schedule: &S,
) -> Outcome
where
    S: HistogramSchedule + ?Sized,
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    let n64 = cfg.n as u64;
    let mut hist = OccupancyHistogram::new(cfg.n);
    // One seed draw where the eager engine drew its whole permutation:
    // the placement stream below is identical whether or not a trace
    // consumer is attached, and reconstruction is a pure function of
    // this seed no matter when (or whether) it happens.
    let recon_seed = rng.next_u64();
    let want_stages = obs.wants_stage_ends();
    let perm = want_stages.then(|| random_permutation(cfg.n, &mut SplitMix64::new(recon_seed)));
    let mut total_samples = 0u64;
    let mut max_samples = 0u64;
    let mut scratch: Vec<(u32, u64)> = Vec::new();
    let mut cells: Vec<u64> = Vec::new();
    let mut ball = 1u64;
    while ball <= cfg.m {
        let seg = schedule.histogram_segment(cfg, ball);
        let mut end = seg.end.min(cfg.m);
        debug_assert!(end >= ball, "segment end must not precede its ball");
        if want_stages {
            end = end.min(((ball - 1) / n64 + 1) * n64);
        }
        let count = end - ball + 1;
        let stats = match seg.rule {
            LandingRule::UniformBelow(t) => {
                place_histogram_below_with(&mut hist, t, count, &mut scratch, &mut cells, rng)
            }
            LandingRule::LeastOfD(d) => place_least_of_d(&mut hist, d, count, rng),
        };
        total_samples += stats.samples;
        max_samples = max_samples.max(stats.max_samples_per_ball);
        if let Some(perm) = perm.as_deref() {
            if end.is_multiple_of(n64) {
                obs.on_stage_end(end / n64, &materialize(&hist, perm), end);
            }
        }
        ball = end + 1;
    }
    if cfg.m > 0 && !cfg.m.is_multiple_of(n64) {
        if let Some(perm) = perm.as_deref() {
            obs.on_stage_end(cfg.m / n64 + 1, &materialize(&hist, perm), cfg.m);
        }
    }
    let loads = match perm.as_deref() {
        // Trace runs materialize through the permutation so the final
        // loads agree with the last trace frame.
        Some(perm) => crate::loads::Loads::from_vec(materialize(&hist, perm)),
        None => crate::loads::Loads::from_histogram(hist, recon_seed),
    };
    Outcome {
        protocol: name,
        n: cfg.n,
        m: cfg.m,
        total_samples,
        max_samples_per_ball: max_samples,
        loads,
        scenario: Scenario::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    fn total_balls(h: &OccupancyHistogram) -> u64 {
        h.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (h.base + i as u32) as u64 * c)
            .sum()
    }

    #[test]
    fn histogram_promote_and_queries() {
        let mut h = OccupancyHistogram::new(10);
        assert_eq!(h.count(0), 10);
        assert_eq!(h.open_bins(Some(1)), 10);
        assert_eq!(h.open_bins(None), 10);
        assert_eq!(h.capacity_below(3), 30);
        h.promote(0, 4, 1);
        h.promote(0, 1, 5);
        h.check_invariants();
        assert_eq!(h.count(0), 5);
        assert_eq!(h.count(1), 4);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.min_load(), 0);
        assert_eq!(h.max_load(), 5);
        assert_eq!(h.open_bins(Some(1)), 5);
        assert_eq!(h.open_bins(Some(2)), 9);
        assert_eq!(h.capacity_below(2), 2 * 5 + 4);
        assert_eq!(total_balls(&h), 9);
    }

    #[test]
    fn histogram_base_slides_on_long_jumps() {
        // A single bin jumping far ahead must not blow up the dense span.
        let mut h = OccupancyHistogram::new(1);
        h.promote(0, 1, 1_000_000);
        h.check_invariants();
        assert_eq!(h.min_load(), 1_000_000);
        assert_eq!(h.max_load(), 1_000_000);
        assert!(h.counts.len() < 8, "span not compacted: {}", h.counts.len());
        h.promote(1_000_000, 1, 3);
        assert_eq!(h.count(1_000_003), 1);
    }

    #[test]
    fn sorted_loads_round_trip() {
        let mut h = OccupancyHistogram::new(5);
        h.promote(0, 2, 2);
        h.promote(0, 1, 1);
        assert_eq!(h.to_sorted_loads(), vec![0, 0, 1, 2, 2]);
    }

    #[test]
    fn scatter_conserves_mass_in_every_path() {
        // One round of h hits on c empty bins capped at `cap`, with
        // (c, h) chosen to hit every profile path: single bin, per-hit
        // walk, per-bin chain, and the hazard walk (the last case with
        // a profile whose base sits far above zero).
        for (c, h, cap) in [
            (1u64, 1000u64, Some(7u32)),
            (100, 50, Some(3)),
            (50, 5000, Some(4)),
            (1000, 5000, Some(2)),
            (1000, 5000, None),
            (300, 100_000, Some(400)),
        ] {
            let mut hist = OccupancyHistogram::new(c as usize);
            let mut rng = SplitMix64::new(c ^ h);
            let (mut scratch, mut cells) = (Vec::new(), Vec::new());
            let kept = round_uniform(&mut hist, cap, h, &mut scratch, &mut cells, &mut rng);
            hist.check_invariants();
            assert!(kept <= h, "c={c} h={h}: kept {kept} > thrown {h}");
            assert!(kept >= 1);
            assert_eq!(total_balls(&hist), kept, "c={c} h={h}");
            if let Some(q) = cap {
                assert!(hist.max_load() <= q, "c={c} h={h}: cap violated");
                assert!(kept <= c * q as u64);
            } else {
                assert_eq!(kept, h, "unbounded scatter must keep everything");
            }
        }
    }

    #[test]
    fn scatter_hazard_mean_matches_exact_path() {
        // Number of untouched bins after h hits on c bins: the hazard
        // walk's level-0 count (after the drift repair) must agree in
        // mean with the exact law, c·(1−1/c)^h.
        let (c, h) = (500u64, 800u64);
        let reps = 600;
        let expect = c as f64 * (1.0 - 1.0 / c as f64).powi(h as i32);
        let mut rng = SplitMix64::new(9);
        let mut cells = Vec::new();
        let mut mean = 0.0;
        for _ in 0..reps {
            let base = occupancy_profile(c, h, &mut cells, &mut rng);
            let untouched = if base == 0 { cells[0] } else { 0 };
            mean += untouched as f64 / reps as f64;
        }
        // sd of the estimator ≈ √(c·p(1−p)/reps) ≈ 0.4
        assert!(
            (mean - expect).abs() < 2.5,
            "untouched-bin mean {mean} vs {expect}"
        );
    }

    #[test]
    fn place_below_fills_exact_capacity() {
        let mut hist = OccupancyHistogram::new(16);
        let mut rng = SplitMix64::new(1);
        let stats = place_histogram_below(&mut hist, Some(3), 48, &mut rng);
        assert_eq!(hist.count(3), 16);
        assert!(stats.samples >= 48);
    }

    #[test]
    fn place_below_unbounded_is_one_sample_per_ball() {
        let mut hist = OccupancyHistogram::new(32);
        let mut rng = SplitMix64::new(2);
        let stats = place_histogram_below(&mut hist, None, 10_000, &mut rng);
        hist.check_invariants();
        assert_eq!(stats.samples, 10_000, "one-choice wastes no samples");
        assert_eq!(total_balls(&hist), 10_000);
    }

    #[test]
    fn place_below_single_bin_exact() {
        let mut hist = OccupancyHistogram::new(1);
        let mut rng = SplitMix64::new(3);
        let stats = place_histogram_below(&mut hist, Some(1000), 1000, &mut rng);
        assert_eq!(hist.count(1000), 1);
        assert_eq!(stats.samples, 1000);
    }

    #[test]
    #[should_panic]
    fn place_below_rejects_over_capacity() {
        let mut hist = OccupancyHistogram::new(2);
        let mut rng = SplitMix64::new(4);
        place_histogram_below(&mut hist, Some(2), 5, &mut rng);
    }

    #[test]
    #[should_panic]
    fn place_below_rejects_impossible_threshold() {
        let mut hist = OccupancyHistogram::new(2);
        hist.promote(0, 2, 2);
        let mut rng = SplitMix64::new(5);
        place_histogram_below(&mut hist, Some(1), 1, &mut rng);
    }

    #[test]
    fn place_below_respects_initial_loads() {
        // Loads {5, 0, 5, 1} at t = 5: the two full bins must not move,
        // and 9 balls exactly fill the other two.
        let mut hist = OccupancyHistogram::new(4);
        hist.promote(0, 2, 5);
        hist.promote(0, 1, 1);
        let mut rng = SplitMix64::new(2);
        place_histogram_below(&mut hist, Some(5), 9, &mut rng);
        hist.check_invariants();
        assert_eq!(hist.count(5), 4);
        assert_eq!(total_balls(&hist), 20);
    }

    #[test]
    fn place_below_zero_count_is_noop() {
        let mut hist = OccupancyHistogram::new(2);
        hist.promote(0, 1, 1);
        let before = hist.clone();
        let mut rng = SplitMix64::new(3);
        let stats = place_histogram_below(&mut hist, Some(9), 0, &mut rng);
        assert_eq!(hist, before);
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.max_samples_per_ball, 0);
    }

    #[test]
    fn place_below_mass_and_bound_across_scales() {
        for (n, count, t) in [
            (8u64, 700u64, 100u32),
            (64, 10_000, 200),
            (500, 40_000, 100),
        ] {
            let mut hist = OccupancyHistogram::new(n as usize);
            let mut rng = SplitMix64::new(count);
            let stats = place_histogram_below(&mut hist, Some(t), count, &mut rng);
            hist.check_invariants();
            assert_eq!(total_balls(&hist), count, "n={n}");
            assert!(hist.max_load() <= t);
            assert!(stats.samples >= count);
        }
    }

    #[test]
    fn least_of_d_prefers_low_classes() {
        // With loads split 0/1, greedy[2] hits the empty class with
        // probability 1 − (1/2)² = 3/4.
        let n = 1000u64;
        let mut hist = OccupancyHistogram::new(n as usize);
        hist.promote(0, n / 2, 1);
        let mut rng = SplitMix64::new(6);
        let balls = 10_000u64;
        let stats = place_least_of_d(&mut hist, 2, balls, &mut rng);
        assert_eq!(stats.samples, 2 * balls);
        hist.check_invariants();
        assert_eq!(total_balls(&hist), balls + n / 2);
        // Two choices keep the spread tight: with 10.5 balls/bin on
        // average the max−min gap sits around 7 (measured against the
        // sequential greedy[2] at this size) — far below one-choice's.
        assert!(hist.min_load() >= 1, "greedy should fill the empty class");
        assert!(
            hist.max_load() - hist.min_load() <= 12,
            "greedy[2] gap blew up"
        );
    }

    /// The per-ball `greedy[d]` chain the block kernel replaces: walk
    /// the classes to the one holding rank `r`, promote one bin.
    fn naive_least_of_d(hist: &mut OccupancyHistogram, ranks: &[u32]) {
        for &r in ranks {
            let mut r = u64::from(r);
            let mut chosen = hist.base;
            for (i, &c) in hist.counts.iter().enumerate() {
                if r < c {
                    chosen = hist.base + u32::try_from(i).unwrap();
                    break;
                }
                r -= c;
            }
            hist.promote(chosen, 1, 1);
        }
    }

    /// A histogram of `n` bins pushed through a few random promotions,
    /// so it can start with several classes, gaps and an empty low end.
    fn random_start(n: usize, rng: &mut SplitMix64) -> OccupancyHistogram {
        let mut hist = OccupancyHistogram::new(n);
        for _ in 0..rng.range_u64(6) {
            let levels: Vec<(u32, u64)> = hist.levels().collect();
            let (l, c) = levels[rng.range_usize(levels.len())];
            hist.promote(l, 1 + rng.range_u64(c), [1, 2, 3, 4][rng.range_usize(4)]);
        }
        hist
    }

    #[test]
    fn least_of_d_blocks_match_the_per_ball_chain() {
        // Rank fill and block placement, driven block by block, must
        // leave exactly the histogram the naive per-ball chain leaves on
        // the same ranks — across block tails (count not a multiple of
        // the block), top-class growth and the base slide (n = 1 grows
        // the span on every ball) — and `place_least_of_d` must be that
        // same pipeline on the same stream.
        let mut rng = SplitMix64::new(41);
        for case in 0..400 {
            let n = 1 + rng.range_usize(64);
            let n32 = u32::try_from(n).unwrap();
            let d32 = [1u32, 2, 3, 4][rng.range_usize(4)];
            let d = d32 as usize;
            let count = rng.range_usize(3 * LEAST_OF_D_BLOCK + 1);
            let start = random_start(n, &mut rng);
            let seed = rng.next_u64();

            let mut fast = start.clone();
            let mut fill = MinRanks::new(n32, d);
            let mut cdf = ClassCdf::new(&fast, n32);
            let mut ranks = Vec::with_capacity(count);
            let mut block_rng = SplitMix64::new(seed);
            let mut block = [0u32; LEAST_OF_D_BLOCK];
            while ranks.len() < count {
                let b = (count - ranks.len()).min(LEAST_OF_D_BLOCK);
                fill.fill(&mut block[..b], &mut block_rng);
                assert!(
                    block[..b].iter().all(|&r| (r as usize) < n),
                    "case {case}: rank ≥ n"
                );
                cdf.place(&block[..b]);
                ranks.extend_from_slice(&block[..b]);
            }
            cdf.write_back(&mut fast);

            let mut slow = start.clone();
            naive_least_of_d(&mut slow, &ranks);
            let ctx = format!("case {case}: n={n} d={d} count={count}");
            assert_eq!(
                fast.levels().collect::<Vec<_>>(),
                slow.levels().collect::<Vec<_>>(),
                "{ctx}"
            );
            fast.check_invariants();
            assert_eq!(
                total_balls(&fast),
                total_balls(&start) + count as u64,
                "{ctx}"
            );

            let mut kernel = start.clone();
            let stats =
                place_least_of_d(&mut kernel, d32, count as u64, &mut SplitMix64::new(seed));
            assert_eq!(kernel, fast, "{ctx}: kernel differs from its own blocks");
            assert_eq!(stats.samples, (d * count) as u64);
        }
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        let mut rng = SplitMix64::new(7);
        let p = random_permutation(257, &mut rng);
        let mut seen = vec![false; 257];
        for &i in &p {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        // Not the identity (probability 1/257! of a false failure).
        assert!(p.iter().enumerate().any(|(i, &v)| i as u32 != v));
    }

    #[test]
    fn split_table_is_bit_identical_to_split_binomial() {
        // Both regimes of `split_binomial` (walk and rounded normal),
        // the mirror at p > ½, the degenerate ends, tiny p (a long
        // table) and loads beyond `TABLE_MAX_TRIALS`.
        for p in [0.0, 1e-4, 1e-3, 0.05, 0.1, 0.3, 0.5, 0.6, 0.9, 0.999, 1.0] {
            let table = SplitBinomialTable::new(p);
            let mut a = SplitMix64::new(p.to_bits());
            let mut b = a;
            for load in (0..=300u64).chain([4095, 4096, 4097, 10_000]) {
                for _ in 0..40 {
                    assert_eq!(
                        table.sample(load, &mut a),
                        split_binomial(load, p, &mut b),
                        "p = {p}, load = {load}"
                    );
                }
                // Same randomness consumed, not just the same values.
                assert_eq!(a.next_u64(), b.next_u64(), "p = {p}, load = {load}");
            }
        }
    }

    #[test]
    fn split_binomial_moments_across_regimes() {
        let mut rng = SplitMix64::new(8);
        for (n, p) in [(100u64, 0.3f64), (1_000_000, 0.25)] {
            let reps = 3000;
            let xs: Vec<f64> = (0..reps)
                .map(|_| split_binomial(n, p, &mut rng) as f64)
                .collect();
            let mean = xs.iter().sum::<f64>() / reps as f64;
            let expect = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (mean - expect).abs() < 4.0 * sd / (reps as f64).sqrt(),
                "n={n}: mean {mean} vs {expect}"
            );
            assert!(xs.iter().all(|&x| x >= 0.0 && x <= n as f64));
        }
        assert_eq!(split_binomial(10, 0.0, &mut rng), 0);
        assert_eq!(split_binomial(10, 1.0, &mut rng), 10);
    }

    #[test]
    fn hazard_walks_stay_bounded_at_giant_scale() {
        // Regression: at k = h = 2²⁷ the powi-seeded pmf left the walked
        // tail floored above the 1e-12 exhaustion cutoff, and straggler
        // bins rode the walk to j = h — 2²⁷ + 1 cells and a ~3h drift
        // for the repair loop to crawl (minutes per round). The log
        // seed plus the `park_level` bound keep every walk O(λ + √λ).
        let mut cells = Vec::new();
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            let base = occupancy_profile(1 << 27, 1 << 27, &mut cells, &mut rng);
            assert!(
                base + cells.len() as u64 <= park_level(1 << 27, 1.0) + 1,
                "seed {seed}: walk produced {} cells above {base}",
                cells.len()
            );
            assert_eq!(cells.iter().sum::<u64>(), 1 << 27);
            let consumed: u64 = cells
                .iter()
                .enumerate()
                .map(|(i, &c)| (base + i as u64) * c)
                .sum();
            assert_eq!(consumed, 1 << 27);
        }
        // A capped round at the same scale: one class, the whole
        // intake, threshold 2 — the shape that stalled the capped walk.
        let mut hist = OccupancyHistogram::new(1 << 27);
        let mut rng = SplitMix64::new(7);
        let n = 1u64 << 27;
        let stats = place_histogram_below(&mut hist, Some(2), n, &mut rng);
        hist.check_invariants();
        assert_eq!(total_balls(&hist), n);
        assert!(stats.samples >= n);
    }

    #[test]
    fn stream_samples_small_and_large_regimes_agree_on_mean() {
        // p = 1/4 ⇒ mean samples per hit is 4. The small count sits at
        // the exact-summation ceiling, the large one far above it.
        let small_hits = SAMPLES_EXACT_CUTOFF;
        let mut rng = SplitMix64::new(7);
        let small: f64 = (0..200)
            .map(|_| round_samples(small_hits, 0.25, &mut rng) as f64)
            .sum::<f64>()
            / 200.0;
        let large: f64 = (0..200)
            .map(|_| round_samples(100_000, 0.25, &mut rng) as f64)
            .sum::<f64>()
            / 200.0;
        assert!(
            (small / small_hits as f64 - 4.0).abs() < 0.2,
            "small-regime mean {small}"
        );
        assert!(
            (large / 100_000.0 - 4.0).abs() < 0.02,
            "large-regime mean {large}"
        );
        assert_eq!(round_samples(0, 0.5, &mut rng), 0);
        assert_eq!(round_samples(9, 1.0, &mut rng), 9);
    }
}
