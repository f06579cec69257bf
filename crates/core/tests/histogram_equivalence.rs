//! Distributional equivalence of the occupancy-histogram engine.
//!
//! The claim (see `bib-core::histogram`): `Engine::Histogram` induces
//! the same distribution on final load vectors as `Engine::Faithful`
//! for every protocol it accepts — `threshold` (and slack variants),
//! `adaptive` (and its batched/tight variants), `one-choice` and
//! `greedy[d]` — with the large-class occupancy splits being
//! moment-exact approximations whose error these tests bound. Checked
//! four ways:
//!
//! * exact small cases — `n = 1` (deterministic), the degenerate
//!   stages of `adaptive-tight` (deterministic), and sure invariants
//!   (mass, the `⌈m/n⌉+1` bound) across sizes including ones that
//!   engage every scatter path;
//! * two-sample chi-square tests on final-load functionals between
//!   faithful and histogram replicate ensembles, at small sizes (where
//!   the engine is exact) *and* at sizes that exercise the
//!   normal-approximated splits and the occupancy-cell walk;
//! * allocation-time tracking against the faithful engine's exact
//!   accounting;
//! * `Engine::Auto` resolution: deterministic, valid, and identical to
//!   the concrete engine it resolves to.

use bib_analysis::chisq::chi_square_sf;
use bib_core::prelude::*;
use bib_core::run::run_protocol;

/// Two-sample Pearson chi-square on a pair of histograms with pooling
/// of sparse cells; returns the p-value of "same distribution".
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

/// Offset of an engine's replicate seeds, in units of 10⁶. Pinned per
/// engine (not derived from the enum's discriminant) so that the
/// ensembles — and the p-values asserted on them — stay put when
/// `Engine`'s variant list changes.
fn seed_space(engine: Engine) -> u64 {
    match engine {
        Engine::Faithful => 0,
        Engine::Histogram => 3,
        other => panic!("no seed space for {other:?}"),
    }
}

/// Histograms a per-outcome statistic over replicate ensembles of the
/// faithful and histogram engines.
fn engine_histograms<P, F>(
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
    let mut hists = Vec::new();
    for engine in [Engine::Faithful, Engine::Histogram] {
        let cfg = RunConfig::new(n, m).with_engine(engine);
        let mut h = vec![0u64; cells];
        for rep in 0..reps {
            // Distinct seed spaces per engine: the comparison is
            // distributional, not stream-coupled.
            let seed = rep + seed_space(engine) * 1_000_000;
            let out = run_protocol(proto, &cfg, seed);
            out.validate();
            let idx = stat(&out).min(cells - 1);
            h[idx] += 1;
        }
        hists.push(h);
    }
    let b = hists.pop().unwrap();
    let a = hists.pop().unwrap();
    (a, b)
}

#[test]
fn single_bin_is_deterministic_and_exact() {
    for m in [0u64, 1, 37, 1000] {
        let cfg = RunConfig::new(1, m).with_engine(Engine::Histogram);
        let out = run_protocol(&Threshold, &cfg, 5);
        out.validate();
        assert_eq!(out.loads, vec![m as u32]);
        assert_eq!(out.total_samples, m, "single bin wastes no samples");
        let out = run_protocol(&Adaptive::paper(), &cfg, 5);
        assert_eq!(out.loads, vec![m as u32]);
        let out = run_protocol(&OneChoice, &cfg, 5);
        assert_eq!(out.loads, vec![m as u32]);
        assert_eq!(out.total_samples, m);
        let out = run_protocol(&GreedyD::new(2), &cfg, 5);
        assert_eq!(out.loads, vec![m as u32]);
        assert_eq!(out.total_samples, 2 * m, "greedy[d] costs exactly d·m");
    }
}

#[test]
fn degenerate_tight_stages_are_exact() {
    // adaptive-tight's stage τ accepts only load < τ: every stage fills
    // every bin exactly once, deterministically.
    for n in [2usize, 8, 64, 256] {
        for phi in [1u64, 3] {
            let m = phi * n as u64;
            let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
            let out = run_protocol(&Adaptive::tight(), &cfg, 7);
            out.validate();
            assert_eq!(out.loads, vec![phi as u32; n], "n={n} phi={phi}");
            assert_eq!(out.gap(), 0);
        }
    }
}

#[test]
fn invariants_hold_across_sizes_and_protocols() {
    // Sure properties on every run, at sizes spanning the exact per-bin
    // chain (n ≤ 64), the per-hit walk, and the occupancy-cell walk
    // with normal-approximated splits (n = 512, m ≫ n).
    use bib_core::batched::BatchedAdaptive;
    use bib_core::protocols::ThresholdSlack;
    for n in [1usize, 2, 8, 64, 512] {
        for m in [0u64, 1, 7, 64, 4096, 64 * 512] {
            let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
            for seed in 0..3u64 {
                let thr = run_protocol(&Threshold, &cfg, seed);
                thr.validate();
                assert!(thr.max_load() as u64 <= cfg.max_load_bound(), "n={n} m={m}");
                let ada = run_protocol(&Adaptive::paper(), &cfg, seed);
                ada.validate();
                assert!(ada.max_load() as u64 <= cfg.max_load_bound(), "n={n} m={m}");
                let slk = run_protocol(&ThresholdSlack::new(3), &cfg, seed);
                slk.validate();
                let one = run_protocol(&OneChoice, &cfg, seed);
                one.validate();
                assert_eq!(one.total_samples, m);
                let grd = run_protocol(&GreedyD::new(2), &cfg, seed);
                grd.validate();
                assert_eq!(grd.total_samples, 2 * m);
                if n > 1 {
                    let bat = run_protocol(&BatchedAdaptive::new(n as u64 / 2 + 1), &cfg, seed);
                    bat.validate();
                    assert!(bat.max_load() as u64 <= cfg.max_load_bound());
                }
            }
        }
    }
}

#[test]
fn chi_square_bin0_load_small_cases() {
    // Tiny runs: every scatter path is exact here, so these pin the
    // collapsed chain itself (class selection, tail, reconstruction).
    let (a, b) = engine_histograms(&Threshold, 2, 4, 4000, 4, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(
        p > 1e-4,
        "threshold n=2 m=4 bin-0 load: p={p}\n{a:?}\n{b:?}"
    );

    let (a, b) = engine_histograms(&Adaptive::paper(), 2, 5, 4000, 4, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "adaptive n=2 m=5 bin-0 load: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&OneChoice, 4, 12, 4000, 8, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(
        p > 1e-4,
        "one-choice n=4 m=12 bin-0 load: p={p}\n{a:?}\n{b:?}"
    );

    let (a, b) = engine_histograms(&GreedyD::new(2), 4, 12, 4000, 8, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(
        p > 1e-4,
        "greedy[2] n=4 m=12 bin-0 load: p={p}\n{a:?}\n{b:?}"
    );
}

#[test]
fn chi_square_gap_matches_faithful_n8() {
    let (a, b) = engine_histograms(&Threshold, 8, 64, 3000, 8, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "threshold n=8 gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&Adaptive::paper(), 8, 60, 3000, 8, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "adaptive n=8 m=60 gap: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn chi_square_heavy_load_regime() {
    // m ≫ n engages the rounds with normal-approximated splits.
    let (a, b) = engine_histograms(&Threshold, 8, 8 * 1024, 1500, 8, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "threshold n=8 heavy gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&Adaptive::paper(), 8, 8 * 1024, 1500, 8, |o| {
        o.gap() as usize
    });
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "adaptive n=8 heavy gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&Threshold, 64, 64 * 256, 800, 10, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "threshold n=64 heavy gap: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn chi_square_occupancy_walk_regime() {
    // n = 256: classes are large enough that the occupancy-cell walk
    // and the rounded-normal split draws carry the run — the paths
    // whose approximation error these ensembles bound.
    let (a, b) = engine_histograms(&Threshold, 256, 256 * 64, 600, 10, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "threshold n=256 heavy gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&Adaptive::paper(), 256, 256 * 64, 600, 10, |o| {
        o.gap() as usize
    });
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "adaptive n=256 heavy gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&OneChoice, 256, 256 * 16, 600, 24, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "one-choice n=256 gap: p={p}\n{a:?}\n{b:?}");

    // greedy's histogram chain is exact at every size; this pins the
    // rank-to-class mapping at a size where classes shift quickly.
    let (a, b) = engine_histograms(&GreedyD::new(2), 256, 256 * 16, 600, 8, |o| {
        o.gap() as usize
    });
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "greedy[2] n=256 gap: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn chi_square_max_load_one_choice() {
    // Max load reads the histogram's upper tail — the statistic most
    // sensitive to occupancy-split errors.
    let (a, b) = engine_histograms(&OneChoice, 128, 128 * 8, 1200, 12, |o| {
        (o.max_load() as usize).saturating_sub(8)
    });
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "one-choice n=128 max load: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn histogram_is_deterministic_per_seed() {
    for proto in [
        "threshold",
        "adaptive",
        "adaptive-tight",
        "one-choice",
        "greedy[2]",
    ] {
        let cfg = RunConfig::new(64, 64 * 100).with_engine(Engine::Histogram);
        let p = bib_core::protocols::by_name(proto).unwrap();
        let x = run_protocol(p.as_ref(), &cfg, 11);
        let y = run_protocol(p.as_ref(), &cfg, 11);
        assert_eq!(x, y, "{proto}");
    }
}

#[test]
fn allocation_time_tracks_faithful_engine() {
    // total_samples under Histogram mixes CLT round draws with exact
    // tail geometrics; the ensemble mean must track the faithful
    // engine's exact per-ball accounting to a couple of percent.
    let n = 64usize;
    let m = 64u64 * 64;
    let reps = 200u64;
    for proto in [&Threshold as &dyn DynProtocol, &Adaptive::paper()] {
        let mean_ratio = |engine: Engine| -> f64 {
            let cfg = RunConfig::new(n, m).with_engine(engine);
            (0..reps)
                .map(|s| run_protocol(proto, &cfg, s).time_ratio())
                .sum::<f64>()
                / reps as f64
        };
        let faithful = mean_ratio(Engine::Faithful);
        let hist = mean_ratio(Engine::Histogram);
        assert!(
            (faithful - hist).abs() < 0.03 * faithful,
            "{}: mean T/m faithful {faithful} vs histogram {hist}",
            proto.dyn_name()
        );
        assert!(hist >= 1.0);
    }
}

#[test]
fn greedy_heavy_case_is_feasible_and_sane() {
    // The acceptance regime in miniature: greedy[2] at n = 2048,
    // m = 512·n (the full n = 10⁴, m = n² run lives in bench_json and
    // the criterion heavy gate). Power of two choices: the gap stays
    // within a few levels of m/n even at heavy load.
    let n = 2048usize;
    let cfg = RunConfig::new(n, 512 * n as u64).with_engine(Engine::Histogram);
    let out = run_protocol(&GreedyD::new(2), &cfg, 3);
    out.validate();
    assert_eq!(out.total_samples, 2 * cfg.m);
    assert!(out.gap() <= 12, "greedy[2] heavy gap {}", out.gap());
}

#[test]
fn auto_resolves_to_a_concrete_engine_stream() {
    // Auto must behave exactly like the concrete engine it resolves to
    // (same rng stream, same outcome) and stay valid across regimes.
    for (n, m) in [(16usize, 64u64), (64, 64 * 600), (512, 512 * 40)] {
        let auto_cfg = RunConfig::new(n, m).with_engine(Engine::Auto);
        for proto in ["threshold", "adaptive", "one-choice", "greedy[2]"] {
            let p = bib_core::protocols::by_name(proto).unwrap();
            let out = run_protocol(p.as_ref(), &auto_cfg, 9);
            out.validate();
            let matched = Engine::ALL.iter().any(|&engine| {
                let cfg = RunConfig::new(n, m).with_engine(engine);
                run_protocol(p.as_ref(), &cfg, 9) == out
            });
            assert!(
                matched,
                "{proto} n={n} m={m}: Auto matches no concrete engine"
            );
        }
    }
}

#[test]
fn stage_traces_fire_like_sequential_engines() {
    use bib_core::protocol::StageTrace;
    use bib_core::run::run_with_observer;
    let cfg = RunConfig::new(32, 32 * 7 + 5).with_engine(Engine::Histogram);
    let mut trace = StageTrace::new();
    let out = run_with_observer(&Adaptive::paper(), &cfg, 3, &mut trace);
    out.validate();
    // 7 full stages plus the remainder stage.
    assert_eq!(trace.stages, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    assert!(trace.psi.iter().all(|&p| p.is_finite() && p >= 0.0));
    // The trace's final gap must match the outcome's (same assignment
    // permutation throughout).
    assert_eq!(*trace.gaps.last().unwrap(), out.gap());
}

/// An rng that counts the words drawn through it.
struct CountingRng {
    inner: bib_rng::SplitMix64,
    words: u64,
}

impl bib_rng::Rng64 for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

#[test]
fn least_of_d_lane_rejection_keeps_the_exact_law() {
    // n = 3·2³⁰: 2³² mod n = 2³⁰, so a quarter of the 32-bit lanes are
    // rejected and redrawn. From three equal classes, greedy[2] lands
    // in the lowest with probability 1 − (2/3)² = 5/9, the middle with
    // 3/9 and the top with 1/9 (10⁵ balls move the class sizes by
    // < 10⁻⁴, far below the test's resolution).
    use bib_analysis::chisq::chi_square_gof;
    use bib_core::histogram::{place_least_of_d, OccupancyHistogram};
    let third = 1u64 << 30;
    let mut hist = OccupancyHistogram::new(3 * third as usize);
    hist.promote(0, 2 * third, 1);
    hist.promote(1, third, 1);
    let balls = 100_000u64;
    let mut rng = CountingRng {
        inner: bib_rng::SplitMix64::new(12),
        words: 0,
    };
    let stats = place_least_of_d(&mut hist, 2, balls, &mut rng);
    assert_eq!(stats.samples, 2 * balls);
    hist.check_invariants();
    assert_eq!(hist.max_load(), 3);
    // Two lanes per word, a quarter of them redrawn: about 1.33·10⁵
    // words, against exactly 10⁵ with no rejection.
    assert!(
        rng.words > balls + balls / 5,
        "only {} words drawn: the rejection path did not run",
        rng.words
    );
    // Landing counts from the final classes: every ball that left a
    // class moved exactly one level up.
    let top = hist.count(3);
    let middle = top + hist.count(2) - third;
    let low = third - hist.count(0);
    assert_eq!(low + middle + top, balls);
    let landed = [low, middle, top];
    let chi = chi_square_gof(&landed, &[5.0 / 9.0, 3.0 / 9.0, 1.0 / 9.0], 0, 5.0);
    assert!(chi.p_value > 1e-4, "landing counts {landed:?}: {chi:?}");
}

#[test]
fn greedy_kernel_matches_exact_enumeration_n3_m6() {
    // The exact law of greedy[2]'s final sorted load vector at n = 3,
    // m = 6, by dynamic programming over sorted states: the least
    // loaded of two uniform samples is sorted position k with
    // probability ((3−k)² − (2−k)²)/9 = 5/9, 3/9, 1/9.
    use bib_analysis::chisq::chi_square_gof;
    use bib_core::histogram::{place_least_of_d, OccupancyHistogram};
    use std::collections::BTreeMap;
    let (n, m) = (3usize, 6u64);
    let pos = [5.0 / 9.0, 3.0 / 9.0, 1.0 / 9.0];
    let mut law: BTreeMap<Vec<u32>, f64> = BTreeMap::from([(vec![0; n], 1.0)]);
    for _ in 0..m {
        let mut next = BTreeMap::new();
        for (state, p) in &law {
            for (k, q) in pos.iter().enumerate() {
                let mut s = state.clone();
                s[k] += 1;
                s.sort_unstable();
                *next.entry(s).or_insert(0.0) += p * q;
            }
        }
        law = next;
    }
    assert!((law.values().sum::<f64>() - 1.0).abs() < 1e-12);

    let reps = 40_000u64;
    let mut observed: BTreeMap<Vec<u32>, u64> = law.keys().map(|s| (s.clone(), 0)).collect();
    let mut rng = bib_rng::SplitMix64::new(2013);
    for _ in 0..reps {
        let mut hist = OccupancyHistogram::new(n);
        place_least_of_d(&mut hist, 2, m, &mut rng);
        *observed
            .get_mut(&hist.to_sorted_loads())
            .expect("the kernel reached a state the exact law gives probability 0") += 1;
    }
    let counts: Vec<u64> = observed.values().copied().collect();
    let probs: Vec<f64> = law.values().copied().collect();
    let chi = chi_square_gof(&counts, &probs, 0, 5.0);
    assert!(chi.p_value > 1e-4, "{chi:?}\n{observed:?}\n{law:?}");
}

/// The exact law of the occupancy profile of `hits` uniform throws on
/// `bins` bins, keyed by the profile's nonzero multiplicities in
/// descending order (an integer partition of `hits` into at most
/// `bins` parts): `P = bins!/∏ c_j! · hits!/∏ x_i! · bins^−hits`, where
/// `c_j` counts the bins holding `j` throws (zeros included) and `x_i`
/// runs over the parts.
fn occupancy_law(bins: u64, hits: u64) -> std::collections::BTreeMap<Vec<u64>, f64> {
    fn parts(left: u64, max: u64, slots: u64, cur: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
        if left == 0 {
            out.push(cur.clone());
            return;
        }
        if slots == 0 {
            return;
        }
        for x in (1..=max.min(left)).rev() {
            cur.push(x);
            parts(left - x, x, slots - 1, cur, out);
            cur.pop();
        }
    }
    let mut ln_fact = vec![0.0f64; (bins.max(hits) + 1) as usize];
    for i in 1..ln_fact.len() {
        ln_fact[i] = ln_fact[i - 1] + (i as f64).ln();
    }
    let mut all = Vec::new();
    parts(hits, hits, bins, &mut Vec::new(), &mut all);
    all.into_iter()
        .map(|p| {
            let mut c = std::collections::BTreeMap::new();
            *c.entry(0u64).or_insert(0u64) += bins - p.len() as u64;
            for &x in &p {
                *c.entry(x).or_insert(0) += 1;
            }
            let ln_p = ln_fact[bins as usize]
                - c.values().map(|&k| ln_fact[k as usize]).sum::<f64>()
                + ln_fact[hits as usize]
                - p.iter().map(|&x| ln_fact[x as usize]).sum::<f64>()
                - hits as f64 * (bins as f64).ln();
            (p, ln_p.exp())
        })
        .collect()
}

#[test]
fn occupancy_profile_matches_the_exact_multinomial_law() {
    // The profile's exact regimes against the enumerated law: the
    // per-bin chain (bins ≤ 64, hits > 64 — the regime the parallel
    // round engines reach too) and the per-hit walk (hits ≤ 64).
    use bib_analysis::chisq::chi_square_gof;
    use bib_core::histogram::occupancy_profile;
    for (bins, hits) in [(3u64, 70u64), (200, 40)] {
        let law = occupancy_law(bins, hits);
        assert!((law.values().sum::<f64>() - 1.0).abs() < 1e-9);
        let reps = 20_000u64;
        let mut observed: std::collections::BTreeMap<Vec<u64>, u64> =
            law.keys().map(|p| (p.clone(), 0)).collect();
        let mut rng = bib_rng::SplitMix64::new(bins * 1000 + hits);
        let mut cells = Vec::new();
        for _ in 0..reps {
            let base = occupancy_profile(bins, hits, &mut cells, &mut rng);
            assert_eq!(cells.iter().sum::<u64>(), bins);
            let mut key: Vec<u64> = (base..)
                .zip(cells.iter())
                .filter(|&(j, _)| j > 0)
                .flat_map(|(j, &c)| std::iter::repeat_n(j, c as usize))
                .collect();
            key.sort_unstable_by(|a, b| b.cmp(a));
            *observed
                .get_mut(&key)
                .expect("the profile is a partition of the hits") += 1;
        }
        let counts: Vec<u64> = observed.values().copied().collect();
        let probs: Vec<f64> = law.values().copied().collect();
        let chi = chi_square_gof(&counts, &probs, 0, 5.0);
        assert!(chi.p_value > 1e-4, "bins={bins} hits={hits}: {chi:?}");
    }
}

#[test]
fn occupancy_walk_cells_sit_at_exact_marginals() {
    // Above both exact thresholds the profile is a Poisson walk plus a
    // drift repair; every expected cell count must still be the exact
    // `bins · P(Bin(hits, 1/bins) = j)`. A repair that nudges uniformly
    // chosen bins down instead of uniformly chosen hits left N₀ about
    // 7% high at (126, 300) — the overflow bias behind the histogram
    // engine's allocation-time excess.
    use bib_core::histogram::occupancy_profile;
    for (bins, hits) in [(126u64, 300u64), (1000, 5000)] {
        let reps = 20_000u64;
        let mut sum = vec![0u64; 64];
        let mut rng = bib_rng::SplitMix64::new(bins + hits);
        let mut cells = Vec::new();
        for _ in 0..reps {
            let base = occupancy_profile(bins, hits, &mut cells, &mut rng);
            for (j, &c) in (base..).zip(cells.iter()) {
                sum[(j as usize).min(63)] += c;
            }
        }
        let p = 1.0 / bins as f64;
        let mut ln_pmf = hits as f64 * (-p).ln_1p();
        for (j, &s) in sum.iter().enumerate().take(63) {
            let exact = bins as f64 * ln_pmf.exp();
            let mean = s as f64 / reps as f64;
            let se = (exact / reps as f64).sqrt();
            assert!(
                (mean - exact).abs() < 5.0 * se + 1e-3,
                "bins={bins} hits={hits} j={j}: mean {mean:.4} vs exact {exact:.4}"
            );
            ln_pmf += ((hits - j as u64) as f64 / (j + 1) as f64 * p / (1.0 - p)).ln();
        }
    }
}
