//! Property-based tests for generators and samplers.

use bib_rng::dist::{AliasTable, BinomialSampler, Distribution, GeometricSampler, Zipf};
use bib_rng::{Pcg32, Rng64, RngExt, SeedSequence, SplitMix64, Xoshiro256PlusPlus};
use proptest::prelude::*;

proptest! {
    /// range_u64 stays in range for arbitrary n and seeds.
    #[test]
    fn range_u64_in_bounds(seed in any::<u64>(), n in 1u64..u64::MAX) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(rng.range_u64(n) < n);
        }
    }

    /// next_f64 stays in [0, 1) for all generators.
    #[test]
    fn f64_unit_interval(seed in any::<u64>()) {
        let mut a = SplitMix64::new(seed);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut c = Pcg32::new(seed, seed ^ 0x5bd1e995);
        for _ in 0..16 {
            for x in [a.next_f64(), b.next_f64(), c.next_f64()] {
                prop_assert!((0.0..1.0).contains(&x));
            }
        }
    }

    /// Generators are pure state machines: clone ⇒ identical streams.
    #[test]
    fn clone_determinism(seed in any::<u64>()) {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut b = a;
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Shuffle always yields a permutation.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), len in 0usize..128) {
        let mut rng = SplitMix64::new(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    /// sample_distinct returns exactly k distinct in-range values.
    #[test]
    fn sample_distinct_contract(seed in any::<u64>(), n in 1usize..100, k_frac in 0.0f64..=1.0) {
        let k = ((n as f64) * k_frac) as usize;
        let mut rng = SplitMix64::new(seed);
        let s = rng.sample_distinct(n, k);
        prop_assert_eq!(s.len(), k);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        prop_assert_eq!(t.len(), k);
        prop_assert!(s.iter().all(|&x| x < n));
    }

    /// SeedSequence children never collide with each other or the parent
    /// on small label sets (collision = broken derivation).
    #[test]
    fn seed_children_distinct(master in any::<u64>(), labels in prop::collection::btree_set(0u64..10_000, 2..50)) {
        let root = SeedSequence::new(master);
        let mut seeds: Vec<u64> = labels.iter().map(|&l| root.child(l).seed()).collect();
        seeds.push(root.seed());
        let before = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), before);
    }

    /// Geometric samples are ≥ 1 and have plausible magnitude.
    #[test]
    fn geometric_support(seed in any::<u64>(), p in 0.01f64..=1.0) {
        let d = GeometricSampler::new(p);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let k = d.sample(&mut rng);
            prop_assert!(k >= 1);
            // 64-sigma-ish cap: Pr[k > 50/p] < (1-p)^{50/p} ≈ e^{-50}.
            prop_assert!((k as f64) <= 60.0 / p + 10.0);
        }
    }

    /// Binomial samples stay within the support for arbitrary (n, p).
    #[test]
    fn binomial_support(seed in any::<u64>(), n in 0u64..5000, p in 0.0f64..=1.0) {
        let d = BinomialSampler::new(n, p);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..16 {
            prop_assert!(d.sample(&mut rng) <= n);
        }
    }

    /// Alias tables: sampling respects zero weights and support bounds;
    /// pmf is a probability vector.
    #[test]
    fn alias_table_contract(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..40),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let t = AliasTable::new(&weights);
        let total_pmf: f64 = (0..t.len()).map(|i| t.pmf(i)).sum();
        prop_assert!((total_pmf - 1.0).abs() < 1e-9);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..64 {
            let s = t.sample(&mut rng);
            prop_assert!(s < weights.len());
            prop_assert!(weights[s] > 0.0, "sampled zero-weight cell {s}");
        }
    }

    /// Zipf pmf is monotone non-increasing and sampling is in-support.
    #[test]
    fn zipf_contract(seed in any::<u64>(), n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        for k in 1..n {
            prop_assert!(z.pmf(k) >= z.pmf(k + 1) - 1e-12);
        }
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    /// Lemire range sampling is *unbiased*: for tiny ranges, compare the
    /// exact per-value counts of a fixed generator against the naive
    /// (biased) modulo method to ensure we did not implement modulo.
    #[test]
    fn lemire_differs_from_modulo_only_in_distribution(seed in any::<u64>(), n in 1u64..32) {
        // Functional sanity rather than statistics: the method must use
        // the high-bits product, so for n = 1 it returns 0 regardless of
        // the word, and for n = 2 it returns the top bit.
        let mut rng = SplitMix64::new(seed);
        prop_assert_eq!(rng.range_u64(1), 0);
        let mut rng2 = SplitMix64::new(seed);
        let word = rng2.next_u64();
        let mut rng3 = SplitMix64::new(seed);
        if n == 2 {
            prop_assert_eq!(rng3.range_u64(2), word >> 63);
        }
    }
}

proptest! {
    /// Mode-centred inversion at the p → 0 edge with n up to 10⁹: the
    /// sample mean must sit within normal-theory bounds of n·p and the
    /// sample variance within a generous window of n·p·(1−p). The mean
    /// is kept moderate so the mode-centred path (flipped mean > 32) is
    /// the one exercised while draws stay O(√mean).
    #[test]
    fn binomial_mode_inversion_small_p_edge(
        seed in any::<u64>(),
        n in 1_000_000u64..=1_000_000_000,
        mean in 40.0f64..400.0,
    ) {
        let p = mean / n as f64; // p as small as 4e-8
        let d = BinomialSampler::new(n, p);
        let mut rng = SplitMix64::new(seed);
        let reps = 300u64;
        let xs: Vec<f64> = (0..reps).map(|_| d.sample(&mut rng) as f64).collect();
        let m = xs.iter().sum::<f64>() / reps as f64;
        let var_true = n as f64 * p * (1.0 - p);
        let sd_of_mean = (var_true / reps as f64).sqrt();
        prop_assert!((m - mean).abs() < 5.0 * sd_of_mean,
            "n={n} p={p}: mean {m} vs {mean} (tol {})", 5.0 * sd_of_mean);
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (reps - 1) as f64;
        // Sample variance of 300 draws has ~8% relative sd; allow 5σ.
        prop_assert!(v > 0.55 * var_true && v < 1.6 * var_true,
            "n={n} p={p}: var {v} vs {var_true}");
        prop_assert!(xs.iter().all(|&x| x >= 0.0 && x <= n as f64));
    }

    /// The mirrored p → 1 edge: draws concentrate at n − O(mean of the
    /// flipped tail), and the flip keeps mean and variance exact.
    #[test]
    fn binomial_mode_inversion_large_p_edge(
        seed in any::<u64>(),
        n in 1_000_000u64..=1_000_000_000,
        flipped_mean in 40.0f64..400.0,
    ) {
        let p = 1.0 - flipped_mean / n as f64;
        let d = BinomialSampler::new(n, p);
        let mut rng = SplitMix64::new(seed);
        let reps = 300u64;
        let xs: Vec<f64> = (0..reps).map(|_| (n - d.sample(&mut rng)) as f64).collect();
        let m = xs.iter().sum::<f64>() / reps as f64;
        let var_true = n as f64 * p * (1.0 - p);
        let sd_of_mean = (var_true / reps as f64).sqrt();
        prop_assert!((m - flipped_mean).abs() < 5.0 * sd_of_mean,
            "n={n} p={p}: flipped mean {m} vs {flipped_mean}");
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (reps - 1) as f64;
        prop_assert!(v > 0.55 * var_true && v < 1.6 * var_true,
            "n={n} p={p}: var {v} vs {var_true}");
    }

    /// The two exact inversion paths sample the *same* distribution on
    /// the from-zero path's domain (`n·q ≤ 32`, where `(1−q)^n` cannot
    /// underflow — beyond it only the mode-centred path is valid, which
    /// is exactly how `sample` routes): their ensemble means must agree
    /// within two-sample normal bounds.
    #[test]
    fn binomial_inversion_paths_agree(
        seed in any::<u64>(),
        n in 100u64..2000,
        mean in 2.0f64..=32.0,
    ) {
        let q = (mean / n as f64).min(0.45);
        let reps = 400u64;
        let mut rng = SplitMix64::new(seed);
        let from_zero: f64 = (0..reps)
            .map(|_| BinomialSampler::sample_inversion(n, q, &mut rng) as f64)
            .sum::<f64>() / reps as f64;
        let from_mode: f64 = (0..reps)
            .map(|_| BinomialSampler::sample_mode_inversion(n, q, &mut rng) as f64)
            .sum::<f64>() / reps as f64;
        let sd_of_diff = (2.0 * n as f64 * q * (1.0 - q) / reps as f64).sqrt();
        prop_assert!((from_zero - from_mode).abs() < 5.0 * sd_of_diff,
            "n={n} q={q}: from-zero {from_zero} vs mode-centred {from_mode}");
    }

    /// Degenerate tails at huge n: a vanishing p yields a near-Poisson
    /// count that must stay tiny, and the sampler must not loop or
    /// overflow anywhere on the support.
    #[test]
    fn binomial_vanishing_p_stays_poisson_sized(seed in any::<u64>()) {
        let n = 1_000_000_000u64;
        let d = BinomialSampler::new(n, 3e-9); // mean 3
        let mut rng = SplitMix64::new(seed);
        let mut total = 0u64;
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            prop_assert!(x <= 60, "mean-3 draw produced {x}");
            total += x;
        }
        // 200 draws of mean 3: total within ±6σ = ±147.
        prop_assert!((total as i64 - 600).unsigned_abs() < 150, "total {total}");
    }
}

/// The words `fill_u64` writes for `len` words, drawn through `rng`,
/// followed by the next word after the block (which pins where the
/// generator was left).
fn filled<R: Rng64 + ?Sized>(rng: &mut R, len: usize) -> (Vec<u64>, u64) {
    let mut words = vec![0u64; len];
    rng.fill_u64(&mut words);
    (words, rng.next_u64())
}

/// The same count of words drawn one `next_u64` at a time.
fn stepped<R: Rng64>(mut rng: R, len: usize) -> (Vec<u64>, u64) {
    let words = (0..len).map(|_| rng.next_u64()).collect();
    (words, rng.next_u64())
}

/// `fill_u64` through `&mut R`, `&mut dyn Rng64` and `&mut &mut R`
/// must each replay the `next_u64` stream.
fn assert_fill_matches<R: Rng64 + Clone>(rng: R, len: usize) {
    let want = stepped(rng.clone(), len);
    let mut direct = rng.clone();
    assert_eq!(filled(&mut direct, len), want, "direct");
    let mut erased = rng.clone();
    let dynamic: &mut dyn Rng64 = &mut erased;
    assert_eq!(filled(dynamic, len), want, "&mut dyn Rng64");
    let mut inner = rng;
    let mut outer = &mut inner;
    assert_eq!(filled(&mut outer, len), want, "&mut &mut R");
}

proptest! {
    /// `fill_u64` returns exactly the words of repeated `next_u64`, for
    /// every generator family and every call path.
    #[test]
    fn fill_u64_replays_next_u64(seed in any::<u64>(), len in 0usize..600) {
        assert_fill_matches(Xoshiro256PlusPlus::seed_from_u64(seed), len);
        assert_fill_matches(Pcg32::new(seed, seed ^ 0x5bd1e995), len);
        assert_fill_matches(SplitMix64::new(seed), len);
    }
}
