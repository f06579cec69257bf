//! xoshiro256++ and xoshiro256** — Blackman & Vigna's all-purpose
//! generators.
//!
//! 256 bits of state, period 2²⁵⁶ − 1, excellent statistical quality, and
//! `jump()` / `long_jump()` polynomial jumps for carving the sequence into
//! 2¹²⁸-long non-overlapping streams. The simulation crates default to
//! xoshiro256++.

use crate::{Rng64, SplitMix64};

/// Shared 4×u64 state core for the xoshiro256 family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State([u64; 4]);

impl State {
    fn from_seed_u64(seed: u64) -> Self {
        // Reference practice: seed the state from SplitMix64 so that even
        // seed 0 yields a good state (the all-zero state is forbidden).
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        debug_assert!(s.iter().any(|&w| w != 0));
        Self(s)
    }

    #[inline]
    fn advance(&mut self) {
        let s = &mut self.0;
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
    }

    /// Applies a polynomial jump described by `table` (the constants from
    /// the reference implementation).
    fn jump_with(&mut self, table: [u64; 4], mut step: impl FnMut(&mut Self)) {
        let mut acc = [0u64; 4];
        for word in table {
            for bit in 0..64 {
                if (word & (1u64 << bit)) != 0 {
                    for (a, s) in acc.iter_mut().zip(self.0.iter()) {
                        *a ^= s;
                    }
                }
                step(self);
            }
        }
        self.0 = acc;
    }
}

/// Polynomial of the 2¹²⁸-step jump (reference constants).
const JUMP: [u64; 4] = [
    0x180E_C6D3_3CFD_0ABA,
    0xD5A6_1266_F0C9_392C,
    0xA958_6F32_CE81_9089,
    0x39AB_DC45_29B1_661C,
];

/// Polynomial of the 2¹⁹²-step long jump (reference constants).
const LONG_JUMP: [u64; 4] = [
    0x7674_3594_7B27_C615,
    0x7712_5832_1E21_DBD0,
    0x8B11_6417_FDE8_0ED4,
    0x2338_2723_09CD_9A2E,
];

macro_rules! xoshiro_variant {
    ($(#[$doc:meta])* $name:ident, $output:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name {
            state: State,
        }

        impl $name {
            /// Builds a generator from a single `u64` seed by expanding it
            /// through SplitMix64 (the reference-recommended procedure).
            pub fn seed_from_u64(seed: u64) -> Self {
                Self { state: State::from_seed_u64(seed) }
            }

            /// Builds a generator from four explicit state words.
            ///
            /// Panics if all four words are zero (the one forbidden state).
            pub fn from_state(words: [u64; 4]) -> Self {
                assert!(
                    words.iter().any(|&w| w != 0),
                    "the all-zero state is invalid for xoshiro256"
                );
                Self { state: State(words) }
            }

            /// Returns the four state words (for checkpointing).
            pub fn state_words(&self) -> [u64; 4] {
                self.state.0
            }

            /// Advances the state by 2¹²⁸ steps. Starting from one seed,
            /// repeated `jump()`s give up to 2¹²⁸ non-overlapping
            /// subsequences for parallel replicates.
            pub fn jump(&mut self) {
                self.state.jump_with(JUMP, |s| s.advance());
            }

            /// Advances the state by 2¹⁹² steps, for spacing out groups of
            /// jumped streams.
            pub fn long_jump(&mut self) {
                self.state.jump_with(LONG_JUMP, |s| s.advance());
            }
        }

        impl Rng64 for $name {
            #[inline]
            fn next_u64(&mut self) -> u64 {
                let out = $output(&self.state.0);
                self.state.advance();
                out
            }
        }
    };
}

xoshiro_variant!(
    /// xoshiro256++: output `rotl(s0 + s3, 23) + s0`.
    ///
    /// The default generator for all simulations in this workspace.
    Xoshiro256PlusPlus,
    |s: &[u64; 4]| s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0])
);

xoshiro_variant!(
    /// xoshiro256**: output `rotl(s1 * 5, 7) * 9`.
    ///
    /// Provided as an alternative with a different output function, so
    /// experiments can demonstrate generator-independence of the results.
    Xoshiro256StarStar,
    |s: &[u64; 4]| s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9)
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngExt;

    /// Hand-computed first outputs for the trivially verifiable state
    /// [1, 0, 0, 0]:
    ///  - `++`: rotl(1+0, 23) + 1 = 2^23 + 1.
    ///  - `**`: rotl(0*5, 7) * 9 = 0.
    #[test]
    fn first_output_from_unit_state() {
        let mut pp = Xoshiro256PlusPlus::from_state([1, 0, 0, 0]);
        assert_eq!(pp.next_u64(), (1u64 << 23) + 1);
        let mut ss = Xoshiro256StarStar::from_state([1, 0, 0, 0]);
        assert_eq!(ss.next_u64(), 0);
    }

    /// The state transition is output-independent: both variants must walk
    /// through identical state sequences from the same start.
    #[test]
    fn variants_share_state_evolution() {
        let mut pp = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        let mut ss = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        for _ in 0..100 {
            pp.next_u64();
            ss.next_u64();
            assert_eq!(pp.state_words(), ss.state_words());
        }
    }

    /// Second output of `**` from state [_, 1, _, _] after one manual
    /// advance, checked against a by-hand state computation.
    #[test]
    fn manual_state_step() {
        // state = [1, 2, 3, 4]
        // t = 2 << 17 = 262144
        // s2 ^= s0 -> 3 ^ 1 = 2
        // s3 ^= s1 -> 4 ^ 2 = 6
        // s1 ^= s2 -> 2 ^ 2 = 0
        // s0 ^= s3 -> 1 ^ 6 = 7
        // s2 ^= t  -> 2 ^ 262144 = 262146
        // s3 = rotl(6, 45)
        let mut g = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        g.next_u64();
        assert_eq!(g.state_words(), [7, 0, 262146, 6u64.rotate_left(45)]);
    }

    #[test]
    #[should_panic]
    fn zero_state_rejected() {
        Xoshiro256PlusPlus::from_state([0, 0, 0, 0]);
    }

    #[test]
    fn seed_from_u64_matches_splitmix_expansion() {
        use crate::SplitMix64;
        let mut sm = SplitMix64::new(42);
        let words = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        let a = Xoshiro256PlusPlus::seed_from_u64(42);
        assert_eq!(a.state_words(), words);
    }

    #[test]
    fn jump_changes_state_and_streams_diverge() {
        let base = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut s1 = base;
        let mut s2 = base;
        s2.jump();
        assert_ne!(s1.state_words(), s2.state_words());
        // Streams should look unrelated: compare 1k outputs.
        let same = (0..1000).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn long_jump_differs_from_jump() {
        let base = Xoshiro256PlusPlus::seed_from_u64(9);
        let mut j = base;
        let mut lj = base;
        j.jump();
        lj.long_jump();
        assert_ne!(j.state_words(), lj.state_words());
    }

    #[test]
    fn jump_is_deterministic() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(1);
        a.jump();
        b.jump();
        assert_eq!(a.state_words(), b.state_words());
    }

    #[test]
    fn output_equidistribution_rough() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(123);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.range_usize(8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_500..10_500).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn starstar_uniformity_rough() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(321);
        let mut ones = 0u64;
        for _ in 0..10_000 {
            ones += rng.next_u64().count_ones() as u64;
        }
        let mean = ones as f64 / 10_000.0;
        assert!((31.0..33.0).contains(&mean), "mean popcount {mean}");
    }
}
