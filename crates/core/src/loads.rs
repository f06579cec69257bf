//! The lazy load vector: histogram-first outcomes.
//!
//! Every statistic the paper tracks — max load, gap, Ψ, Φ, overloads —
//! is a function of the *occupancy histogram* `counts[ℓ]`, not of which
//! bin carries which load. The statistical license is exchangeability:
//! the faithful processes are invariant under bin relabelling, so a
//! uniformly seeded assignment of occupancy classes to bin identities
//! has the correct joint law. [`Loads`] exploits that by carrying the
//! histogram (plus a reconstruction seed) as the primary result and
//! materializing the dense per-bin vector only when a caller actually
//! demands bin identities — through [`Loads::as_slice`], the `Deref`
//! impl, indexing, or iteration. The first materialization is cached,
//! so repeated access costs one reconstruction, and the reconstruction
//! itself is a pure function of the stored seed: *when* (or whether)
//! it happens never changes the resulting vector.
//!
//! Outcomes born from a dense driver (the faithful per-ball loop, the
//! weighted family whose per-bin weights pin bin identities) wrap their vector with [`Loads::from_vec`]; the
//! histogram view is then derived (and cached) on demand, so the
//! `O(#distinct loads)` statistics are equally available on both kinds.

use crate::histogram::{sharded_shuffled_loads, OccupancyHistogram, SHARD_MIN_BINS};
use bib_rng::SplitMix64;
use std::sync::OnceLock;

/// A load vector that may exist only as its occupancy histogram.
///
/// Exactly one of two birth states:
///
/// * **dense** ([`Loads::from_vec`]) — the per-bin vector is present
///   from the start; the histogram view is derived lazily.
/// * **virtual** ([`Loads::from_histogram`]) — only the histogram and
///   a reconstruction seed are stored (`O(#distinct loads)` memory);
///   the dense vector is reconstructed lazily by the uniform seeded
///   assignment [`OccupancyHistogram::shuffled_loads`] (sharded over
///   threads above [`SHARD_MIN_BINS`] bins) and cached.
///
/// Both lazy directions go through [`OnceLock`], so a `Loads` can be
/// shared across the replication worker threads.
#[derive(Clone)]
pub struct Loads {
    n: usize,
    /// The histogram + seed a virtual value reconstructs from. `None`
    /// for dense-born values (their histogram lives in `hist`).
    recon: Option<(OccupancyHistogram, u64)>,
    dense: OnceLock<Vec<u32>>,
    /// Cache for the histogram of a dense-born value.
    hist: OnceLock<OccupancyHistogram>,
}

impl Loads {
    /// Wraps an already-materialized per-bin vector.
    pub fn from_vec(loads: Vec<u32>) -> Self {
        let n = loads.len();
        Self {
            n,
            recon: None,
            dense: OnceLock::from(loads),
            hist: OnceLock::new(),
        }
    }

    /// A virtual load vector: the histogram is the result; `seed`
    /// determines the (lazy, cached) dense reconstruction.
    pub fn from_histogram(hist: OccupancyHistogram, seed: u64) -> Self {
        Self {
            n: hist.n() as usize,
            recon: Some((hist, seed)),
            dense: OnceLock::new(),
            hist: OnceLock::new(),
        }
    }

    /// Number of bins — never materializes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether there are no bins — never materializes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether the dense per-bin vector has been built (at birth or by
    /// a later accessor). The `--no-loads` sweeps assert this stays
    /// `false`.
    pub fn is_materialized(&self) -> bool {
        self.dense.get().is_some()
    }

    /// The occupancy histogram view — `O(#distinct loads)` for virtual
    /// values, one cached `O(n)` counting pass for dense-born ones.
    ///
    /// Panics on an empty vector (a histogram needs ≥ 1 bin).
    pub fn histogram(&self) -> &OccupancyHistogram {
        match &self.recon {
            Some((h, _)) => h,
            None => self.hist.get_or_init(|| {
                OccupancyHistogram::from_loads(
                    self.dense.get().expect("dense-born Loads missing vector"),
                )
            }),
        }
    }

    /// The dense per-bin vector, reconstructing (and caching) it on
    /// first demand. Reconstruction is deterministic in the stored
    /// seed: calling this earlier, later, twice, or from a clone always
    /// yields the same vector.
    pub fn as_slice(&self) -> &[u32] {
        self.dense.get_or_init(|| {
            let (hist, seed) = self
                .recon
                .as_ref()
                .expect("virtual Loads missing reconstruction state");
            let mut rng = SplitMix64::new(*seed);
            if hist.n() >= SHARD_MIN_BINS {
                sharded_shuffled_loads(hist, &mut rng)
            } else {
                hist.shuffled_loads(&mut rng)
            }
        })
    }

    /// An owned copy of the dense vector (materializes).
    pub fn to_vec(&self) -> Vec<u32> {
        self.as_slice().to_vec()
    }
}

impl std::ops::Deref for Loads {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl From<Vec<u32>> for Loads {
    fn from(loads: Vec<u32>) -> Self {
        Self::from_vec(loads)
    }
}

impl<'a> IntoIterator for &'a Loads {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Loads {
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        // Two virtual values with identical reconstruction state are
        // equal without materializing; anything else compares the
        // (cached) dense vectors.
        match (&self.recon, &other.recon) {
            (Some(a), Some(b)) if a == b => true,
            _ => self.as_slice() == other.as_slice(),
        }
    }
}

impl PartialEq<Vec<u32>> for Loads {
    fn eq(&self, other: &Vec<u32>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Loads> for Vec<u32> {
    fn eq(&self, other: &Loads) -> bool {
        other == self
    }
}

impl PartialEq<&[u32]> for Loads {
    fn eq(&self, other: &&[u32]) -> bool {
        self.as_slice() == *other
    }
}

impl std::fmt::Debug for Loads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.dense.get() {
            Some(v) => write!(f, "Loads({v:?})"),
            None => {
                let (h, seed) = self.recon.as_ref().expect("virtual Loads missing state");
                write!(
                    f,
                    "Loads(virtual, n={}, span=[{}, {}], seed={seed})",
                    self.n,
                    h.min_load(),
                    h.max_load()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hist() -> OccupancyHistogram {
        // 6 bins: loads {0:1, 1:2, 2:3}.
        OccupancyHistogram::from_loads(&[0, 1, 1, 2, 2, 2])
    }

    #[test]
    fn dense_born_round_trip() {
        let l = Loads::from_vec(vec![3, 1, 2]);
        assert!(l.is_materialized());
        assert_eq!(l.len(), 3);
        assert_eq!(l[0], 3);
        assert_eq!(l.iter().sum::<u32>(), 6);
        let h = l.histogram();
        assert_eq!(h.n(), 3);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.total_balls(), 6);
    }

    #[test]
    fn virtual_stays_virtual_until_asked() {
        let l = Loads::from_histogram(small_hist(), 7);
        assert!(!l.is_materialized());
        assert_eq!(l.len(), 6);
        // Histogram queries never materialize.
        assert_eq!(l.histogram().max_load(), 2);
        assert_eq!(l.histogram().total_balls(), 8);
        assert!(!l.is_materialized());
        // Slice access does.
        let sum: u32 = l.as_slice().iter().sum();
        assert_eq!(sum, 8);
        assert!(l.is_materialized());
    }

    #[test]
    fn materialize_twice_is_identity() {
        let l = Loads::from_histogram(small_hist(), 99);
        let first = l.to_vec();
        let second = l.to_vec();
        assert_eq!(first, second);
        // A clone taken before materialization reconstructs the same
        // vector from the stored seed.
        let fresh = Loads::from_histogram(small_hist(), 99);
        assert_eq!(fresh.to_vec(), first);
        // The reconstruction preserves the histogram.
        let mut sorted = first;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn equality_across_representations() {
        let a = Loads::from_histogram(small_hist(), 5);
        let b = Loads::from_histogram(small_hist(), 5);
        // Equal without materializing: same histogram, same seed.
        assert_eq!(a, b);
        assert!(!a.is_materialized() && !b.is_materialized());
        // Dense vs virtual compares contents.
        let dense = Loads::from_vec(a.to_vec());
        assert_eq!(dense, b);
        assert_eq!(dense, b.to_vec());
        // Different seeds almost surely differ as vectors but share the
        // histogram (6 bins, 3 classes — collision is possible, so only
        // check the histogram claim).
        let c = Loads::from_histogram(small_hist(), 6);
        assert_eq!(c.histogram(), b.histogram());
    }

    #[test]
    fn clone_of_materialized_keeps_vector() {
        let l = Loads::from_histogram(small_hist(), 13);
        let v = l.to_vec();
        let cl = l.clone();
        assert!(cl.is_materialized());
        assert_eq!(cl.as_slice(), &v[..]);
    }
}
