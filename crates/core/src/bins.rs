//! Plain load vector: the canonical representation of an allocation
//! state, `L^t = (L^t_1, …, L^t_n)` in the paper's notation.

/// The load of every bin plus the running ball count — the state every
/// per-ball driver places into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadVector {
    loads: Vec<u32>,
    total: u64,
}

impl LoadVector {
    /// `n` empty bins. Panics if `n == 0` — the process needs somewhere
    /// to put balls.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "LoadVector: need at least one bin");
        Self {
            loads: vec![0; n],
            total: 0,
        }
    }

    /// Reconstructs a state from explicit loads (used by tests and by the
    /// reallocation schemes that edit loads directly).
    pub fn from_loads(loads: Vec<u32>) -> Self {
        assert!(!loads.is_empty(), "LoadVector: need at least one bin");
        let total = loads.iter().map(|&l| l as u64).sum();
        Self { loads, total }
    }

    /// Number of bins `n`.
    pub fn n(&self) -> usize {
        self.loads.len()
    }

    /// Number of balls placed so far (`t` in the paper).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Load of bin `i`.
    #[inline]
    pub fn load(&self, i: usize) -> u32 {
        self.loads[i]
    }

    /// Adds one ball to bin `i`.
    #[inline]
    pub fn place(&mut self, i: usize) {
        self.loads[i] += 1;
        self.total += 1;
    }

    /// Removes one ball from bin `i` (reallocation schemes only).
    /// Panics if the bin is empty.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(self.loads[i] > 0, "remove from empty bin {i}");
        self.loads[i] -= 1;
        self.total -= 1;
    }

    /// Read-only view of the loads.
    pub fn as_slice(&self) -> &[u32] {
        &self.loads
    }

    /// Consumes into the raw load vector.
    pub fn into_loads(self) -> Vec<u32> {
        self.loads
    }

    /// Maximum load.
    pub fn max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Minimum load.
    pub fn min_load(&self) -> u32 {
        self.loads.iter().copied().min().unwrap_or(0)
    }

    /// Max−min load gap (the smoothness measure of Corollary 3.5 /
    /// Lemma 4.2).
    pub fn gap(&self) -> u32 {
        self.max_load() - self.min_load()
    }

    /// Number of bins with load strictly below `t` (linear scan).
    pub fn count_below(&self, t: u32) -> usize {
        self.loads.iter().filter(|&&l| l < t).count()
    }

    /// Histogram of loads: `hist[l]` = number of bins with load exactly
    /// `l`, for `l` in `0..=max_load`.
    pub fn histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.max_load() as usize + 1];
        for &l in &self.loads {
            hist[l as usize] += 1;
        }
        hist
    }

    /// Total number of *holes* at the target height `h`:
    /// `Σᵢ max(h − Lᵢ, 0)`. With `h = ⌈m/n⌉ + 1` this is the quantity
    /// `W_t` driving the proof of Theorem 4.1.
    pub fn holes(&self, h: u32) -> u64 {
        self.loads.iter().map(|&l| h.saturating_sub(l) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let lv = LoadVector::new(5);
        assert_eq!(lv.n(), 5);
        assert_eq!(lv.total(), 0);
        assert_eq!(lv.max_load(), 0);
        assert_eq!(lv.gap(), 0);
        assert_eq!(lv.count_below(1), 5);
        assert_eq!(lv.count_below(0), 0);
    }

    #[test]
    #[should_panic]
    fn zero_bins_rejected() {
        LoadVector::new(0);
    }

    #[test]
    fn place_updates_everything() {
        let mut lv = LoadVector::new(3);
        lv.place(0);
        lv.place(0);
        lv.place(2);
        assert_eq!(lv.load(0), 2);
        assert_eq!(lv.load(1), 0);
        assert_eq!(lv.load(2), 1);
        assert_eq!(lv.total(), 3);
        assert_eq!(lv.max_load(), 2);
        assert_eq!(lv.min_load(), 0);
        assert_eq!(lv.gap(), 2);
    }

    #[test]
    fn remove_inverts_place() {
        let mut lv = LoadVector::new(2);
        lv.place(1);
        lv.remove(1);
        assert_eq!(lv, LoadVector::new(2));
    }

    #[test]
    #[should_panic]
    fn remove_from_empty_panics() {
        LoadVector::new(2).remove(0);
    }

    #[test]
    fn from_loads_round_trips() {
        let lv = LoadVector::from_loads(vec![3, 0, 1]);
        assert_eq!(lv.total(), 4);
        assert_eq!(lv.as_slice(), &[3, 0, 1]);
        assert_eq!(lv.clone().into_loads(), vec![3, 0, 1]);
    }

    #[test]
    fn histogram_counts_per_level() {
        let lv = LoadVector::from_loads(vec![0, 2, 2, 1, 0]);
        assert_eq!(lv.histogram(), vec![2, 1, 2]);
        let sum: u64 = lv.histogram().iter().sum();
        assert_eq!(sum, 5);
    }

    #[test]
    fn count_below_matches_definition() {
        let lv = LoadVector::from_loads(vec![0, 1, 1, 3]);
        assert_eq!(lv.count_below(0), 0);
        assert_eq!(lv.count_below(1), 1);
        assert_eq!(lv.count_below(2), 3);
        assert_eq!(lv.count_below(4), 4);
        assert_eq!(lv.count_below(100), 4);
    }

    #[test]
    fn holes_at_target_height() {
        let lv = LoadVector::from_loads(vec![2, 0, 3]);
        // h = 3: holes = 1 + 3 + 0 = 4.
        assert_eq!(lv.holes(3), 4);
        // h = 0: everything saturates to 0.
        assert_eq!(lv.holes(0), 0);
        // Identity: holes(h) = n·h − total when h ≥ max load.
        assert_eq!(lv.holes(5), 3 * 5 - 5);
    }
}
