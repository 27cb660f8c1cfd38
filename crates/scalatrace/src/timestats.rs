//! Scalable computation-time statistics.
//!
//! ScalaTrace does not store one timestamp per event; it compresses "the
//! time taken by all instances of a particular computation (identified by
//! its unique call path) across all loop iterations and all nodes" into a
//! histogram (paper §3.1, citing Ratn et al.). [`TimeStats`] is that
//! histogram: count/sum/min/max plus log₂-spaced bins, mergeable across
//! iterations and ranks.

use mpisim::time::SimDuration;
use std::fmt;

const BINS: usize = 64;

/// Histogram of durations with log₂ bins.
#[derive(Clone, PartialEq, Eq)]
pub struct TimeStats {
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
    bins: [u64; BINS],
}

impl Default for TimeStats {
    fn default() -> Self {
        TimeStats {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            bins: [0; BINS],
        }
    }
}

fn bin_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(BINS - 1)
    }
}

impl TimeStats {
    /// An empty histogram.
    pub fn new() -> TimeStats {
        TimeStats::default()
    }

    /// A histogram holding a single sample.
    pub fn of(d: SimDuration) -> TimeStats {
        let mut t = TimeStats::new();
        t.record(d);
        t
    }

    /// Add one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.bins[bin_of(ns)] += 1;
    }

    /// Add `n` identical samples in O(1) — exactly equivalent to calling
    /// [`TimeStats::record`] `n` times. The text decoder uses this to
    /// rebuild a `{count}x{mean}` summary without looping `count` times
    /// (counts are attacker-controlled in parsed trace text).
    pub fn record_n(&mut self, n: u64, d: SimDuration) {
        if n == 0 {
            return;
        }
        let ns = d.as_nanos();
        self.count += n;
        self.sum_ns += ns as u128 * n as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.bins[bin_of(ns)] += n;
    }

    /// Pool another histogram's samples into this one.
    pub fn merge(&mut self, other: &TimeStats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum_ns.min(u64::MAX as u128) as u64)
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Arithmetic mean — the deterministic representative value used when
    /// generating `COMPUTES FOR` statements and when replaying traces
    /// (paper §4.5 lists this summarisation as a deliberate accuracy
    /// trade-off).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Approximate median from the histogram (midpoint of the median bin).
    pub fn median_approx(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen * 2 >= self.count {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = if i == 0 {
                    1
                } else {
                    (1u64 << i).saturating_sub(1)
                };
                return SimDuration::from_nanos(lo + (hi - lo) / 2);
            }
        }
        self.max()
    }

    /// Draw a deterministic pseudo-sample from the histogram: the `u`-th
    /// sample in bin order (by `u mod count`), represented by its bin
    /// midpoint. Used by distribution-preserving replay, which restores the
    /// per-event variance the mean summarisation flattens (§4.5).
    pub fn sample_at(&self, u: u64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let mut ordinal = u % self.count;
        for (i, &c) in self.bins.iter().enumerate() {
            if ordinal < c {
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return SimDuration::from_nanos(lo + (hi - lo) / 2);
            }
            ordinal -= c;
        }
        self.mean()
    }

    /// Is every sample the same value? (Then mean is exact.)
    pub fn is_constant(&self) -> bool {
        self.count == 0 || self.min_ns == self.max_ns
    }

    /// The raw log2-spaced bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The exact internal fields `(count, sum_ns, min_ns, max_ns, bins)`.
    ///
    /// The text rendering of a histogram is lossy (it keeps only count and
    /// mean); STBS files are not allowed to be, so the node codec
    /// serialises these fields verbatim and rebuilds via
    /// [`TimeStats::from_raw`].
    pub fn raw(&self) -> (u64, u128, u64, u64, &[u64; BINS]) {
        (
            self.count,
            self.sum_ns,
            self.min_ns,
            self.max_ns,
            &self.bins,
        )
    }

    /// Rebuild a histogram from fields captured by [`TimeStats::raw`].
    /// Exact inverse: `TimeStats::from_raw` of `raw()` compares equal to the
    /// original, bit for bit.
    pub fn from_raw(
        count: u64,
        sum_ns: u128,
        min_ns: u64,
        max_ns: u64,
        bins: [u64; BINS],
    ) -> TimeStats {
        TimeStats {
            count,
            sum_ns,
            min_ns,
            max_ns,
            bins,
        }
    }
}

impl fmt::Debug for TimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "∅")
        } else {
            write!(
                f,
                "n={} mean={} [{}..{}]",
                self.count,
                self.mean(),
                self.min(),
                self.max()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let t = TimeStats::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.mean(), SimDuration::ZERO);
        assert_eq!(t.min(), SimDuration::ZERO);
        assert_eq!(t.max(), SimDuration::ZERO);
        assert!(t.is_constant());
    }

    #[test]
    fn mean_and_extremes() {
        let mut t = TimeStats::new();
        t.record(SimDuration::from_usecs(10));
        t.record(SimDuration::from_usecs(20));
        t.record(SimDuration::from_usecs(30));
        assert_eq!(t.count(), 3);
        assert_eq!(t.mean(), SimDuration::from_usecs(20));
        assert_eq!(t.min(), SimDuration::from_usecs(10));
        assert_eq!(t.max(), SimDuration::from_usecs(30));
        assert!(!t.is_constant());
    }

    #[test]
    fn merge_combines() {
        let mut a = TimeStats::of(SimDuration::from_usecs(5));
        let b = TimeStats::of(SimDuration::from_usecs(15));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_usecs(10));
        let mut c = TimeStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 2);
        assert_eq!(c.min(), SimDuration::from_usecs(5));
    }

    #[test]
    fn constant_detection() {
        let mut t = TimeStats::new();
        for _ in 0..100 {
            t.record(SimDuration::from_usecs(7));
        }
        assert!(t.is_constant());
        assert_eq!(t.mean(), SimDuration::from_usecs(7));
    }

    #[test]
    fn record_n_equals_n_records() {
        for (n, us) in [(1u64, 3u64), (7, 0), (1000, 42), (3, u64::MAX / 2000)] {
            let mut bulk = TimeStats::new();
            bulk.record_n(n, SimDuration::from_usecs(us));
            let mut looped = TimeStats::new();
            for _ in 0..n {
                looped.record(SimDuration::from_usecs(us));
            }
            assert_eq!(bulk, looped, "record_n({n}, {us}us) must match n records");
        }
        let mut none = TimeStats::new();
        none.record_n(0, SimDuration::from_usecs(5));
        assert_eq!(none, TimeStats::new());
    }

    #[test]
    fn binning_is_logarithmic() {
        assert_eq!(bin_of(0), 0);
        assert_eq!(bin_of(1), 1);
        assert_eq!(bin_of(2), 2);
        assert_eq!(bin_of(3), 2);
        assert_eq!(bin_of(4), 3);
        assert_eq!(bin_of(u64::MAX), BINS - 1);
    }

    #[test]
    fn median_approximation_is_in_range() {
        let mut t = TimeStats::new();
        for us in [1u64, 100, 100, 100, 10_000] {
            t.record(SimDuration::from_usecs(us));
        }
        let m = t.median_approx();
        assert!(
            m >= SimDuration::from_usecs(64) && m <= SimDuration::from_usecs(256),
            "median approx {m} should be near 100us"
        );
    }
}
