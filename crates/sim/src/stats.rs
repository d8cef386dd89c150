//! Streaming statistics used across the simulator and the diagnostic
//! subsystem.
//!
//! Everything here is allocation-free after construction and O(1) per
//! update (per the HPC guidance: hot-loop instrumentation must not allocate),
//! except for [`Histogram`] construction and quantile extraction.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running { n: 0, mean: 0.0, m2: 0.0 }
    }

    /// Feeds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
    }
}

/// Fixed-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "invalid histogram bounds");
        Histogram { lo, hi, bins: vec![0; bins], underflow: 0, overflow: 0 }
    }

    /// Records one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let k = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            // Floating-point rounding can land exactly on bins.len().
            let k = k.min(self.bins.len() - 1);
            self.bins[k] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.bins.iter().sum::<u64>()
    }
}

/// Exact quantile of a mutable sample slice (linear interpolation, like
/// numpy's default). `q` in `[0, 1]`.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let pos = q * (samples.len() - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    if i + 1 < samples.len() {
        samples[i] * (1.0 - frac) + samples[i + 1] * frac
    } else {
        samples[i]
    }
}

/// Ordinary least-squares slope of `y` against `x`.
///
/// Returns `None` when fewer than two points or when `x` is degenerate.
/// Used by the wearout fault-pattern detector ("increasing frequency as
/// time progresses", Fig. 8).
pub fn ols_slope(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx <= f64::EPSILON {
        return None;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    Some(sxy / sxx)
}

/// Sliding-window event-rate estimator over simulated time.
///
/// Maintains per-window event counts; the diagnostic trend detectors consume
/// the window series to decide whether a FRU's transient-failure frequency is
/// increasing (the paper's wearout indicator, §III-E).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateWindows {
    window: SimDuration,
    origin: SimTime,
    counts: Vec<u64>,
}

impl RateWindows {
    /// Creates an estimator with the given window length, starting at `origin`.
    pub fn new(origin: SimTime, window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO);
        RateWindows { window, origin, counts: Vec::new() }
    }

    /// Records an event at time `at` (must be `>= origin`).
    pub fn record(&mut self, at: SimTime) {
        let idx = (at.saturating_since(self.origin) / self.window) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Counts per completed-or-started window, in order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Events per hour in each window.
    pub fn rates_per_hour(&self) -> Vec<f64> {
        let wh = self.window.as_hours_f64();
        self.counts.iter().map(|&c| c as f64 / wh).collect()
    }

    /// OLS slope of the per-window rate series (events/hour per window
    /// index); positive values indicate an increasing failure frequency.
    pub fn trend_slope(&self) -> Option<f64> {
        let rates = self.rates_per_hour();
        let pts: Vec<(f64, f64)> = rates.iter().enumerate().map(|(i, &r)| (i as f64, r)).collect();
        ols_slope(&pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_moments() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut whole = Running::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = Running::new();
        let mut b = Running::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Running::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&Running::new());
        assert_eq!(a, before);
        let mut e = Running::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.999, 10.0, 42.0] {
            h.push(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn quantiles() {
        let mut xs = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut xs, 0.5), 2.5);
    }

    #[test]
    fn slope_detects_trend() {
        let rising: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!((ols_slope(&rising).unwrap() - 2.0).abs() < 1e-12);
        let flat: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 5.0)).collect();
        assert!(ols_slope(&flat).unwrap().abs() < 1e-12);
        assert!(ols_slope(&[(0.0, 1.0)]).is_none());
        assert!(ols_slope(&[(1.0, 1.0), (1.0, 2.0)]).is_none());
    }

    #[test]
    fn rate_windows() {
        let mut rw = RateWindows::new(SimTime::ZERO, SimDuration::from_secs(10));
        rw.record(SimTime::from_secs(1));
        rw.record(SimTime::from_secs(9));
        rw.record(SimTime::from_secs(10));
        rw.record(SimTime::from_secs(25));
        assert_eq!(rw.counts(), &[2, 1, 1]);
        let rph = rw.rates_per_hour();
        assert!((rph[0] - 2.0 / (10.0 / 3600.0)).abs() < 1e-9);
    }

    #[test]
    fn rate_windows_trend() {
        let mut rw = RateWindows::new(SimTime::ZERO, SimDuration::from_secs(1));
        // 1, 2, 3, 4 events in successive windows: clearly rising.
        for w in 0..4u64 {
            for k in 0..=w {
                rw.record(SimTime::from_millis(w * 1000 + k * 10));
            }
        }
        assert!(rw.trend_slope().unwrap() > 0.0);
    }
}
