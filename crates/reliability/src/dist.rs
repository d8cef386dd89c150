//! Lifetime distributions: exponential and Weibull.
//!
//! Implemented locally (inverse-CDF sampling) instead of pulling in
//! `rand_distr`: the two distributions are a few lines each, and owning them
//! lets the property tests pin the exact sampling semantics the fleet
//! experiments depend on.

use rand::rngs::SmallRng;
use rand::RngExt as _;
use serde::{Deserialize, Serialize};

/// Exponential lifetime distribution (constant hazard — the useful-life
/// phase of the bathtub curve).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    /// Rate λ per hour.
    pub rate_per_hour: f64,
}

impl Exponential {
    /// Creates a distribution with rate `λ` per hour (must be positive).
    pub fn new(rate_per_hour: f64) -> Self {
        assert!(rate_per_hour > 0.0 && rate_per_hour.is_finite());
        Exponential { rate_per_hour }
    }

    /// Samples a lifetime in hours.
    pub(crate) fn sample_hours(&self, rng: &mut SmallRng) -> f64 {
        // 1 - U ∈ (0, 1]: ln never sees zero.
        let u = 1.0 - rng.random::<f64>();
        -u.ln() / self.rate_per_hour
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, t_hours: f64) -> f64 {
        if t_hours <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate_per_hour * t_hours).exp()
        }
    }
}

/// Weibull lifetime distribution.
///
/// Shape `k < 1` gives a decreasing hazard (infant mortality); `k = 1`
/// reduces to the exponential; `k > 1` gives an increasing hazard
/// (wearout). Scale `λ` is the characteristic life in hours.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weibull {
    /// Shape parameter k.
    pub shape: f64,
    /// Scale parameter λ, hours.
    pub scale_hours: f64,
}

impl Weibull {
    /// Creates a Weibull distribution (both parameters must be positive).
    pub fn new(shape: f64, scale_hours: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite());
        assert!(scale_hours > 0.0 && scale_hours.is_finite());
        Weibull { shape, scale_hours }
    }

    /// Samples a lifetime in hours via the inverse CDF:
    /// `λ · (−ln(1−U))^(1/k)`.
    pub fn sample_hours(&self, rng: &mut SmallRng) -> f64 {
        let u = 1.0 - rng.random::<f64>();
        self.scale_hours * (-u.ln()).powf(1.0 / self.shape)
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, t_hours: f64) -> f64 {
        if t_hours <= 0.0 {
            0.0
        } else {
            1.0 - (-(t_hours / self.scale_hours).powf(self.shape)).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_sim::SeedSource;

    fn rng(i: u64) -> SmallRng {
        SeedSource::new(55).stream("dist", i)
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::new(0.01); // mean 100 h
        let mut r = rng(0);
        let n = 100_000;
        let m = (0..n).map(|_| d.sample_hours(&mut r)).sum::<f64>() / n as f64;
        assert!((m - 100.0).abs() < 1.5, "mean {m}");
    }

    #[test]
    fn exponential_cdf_and_hazard() {
        let d = Exponential::new(0.5);
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        // Constant hazard is memorylessness: surviving to 3 h leaves the
        // same chance of failing in the next hour as at t = 0.
        let next_hour_at = |t: f64| (d.cdf(t + 1.0) - d.cdf(t)) / (1.0 - d.cdf(t));
        assert!((next_hour_at(3.0) - next_hour_at(0.0)).abs() < 1e-12);
    }

    #[test]
    fn weibull_k1_equals_exponential() {
        let w = Weibull::new(1.0, 100.0);
        let e = Exponential::new(0.01);
        for t in [0.0, 1.0, 50.0, 400.0] {
            assert!((w.cdf(t) - e.cdf(t)).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn weibull_hazard_shapes() {
        // Conditional failure probability over the next 10 h, given survival
        // to `t`: the hazard integrated over a short window.
        let window = |w: Weibull, t: f64| (w.cdf(t + 10.0) - w.cdf(t)) / (1.0 - w.cdf(t));
        let infant = Weibull::new(0.5, 1000.0);
        assert!(window(infant, 1.0) > window(infant, 100.0), "k<1 hazard must decrease");
        let wearout = Weibull::new(3.0, 1000.0);
        assert!(window(wearout, 100.0) < window(wearout, 500.0), "k>1 hazard must increase");
    }

    #[test]
    fn weibull_sample_mean_matches_formula() {
        let w = Weibull::new(2.0, 500.0);
        let mut r = rng(1);
        let n = 100_000;
        let m = (0..n).map(|_| w.sample_hours(&mut r)).sum::<f64>() / n as f64;
        // λ·Γ(1 + 1/k) = 500·Γ(1.5) = 500·√π/2 ≈ 443.1.
        let expect = 500.0 * core::f64::consts::PI.sqrt() / 2.0;
        assert!((m - expect).abs() / expect < 0.01, "mean {m} vs {expect}");
    }

    #[test]
    fn weibull_samples_match_cdf() {
        let w = Weibull::new(3.0, 200.0);
        let mut r = rng(2);
        let n = 50_000;
        let t = 180.0;
        let frac = (0..n).filter(|_| w.sample_hours(&mut r) <= t).count() as f64 / n as f64;
        assert!((frac - w.cdf(t)).abs() < 0.01, "empirical {frac} vs cdf {}", w.cdf(t));
    }

    #[test]
    fn samples_are_positive() {
        let w = Weibull::new(0.7, 10.0);
        let e = Exponential::new(5.0);
        let mut r = rng(3);
        for _ in 0..10_000 {
            assert!(w.sample_hours(&mut r) >= 0.0);
            assert!(e.sample_hours(&mut r) >= 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_shape_rejected() {
        Weibull::new(0.0, 1.0);
    }
}
