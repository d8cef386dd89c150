//! Deterministic, named random-number streams.
//!
//! Reproducibility is a hard requirement for a diagnostic-architecture
//! simulator: a classification result must be traceable back to the exact
//! fault activations that produced it. Every stochastic process in the
//! workspace therefore draws from a *named stream* derived from a single
//! master seed, so that adding a new consumer of randomness never perturbs
//! the draws of existing ones (unlike handing a single RNG around).

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// SplitMix64 step — the standard seed-expansion permutation.
///
/// Used both to derive per-stream seeds and per-replica seeds for fleet
/// Monte-Carlo runs.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a byte string and an index into a 64-bit stream key (FNV-1a,
/// finalized with splitmix).
#[inline]
fn stream_key(name: &str, index: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut s = h;
    splitmix64(&mut s)
}

/// Factory for deterministic named RNG streams.
///
/// ```
/// use decos_sim::rng::SeedSource;
/// let seeds = SeedSource::new(42);
/// let mut emi_c3 = seeds.stream("emi", 3);
/// let mut emi_c3_again = seeds.stream("emi", 3);
/// assert_eq!(rand::RngExt::random::<u64>(&mut emi_c3),
///            rand::RngExt::random::<u64>(&mut emi_c3_again));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSource {
    master: u64,
}

impl SeedSource {
    /// Creates a seed source from a master seed.
    pub const fn new(master: u64) -> Self {
        SeedSource { master }
    }

    /// The master seed this source was built from.
    pub const fn master(&self) -> u64 {
        self.master
    }

    /// Returns the deterministic RNG for stream `(name, index)`.
    ///
    /// The same `(master, name, index)` triple always yields the same
    /// stream; distinct triples yield statistically independent streams.
    pub fn stream(&self, name: &str, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.master ^ stream_key(name, index))
    }

    /// Derives a child seed source, e.g. one per vehicle in a fleet run.
    pub fn child(&self, index: u64) -> SeedSource {
        let mut s = self.master ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
        SeedSource { master: splitmix64(&mut s) }
    }
}

/// Extension helpers for sampling used across the workspace.
pub trait SampleExt: Rng + RngExt + Sized {
    /// Samples `true` with probability `p` (clamped to `[0, 1]`).
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.random::<f64>() < p
        }
    }

    /// Samples a uniform float in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.random::<f64>()
    }

    /// Samples a standard-normal variate via Box–Muller.
    ///
    /// Marsaglia polar would reject; Box–Muller keeps the draw count per
    /// sample fixed at two, which preserves stream alignment across runs.
    fn standard_normal(&mut self) -> f64 {
        // Guard against log(0) by mapping u1 into (0, 1].
        let u1 = 1.0 - self.random::<f64>();
        let u2 = self.random::<f64>();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Samples a normal variate with the given mean and standard deviation.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Samples a Poisson variate with mean `lambda`: one draw of
    /// [`Poisson::new`]`(lambda)`. A caller that samples the same mean
    /// repeatedly keeps the [`Poisson`] instead.
    fn poisson(&mut self, lambda: f64) -> u64 {
        Poisson::new(lambda).sample(self)
    }
}

impl<R: Rng> SampleExt for R {}

/// A Poisson distribution with its Knuth threshold `exp(-λ)` computed
/// once, for generators that draw the same mean every TDMA round.
///
/// Knuth's product method serves small means; for `lambda > 30` a normal
/// approximation (rounded, clamped at zero) keeps the cost O(1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Poisson {
    lambda: f64,
    exp_neg_lambda: f64,
}

impl Poisson {
    /// The distribution with mean `lambda`.
    ///
    /// # Panics
    /// If `lambda` is negative or not finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be finite and non-negative");
        Poisson { lambda, exp_neg_lambda: (-lambda).exp() }
    }

    /// Draws one variate from `rng`.
    pub fn sample<R: SampleExt>(&self, rng: &mut R) -> u64 {
        let lambda = self.lambda;
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = rng.normal(lambda, lambda.sqrt()).round();
            return if x < 0.0 { 0 } else { x as u64 };
        }
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= self.exp_neg_lambda {
                return k;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let s = SeedSource::new(7);
        let a: Vec<u64> = (0..8).map(|_| s.stream("emi", 1).random()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "fresh streams must restart");
        let mut r1 = s.stream("emi", 1);
        let mut r2 = s.stream("emi", 1);
        for _ in 0..100 {
            assert_eq!(r1.random::<u64>(), r2.random::<u64>());
        }
    }

    #[test]
    fn distinct_streams_differ() {
        let s = SeedSource::new(7);
        let a: u64 = s.stream("emi", 1).random();
        let b: u64 = s.stream("emi", 2).random();
        let c: u64 = s.stream("seu", 1).random();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn children_are_independent() {
        let s = SeedSource::new(7);
        assert_ne!(s.child(0).master(), s.child(1).master());
        assert_eq!(s.child(5).master(), s.child(5).master());
        let a: u64 = s.child(0).stream("x", 0).random();
        let b: u64 = s.child(1).stream("x", 0).random();
        assert_ne!(a, b);
    }

    #[test]
    fn chance_extremes() {
        let s = SeedSource::new(1);
        let mut r = s.stream("t", 0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_frequency_roughly_matches_p() {
        let s = SeedSource::new(99);
        let mut r = s.stream("freq", 0);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.25)).count();
        let f = hits as f64 / n as f64;
        assert!((f - 0.25).abs() < 0.01, "frequency {f} too far from 0.25");
    }

    #[test]
    fn normal_moments() {
        let s = SeedSource::new(3);
        let mut r = s.stream("norm", 0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let s = SeedSource::new(4);
        let mut r = s.stream("u", 0);
        for _ in 0..10_000 {
            let x = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn poisson_moments_small_lambda() {
        let s = SeedSource::new(21);
        let mut r = s.stream("poi", 0);
        let n = 100_000;
        let lambda = 3.5;
        let xs: Vec<u64> = (0..n).map(|_| r.poisson(lambda)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
        assert!((var - lambda).abs() < 0.1, "var {var}");
    }

    #[test]
    fn poisson_moments_large_lambda() {
        let s = SeedSource::new(22);
        let mut r = s.stream("poi", 1);
        let n = 50_000;
        let lambda = 100.0;
        let xs: Vec<u64> = (0..n).map(|_| r.poisson(lambda)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let s = SeedSource::new(23);
        let mut r = s.stream("poi", 2);
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn splitmix_is_a_permutation_sample() {
        // Distinct inputs map to distinct outputs (spot check).
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let mut s = i;
            assert!(seen.insert(splitmix64(&mut s)));
        }
    }
}
