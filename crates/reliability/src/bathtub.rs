//! The bathtub curve (Fig. 7).
//!
//! The reliability of an electronic component over its life is the
//! superposition of three competing failure processes:
//!
//! * **infant mortality** — manufacturing escapes affecting only a
//!   *subpopulation* of shipped units (\[27\]; decreasing Weibull hazard);
//! * **useful life** — a low constant rate (§III-E/\[16\]: ≈ 50 failures per
//!   10⁶ ECUs per year);
//! * **wearout** — accumulated incremental damage (\[31\]; increasing
//!   Weibull hazard with a late onset).
//!
//! [`BathtubModel::sample_failure_hours`] draws a unit's time-to-failure as
//! the minimum of the three processes (competing risks); the population
//! hazard estimated from such samples reproduces the bathtub shape —
//! experiment E5 regenerates Fig. 7 exactly this way.

use crate::dist::{Exponential, Weibull};
use decos_sim::rng::SampleExt;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Which of the competing processes failed a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailurePhase {
    /// Manufacturing escape (early life).
    InfantMortality,
    /// Random failure during useful life.
    UsefulLife,
    /// Wearout at end of life.
    Wearout,
}

/// A sampled unit lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitFailure {
    /// Time to failure in hours.
    pub hours: f64,
    /// The process that caused it.
    pub phase: FailurePhase,
}

/// Composite bathtub lifetime model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BathtubModel {
    /// Fraction of the population carrying a manufacturing weakness
    /// (infant mortality affects only a subpopulation, \[27\]).
    pub weak_fraction: f64,
    /// Infant-mortality process of the weak subpopulation (shape < 1).
    pub infant: Weibull,
    /// Constant-rate useful-life process.
    pub useful: Exponential,
    /// Wearout process (shape > 1).
    pub wearout: Weibull,
}

impl BathtubModel {
    /// An automotive-ECU-flavoured default, calibrated to the paper's
    /// anchors: useful-life rate of 50 / 10⁶ / year and wearout onset well
    /// past a 15-year vehicle life for most units.
    pub fn automotive_ecu() -> Self {
        let hours_per_year = 365.25 * 24.0;
        BathtubModel {
            weak_fraction: 0.02,
            // Weak units die mostly within the first weeks.
            infant: Weibull::new(0.5, 0.05 * hours_per_year),
            // 50 per 1e6 per year → λ = 5e-5 / year.
            useful: Exponential::new(5e-5 / hours_per_year),
            // Characteristic wearout life ~22 years, steep onset.
            wearout: Weibull::new(8.0, 22.0 * hours_per_year),
        }
    }

    /// Samples the time-to-failure of one shipped unit (competing risks).
    pub fn sample_failure_hours(&self, rng: &mut SmallRng) -> UnitFailure {
        let weak = rng.chance(self.weak_fraction);
        let mut best =
            UnitFailure { hours: self.useful.sample_hours(rng), phase: FailurePhase::UsefulLife };
        // Keep the RNG draw sequence fixed regardless of branching: sample
        // wearout unconditionally, infant only for weak units (the chance
        // draw already consumed its stream position).
        let w = self.wearout.sample_hours(rng);
        if w < best.hours {
            best = UnitFailure { hours: w, phase: FailurePhase::Wearout };
        }
        if weak {
            let i = self.infant.sample_hours(rng);
            if i < best.hours {
                best = UnitFailure { hours: i, phase: FailurePhase::InfantMortality };
            }
        }
        best
    }
}

/// Empirical hazard estimate from unit lifetimes.
///
/// For each calendar bin, hazard ≈ failures-in-bin / (survivors-at-bin-start
/// × bin width). Units surviving the horizon are right-censored.
pub fn empirical_hazard(
    lifetimes_hours: &[f64],
    horizon_hours: f64,
    bins: usize,
) -> Vec<(f64, f64)> {
    assert!(bins > 0 && horizon_hours > 0.0);
    let width = horizon_hours / bins as f64;
    let mut failures = vec![0u64; bins];
    for &t in lifetimes_hours {
        if t < horizon_hours {
            failures[(t / width) as usize] += 1;
        }
    }
    let mut out = Vec::with_capacity(bins);
    let mut survivors = lifetimes_hours.len() as f64;
    for (k, &f) in failures.iter().enumerate() {
        let centre = width * (k as f64 + 0.5);
        let h = if survivors > 0.0 { f as f64 / (survivors * width) } else { 0.0 };
        out.push((centre, h));
        survivors -= f as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_sim::SeedSource;

    fn rng() -> SmallRng {
        SeedSource::new(91).stream("bathtub", 0)
    }

    #[test]
    fn useful_life_plateau_matches_field_rate() {
        let m = BathtubModel::automotive_ecu();
        let y = 365.25 * 24.0;
        // 50 failures per 10⁶ ECUs per year.
        assert!((m.useful.rate_per_hour * y - 5e-5).abs() < 1e-12);
        // At 5 years the weak units are gone and wearout has not begun, so
        // the useful-life rate is the plateau.
        assert!(m.infant.cdf(5.0 * y) > 0.999, "infant phase must be over");
        assert!(m.wearout.cdf(5.0 * y) < 1e-4, "wearout must not have begun");
    }

    #[test]
    fn sampled_phases_partition_sensibly() {
        let m = BathtubModel::automotive_ecu();
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<UnitFailure> = (0..n).map(|_| m.sample_failure_hours(&mut r)).collect();
        let y = 365.25 * 24.0;
        // Infant failures concentrate early.
        let infants: Vec<f64> = samples
            .iter()
            .filter(|u| u.phase == FailurePhase::InfantMortality)
            .map(|u| u.hours)
            .collect();
        assert!(!infants.is_empty());
        let infant_median = {
            let mut v = infants.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        assert!(infant_median < y, "infant median {infant_median} h should be < 1 year");
        // Wearout failures concentrate late.
        let wear: Vec<f64> =
            samples.iter().filter(|u| u.phase == FailurePhase::Wearout).map(|u| u.hours).collect();
        let wear_mean = wear.iter().sum::<f64>() / wear.len() as f64;
        assert!(wear_mean > 10.0 * y, "wearout mean {wear_mean} h should be ≥ 10 years");
        // Infant fraction is bounded by the weak fraction.
        let infant_frac = infants.len() as f64 / n as f64;
        assert!(infant_frac <= m.weak_fraction * 1.2 + 0.01);
    }

    #[test]
    fn empirical_hazard_reproduces_bathtub() {
        let m = BathtubModel::automotive_ecu();
        let mut r = rng();
        let n = 200_000;
        let lifetimes: Vec<f64> = (0..n).map(|_| m.sample_failure_hours(&mut r).hours).collect();
        let y = 365.25 * 24.0;
        let horizon = 25.0 * y;
        let series = empirical_hazard(&lifetimes, horizon, 25);
        // First bin (year 1) above the plateau (years 3-10), last bins far above.
        let first = series[0].1;
        let plateau: f64 = series[3..10].iter().map(|p| p.1).sum::<f64>() / 7.0;
        let late = series[22].1;
        assert!(first > plateau * 3.0, "first {first} vs plateau {plateau}");
        assert!(late > plateau * 50.0, "late {late} vs plateau {plateau}");
    }

    #[test]
    fn empirical_hazard_handles_censoring() {
        // All units survive the horizon → zero hazard everywhere.
        let lifetimes = vec![1e9; 100];
        let series = empirical_hazard(&lifetimes, 1000.0, 4);
        assert!(series.iter().all(|&(_, h)| h == 0.0));
        assert_eq!(series.len(), 4);
    }
}
