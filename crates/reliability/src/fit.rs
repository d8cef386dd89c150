//! FIT rates — the unit of the paper's failure-rate assumptions.
//!
//! One FIT is one failure per 10⁹ device-hours. §III-E quantifies the
//! maintenance-oriented fault model with:
//!
//! * permanent hardware failures: ≈ 100 FIT ("about 1000 years"),
//! * transient hardware failures: ≈ 100 000 FIT ("about 1 year"),
//! * useful-life field rate: 50 failures per 10⁶ ECUs per year \[16\], the
//!   useful-life rate of [`BathtubModel::automotive_ecu`].
//!
//! [`BathtubModel::automotive_ecu`]: crate::bathtub::BathtubModel::automotive_ecu

use decos_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// A failure rate in FIT (failures per 10⁹ device-hours).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct FitRate(pub f64);

/// The paper's assumed permanent hardware failure rate (§III-E).
pub const PERMANENT_HW_FIT: FitRate = FitRate(100.0);

/// The paper's assumed transient hardware failure rate (§III-E).
pub const TRANSIENT_HW_FIT: FitRate = FitRate(100_000.0);

impl FitRate {
    /// Failure rate per device-hour.
    #[inline]
    pub(crate) fn per_hour(&self) -> f64 {
        self.0 / 1e9
    }

    /// Mean time to failure, in hours (infinite for a zero rate).
    #[inline]
    pub(crate) fn mttf_hours(&self) -> f64 {
        if self.0 <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.per_hour()
        }
    }

    /// Mean time to failure, in years.
    #[inline]
    pub fn mttf_years(&self) -> f64 {
        self.mttf_hours() / (365.25 * 24.0)
    }

    /// Probability of at least one failure within `d`, under an
    /// exponential (memoryless) model: `1 − e^(−λΔt)`.
    #[inline]
    pub fn failure_probability(&self, d: SimDuration) -> f64 {
        let lt = self.per_hour() * d.as_hours_f64();
        1.0 - (-lt).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_permanent() {
        // "100 FIT, i.e. about 1000 years".
        let y = PERMANENT_HW_FIT.mttf_years();
        assert!((y - 1141.0).abs() < 2.0, "MTTF {y} years");
        assert!(y > 1000.0);
    }

    #[test]
    fn paper_anchor_transient() {
        // "100.000 FIT, i.e. about 1 year".
        let y = TRANSIENT_HW_FIT.mttf_years();
        assert!((y - 1.141).abs() < 0.01, "MTTF {y} years");
    }

    #[test]
    fn conversions_roundtrip() {
        let r = FitRate(1234.5);
        assert!((r.mttf_hours() * r.per_hour() - 1.0).abs() < 1e-12);
        assert!((r.mttf_years() * 365.25 * 24.0 - r.mttf_hours()).abs() < 1e-6);
    }

    #[test]
    fn failure_probability_small_rate_is_linear() {
        let r = FitRate(1000.0); // 1e-6 per hour
        let p = r.failure_probability(SimDuration::from_hours(10));
        assert!((p - 1e-5).abs() < 1e-9);
    }

    #[test]
    fn failure_probability_saturates() {
        let r = FitRate(1e12);
        let p = r.failure_probability(SimDuration::from_hours(1000));
        assert!(p > 0.999999);
        assert!(p <= 1.0);
    }

    #[test]
    fn zero_rate() {
        let r = FitRate(0.0);
        assert_eq!(r.mttf_hours(), f64::INFINITY);
        assert_eq!(r.failure_probability(SimDuration::from_hours(100)), 0.0);
    }
}
