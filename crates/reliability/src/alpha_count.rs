//! The α-count mechanism of Bondavalli et al. \[33\].
//!
//! §V-C: "for the differentiation whether transient failures are caused by
//! environmental influences or internal faults, techniques such as the
//! α-count mechanisms can be utilized". The heuristic accumulates evidence
//! over judgement intervals:
//!
//! * interval with a failure:   `α ← α + 1`
//! * interval without failure:  `α ← α · δ`   (decay, `0 ≤ δ < 1`)
//!
//! A unit whose α crosses the threshold `α_T` is declared affected by a
//! *recurring* (internal, repair-requiring) fault; isolated environmental
//! transients decay away before reaching the threshold. The experiment E11
//! sweeps `(δ, α_T)` and measures the discrimination ROC.

use serde::{Deserialize, Serialize};

/// Parameters of an α-count instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaParams {
    /// Decay factor applied on failure-free intervals, `0 ≤ δ < 1`.
    pub decay: f64,
    /// Declaration threshold `α_T`.
    pub threshold: f64,
}

impl Default for AlphaParams {
    fn default() -> Self {
        // Values in the range studied by [33]: slow decay, threshold a few
        // failures above baseline.
        AlphaParams { decay: 0.9, threshold: 3.0 }
    }
}

/// Verdict of the α-count heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlphaVerdict {
    /// Evidence below threshold: treat failures seen so far as benign
    /// transients.
    Benign,
    /// Threshold crossed: the failure pattern indicates a recurring
    /// (internal) fault.
    Recurring,
}

/// A running α-count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaCount {
    params: AlphaParams,
    alpha: f64,
    /// Latched once the threshold is crossed (declaration is sticky, as in
    /// the original formulation: the unit is handed to fault treatment).
    declared: bool,
}

impl AlphaCount {
    /// Creates a zeroed counter.
    pub fn new(params: AlphaParams) -> Self {
        assert!((0.0..1.0).contains(&params.decay), "decay must be in [0,1)");
        assert!(params.threshold > 0.0);
        AlphaCount { params, alpha: 0.0, declared: false }
    }

    /// Current α value.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether the threshold has (ever) been crossed.
    pub fn is_declared(&self) -> bool {
        self.declared
    }

    /// Feeds one judgement interval; returns the current verdict.
    pub fn observe(&mut self, failed: bool) -> AlphaVerdict {
        if failed {
            self.alpha += 1.0;
        } else {
            self.alpha *= self.params.decay;
        }
        if self.alpha >= self.params.threshold {
            self.declared = true;
        }
        self.verdict()
    }

    /// The current verdict.
    pub(crate) fn verdict(&self) -> AlphaVerdict {
        if self.declared {
            AlphaVerdict::Recurring
        } else {
            AlphaVerdict::Benign
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ac(decay: f64, threshold: f64) -> AlphaCount {
        AlphaCount::new(AlphaParams { decay, threshold })
    }

    #[test]
    fn isolated_transients_stay_benign() {
        let mut a = ac(0.5, 3.0);
        // One failure every 10 intervals: decays to ~0 between failures.
        for i in 0..200 {
            let v = a.observe(i % 10 == 0);
            assert_eq!(v, AlphaVerdict::Benign, "interval {i}, alpha {}", a.alpha());
        }
        assert!(!a.is_declared());
    }

    #[test]
    fn recurring_failures_declare() {
        let mut a = ac(0.9, 3.0);
        // Failures every other interval accumulate past the threshold.
        let mut declared_at = None;
        for i in 0..50 {
            if a.observe(i % 2 == 0) == AlphaVerdict::Recurring {
                declared_at = Some(i);
                break;
            }
        }
        assert!(declared_at.is_some(), "burst must be declared");
        assert!(declared_at.unwrap() < 20);
    }

    #[test]
    fn declaration_is_sticky() {
        let mut a = ac(0.5, 2.0);
        a.observe(true);
        a.observe(true);
        assert_eq!(a.verdict(), AlphaVerdict::Recurring);
        for _ in 0..100 {
            a.observe(false);
        }
        assert_eq!(a.verdict(), AlphaVerdict::Recurring, "verdict must latch");
        assert!(a.alpha() < 0.01, "alpha itself decays");
    }

    #[test]
    fn zero_decay_needs_consecutive_failures() {
        let mut a = ac(0.0, 2.0);
        a.observe(true);
        a.observe(false); // wipes alpha entirely
        a.observe(true);
        assert_eq!(a.verdict(), AlphaVerdict::Benign);
        a.observe(true);
        assert_eq!(a.verdict(), AlphaVerdict::Recurring);
    }

    #[test]
    #[should_panic]
    fn invalid_decay_rejected() {
        ac(1.0, 3.0);
    }
}
