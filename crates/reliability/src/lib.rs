//! # decos-reliability — reliability mathematics behind the fault model
//!
//! Quantitative substrate for §III-E (assumptions behind the fault model)
//! and Fig. 7 (bathtub curve):
//!
//! * [`fit`] — FIT rates and the paper's numeric anchors;
//! * [`dist`] — exponential and Weibull lifetime distributions (sampling
//!   and CDF), implemented and property-tested locally;
//! * [`bathtub`] — the composite bathtub model and empirical hazard
//!   estimation (experiment E5 regenerates Fig. 7 with these);
//! * [`alpha_count`] — the α-count transient-discrimination heuristic of
//!   Bondavalli et al. \[33\] used in §V-C;
//! * [`fleet`] — fleet-level aggregation (failures per 10⁶ per year, the
//!   20–80 concentration rule).

pub mod alpha_count;
pub mod bathtub;
pub mod dist;
pub mod fit;
pub mod fleet;

pub use alpha_count::{AlphaCount, AlphaParams, AlphaVerdict};
pub use bathtub::{empirical_hazard, BathtubModel, FailurePhase, UnitFailure};
pub use dist::{Exponential, Weibull};
pub use fit::{FitRate, PERMANENT_HW_FIT, TRANSIENT_HW_FIT};
pub use fleet::{concentration, fleet_failure_rates, Concentration, FleetFailureRates};
