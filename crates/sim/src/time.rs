//! Simulated time.
//!
//! The DECOS core architecture is time-triggered: every activity of the
//! cluster is derived from the progression of a global time base. The
//! simulation therefore uses a discrete, nanosecond-granular notion of
//! *physical* (omniscient) time, represented by [`SimTime`]. Local clocks
//! with drift and the sparse time base are layered on top in the
//! `decos-timebase` crate.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A point in simulated physical time, in nanoseconds since simulation start.
///
/// `SimTime` is the omniscient reference time of the simulation. It is
/// totally ordered and overflow-checked in debug builds; at nanosecond
/// granularity a `u64` covers ~584 years of simulated time, far beyond the
/// 15-year vehicle lifetimes simulated by the fleet experiments.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds since simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds since simulation start.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds since simulation start.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds since simulation start.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (lossy for very large times).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Hours since simulation start, as a float.
    ///
    /// Failure rates in the paper are quoted in FIT (failures per 10⁹ device
    /// hours), so hours are the natural unit for rate bookkeeping.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3.6e12
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Rounds this instant *down* to a multiple of `granule`.
    ///
    /// This is the primitive from which the sparse-time action lattice is
    /// built: all observations within one granule map to the same lattice
    /// point.
    #[inline]
    pub fn align_down(self, granule: SimDuration) -> SimTime {
        assert!(granule.0 > 0, "granule must be non-zero");
        SimTime(self.0 - self.0 % granule.0)
    }

    /// Rounds this instant *up* to a multiple of `granule`.
    #[inline]
    pub fn align_up(self, granule: SimDuration) -> SimTime {
        assert!(granule.0 > 0, "granule must be non-zero");
        let rem = self.0 % granule.0;
        if rem == 0 {
            self
        } else {
            SimTime(self.0 - rem + granule.0)
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be finite and non-negative");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Hours in this duration, as a float.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3.6e12
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// Integer number of `rhs`-sized intervals that fit in `self`.
    #[inline]
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ns")
        } else if ns % 1_000_000_000 == 0 {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns % 1_000_000 == 0 {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns % 1_000 == 0 {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_hours(1).as_hours_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!((t + d).as_nanos(), 15_000_000);
        assert_eq!((t - d).as_nanos(), 5_000_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 3, SimDuration::from_millis(15));
        assert_eq!(SimDuration::from_millis(15) / d, 3);
        assert_eq!(SimDuration::from_millis(17) % d, SimDuration::from_millis(2));
    }

    #[test]
    fn alignment() {
        let g = SimDuration::from_micros(100);
        assert_eq!(SimTime::from_micros(250).align_down(g), SimTime::from_micros(200));
        assert_eq!(SimTime::from_micros(250).align_up(g), SimTime::from_micros(300));
        assert_eq!(SimTime::from_micros(300).align_up(g), SimTime::from_micros(300));
        assert_eq!(SimTime::from_micros(300).align_down(g), SimTime::from_micros(300));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2s");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2ms");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2us");
        assert_eq!(SimDuration::from_nanos(2).to_string(), "2ns");
        assert_eq!(SimDuration::ZERO.to_string(), "0ns");
    }

    #[test]
    #[should_panic]
    fn align_zero_granule_panics() {
        SimTime::from_secs(1).align_down(SimDuration::ZERO);
    }
}
