//! Local clock models.
//!
//! Each DECOS component derives its local time from a quartz oscillator.
//! The simulator models a local clock as a deterministic transformation of
//! omniscient physical time ([`SimTime`]): a systematic *drift* (rate
//! deviation, in parts per million), an accumulated *correction* applied by
//! the clock-synchronization service.
//!
//! Quartz defects (§IV-A.1c of the paper: low supply voltage, thermal
//! cycling, mechanical shock) manifest as excess drift; once the drift
//! exceeds what the synchronization service can compensate within one
//! resynchronization interval, the component loses synchronization — an
//! observable symptom for the diagnostic subsystem.

use decos_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Health state of the oscillator driving a local clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum OscillatorState {
    /// Nominal behaviour: drift within the specified bound.
    Nominal,
    /// Degraded oscillator: additional drift in ppm (e.g. a quartz affected
    /// by thermal cycling or a cracked solder joint on its load capacitors).
    Degraded {
        /// Additional frequency deviation, in parts per million.
        extra_drift_ppm: f64,
    },
    /// The oscillator stopped; the clock no longer advances.
    Dead,
}

/// A local clock: drift + correction over physical time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalClock {
    /// Systematic rate deviation from perfect time, in ppm. Typical
    /// automotive-grade quartz: ±(10..100) ppm.
    drift_ppm: f64,
    /// Net correction accumulated from clock synchronization, nanoseconds.
    correction_ns: i64,
    /// Oscillator health.
    state: OscillatorState,
    /// Physical instant at which the oscillator died (if it did); the local
    /// clock reading freezes at that point.
    died_at: Option<SimTime>,
}

/// A reading of a local clock, in local nanoseconds.
///
/// Local time is signed: early in a run, a negative correction may push the
/// reading before the local epoch.
pub(crate) type LocalNanos = i64;

impl LocalClock {
    /// Creates a clock with the given systematic drift.
    pub fn new(drift_ppm: f64) -> Self {
        LocalClock { drift_ppm, correction_ns: 0, state: OscillatorState::Nominal, died_at: None }
    }

    /// The currently effective drift in ppm, including degradation.
    pub fn effective_drift_ppm(&self) -> f64 {
        match self.state {
            OscillatorState::Nominal => self.drift_ppm,
            OscillatorState::Degraded { extra_drift_ppm } => self.drift_ppm + extra_drift_ppm,
            OscillatorState::Dead => 0.0,
        }
    }

    /// Injects oscillator degradation (quartz fault manifestation).
    pub fn degrade(&mut self, extra_drift_ppm: f64) {
        self.state = OscillatorState::Degraded { extra_drift_ppm };
    }

    /// Restores nominal oscillator behaviour (end of a transient influence,
    /// e.g. supply voltage back within bounds).
    pub fn restore(&mut self) {
        if !matches!(self.state, OscillatorState::Dead) {
            self.state = OscillatorState::Nominal;
        }
    }

    /// Kills the oscillator at physical time `at`; the reading freezes.
    pub fn kill(&mut self, at: SimTime) {
        self.state = OscillatorState::Dead;
        self.died_at = Some(at);
    }

    /// Whether the oscillator is dead.
    pub fn is_dead(&self) -> bool {
        matches!(self.state, OscillatorState::Dead)
    }

    /// Reads local time at physical instant `now`.
    ///
    /// The drift contribution is computed as an *offset* (`t · d·10⁻⁶`)
    /// rather than a scale factor so that `f64` rounding stays at the
    /// nanosecond level even for multi-year simulated horizons.
    pub fn read(&self, now: SimTime) -> LocalNanos {
        let t = match self.died_at {
            Some(d) if now >= d => d,
            _ => now,
        };
        let base = t.as_nanos() as i64;
        let drift_off = (t.as_nanos() as f64 * self.effective_drift_ppm() * 1e-6) as i64;
        base + drift_off + self.correction_ns
    }

    /// Applies a synchronization correction (positive = advance the clock).
    ///
    /// Corrections accumulate; state synchronization after a restart resets
    /// the accumulated correction via [`LocalClock::reset_correction`].
    pub fn apply_correction(&mut self, delta_ns: i64) {
        self.correction_ns = self.correction_ns.saturating_add(delta_ns);
    }

    /// Clears the accumulated correction (component restart + resync).
    pub fn reset_correction(&mut self) {
        self.correction_ns = 0;
    }

    /// The accumulated correction in nanoseconds.
    pub fn correction_ns(&self) -> i64 {
        self.correction_ns
    }

    /// Deviation of this clock from perfect physical time at `now`, in ns.
    pub fn deviation_ns(&self, now: SimTime) -> i64 {
        self.read(now) - now.as_nanos() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_tracks_physical_time() {
        let c = LocalClock::new(0.0);
        for s in [0u64, 1, 1000, 86_400] {
            let t = SimTime::from_secs(s);
            assert_eq!(c.read(t), t.as_nanos() as i64);
            assert_eq!(c.deviation_ns(t), 0);
        }
    }

    #[test]
    fn drift_accumulates_linearly() {
        let c = LocalClock::new(100.0); // +100 ppm
        let t = SimTime::from_secs(10);
        // 100 ppm over 10 s = 1 ms fast.
        assert_eq!(c.deviation_ns(t), 1_000_000);
        let slow = LocalClock::new(-50.0);
        assert_eq!(slow.deviation_ns(t), -500_000);
    }

    #[test]
    fn drift_precision_over_years() {
        // 100 ppm over 15 years: offset fits f64 with ns-level precision.
        let c = LocalClock::new(100.0);
        let t = SimTime::from_secs(15 * 365 * 24 * 3600);
        let expect = (t.as_nanos() as f64 * 100e-6) as i64;
        assert_eq!(c.deviation_ns(t), expect);
        assert!(expect > 0);
    }

    #[test]
    fn correction_shifts_reading() {
        let mut c = LocalClock::new(0.0);
        c.apply_correction(-2_500);
        assert_eq!(c.deviation_ns(SimTime::from_secs(1)), -2_500);
        c.apply_correction(2_500);
        assert_eq!(c.deviation_ns(SimTime::from_secs(1)), 0);
        c.apply_correction(77);
        c.reset_correction();
        assert_eq!(c.correction_ns(), 0);
    }

    #[test]
    fn degradation_increases_drift() {
        let mut c = LocalClock::new(20.0);
        c.degrade(480.0);
        assert_eq!(c.effective_drift_ppm(), 500.0);
        let t = SimTime::from_secs(1);
        assert_eq!(c.deviation_ns(t), 500_000);
        c.restore();
        assert_eq!(c.effective_drift_ppm(), 20.0);
    }

    #[test]
    fn dead_clock_freezes() {
        let mut c = LocalClock::new(0.0);
        c.kill(SimTime::from_secs(5));
        assert!(c.is_dead());
        let frozen = c.read(SimTime::from_secs(5));
        assert_eq!(c.read(SimTime::from_secs(100)), frozen);
        // Death is final; restore must not resurrect.
        c.restore();
        assert!(c.is_dead());
    }
}
