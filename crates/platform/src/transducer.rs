//! Sensors — the linkage between the computer system and the controlled
//! object (§IV-B.1b).
//!
//! In the DECOS architecture every job has *exclusive* access to its
//! transducers; a transducer fault is therefore attributable to exactly one
//! job FRU (a job inherent fault). The models here produce the physical
//! signal a sensor would sample, plus the classic transducer failure modes:
//! stuck-at, drift, excess noise and total loss.

use decos_sim::rng::SampleExt;
use decos_sim::time::SimTime;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Model of the physical quantity a sensor observes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SignalModel {
    /// A constant quantity (e.g. a reference voltage).
    Constant(f64),
    /// A sinusoid (e.g. wheel speed on a circular test track).
    Sine {
        /// Amplitude.
        amplitude: f64,
        /// Period in seconds.
        period_s: f64,
        /// Offset.
        bias: f64,
    },
    /// A sawtooth ramp between `lo` and `hi` (e.g. temperature cycling).
    Sawtooth {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Period in seconds.
        period_s: f64,
    },
}

impl SignalModel {
    /// True value of the physical quantity at `t`.
    pub(crate) fn value(&self, t: SimTime) -> f64 {
        match *self {
            SignalModel::Constant(v) => v,
            SignalModel::Sine { amplitude, period_s, bias } => {
                bias + amplitude * (core::f64::consts::TAU * t.as_secs_f64() / period_s).sin()
            }
            SignalModel::Sawtooth { lo, hi, period_s } => {
                let phase = (t.as_secs_f64() / period_s).fract();
                lo + (hi - lo) * phase
            }
        }
    }

    /// Conservative bounds of the signal (for LIF value-range derivation).
    pub(crate) fn bounds(&self) -> (f64, f64) {
        match *self {
            SignalModel::Constant(v) => (v, v),
            SignalModel::Sine { amplitude, bias, .. } => {
                (bias - amplitude.abs(), bias + amplitude.abs())
            }
            SignalModel::Sawtooth { lo, hi, .. } => (lo.min(hi), lo.max(hi)),
        }
    }
}

/// Failure modes of a sensor (job inherent, transducer branch of Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SensorFault {
    /// Nominal operation.
    None,
    /// Output frozen at a value (e.g. mechanical jam, ADC latch-up).
    Stuck(f64),
    /// Calibration drift: reading diverges linearly with time since onset
    /// (wearout of the sensing element).
    Drift {
        /// Drift rate in units per hour.
        per_hour: f64,
        /// Onset instant.
        since: SimTime,
    },
    /// Excess noise (degraded shielding/contacts).
    Noise {
        /// Added noise standard deviation.
        std_dev: f64,
    },
    /// No output at all.
    Dead,
}

/// A sensor bound to one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sensor {
    signal: SignalModel,
    /// Nominal measurement noise (std dev), present even when healthy.
    noise_std: f64,
    fault: SensorFault,
}

impl Sensor {
    /// Creates a healthy sensor for `signal` with nominal noise.
    pub(crate) fn new(signal: SignalModel, noise_std: f64) -> Self {
        Sensor { signal, noise_std, fault: SensorFault::None }
    }

    /// Currently injected fault.
    pub fn fault(&self) -> SensorFault {
        self.fault
    }

    /// Injects (or clears) a fault.
    pub(crate) fn set_fault(&mut self, fault: SensorFault) {
        self.fault = fault;
    }

    /// Samples the sensor at `t`. Returns `None` if the sensor is dead.
    pub(crate) fn read(&self, t: SimTime, rng: &mut SmallRng) -> Option<f64> {
        let truth = self.signal.value(t);
        let nominal = if self.noise_std > 0.0 { rng.normal(truth, self.noise_std) } else { truth };
        match self.fault {
            SensorFault::None => Some(nominal),
            SensorFault::Stuck(v) => Some(v),
            SensorFault::Drift { per_hour, since } => {
                let hours = t.saturating_since(since).as_hours_f64();
                Some(nominal + per_hour * hours)
            }
            SensorFault::Noise { std_dev } => Some(rng.normal(nominal, std_dev)),
            SensorFault::Dead => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_sim::SeedSource;

    fn rng() -> SmallRng {
        SeedSource::new(31).stream("sensor", 0)
    }

    #[test]
    fn signal_models() {
        let c = SignalModel::Constant(2.5);
        assert_eq!(c.value(SimTime::from_secs(9)), 2.5);
        assert_eq!(c.bounds(), (2.5, 2.5));

        let s = SignalModel::Sine { amplitude: 2.0, period_s: 1.0, bias: 10.0 };
        assert!((s.value(SimTime::ZERO) - 10.0).abs() < 1e-9);
        assert!((s.value(SimTime::from_millis(250)) - 12.0).abs() < 1e-9);
        assert_eq!(s.bounds(), (8.0, 12.0));

        let w = SignalModel::Sawtooth { lo: -1.0, hi: 1.0, period_s: 2.0 };
        assert!((w.value(SimTime::ZERO) - -1.0).abs() < 1e-9);
        assert!((w.value(SimTime::from_secs(1)) - 0.0).abs() < 1e-9);
        assert_eq!(w.bounds(), (-1.0, 1.0));
    }

    #[test]
    fn healthy_sensor_tracks_signal() {
        let s = Sensor::new(SignalModel::Constant(5.0), 0.0);
        assert_eq!(s.read(SimTime::from_secs(1), &mut rng()), Some(5.0));
    }

    #[test]
    fn stuck_sensor_ignores_signal() {
        let mut s =
            Sensor::new(SignalModel::Sine { amplitude: 3.0, period_s: 1.0, bias: 0.0 }, 0.0);
        s.set_fault(SensorFault::Stuck(7.5));
        let mut r = rng();
        for ms in [0u64, 100, 333, 800] {
            assert_eq!(s.read(SimTime::from_millis(ms), &mut r), Some(7.5));
        }
    }

    #[test]
    fn drift_grows_with_time() {
        let mut s = Sensor::new(SignalModel::Constant(0.0), 0.0);
        s.set_fault(SensorFault::Drift { per_hour: 2.0, since: SimTime::from_secs(3600) });
        let mut r = rng();
        // Before onset: no drift.
        assert_eq!(s.read(SimTime::from_secs(1800), &mut r), Some(0.0));
        // One hour after onset: +2.0.
        let v = s.read(SimTime::from_secs(2 * 3600), &mut r).unwrap();
        assert!((v - 2.0).abs() < 1e-9);
        // Two hours: +4.0.
        let v = s.read(SimTime::from_secs(3 * 3600), &mut r).unwrap();
        assert!((v - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dead_sensor_returns_none() {
        let mut s = Sensor::new(SignalModel::Constant(1.0), 0.0);
        s.set_fault(SensorFault::Dead);
        assert_eq!(s.read(SimTime::ZERO, &mut rng()), None);
    }

    #[test]
    fn noisy_sensor_spreads() {
        let mut s = Sensor::new(SignalModel::Constant(0.0), 0.0);
        s.set_fault(SensorFault::Noise { std_dev: 1.0 });
        let mut r = rng();
        let n = 10_000;
        let xs: Vec<f64> = (0..n).map(|_| s.read(SimTime::ZERO, &mut r).unwrap()).collect();
        let var = xs.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
