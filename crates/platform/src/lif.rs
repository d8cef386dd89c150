//! Linking Interface (LIF) specifications.
//!
//! The LIF of a job is the a-priori specification of its port activity in
//! the value and time domains (\[71\]; §II-E: "the failure mode of a job is a
//! violation of the port specification in either the time or value
//! domain"). The diagnostic symptom detectors compare the observed
//! interface state against these records; everything the diagnosis knows
//! about "correct" behaviour is encoded here.

use crate::ids::{DasId, JobId, NodeId};
use crate::job::{JobBehavior, JobSpec};
use decos_vnet::{PortId, PortKind, VnetId};
use serde::{Deserialize, Serialize};

/// Temporal specification of a port.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RateLif {
    /// Exactly one message per TDMA round (time-triggered state traffic).
    PeriodicPerRound,
    /// Poisson event traffic with the given mean rate.
    Poisson {
        /// Mean emission rate, events per second.
        rate_hz: f64,
    },
}

/// LIF record of one output port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortLif {
    /// The specified port.
    pub port: PortId,
    /// Network it publishes on.
    pub vnet: VnetId,
    /// Producing job.
    pub producer: JobId,
    /// Component hosting the producer.
    pub host: NodeId,
    /// DAS of the producer.
    pub das: DasId,
    /// Port semantics.
    pub kind: PortKind,
    /// Minimum admissible value.
    pub value_min: f64,
    /// Maximum admissible value.
    pub value_max: f64,
    /// Lower bound of the *nominal* signal span (inside the admissible
    /// range). Values between nominal and admissible bounds are legal but
    /// abnormal — the drift zone of the wearout pattern.
    pub nominal_min: f64,
    /// Upper bound of the nominal signal span.
    pub nominal_max: f64,
    /// Temporal specification.
    pub rate: RateLif,
}

impl PortLif {
    /// Whether `v` violates the value-domain specification.
    pub fn value_violation(&self, v: f64) -> bool {
        !v.is_finite() || v < self.value_min || v > self.value_max
    }

    /// Normalized deviation of `v` from the admissible range: 0 inside the
    /// range, grows linearly with the distance outside, in units of the
    /// range width. Used by the wearout pattern ("increasing deviation from
    /// correct value, at the verge of becoming incorrect", Fig. 8).
    pub fn deviation(&self, v: f64) -> f64 {
        if !v.is_finite() {
            return f64::INFINITY;
        }
        let width = (self.value_max - self.value_min).max(f64::MIN_POSITIVE);
        if v < self.value_min {
            (self.value_min - v) / width
        } else if v > self.value_max {
            (v - self.value_max) / width
        } else {
            0.0
        }
    }

    /// Depth of `v` into the drift zone between the nominal span and the
    /// admissible range: `None` when `v` is nominal or already violating,
    /// `Some(d)` with `d ∈ (0, 1]` when `v` is legal-but-abnormal. A
    /// healthy signal never enters this zone (the nominal span already
    /// includes measurement noise), so a rising series of these is the
    /// value dimension of the wearout pattern (Fig. 8).
    pub fn drift_depth(&self, v: f64) -> Option<f64> {
        if !v.is_finite() || self.value_violation(v) {
            return None;
        }
        if v > self.nominal_max {
            let zone = (self.value_max - self.nominal_max).max(f64::MIN_POSITIVE);
            Some(((v - self.nominal_max) / zone).min(1.0))
        } else if v < self.nominal_min {
            let zone = (self.nominal_min - self.value_min).max(f64::MIN_POSITIVE);
            Some(((self.nominal_min - v) / zone).min(1.0))
        } else {
            None
        }
    }
}

/// Derives the LIF records of every output port in a job set.
///
/// Voter ports are resolved in a second pass (their range is the union of
/// the replica ranges they vote over).
pub(crate) fn derive_lif(jobs: &[JobSpec]) -> Vec<PortLif> {
    let mut out: Vec<PortLif> = Vec::new();
    // First pass: everything except voters.
    for j in jobs {
        let lif = match &j.behavior {
            JobBehavior::SensorPublisher { vnet, port, signal, noise_std }
            | JobBehavior::TmrReplica { vnet, port, signal, noise_std } => {
                let (lo, hi) = signal.bounds();
                let span = (hi - lo).max(1e-9);
                // Nominal span covers measurement noise (4.5 σ); the
                // admissible margin extends further so the drift zone is
                // non-empty but rarely entered by a healthy sensor.
                let nominal = 4.5 * noise_std;
                let margin = 9.0 * noise_std + 0.1 * span;
                Some(PortLif {
                    port: *port,
                    vnet: *vnet,
                    producer: j.id,
                    host: j.host,
                    das: j.das,
                    kind: PortKind::State,
                    value_min: lo - margin,
                    value_max: hi + margin,
                    nominal_min: lo - nominal,
                    nominal_max: hi + nominal,
                    rate: RateLif::PeriodicPerRound,
                })
            }
            JobBehavior::Controller { vnet_out, port, out_bounds, .. } => Some(PortLif {
                port: *port,
                vnet: *vnet_out,
                producer: j.id,
                host: j.host,
                das: j.das,
                kind: PortKind::State,
                value_min: out_bounds.0,
                value_max: out_bounds.1,
                nominal_min: out_bounds.0,
                nominal_max: out_bounds.1,
                rate: RateLif::PeriodicPerRound,
            }),
            JobBehavior::EventSender { vnet, port, rate_hz, value } => Some(PortLif {
                port: *port,
                vnet: *vnet,
                producer: j.id,
                host: j.host,
                das: j.das,
                kind: PortKind::Event,
                value_min: value - 0.5,
                value_max: value + 0.5,
                nominal_min: value - 0.5,
                nominal_max: value + 0.5,
                rate: RateLif::Poisson { rate_hz: *rate_hz },
            }),
            JobBehavior::EventConsumer { .. }
            | JobBehavior::TmrVoter { .. }
            | JobBehavior::Gateway { .. } => None,
        };
        out.extend(lif);
    }
    // Second pass: gateways inherit the range of the port they republish.
    for j in jobs {
        if let JobBehavior::Gateway { vnet_out, input_src, port, .. } = &j.behavior {
            if let Some(src) = out.iter().find(|l| l.port == *input_src).cloned() {
                out.push(PortLif {
                    port: *port,
                    vnet: *vnet_out,
                    producer: j.id,
                    host: j.host,
                    das: j.das,
                    kind: PortKind::State,
                    value_min: src.value_min,
                    value_max: src.value_max,
                    nominal_min: src.nominal_min,
                    nominal_max: src.nominal_max,
                    rate: RateLif::PeriodicPerRound,
                });
            }
        }
    }
    // Second pass: voters take the union range of their inputs.
    for j in jobs {
        if let JobBehavior::TmrVoter { vnet_out, inputs, port, .. } = &j.behavior {
            let ranges: Vec<(f64, f64, f64, f64)> = inputs
                .iter()
                .filter_map(|src| {
                    out.iter()
                        .find(|l| l.port == *src)
                        .map(|l| (l.value_min, l.value_max, l.nominal_min, l.nominal_max))
                })
                .collect();
            let folded = ranges.iter().fold(
                (f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY),
                |a, r| (a.0.min(r.0), a.1.max(r.1), a.2.min(r.2), a.3.max(r.3)),
            );
            if folded.0.is_finite() && folded.1.is_finite() {
                out.push(PortLif {
                    port: *port,
                    vnet: *vnet_out,
                    producer: j.id,
                    host: j.host,
                    das: j.das,
                    kind: PortKind::State,
                    value_min: folded.0,
                    value_max: folded.1,
                    nominal_min: folded.2,
                    nominal_max: folded.3,
                    rate: RateLif::PeriodicPerRound,
                });
            }
        }
    }
    out
}

/// Constant-time map from a port id to its position in a LIF slice.
///
/// An open-addressed table: a power of two of at least twice the record
/// count, indexed by the port id masked to the table size, with linear
/// probing and a key check. Sparse `u32` port ids therefore cost no more
/// memory than dense ones. Ports must be distinct, which
/// [`ClusterSpec::validate`](crate::ClusterSpec::validate) guarantees for a
/// cluster's LIF records.
#[derive(Debug, Clone)]
pub(crate) struct PortIndex {
    /// `(port, position)`; an empty slot holds position `u32::MAX`.
    slots: Vec<(PortId, u32)>,
    mask: usize,
}

impl PortIndex {
    const EMPTY: u32 = u32::MAX;

    /// Indexes the ports of `lif` by their position.
    pub(crate) fn new(lif: &[PortLif]) -> Self {
        let len = (2 * lif.len()).max(1).next_power_of_two();
        let mut index = PortIndex { slots: vec![(PortId(0), Self::EMPTY); len], mask: len - 1 };
        for (pos, l) in lif.iter().enumerate() {
            let mut h = l.port.0 as usize & index.mask;
            while index.slots[h].1 != Self::EMPTY {
                debug_assert_ne!(index.slots[h].0, l.port, "duplicate LIF port");
                h = (h + 1) & index.mask;
            }
            index.slots[h] = (l.port, pos as u32);
        }
        index
    }

    /// Position of the record for `port`, if any.
    #[inline]
    pub(crate) fn get(&self, port: PortId) -> Option<usize> {
        let mut h = port.0 as usize & self.mask;
        loop {
            let (key, pos) = self.slots[h];
            if pos == Self::EMPTY {
                return None;
            }
            if key == port {
                return Some(pos as usize);
            }
            h = (h + 1) & self.mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Criticality;
    use crate::transducer::SignalModel;
    use proptest::prelude::*;

    fn job(id: u32, behavior: JobBehavior) -> JobSpec {
        JobSpec {
            id: JobId(id),
            name: format!("J{id}"),
            das: DasId(0),
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(0),
            behavior,
        }
    }

    #[test]
    fn sensor_publisher_range_includes_noise_margin() {
        let jobs = [job(
            1,
            JobBehavior::SensorPublisher {
                vnet: VnetId(1),
                port: PortId(1),
                signal: SignalModel::Sine { amplitude: 10.0, period_s: 1.0, bias: 0.0 },
                noise_std: 0.5,
            },
        )];
        let lif = derive_lif(&jobs);
        assert_eq!(lif.len(), 1);
        // bounds ±10, margin 9*0.5 + 0.1*20 = 6.5 → ±16.5; nominal ±12.25.
        assert!((lif[0].value_min - -16.5).abs() < 1e-9);
        assert!((lif[0].value_max - 16.5).abs() < 1e-9);
        assert!((lif[0].nominal_max - 12.25).abs() < 1e-9);
        assert_eq!(lif[0].rate, RateLif::PeriodicPerRound);
    }

    #[test]
    fn voter_range_is_union_of_inputs() {
        let jobs = [
            job(
                1,
                JobBehavior::TmrReplica {
                    vnet: VnetId(1),
                    port: PortId(1),
                    signal: SignalModel::Constant(5.0),
                    noise_std: 0.0,
                },
            ),
            job(
                2,
                JobBehavior::TmrReplica {
                    vnet: VnetId(1),
                    port: PortId(2),
                    signal: SignalModel::Constant(5.0),
                    noise_std: 0.0,
                },
            ),
            job(
                3,
                JobBehavior::TmrReplica {
                    vnet: VnetId(1),
                    port: PortId(3),
                    signal: SignalModel::Constant(5.0),
                    noise_std: 0.0,
                },
            ),
            job(
                4,
                JobBehavior::TmrVoter {
                    vnet_in: VnetId(1),
                    inputs: [PortId(1), PortId(2), PortId(3)],
                    vnet_out: VnetId(1),
                    port: PortId(4),
                    epsilon: 0.1,
                    max_age: decos_sim::time::SimDuration::from_millis(50),
                },
            ),
        ];
        let lif = derive_lif(&jobs);
        assert_eq!(lif.len(), 4);
        let voter = lif.iter().find(|l| l.port == PortId(4)).unwrap();
        let replica = lif.iter().find(|l| l.port == PortId(1)).unwrap();
        assert_eq!(voter.value_min, replica.value_min);
        assert_eq!(voter.value_max, replica.value_max);
    }

    #[test]
    fn consumer_has_no_lif() {
        let jobs = [job(
            1,
            JobBehavior::EventConsumer { vnet: VnetId(2), sources: vec![], service_per_round: 1 },
        )];
        assert!(derive_lif(&jobs).is_empty());
    }

    #[test]
    fn violation_and_deviation() {
        let l = PortLif {
            port: PortId(1),
            vnet: VnetId(1),
            producer: JobId(1),
            host: NodeId(0),
            das: DasId(0),
            kind: PortKind::State,
            value_min: 0.0,
            value_max: 10.0,
            nominal_min: 2.0,
            nominal_max: 8.0,
            rate: RateLif::PeriodicPerRound,
        };
        assert!(!l.value_violation(5.0));
        assert!(l.value_violation(-0.1));
        assert!(l.value_violation(10.1));
        assert!(l.value_violation(f64::NAN));
        assert_eq!(l.deviation(5.0), 0.0);
        assert!((l.deviation(12.0) - 0.2).abs() < 1e-12);
        assert!((l.deviation(-5.0) - 0.5).abs() < 1e-12);
        assert_eq!(l.deviation(f64::INFINITY), f64::INFINITY);
        // Drift zone: (8, 10] above, [0, 2) below.
        assert_eq!(l.drift_depth(5.0), None, "nominal");
        assert_eq!(l.drift_depth(11.0), None, "violating");
        assert!((l.drift_depth(9.0).unwrap() - 0.5).abs() < 1e-12);
        assert!((l.drift_depth(1.0).unwrap() - 0.5).abs() < 1e-12);
        assert!((l.drift_depth(10.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn event_sender_lif() {
        let jobs = [job(
            1,
            JobBehavior::EventSender {
                vnet: VnetId(2),
                port: PortId(9),
                rate_hz: 100.0,
                value: 1.0,
            },
        )];
        let lif = derive_lif(&jobs);
        assert_eq!(lif[0].kind, PortKind::Event);
        assert_eq!(lif[0].rate, RateLif::Poisson { rate_hz: 100.0 });
        assert!(!lif[0].value_violation(1.2));
        assert!(lif[0].value_violation(2.0));
    }

    /// A LIF record for `port` (only the port matters to the index).
    fn record(port: u32) -> PortLif {
        PortLif {
            port: PortId(port),
            vnet: VnetId(1),
            producer: JobId(port),
            host: NodeId(0),
            das: DasId(0),
            kind: PortKind::State,
            value_min: 0.0,
            value_max: 1.0,
            nominal_min: 0.0,
            nominal_max: 1.0,
            rate: RateLif::PeriodicPerRound,
        }
    }

    proptest! {
        #[test]
        fn port_index_matches_a_linear_scan(
            raw in proptest::collection::vec((0u8..4, any::<u32>()), 0..40),
            probes in proptest::collection::vec(any::<u32>(), 0..16),
        ) {
            // Sparse ports, some sharing their low bits (one bucket) and
            // some small (dense), each kept once in first-drawn order.
            let mut ports: Vec<u32> = Vec::new();
            for &(shape, v) in &raw {
                let p = match shape {
                    0 => v & 0xFFFF_0000,
                    1 => v % 64,
                    _ => v,
                };
                if !ports.contains(&p) {
                    ports.push(p);
                }
            }
            let lif: Vec<PortLif> = ports.iter().map(|&p| record(p)).collect();
            let index = PortIndex::new(&lif);
            prop_assert!(index.slots.len() >= 2 * lif.len());
            let scan = |p: u32| lif.iter().position(|l| l.port == PortId(p));
            let near = ports.iter().flat_map(|&p| [p, p.wrapping_add(1), p ^ 0x8000_0000]);
            for p in near.chain(probes.iter().copied()) {
                prop_assert_eq!(index.get(PortId(p)), scan(p), "port {}", p);
            }
        }
    }
}
