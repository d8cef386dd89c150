//! Symptom detectors — LIF monitoring of the interface state.
//!
//! The detectors compare each slot's interface-state record against the
//! derived LIF specifications and produce [`Symptom`]s. They correspond to
//! the "detection" step of the three-step diagnostic architecture (§II-D);
//! analysis happens downstream in the encapsulated diagnostic DAS.

use crate::symptom::{QueueSide, Subject, Symptom, SymptomKind};
use decos_platform::{ClusterSim, JobBehavior, JobId, NodeId, ObsKind, SlotRecord};
use decos_vnet::{PortId, VnetId};

/// Thresholds of the value-domain detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorParams {
    /// Minimum depth into the drift zone (between nominal span and
    /// admissible range) before a drift symptom is raised.
    pub drift_proximity: f64,
}

impl Default for DetectorParams {
    fn default() -> Self {
        DetectorParams { drift_proximity: 0.05 }
    }
}

/// One registered TMR voter: identity, replica input ports, and the
/// last-seen divergence/no-majority counters, kept inline so the per-round
/// sweep walks one contiguous slice.
struct VoterRow {
    id: JobId,
    inputs: [PortId; 3],
    counts: [u64; 3],
    no_majority: u64,
}

/// The detector bank for one cluster.
///
/// Storage is struct-of-arrays over the cluster's static description:
/// per-component expectations are node-indexed vectors and the voter
/// counters sit inline in the voter table, so the per-slot detectors touch
/// contiguous memory instead of chasing per-key tree nodes. LIF records
/// are looked up per message through the cluster's constant-time
/// [`ClusterSim::lif_of`].
pub struct SymptomDetectors {
    params: DetectorParams,
    /// State ports expected once per round, indexed by hosting component.
    periodic_ports: Vec<Vec<(PortId, JobId)>>,
    /// (node, vnet) → job whose receive queue lives there; sorted.
    rx_consumer: Vec<((NodeId, VnetId), JobId)>,
    /// (node, vnet) → job producing into that network from that node;
    /// sorted.
    tx_producer: Vec<((NodeId, VnetId), JobId)>,
    /// Voter jobs with their replica ports and last-seen counters.
    voters: Vec<VoterRow>,
}

impl SymptomDetectors {
    /// Builds the detector bank from the cluster's static description.
    pub fn new(sim: &ClusterSim) -> Self {
        let params = DetectorParams::default();

        let n = sim.spec().n_components();
        let mut periodic_ports: Vec<Vec<(PortId, JobId)>> = vec![Vec::new(); n];
        for l in sim.lif() {
            if matches!(l.rate, decos_platform::RateLif::PeriodicPerRound) {
                periodic_ports[l.host.0 as usize].push((l.port, l.producer));
            }
        }

        let mut rx_consumer = Vec::new();
        let mut tx_producer = Vec::new();
        let mut voters = Vec::new();
        for j in &sim.spec().jobs {
            for v in j.behavior.input_vnets() {
                rx_consumer.push(((j.host, v), j.id));
            }
            if let Some(v) = j.behavior.output_vnet() {
                tx_producer.push(((j.host, v), j.id));
            }
            if let JobBehavior::TmrVoter { inputs, .. } = &j.behavior {
                voters.push(VoterRow { id: j.id, inputs: *inputs, counts: [0; 3], no_majority: 0 });
            }
        }
        // Later inserts win on duplicate keys, matching map semantics.
        rx_consumer.sort_by_key(|&(k, _)| k);
        rx_consumer.dedup_by(|later, earlier| {
            let dup = later.0 == earlier.0;
            if dup {
                earlier.1 = later.1;
            }
            dup
        });
        tx_producer.sort_by_key(|&(k, _)| k);
        tx_producer.dedup_by(|later, earlier| {
            let dup = later.0 == earlier.0;
            if dup {
                earlier.1 = later.1;
            }
            dup
        });
        SymptomDetectors { params, periodic_ports, rx_consumer, tx_producer, voters }
    }

    /// Runs all detectors over one slot record. Appends symptoms to `out`
    /// (allocation-friendly for the per-slot hot path).
    pub fn detect(&mut self, sim: &ClusterSim, rec: &SlotRecord, out: &mut Vec<Symptom>) {
        let point = sim.lattice().point(rec.start);
        let owner = rec.owner;

        // 1. Communication-level judgments: each receiver's verdict about
        //    the slot owner.
        for (i, obs) in rec.observations.iter().enumerate() {
            let observer = NodeId(i as u16);
            let kind = match obs {
                ObsKind::Omission => Some(SymptomKind::Omission),
                ObsKind::InvalidCrc => Some(SymptomKind::InvalidCrc),
                ObsKind::TimingViolation { offset_ns } => {
                    Some(SymptomKind::TimingViolation { offset_ns: *offset_ns })
                }
                ObsKind::Correct | ObsKind::Own | ObsKind::Offline => None,
            };
            if let Some(kind) = kind {
                out.push(Symptom {
                    at: rec.start,
                    point,
                    observer,
                    subject: Subject::Component(owner),
                    kind,
                });
            }
        }

        // The remaining detectors analyse delivered content; they only see
        // anything when the frame reached at least one receiver.
        let delivered_to = rec
            .observations
            .iter()
            .position(|o| matches!(o, ObsKind::Correct))
            .map(|i| NodeId(i as u16));

        if let Some(diag_observer) = delivered_to {
            // 2. Value-domain checks of carried messages against the LIF.
            for (_, msgs) in &rec.sent {
                for m in msgs {
                    if let Some(lif) = sim.lif_of(m.src) {
                        if lif.value_violation(m.value) {
                            out.push(Symptom {
                                at: rec.start,
                                point,
                                observer: diag_observer,
                                subject: Subject::Job(lif.producer),
                                kind: SymptomKind::ValueViolation {
                                    deviation: lif.deviation(m.value),
                                    port: m.src,
                                },
                            });
                        } else if let Some(depth) = lif.drift_depth(m.value) {
                            if depth >= self.params.drift_proximity {
                                out.push(Symptom {
                                    at: rec.start,
                                    point,
                                    observer: diag_observer,
                                    subject: Subject::Job(lif.producer),
                                    kind: SymptomKind::ValueDrift { proximity: depth, port: m.src },
                                });
                            }
                        }
                    }
                }
            }

            // 3. Missed periodic messages: the component transmitted, but an
            //    expected state port is absent from the frame.
            {
                let expected = &self.periodic_ports[owner.0 as usize];
                for (port, job) in expected {
                    let present =
                        rec.sent.iter().any(|(_, msgs)| msgs.iter().any(|m| m.src == *port));
                    if !present {
                        out.push(Symptom {
                            at: rec.start,
                            point,
                            observer: diag_observer,
                            subject: Subject::Job(*job),
                            kind: SymptomKind::MissedMessage { port: *port },
                        });
                    }
                }
            }
        }

        // 4. Queue overflows (local detectors at the affected component).
        for d in &rec.overflow_deltas {
            if d.tx > 0 {
                let subject = self
                    .tx_producer
                    .binary_search_by_key(&(d.node, d.vnet), |&(k, _)| k)
                    .ok()
                    .map(|i| Subject::Job(self.tx_producer[i].1))
                    .unwrap_or(Subject::Component(d.node));
                out.push(Symptom {
                    at: rec.start,
                    point,
                    observer: d.node,
                    subject,
                    kind: SymptomKind::QueueOverflow {
                        vnet: d.vnet,
                        side: QueueSide::Tx,
                        lost: d.tx,
                    },
                });
            }
            if d.rx > 0 {
                let subject = self
                    .rx_consumer
                    .binary_search_by_key(&(d.node, d.vnet), |&(k, _)| k)
                    .ok()
                    .map(|i| Subject::Job(self.rx_consumer[i].1))
                    .unwrap_or(Subject::Component(d.node));
                out.push(Symptom {
                    at: rec.start,
                    point,
                    observer: d.node,
                    subject,
                    kind: SymptomKind::QueueOverflow {
                        vnet: d.vnet,
                        side: QueueSide::Rx,
                        lost: d.rx,
                    },
                });
            }
        }

        // 5. Clock-synchronization losses.
        for n in &rec.sync_losses {
            out.push(Symptom {
                at: rec.start,
                point,
                observer: *n,
                subject: Subject::Component(*n),
                kind: SymptomKind::SyncLoss,
            });
        }

        // 6. Membership departures (consistent cluster-level judgement).
        for (observer, change) in &rec.membership_changes {
            if let decos_ttnet::MembershipChange::Departed(n) = change {
                out.push(Symptom {
                    at: rec.start,
                    point,
                    observer: *observer,
                    subject: Subject::Component(*n),
                    kind: SymptomKind::MembershipDeparture,
                });
            }
        }

        // 7. TMR replica divergence (redundancy-management feedback). The
        //    voter's divergence record is part of its host's interface
        //    state; sample deltas once per round.
        if rec.addr.slot.0 == 0 {
            for v in &mut self.voters {
                let job = sim.job(v.id);
                let host = job.spec().host;
                let div = job.divergence();
                for r in 0..3 {
                    let now = div.count(r);
                    if now > v.counts[r] {
                        // Attribute the divergence to the replica job that
                        // produced the outvoted port.
                        let subject = sim
                            .lif_of(v.inputs[r])
                            .map_or(Subject::Job(v.id), |l| Subject::Job(l.producer));
                        out.push(Symptom {
                            at: rec.start,
                            point,
                            observer: host,
                            subject,
                            kind: SymptomKind::ReplicaDivergence { replica: r },
                        });
                        v.counts[r] = now;
                    }
                }
                v.no_majority = div.no_majority();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_faults::{FaultEnvironment, FaultSpec};
    use decos_platform::fig10;
    use decos_platform::NullEnvironment;
    use decos_sim::SeedSource;

    fn run_with_faults(
        faults: Vec<FaultSpec>,
        accel: f64,
        rounds: u64,
    ) -> (Vec<Symptom>, ClusterSim) {
        let spec = fig10::reference_spec();
        let mut env = FaultEnvironment::for_cluster(faults, &spec, accel, SeedSource::new(42));
        let mut sim = ClusterSim::new(spec, 7).unwrap();
        let mut det = SymptomDetectors::new(&sim);
        let mut symptoms = Vec::new();
        for _ in 0..rounds * 4 {
            let rec = sim.step_slot(&mut env);
            det.detect(&sim, &rec, &mut symptoms);
        }
        (symptoms, sim)
    }

    #[test]
    fn fault_free_cluster_produces_no_symptoms() {
        let spec = fig10::reference_spec();
        let mut env = NullEnvironment;
        let mut sim = ClusterSim::new(spec, 7).unwrap();
        let mut det = SymptomDetectors::new(&sim);
        let mut symptoms = Vec::new();
        for _ in 0..400 {
            let rec = sim.step_slot(&mut env);
            det.detect(&sim, &rec, &mut symptoms);
        }
        assert!(
            symptoms.is_empty(),
            "got {} symptoms: {:?}",
            symptoms.len(),
            &symptoms[..symptoms.len().min(5)]
        );
    }

    #[test]
    fn omissions_attributed_to_owner() {
        use decos_faults::{FaultKind, FruRef};
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::PcbCrack {
                base_rate_per_hour: 50_000.0,
                growth_per_hour: 0.0,
                outage_ms: 20.0,
            },
            target: FruRef::Component(NodeId(1)),
            onset: decos_sim::SimTime::ZERO,
        }];
        let (symptoms, _) = run_with_faults(faults, 1.0, 500);
        let omissions: Vec<&Symptom> =
            symptoms.iter().filter(|s| s.kind == SymptomKind::Omission).collect();
        assert!(!omissions.is_empty());
        assert!(
            omissions.iter().all(|s| s.subject == Subject::Component(NodeId(1))),
            "all omissions about the crashed component"
        );
        // Multiple distinct observers saw it.
        let observers: std::collections::BTreeSet<NodeId> =
            omissions.iter().map(|s| s.observer).collect();
        assert!(observers.len() >= 3);
    }

    #[test]
    fn stuck_sensor_raises_value_symptoms_for_the_job() {
        use decos_faults::{FaultKind, FruRef};
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::SensorStuck { value: 99.0 },
            target: FruRef::Job(fig10::jobs::A1),
            onset: decos_sim::SimTime::ZERO,
        }];
        let (symptoms, _) = run_with_faults(faults, 1.0, 100);
        let vv: Vec<&Symptom> = symptoms
            .iter()
            .filter(|s| matches!(s.kind, SymptomKind::ValueViolation { .. }))
            .collect();
        assert!(!vv.is_empty(), "stuck-at-99 must violate the [0,10]±margin LIF");
        assert!(vv.iter().all(|s| s.subject == Subject::Job(fig10::jobs::A1)));
    }

    #[test]
    fn dead_sensor_raises_missed_message() {
        use decos_faults::{FaultKind, FruRef};
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::SensorDead,
            target: FruRef::Job(fig10::jobs::A1),
            onset: decos_sim::SimTime::ZERO,
        }];
        let (symptoms, _) = run_with_faults(faults, 1.0, 50);
        let missed: Vec<&Symptom> = symptoms
            .iter()
            .filter(|s| matches!(s.kind, SymptomKind::MissedMessage { .. }))
            .collect();
        assert!(!missed.is_empty());
        // The dead sensor silences A1; downstream controllers of DAS A
        // (A2, A3) starve and go silent too — fault effects stay inside
        // the DAS (Fig. 10 discussion). Root-cause suppression happens in
        // the pattern layer; the detectors report all three truthfully.
        let subjects: std::collections::BTreeSet<Subject> =
            missed.iter().map(|s| s.subject).collect();
        assert!(subjects.contains(&Subject::Job(fig10::jobs::A1)));
        for s in &subjects {
            let j = s.job().expect("missed symptoms are about jobs");
            assert!(
                [fig10::jobs::A1, fig10::jobs::A2, fig10::jobs::A3].contains(&j),
                "missed outside DAS A: {j}"
            );
        }
    }

    #[test]
    fn misconfigured_queue_raises_overflow_for_consumer() {
        let (spec, _truth) =
            decos_faults::campaign::misconfiguration_campaign(fig10::reference_spec(), 16);
        let mut env = NullEnvironment;
        let mut sim = ClusterSim::new(spec, 7).unwrap();
        let mut det = SymptomDetectors::new(&sim);
        let mut symptoms = Vec::new();
        for _ in 0..4000 {
            let rec = sim.step_slot(&mut env);
            det.detect(&sim, &rec, &mut symptoms);
        }
        let over: Vec<&Symptom> = symptoms
            .iter()
            .filter(|s| matches!(s.kind, SymptomKind::QueueOverflow { side: QueueSide::Rx, .. }))
            .collect();
        assert!(!over.is_empty(), "underdimensioned queue must overflow");
        assert!(over.iter().all(|s| s.subject == Subject::Job(fig10::jobs::C3)));
    }

    #[test]
    fn outvoted_replica_raises_divergence() {
        use decos_faults::{FaultKind, FruRef};
        // S2's sensor stuck far away from the true signal: always outvoted.
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::SensorStuck { value: 50.0 },
            target: FruRef::Job(fig10::jobs::S2),
            onset: decos_sim::SimTime::ZERO,
        }];
        let (symptoms, _) = run_with_faults(faults, 1.0, 100);
        let div: Vec<&Symptom> = symptoms
            .iter()
            .filter(|s| matches!(s.kind, SymptomKind::ReplicaDivergence { .. }))
            .collect();
        assert!(!div.is_empty());
        assert!(
            div.iter().all(|s| s.subject == Subject::Job(fig10::jobs::S2)),
            "divergence must point at the stuck replica"
        );
    }

    #[test]
    fn quartz_fault_raises_sync_loss() {
        use decos_faults::{FaultKind, FruRef};
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::QuartzDegradation { drift_ppm_per_hour: 1e7 },
            target: FruRef::Component(NodeId(2)),
            onset: decos_sim::SimTime::ZERO,
        }];
        let (symptoms, _) = run_with_faults(faults, 1.0, 1500);
        let sync: Vec<&Symptom> =
            symptoms.iter().filter(|s| s.kind == SymptomKind::SyncLoss).collect();
        assert!(!sync.is_empty());
        assert!(sync.iter().all(|s| s.subject == Subject::Component(NodeId(2))));
    }
}
