//! The federated On-Board-Diagnosis baseline.
//!
//! The comparator the paper argues against: today's per-ECU OBD systems
//! give the service technician "incomplete and imprecise information",
//! which "often results in replacements of working components" (§I). The
//! model captures the two structural limitations named in the paper:
//!
//! 1. **the 500 ms recording threshold** (§III-E): "transient failures
//!    that are lasting for more than 500 ms are recorded. Failures with a
//!    significantly shorter duration cannot be detected" — short transients
//!    never become DTCs, only undiagnosed customer complaints;
//! 2. **no holistic view**: each ECU judges in isolation; a communication
//!    DTC blames the silent peer, a plausibility DTC blames the ECU
//!    carrying the implausible function — without spatial/temporal
//!    correlation, external disturbances and configuration faults are
//!    indistinguishable from hardware faults.
//!
//! Replacement policy of the baseline workshop: replace every ECU with a
//! recorded DTC; with no DTC but persistent complaints, swap the most
//! complained-about ECU (the guesswork that drives the no-fault-found
//! statistics of \[1\], \[2\]).

use decos_platform::{ClusterSim, JobId, NodeId, ObsKind, SlotRecord};
use decos_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Baseline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObdParams {
    /// Minimum persistence of a failure before a DTC is recorded.
    pub record_threshold: SimDuration,
    /// Complaint count that triggers a guesswork swap when no DTC exists.
    pub complaint_min: u64,
}

impl Default for ObdParams {
    fn default() -> Self {
        ObdParams { record_threshold: SimDuration::from_millis(500), complaint_min: 20 }
    }
}

/// A recorded diagnostic trouble code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dtc {
    /// ECU that recorded the code.
    pub recorded_by: NodeId,
    /// ECU the code blames.
    pub blames: NodeId,
    /// Episode onset.
    pub since: SimTime,
}

/// The OBD baseline diagnosis.
pub struct ObdDiagnosis {
    params: ObdParams,
    n: usize,
    /// Ongoing communication-error run per (observer, subject): start time.
    comm_run: Vec<Vec<Option<SimTime>>>,
    /// Ongoing value-implausibility run per job: start time.
    value_run: BTreeMap<JobId, SimTime>,
    value_last: BTreeMap<JobId, SimTime>,
    /// Recorded DTCs.
    dtcs: Vec<Dtc>,
    /// Short anomalies per blamed ECU (below threshold — complaints only).
    complaints: Vec<u64>,
    /// Host of each job (value DTCs blame the hosting ECU).
    job_hosts: BTreeMap<JobId, NodeId>,
    round_len: SimDuration,
}

/// The baseline's workshop decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObdReport {
    /// ECUs the workshop replaces.
    pub replacements: Vec<NodeId>,
    /// Recorded DTCs.
    pub dtcs: Vec<Dtc>,
    /// Undiagnosed complaints per ECU.
    pub complaints: Vec<u64>,
    /// Whether the replacement decision was DTC-backed or guesswork.
    pub guesswork: bool,
}

impl ObdDiagnosis {
    /// Creates the baseline for a cluster.
    pub fn new(sim: &ClusterSim, params: ObdParams) -> Self {
        let n = sim.spec().n_components();
        ObdDiagnosis {
            params,
            n,
            comm_run: vec![vec![None; n]; n],
            value_run: BTreeMap::new(),
            value_last: BTreeMap::new(),
            dtcs: Vec::new(),
            complaints: vec![0; n],
            job_hosts: sim.spec().jobs.iter().map(|j| (j.id, j.host)).collect(),
            round_len: sim.round_len(),
        }
    }

    /// Recorded DTCs so far.
    pub fn dtcs(&self) -> &[Dtc] {
        &self.dtcs
    }

    /// Feeds one slot record (each ECU sees only its own observations).
    pub fn ingest(&mut self, sim: &ClusterSim, rec: &SlotRecord) {
        let owner = rec.owner.0 as usize;
        // Communication judgement per observer.
        for (i, obs) in rec.observations.iter().enumerate() {
            if i == owner {
                continue;
            }
            let failed = obs.is_error();
            match (failed, self.comm_run[i][owner]) {
                (true, None) => self.comm_run[i][owner] = Some(rec.start),
                (true, Some(_)) => {}
                (false, Some(since)) => {
                    self.close_comm_run(i, owner, since, rec.start);
                }
                (false, None) => {}
            }
            // Offline receivers keep their runs open (they saw nothing).
            if matches!(obs, ObsKind::Offline) {
                // no judgement possible
            }
        }

        // Value plausibility: each ECU checks the signals it consumes
        // against the LIF ranges it knows (the paper's "implausible
        // signal" DTC); blames the producer's host ECU.
        for (_, msgs) in &rec.sent {
            for m in msgs {
                if let Some(lif) = sim.lif_of(m.src) {
                    let job = lif.producer;
                    if lif.value_violation(m.value) {
                        self.value_run.entry(job).or_insert(rec.start);
                        self.value_last.insert(job, rec.start);
                    } else if let Some(since) = self.value_run.get(&job).copied() {
                        // Tolerate single-round gaps (state rebroadcasts).
                        let last = self.value_last.get(&job).copied().unwrap_or(since);
                        if rec.start.saturating_since(last) > self.round_len * 2 {
                            self.close_value_run(job, since, rec.start);
                        }
                    }
                }
            }
        }
    }

    fn close_comm_run(&mut self, observer: usize, subject: usize, since: SimTime, now: SimTime) {
        self.comm_run[observer][subject] = None;
        let dur = now.saturating_since(since);
        if dur >= self.params.record_threshold {
            self.dtcs.push(Dtc {
                recorded_by: NodeId(observer as u16),
                blames: NodeId(subject as u16),
                since,
            });
        } else {
            self.complaints[subject] += 1;
        }
    }

    fn close_value_run(&mut self, job: JobId, since: SimTime, now: SimTime) {
        self.value_run.remove(&job);
        self.value_last.remove(&job);
        let host = self.job_hosts[&job];
        let dur = now.saturating_since(since);
        if dur >= self.params.record_threshold {
            self.dtcs.push(Dtc { recorded_by: host, blames: host, since });
        } else {
            self.complaints[host.0 as usize] += 1;
        }
    }

    /// Closes all open runs at campaign end (the vehicle arrives at the
    /// workshop) and produces the replacement decision.
    pub fn report(&mut self, end: SimTime) -> ObdReport {
        for o in 0..self.n {
            for s in 0..self.n {
                if let Some(since) = self.comm_run[o][s] {
                    self.close_comm_run(o, s, since, end);
                }
            }
        }
        let jobs: Vec<JobId> = self.value_run.keys().copied().collect();
        for j in jobs {
            if let Some(since) = self.value_run.get(&j).copied() {
                self.close_value_run(j, since, end);
            }
        }

        let mut blamed: Vec<NodeId> = self.dtcs.iter().map(|d| d.blames).collect();
        blamed.sort_unstable();
        blamed.dedup();
        if !blamed.is_empty() {
            return ObdReport {
                replacements: blamed,
                dtcs: self.dtcs.clone(),
                complaints: self.complaints.clone(),
                guesswork: false,
            };
        }
        // No DTC: guesswork swap of the most complained-about ECU.
        let total: u64 = self.complaints.iter().sum();
        if total >= self.params.complaint_min {
            let worst = self
                .complaints
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| NodeId(i as u16))
                .expect("non-empty complaints vector");
            return ObdReport {
                replacements: vec![worst],
                dtcs: Vec::new(),
                complaints: self.complaints.clone(),
                guesswork: true,
            };
        }
        ObdReport {
            replacements: Vec::new(),
            dtcs: Vec::new(),
            complaints: self.complaints.clone(),
            guesswork: false,
        }
    }
}

impl decos_platform::SlotObserver for ObdDiagnosis {
    fn on_slot(&mut self, sim: &ClusterSim, rec: &SlotRecord) {
        self.ingest(sim, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_faults::{FaultEnvironment, FaultKind, FaultSpec, FruRef};
    use decos_platform::fig10;
    use decos_sim::SeedSource;

    fn run(faults: Vec<FaultSpec>, accel: f64, rounds: u64) -> (ObdReport, ClusterSim) {
        let spec = fig10::reference_spec();
        let mut env = FaultEnvironment::for_cluster(faults, &spec, accel, SeedSource::new(3));
        let mut sim = ClusterSim::new(spec, 11).unwrap();
        let mut obd = ObdDiagnosis::new(&sim, ObdParams::default());
        for _ in 0..rounds * 4 {
            let rec = sim.step_slot(&mut env);
            obd.ingest(&sim, &rec);
        }
        let end = sim.now();
        (obd.report(end), sim)
    }

    #[test]
    fn clean_vehicle_nothing_to_do() {
        let (rep, _) = run(vec![], 1.0, 500);
        assert!(rep.replacements.is_empty());
        assert!(rep.dtcs.is_empty());
    }

    #[test]
    fn short_transients_are_not_recorded() {
        // Frequent 5 ms connector interruptions: far below 500 ms.
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::ConnectorIntermittent { rate_per_hour: 20_000.0, duration_ms: 5.0 },
            target: FruRef::Component(NodeId(2)),
            onset: SimTime::ZERO,
        }];
        let (rep, _) = run(faults, 10.0, 3000);
        assert!(rep.dtcs.is_empty(), "sub-500ms transients must not become DTCs");
        assert!(rep.complaints.iter().sum::<u64>() > 0, "but complaints accumulate");
        // Guesswork replacement of the most complained-about ECU.
        assert!(rep.guesswork);
        assert_eq!(rep.replacements, vec![NodeId(2)]);
    }

    #[test]
    fn permanent_failure_is_recorded() {
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::IcPermanent { after_hours: 0.0 },
            target: FruRef::Component(NodeId(1)),
            onset: SimTime::from_millis(50),
        }];
        let (rep, _) = run(faults, 1.0, 1000);
        assert!(!rep.dtcs.is_empty());
        assert!(rep.replacements.contains(&NodeId(1)));
        assert!(!rep.guesswork);
    }

    #[test]
    fn stuck_sensor_blames_the_host_ecu() {
        // The baseline cannot see job granularity: a stuck A1 sensor
        // produces an implausible-signal DTC against component 0 — a
        // hardware replacement for a transducer fault.
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::SensorStuck { value: 99.0 },
            target: FruRef::Job(fig10::jobs::A1),
            onset: SimTime::ZERO,
        }];
        let (rep, _) = run(faults, 1.0, 1000);
        assert!(rep.replacements.contains(&NodeId(0)), "OBD blames the ECU, not the sensor");
    }
}
