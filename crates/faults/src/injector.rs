//! The fault-injection engine.
//!
//! [`FaultEnvironment`] implements the platform's [`Environment`] hooks and
//! turns a list of [`FaultSpec`]s into concrete manifestations, keeping a
//! ground-truth [`ActivationLog`] so experiments can score the diagnostic
//! subsystem against what was really injected.
//!
//! Episodic faults are driven by per-slot Bernoulli trials with
//! `p = rate(t) · accel · Δt_slot`: an exact discretization of a
//! (possibly non-homogeneous) Poisson process at the slot granularity,
//! which is the finest granularity at which manifestations can matter on a
//! TDMA bus. `accel` is an explicit rate-acceleration factor: slot-level
//! campaigns compress the paper's per-year rates into simulable minutes
//! while preserving the *pattern* (ratios, durations, spatial scope) the
//! classifier operates on — EXPERIMENTS.md documents the factor used per
//! experiment.

use crate::taxonomy::{FaultClass, FaultKind, FruRef};
use decos_platform::{
    ComponentDirective, Environment, JobId, JobRuntime, JobSpec, NodeId, Position, SensorFault,
    TxDisturbance,
};
use decos_sim::rng::{SampleExt, SeedSource};
use decos_sim::time::{SimDuration, SimTime};
use decos_ttnet::{RxDisturbance, SlotAddress};
use decos_vnet::Message;
use rand::rngs::SmallRng;
use rand::RngExt as _;
use serde::{Deserialize, Serialize};

/// One fault to inject.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Campaign-unique identity.
    pub id: u32,
    /// What kind of fault.
    pub kind: FaultKind,
    /// The FRU it targets. For [`FaultKind::EmiBurst`] the target names the
    /// region's nearest component for bookkeeping only; the spatial scope
    /// comes from the kind's centre/radius.
    pub target: FruRef,
    /// Onset: the fault exists from this instant on (a crack appears, a
    /// bug ships, corrosion starts).
    pub onset: SimTime,
}

impl FaultSpec {
    /// The maintenance-oriented class of this fault.
    pub fn class(&self) -> FaultClass {
        self.kind.class()
    }
}

/// A recorded manifestation window (ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivationWindow {
    /// The fault that manifested.
    pub fault_id: u32,
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// Ground-truth log of everything the engine actually did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivationLog {
    /// Episode windows, in activation order.
    pub windows: Vec<ActivationWindow>,
}

impl ActivationLog {
    /// Episodes of one fault.
    pub fn episodes_of(&self, fault_id: u32) -> usize {
        self.windows.iter().filter(|w| w.fault_id == fault_id).count()
    }

    /// Whether fault `fault_id` was active at `t`.
    pub fn active_at(&self, fault_id: u32, t: SimTime) -> bool {
        self.windows.iter().any(|w| w.fault_id == fault_id && w.from <= t && t < w.until)
    }
}

/// Aggregate effect of all currently-manifesting diagnostic-path faults —
/// what the diagnostic subsystem's transport is suffering *right now*.
///
/// [`FaultEnvironment::diag_disturbance`] folds the active fault list into
/// one of these each slot; the campaign runner hands it to the diagnostic
/// engine, which never sees the injector itself (the engine stays drivable
/// standalone in tests by constructing a `DiagDisturbance` directly).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiagDisturbance {
    /// Probability that a symptom frame is lost in transit.
    pub loss_prob: f64,
    /// Probability that a symptom frame is bit-corrupted in transit.
    pub corrupt_prob: f64,
    /// Store-and-forward delay, whole TDMA rounds (0 = none).
    pub delay_rounds: u32,
    /// Babbling observer flooding forged symptoms, if any.
    pub babbler: Option<NodeId>,
    /// Forged symptom frames per round from the babbler.
    pub forged_per_round: u32,
    /// The component hosting the diagnostic DAS is crashed this slot.
    pub crashed: bool,
}

impl DiagDisturbance {
    /// No disturbance at all (healthy diagnostic path).
    pub const NONE: DiagDisturbance = DiagDisturbance {
        loss_prob: 0.0,
        corrupt_prob: 0.0,
        delay_rounds: 0,
        babbler: None,
        forged_per_round: 0,
        crashed: false,
    };
}

impl Default for DiagDisturbance {
    fn default() -> Self {
        Self::NONE
    }
}

#[derive(Debug, Clone)]
struct FaultState {
    spec: FaultSpec,
    /// Episode currently running (manifestation active until this instant).
    active_until: Option<SimTime>,
    /// For one-shot kinds (IcPermanent): directive already issued.
    fired: bool,
}

impl FaultState {
    fn is_active(&self, now: SimTime) -> bool {
        self.active_until.is_some_and(|u| now < u)
    }

    /// Episode rate per hour at `t` (0 for non-episodic kinds).
    fn rate_per_hour(&self, t: SimTime) -> f64 {
        let since = t.saturating_since(self.spec.onset).as_hours_f64();
        match &self.spec.kind {
            FaultKind::EmiBurst { rate_per_hour, .. }
            | FaultKind::CosmicRaySeu { rate_per_hour }
            | FaultKind::StressOutage { rate_per_hour, .. }
            | FaultKind::ConnectorIntermittent { rate_per_hour, .. }
            | FaultKind::IcTransient { rate_per_hour, .. }
            | FaultKind::PowerSupplyMarginal { rate_per_hour, .. }
            | FaultKind::DiagComponentCrash { rate_per_hour, .. } => *rate_per_hour,
            FaultKind::ConnectorWearout { base_rate_per_hour, growth_per_hour, .. }
            | FaultKind::PcbCrack { base_rate_per_hour, growth_per_hour, .. }
            | FaultKind::SolderJointCrack { base_rate_per_hour, growth_per_hour, .. } => {
                base_rate_per_hour + growth_per_hour * since
            }
            _ => 0.0,
        }
    }

    /// Episode duration for kinds that have one.
    fn episode_duration(&self, rng: &mut SmallRng) -> SimDuration {
        let ms = match &self.spec.kind {
            FaultKind::EmiBurst { duration_ms, .. }
            | FaultKind::ConnectorIntermittent { duration_ms, .. }
            | FaultKind::ConnectorWearout { duration_ms, .. }
            | FaultKind::SolderJointCrack { duration_ms, .. }
            | FaultKind::IcTransient { duration_ms, .. } => *duration_ms,
            FaultKind::StressOutage { outage_ms, .. }
            | FaultKind::PcbCrack { outage_ms, .. }
            | FaultKind::PowerSupplyMarginal { outage_ms, .. }
            | FaultKind::DiagComponentCrash { outage_ms, .. } => *outage_ms,
            // SEUs hit a single slot.
            FaultKind::CosmicRaySeu { .. } => 0.9,
            _ => 0.0,
        };
        // Exponentially distributed around the mean, floored at one slot
        // (sub-slot transients are invisible on a TDMA bus anyway).
        let u = 1.0 - rng.random::<f64>();
        SimDuration::from_secs_f64((ms * 1e-3 * (-u.ln())).max(1e-4))
    }
}

/// The fault-injection environment.
pub struct FaultEnvironment {
    faults: Vec<FaultState>,
    /// Component positions, indexed by `NodeId`.
    positions: Vec<Position>,
    /// Host component of every job.
    job_hosts: std::collections::BTreeMap<JobId, NodeId>,
    /// Rate acceleration factor for episodic faults.
    accel: f64,
    slot_hours: f64,
    rng: SmallRng,
    log: ActivationLog,
    now: SimTime,
}

impl FaultEnvironment {
    /// Builds the environment for a cluster.
    ///
    /// `positions[i]` is the mounting position of component `i`;
    /// `job_hosts` maps each job to its hosting component; `slot_len` the
    /// TDMA slot length (Bernoulli discretization step); `accel` the rate
    /// acceleration factor (1.0 = the paper's real-time rates).
    pub(crate) fn new(
        faults: Vec<FaultSpec>,
        positions: Vec<Position>,
        job_hosts: std::collections::BTreeMap<JobId, NodeId>,
        slot_len: SimDuration,
        accel: f64,
        seeds: SeedSource,
    ) -> Self {
        assert!(accel > 0.0);
        FaultEnvironment {
            faults: faults
                .into_iter()
                .map(|spec| FaultState { spec, active_until: None, fired: false })
                .collect(),
            positions,
            job_hosts,
            accel,
            slot_hours: slot_len.as_hours_f64(),
            rng: seeds.stream("fault-env", 0),
            log: ActivationLog::default(),
            now: SimTime::ZERO,
        }
    }

    /// Convenience: build directly from a cluster spec.
    pub fn for_cluster(
        faults: Vec<FaultSpec>,
        spec: &decos_platform::ClusterSpec,
        accel: f64,
        seeds: SeedSource,
    ) -> Self {
        let positions = spec.components.iter().map(|c| c.position).collect();
        let job_hosts = spec.jobs.iter().map(|j| (j.id, j.host)).collect();
        Self::new(faults, positions, job_hosts, spec.slot_len, accel, seeds)
    }

    /// The ground-truth activation log.
    pub fn log(&self) -> &ActivationLog {
        &self.log
    }

    /// Whether the half-open window `[from, to)` is provably quiescent: no
    /// fault, of any kind, can act anywhere inside it. A query for callers
    /// that classify windows; the cluster does not consume it and steps
    /// every slot the same way.
    pub fn window_quiescent(&self, from: SimTime, to: SimTime) -> bool {
        // A fault inactive at the window start can only become active via
        // the per-slot Bernoulli trial, which requires `now >= onset` —
        // impossible inside the window when every onset lies at or beyond
        // its end.
        self.faults.iter().all(|f| !f.is_active(from) && f.spec.onset >= to)
    }

    /// Folds the active diagnostic-path faults into the disturbance the
    /// diagnostic transport is suffering at the current slot.
    ///
    /// Transport kinds (loss, corruption, delay, babbling) manifest
    /// continuously from onset; [`FaultKind::DiagComponentCrash`] follows
    /// the episodic Bernoulli machinery like every other outage kind.
    /// Independent loss/corruption sources combine as
    /// `1 − ∏(1 − pᵢ)`; delays take the maximum.
    pub fn diag_disturbance(&self) -> DiagDisturbance {
        let now = self.now;
        let mut d = DiagDisturbance::NONE;
        for f in &self.faults {
            if now < f.spec.onset {
                continue;
            }
            match &f.spec.kind {
                FaultKind::DiagFrameLoss { loss_prob } => {
                    d.loss_prob = 1.0 - (1.0 - d.loss_prob) * (1.0 - loss_prob.clamp(0.0, 1.0));
                }
                FaultKind::DiagFrameCorruption { corrupt_prob } => {
                    d.corrupt_prob =
                        1.0 - (1.0 - d.corrupt_prob) * (1.0 - corrupt_prob.clamp(0.0, 1.0));
                }
                FaultKind::DiagFrameDelay { delay_rounds } => {
                    d.delay_rounds = d.delay_rounds.max(*delay_rounds);
                }
                FaultKind::BabblingObserver { forged_per_round } => {
                    d.babbler = Some(self.node_of(f.spec.target));
                    d.forged_per_round += forged_per_round;
                }
                FaultKind::DiagComponentCrash { .. } if f.is_active(now) => {
                    d.crashed = true;
                }
                _ => {}
            }
        }
        d
    }

    fn node_of(&self, fru: FruRef) -> NodeId {
        match fru {
            FruRef::Component(n) => n,
            FruRef::Job(j) => self.job_hosts[&j],
        }
    }

    /// Active faults whose manifestation involves the transmit path of
    /// `sender`.
    fn tx_effect(&mut self, sender: NodeId) -> TxDisturbance {
        let now = self.now;
        let mut d = TxDisturbance::NONE;
        for f in &self.faults {
            if !f.is_active(now) {
                continue;
            }
            match &f.spec.kind {
                FaultKind::EmiBurst { center, radius_m, .. }
                    if self.positions[sender.0 as usize].distance(center) <= *radius_m =>
                {
                    d.corrupt_bits += 2 + (self.rng.random::<u32>() % 6);
                }
                FaultKind::CosmicRaySeu { .. } if self.node_of(f.spec.target) == sender => {
                    d.corrupt_bits += 1;
                }
                FaultKind::ConnectorIntermittent { .. } | FaultKind::ConnectorWearout { .. }
                    if self.node_of(f.spec.target) == sender =>
                {
                    d.silence = true;
                }
                FaultKind::PcbCrack { .. } | FaultKind::PowerSupplyMarginal { .. }
                    if self.node_of(f.spec.target) == sender =>
                {
                    d.silence = true;
                }
                FaultKind::SolderJointCrack { .. } | FaultKind::IcTransient { .. }
                    if self.node_of(f.spec.target) == sender =>
                {
                    d.corrupt_bits += 2 + (self.rng.random::<u32>() % 4);
                }
                _ => {}
            }
        }
        d
    }
}

impl Environment for FaultEnvironment {
    fn begin_slot(&mut self, now: SimTime, _addr: SlotAddress) {
        self.now = now;
        // Episode activation: Bernoulli trial per episodic fault per slot.
        for i in 0..self.faults.len() {
            let (onset, active) = (self.faults[i].spec.onset, self.faults[i].is_active(now));
            if active || now < onset {
                continue;
            }
            let rate = self.faults[i].rate_per_hour(now);
            if rate <= 0.0 {
                continue;
            }
            let p = rate * self.accel * self.slot_hours;
            if self.rng.chance(p) {
                let dur = self.faults[i].episode_duration(&mut self.rng);
                let until = now + dur;
                self.faults[i].active_until = Some(until);
                self.log.windows.push(ActivationWindow {
                    fault_id: self.faults[i].spec.id,
                    from: now,
                    until,
                });
            }
        }
    }

    fn cluster_disturbed(&self, now: SimTime) -> bool {
        // Mirrors the guards of `tx_effect` / `rx_disturbance`: both act
        // (or draw randomness) only during an active episode of an
        // application-path kind. Value-domain kinds — sensor defects,
        // software design faults, capacitor-aging bias — never reach the
        // channel: they act through `pre_dispatch` / `filter_outputs`,
        // which run on both slot bodies. Diagnostic-path kinds manifest on
        // the diagnosis transport, never on the slot hooks.
        self.faults.iter().any(|f| f.is_active(now) && !f.spec.kind.is_diag_path())
    }

    fn component_directive(&mut self, now: SimTime, node: NodeId) -> Option<ComponentDirective> {
        for f in &mut self.faults {
            match &f.spec.kind {
                FaultKind::IcPermanent { after_hours }
                    if !f.fired
                        && f.spec.target == FruRef::Component(node)
                        && now >= f.spec.onset
                        && now.saturating_since(f.spec.onset).as_hours_f64() >= *after_hours =>
                {
                    f.fired = true;
                    f.log_permanent(now, &mut self.log);
                    return Some(ComponentDirective::Kill);
                }
                FaultKind::StressOutage { outage_ms, .. } => {
                    // A stress episode crashes the component: restart with
                    // state synchronization instead of plain silence.
                    if f.is_active(now) && f.spec.target == FruRef::Component(node) && !f.fired {
                        f.fired = true;
                        return Some(ComponentDirective::Restart {
                            dur_ns: (*outage_ms * 1e6) as u64,
                        });
                    }
                    if !f.is_active(now) {
                        f.fired = false; // re-arm for the next episode
                    }
                }
                _ => {}
            }
        }
        None
    }

    fn tx_disturbance(&mut self, _now: SimTime, sender: NodeId) -> TxDisturbance {
        self.tx_effect(sender)
    }

    fn rx_disturbance(&mut self, now: SimTime, _sender: NodeId, receiver: NodeId) -> RxDisturbance {
        let mut d = RxDisturbance::NONE;
        for f in &self.faults {
            if !f.is_active(now) {
                continue;
            }
            match &f.spec.kind {
                FaultKind::EmiBurst { center, radius_m, .. }
                    if self.positions[receiver.0 as usize].distance(center) <= *radius_m =>
                {
                    d.corrupt_bits += 2 + (self.rng.random::<u32>() % 6);
                }
                FaultKind::ConnectorIntermittent { .. } | FaultKind::ConnectorWearout { .. }
                    if self.node_of(f.spec.target) == receiver =>
                {
                    d.omit = true;
                }
                _ => {}
            }
        }
        d
    }

    fn pre_dispatch(&mut self, now: SimTime, job: &mut JobRuntime) {
        let id = job.spec().id;
        for f in &self.faults {
            if f.spec.target != FruRef::Job(id) || now < f.spec.onset {
                continue;
            }
            match &f.spec.kind {
                FaultKind::SensorStuck { value } => {
                    job.set_sensor_fault(SensorFault::Stuck(*value));
                }
                FaultKind::SensorDrift { per_hour } => job.set_sensor_fault(SensorFault::Drift {
                    per_hour: *per_hour,
                    since: f.spec.onset,
                }),
                FaultKind::SensorNoise { std_dev } => {
                    job.set_sensor_fault(SensorFault::Noise { std_dev: *std_dev });
                }
                FaultKind::SensorDead => job.set_sensor_fault(SensorFault::Dead),
                _ => {}
            }
        }
    }

    fn filter_outputs(&mut self, now: SimTime, job: &JobSpec, msgs: &mut Vec<Message>) {
        for f in &self.faults {
            if now < f.spec.onset {
                continue;
            }
            match (&f.spec.kind, f.spec.target) {
                (FaultKind::Bohrbug { trigger_band, offset }, FruRef::Job(j)) if j == job.id => {
                    for m in msgs.iter_mut() {
                        if m.value >= trigger_band.0 && m.value <= trigger_band.1 {
                            m.value += *offset;
                        }
                    }
                }
                (FaultKind::Heisenbug { prob_per_dispatch, drop, wrong_value }, FruRef::Job(j))
                    if j == job.id
                        && !msgs.is_empty()
                        && self.rng.chance(*prob_per_dispatch * self.accel) =>
                {
                    if *drop {
                        msgs.clear();
                    } else {
                        for m in msgs.iter_mut() {
                            m.value = *wrong_value;
                        }
                    }
                }
                (FaultKind::CapacitorAging { bias_per_hour }, FruRef::Component(n))
                    if n == job.host =>
                {
                    let bias = bias_per_hour
                        * now.saturating_since(f.spec.onset).as_hours_f64()
                        * self.accel;
                    for m in msgs.iter_mut() {
                        m.value += bias;
                    }
                }
                _ => {}
            }
        }
    }

    fn extra_drift_ppm(&mut self, now: SimTime, node: NodeId) -> f64 {
        let mut extra = 0.0;
        for f in &self.faults {
            if let FaultKind::QuartzDegradation { drift_ppm_per_hour } = &f.spec.kind {
                if f.spec.target == FruRef::Component(node) && now >= f.spec.onset {
                    extra += drift_ppm_per_hour
                        * now.saturating_since(f.spec.onset).as_hours_f64()
                        * self.accel;
                }
            }
        }
        extra
    }
}

impl FaultState {
    fn log_permanent(&self, now: SimTime, log: &mut ActivationLog) {
        log.windows.push(ActivationWindow {
            fault_id: self.spec.id,
            from: now,
            until: SimTime::MAX,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_platform::fig10;
    use decos_platform::{ClusterSim, ObsKind};

    fn env_with(faults: Vec<FaultSpec>, accel: f64) -> (ClusterSim, FaultEnvironment) {
        let spec = fig10::reference_spec();
        let env = FaultEnvironment::for_cluster(faults, &spec, accel, SeedSource::new(1234));
        let sim = ClusterSim::new(spec, 99).unwrap();
        (sim, env)
    }

    fn count_errors_per_node(
        sim: &mut ClusterSim,
        env: &mut FaultEnvironment,
        rounds: u64,
    ) -> Vec<u64> {
        let mut errs = vec![0u64; 4];
        sim.run_rounds(rounds, env, &mut |_, rec| {
            for o in &rec.observations {
                if o.is_error() {
                    errs[rec.owner.0 as usize] += 1;
                }
            }
        });
        errs
    }

    #[test]
    fn no_faults_no_effects() {
        let (mut sim, mut env) = env_with(vec![], 1.0);
        let errs = count_errors_per_node(&mut sim, &mut env, 200);
        assert_eq!(errs, vec![0, 0, 0, 0]);
        assert!(env.log().windows.is_empty());
    }

    #[test]
    fn connector_fault_silences_target_only() {
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::ConnectorIntermittent { rate_per_hour: 2000.0, duration_ms: 5.0 },
            target: FruRef::Component(NodeId(2)),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 10.0);
        let mut involving_target = 0u64;
        let mut unrelated = 0u64;
        sim.run_rounds(3000, &mut env, &mut |_, rec| {
            for (i, o) in rec.observations.iter().enumerate() {
                if o.is_error() {
                    if rec.owner == NodeId(2) || i == 2 {
                        involving_target += 1;
                    } else {
                        unrelated += 1;
                    }
                }
            }
        });
        assert!(involving_target > 0, "target must show omissions");
        assert_eq!(unrelated, 0, "pairs not involving the faulty connector stay clean");
        assert!(env.log().episodes_of(1) > 0);
    }

    #[test]
    fn emi_burst_hits_spatially_close_components() {
        // Burst centred between components 0 and 1 (front zone).
        let faults = vec![FaultSpec {
            id: 7,
            kind: FaultKind::EmiBurst {
                rate_per_hour: 1000.0,
                duration_ms: 10.0,
                center: Position { x: 0.2, y: 0.1 },
                radius_m: 1.0,
            },
            target: FruRef::Component(NodeId(0)),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 10.0);
        // Effects land either on the corrupted *senders* (everyone sees
        // InvalidCrc when a front component transmits through the burst) or
        // on in-radius *receivers*. Rear-to-rear traffic stays clean.
        let mut front_involved = 0u64;
        let mut rear_to_rear = 0u64;
        sim.run_rounds(4000, &mut env, &mut |_, rec| {
            for (i, o) in rec.observations.iter().enumerate() {
                if matches!(o, ObsKind::InvalidCrc) {
                    let front = rec.owner.0 <= 1 || i <= 1;
                    if front {
                        front_involved += 1;
                    } else {
                        rear_to_rear += 1;
                    }
                }
            }
        });
        assert!(front_involved > 0, "front zone must be hit");
        assert_eq!(rear_to_rear, 0, "rear components out of radius must stay clean");
    }

    #[test]
    fn wearout_rate_increases() {
        let faults = vec![FaultSpec {
            id: 3,
            kind: FaultKind::SolderJointCrack {
                base_rate_per_hour: 100.0,
                growth_per_hour: 200_000.0,
                duration_ms: 4.0,
            },
            target: FruRef::Component(NodeId(1)),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 1.0);
        // 20 000 rounds at 4 ms = 80 s; rate grows from 100/h to ~2300/h.
        let mut first_half = 0u64;
        let mut second_half = 0u64;
        let mut slot_no = 0u64;
        sim.run_rounds(20_000, &mut env, &mut |_, rec| {
            slot_no += 1;
            if rec.owner == NodeId(1) {
                let errors = rec.observations.iter().filter(|o| o.is_error()).count() as u64;
                if slot_no < 40_000 {
                    first_half += errors;
                } else {
                    second_half += errors;
                }
            }
        });
        assert!(
            second_half as f64 > first_half.max(1) as f64 * 1.5,
            "episode frequency must grow: {first_half} → {second_half}"
        );
    }

    #[test]
    fn ic_permanent_kills_component() {
        let faults = vec![FaultSpec {
            id: 9,
            kind: FaultKind::IcPermanent { after_hours: 0.0 },
            target: FruRef::Component(NodeId(3)),
            onset: SimTime::from_millis(100),
        }];
        let (mut sim, mut env) = env_with(faults, 1.0);
        sim.run_rounds(500, &mut env, &mut |_, _| {});
        assert!(sim.component(NodeId(3)).is_dead());
        assert!(env.log().windows.iter().any(|w| w.fault_id == 9 && w.until == SimTime::MAX));
    }

    #[test]
    fn sensor_fault_reaches_job() {
        let faults = vec![FaultSpec {
            id: 4,
            kind: FaultKind::SensorStuck { value: 42.0 },
            target: FruRef::Job(fig10::jobs::A1),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 1.0);
        sim.run_rounds(10, &mut env, &mut |_, _| {});
        assert_eq!(sim.job(fig10::jobs::A1).sensor().unwrap().fault(), SensorFault::Stuck(42.0));
    }

    #[test]
    fn bohrbug_is_deterministic_in_trigger_band() {
        // A1 publishes a sawtooth 0..10 over 60 s; bug triggers in [2, 3].
        let faults = vec![FaultSpec {
            id: 5,
            kind: FaultKind::Bohrbug { trigger_band: (2.0, 3.0), offset: 997.0 },
            target: FruRef::Job(fig10::jobs::A1),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 1.0);
        let mut wrong = 0u64;
        let mut in_band_correct = 0u64;
        sim.run_rounds(10_000, &mut env, &mut |_, rec| {
            for (_, msgs) in &rec.sent {
                for m in msgs {
                    if m.src == fig10::ports::A1 {
                        if m.value > 900.0 {
                            wrong += 1;
                        } else if m.value >= 2.2 && m.value <= 2.8 {
                            in_band_correct += 1;
                        }
                    }
                }
            }
        });
        assert!(wrong > 0, "bug must fire in the trigger band");
        assert_eq!(in_band_correct, 0, "inside the band the bug always fires");
    }

    #[test]
    fn quartz_degradation_causes_sync_loss() {
        let faults = vec![FaultSpec {
            id: 6,
            kind: FaultKind::QuartzDegradation { drift_ppm_per_hour: 1e7 },
            target: FruRef::Component(NodeId(2)),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 1.0);
        let mut losses = Vec::new();
        sim.run_rounds(5_000, &mut env, &mut |_, rec| {
            losses.extend(rec.sync_losses.clone());
        });
        assert!(losses.contains(&NodeId(2)), "degraded quartz must lose sync");
    }

    #[test]
    fn diag_disturbance_folds_active_path_faults() {
        let faults = vec![
            FaultSpec {
                id: 21,
                kind: FaultKind::DiagFrameLoss { loss_prob: 0.5 },
                target: FruRef::Component(NodeId(0)),
                onset: SimTime::ZERO,
            },
            FaultSpec {
                id: 22,
                kind: FaultKind::DiagFrameLoss { loss_prob: 0.5 },
                target: FruRef::Component(NodeId(0)),
                onset: SimTime::ZERO,
            },
            FaultSpec {
                id: 23,
                kind: FaultKind::DiagFrameDelay { delay_rounds: 3 },
                target: FruRef::Component(NodeId(0)),
                onset: SimTime::from_millis(10_000), // not yet
            },
            FaultSpec {
                id: 24,
                kind: FaultKind::BabblingObserver { forged_per_round: 40 },
                target: FruRef::Component(NodeId(2)),
                onset: SimTime::ZERO,
            },
        ];
        let (mut sim, mut env) = env_with(faults, 1.0);
        sim.run_rounds(5, &mut env, &mut |_, _| {});
        let d = env.diag_disturbance();
        // Two independent 50 % loss sources combine to 75 %.
        assert!((d.loss_prob - 0.75).abs() < 1e-12);
        assert_eq!(d.delay_rounds, 0, "delay fault has not reached onset");
        assert_eq!(d.babbler, Some(NodeId(2)));
        assert_eq!(d.forged_per_round, 40);
        assert!(!d.crashed);
        // The application bus must be untouched by diagnostic-path faults.
        assert_eq!(env.tx_effect(NodeId(0)), TxDisturbance::NONE);
    }

    #[test]
    fn diag_component_crash_is_episodic_and_logged() {
        let faults = vec![FaultSpec {
            id: 31,
            kind: FaultKind::DiagComponentCrash { rate_per_hour: 2000.0, outage_ms: 30.0 },
            target: FruRef::Component(NodeId(1)),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 10.0);
        let mut crashed_slots = 0u64;
        let mut total = 0u64;
        sim.run_rounds(4000, &mut env, &mut |_, _| {});
        // Re-derive activity from the ground-truth log.
        for w in &env.log().windows {
            assert_eq!(w.fault_id, 31);
            assert!(w.until > w.from);
        }
        assert!(env.log().episodes_of(31) > 0, "crash episodes must fire");
        // Walk the log to confirm diag_disturbance reflected the windows.
        let mut sim2_faults = vec![FaultSpec {
            id: 31,
            kind: FaultKind::DiagComponentCrash { rate_per_hour: 2000.0, outage_ms: 30.0 },
            target: FruRef::Component(NodeId(1)),
            onset: SimTime::ZERO,
        }];
        let (mut sim2, mut env2) = env_with(std::mem::take(&mut sim2_faults), 10.0);
        let mut saw_crashed = false;
        for _ in 0..4000 * 4 {
            sim2.step_slot(&mut env2);
            let d = env2.diag_disturbance();
            total += 1;
            if d.crashed {
                crashed_slots += 1;
                saw_crashed = true;
            }
        }
        assert!(saw_crashed, "disturbance must report the outage");
        assert!(crashed_slots < total, "outages must end");
        let _ = sim;
    }

    #[test]
    fn sensor_fault_runs_on_fast_body() {
        // A value-domain fault never reaches the channel, so its slots
        // keep the fast body while the sensor hook still acts.
        let faults = vec![FaultSpec {
            id: 4,
            kind: FaultKind::SensorStuck { value: 42.0 },
            target: FruRef::Job(fig10::jobs::A1),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 10.0);
        sim.run_rounds(400, &mut env, &mut |_, _| {});
        let (fast, legacy) = sim.slot_body_counts();
        assert_eq!(fast + legacy, 1600);
        assert!(fast * 100 >= (fast + legacy) * 95, "fast {fast}, legacy {legacy}");
        assert_eq!(sim.job(fig10::jobs::A1).sensor().unwrap().fault(), SensorFault::Stuck(42.0));
    }

    #[test]
    fn connector_fault_takes_legacy_body_only_inside_episodes() {
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::ConnectorIntermittent { rate_per_hour: 2000.0, duration_ms: 5.0 },
            target: FruRef::Component(NodeId(2)),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 10.0);
        // Per slot: its start instant and whether it took the legacy body.
        let mut slots = Vec::new();
        let mut legacy_before = 0u64;
        sim.run_rounds(3000, &mut env, &mut |sim, rec| {
            let legacy = sim.slot_body_counts().1;
            slots.push((rec.start, legacy > legacy_before));
            legacy_before = legacy;
        });
        assert!(env.log().episodes_of(1) > 0);
        assert!(slots.iter().any(|&(_, legacy)| legacy), "episodes must reach the legacy body");
        for (t, legacy) in slots {
            assert_eq!(legacy, env.log().active_at(1, t), "slot at {t:?}");
        }
    }

    #[test]
    fn quartz_drift_admits_in_window_offsets_to_fast_body() {
        // A drifting quartz spreads the clocks past the admission window
        // long before the owner's own send offset leaves it: those slots
        // are admitted to the fast body on the exact offset.
        let faults = vec![FaultSpec {
            id: 6,
            kind: FaultKind::QuartzDegradation { drift_ppm_per_hour: 1e7 },
            target: FruRef::Component(NodeId(2)),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 10.0);
        let window = decos_ttnet::ChannelParams::default().rx_window_half_ns;
        let mut wide_fast = 0u64;
        let mut fast_before = 0u64;
        sim.run_rounds(400, &mut env, &mut |sim, rec| {
            let devs = sim
                .components()
                .iter()
                .filter(|c| c.is_operational(rec.start))
                .map(|c| c.clock.deviation_ns(rec.start));
            let spread = devs.clone().max().unwrap() - devs.min().unwrap();
            let fast = sim.slot_body_counts().0;
            if fast > fast_before && spread.unsigned_abs() > window {
                wide_fast += 1;
            }
            fast_before = fast;
        });
        assert!(wide_fast > 0, "no fast slot beyond the spread bound");
    }

    #[test]
    fn heisenbug_fires_rarely() {
        let faults = vec![FaultSpec {
            id: 8,
            kind: FaultKind::Heisenbug {
                prob_per_dispatch: 0.001,
                drop: false,
                wrong_value: 777.0,
            },
            target: FruRef::Job(fig10::jobs::S1),
            onset: SimTime::ZERO,
        }];
        let (mut sim, mut env) = env_with(faults, 1.0);
        let mut wrong = 0u64;
        let rounds = 20_000;
        sim.run_rounds(rounds, &mut env, &mut |_, rec| {
            for (_, msgs) in &rec.sent {
                wrong +=
                    msgs.iter().filter(|m| m.src == fig10::ports::S1 && m.value == 777.0).count()
                        as u64;
            }
        });
        // ~0.1 % of 20k dispatches, but a corrupted *state* value is
        // rebroadcast until the next dispatch overwrites it, so counts can
        // exceed the trigger count slightly. Expect a small, non-zero tally.
        assert!((2..=200).contains(&wrong), "wrong-value frames: {wrong}");
    }
}
