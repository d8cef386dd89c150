//! The diagnostic engine — the encapsulated diagnostic DAS.
//!
//! Wires the pipeline of §II-D end to end:
//! detection → dissemination over the diagnostic virtual network →
//! distributed state → ONA evaluation → trust assessment → maintenance
//! advice. One [`DiagnosticEngine`] instance is the diagnostic DAS of one
//! cluster; feed it every [`SlotRecord`] and ask for the report.

use crate::advisor::{AdvisorParams, DiagnosticReport, MaintenanceAdvisor};
use crate::detectors::SymptomDetectors;
use crate::dissemination::{DiagnosticNetwork, DisseminationStats, PlausibilityScreen};
use crate::patterns::{OnaBank, OnaParams, PatternMatch};
use crate::state::DistributedState;
use crate::symptom::{Subject, Symptom, SymptomKind};
use crate::trust::{FruAssessor, TrustParams};
use decos_faults::{DiagDisturbance, FaultClass, FruRef};
use decos_platform::{ClusterSim, JobId, NodeId, SlotRecord, SpecError};
use decos_sim::flightrec::{FlightRecorder, TraceEventKind, NO_COMPONENT};
use decos_sim::time::SimDuration;
use std::collections::BTreeMap;

/// Mean delivery quality below which the diagnostic path is reported
/// degraded. The single source of truth for the `0.9` that used to be
/// duplicated across the engine and the fleet aggregator: every reporting
/// site must consume [`EngineParams::degraded_quality_threshold`] (which
/// defaults to this) or the engine's own `report.degraded`, never re-derive
/// the comparison.
pub const DEGRADED_QUALITY_THRESHOLD: f64 = 0.9;

/// Aggregate configuration of the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineParams {
    /// ONA bank parameters.
    pub ona: OnaParams,
    /// Trust dynamics.
    pub trust: TrustParams,
    /// Advisor thresholds.
    pub advisor: AdvisorParams,
    /// Short-term symptom history bound, rounds.
    pub horizon_rounds: usize,
    /// Long-horizon trend bucket width.
    pub trend_window: SimDuration,
    /// Rounds of short-term history the cold-standby replica replays from
    /// its peers after a failover; during the resync it runs at reduced
    /// quality.
    pub resync_rounds: u16,
    /// Mean delivery quality below which the report flags the path
    /// degraded (defaults to [`DEGRADED_QUALITY_THRESHOLD`]).
    pub degraded_quality_threshold: f64,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            ona: OnaParams::default(),
            trust: TrustParams::default(),
            advisor: AdvisorParams::default(),
            horizon_rounds: 512,
            trend_window: SimDuration::from_millis(400),
            resync_rounds: 8,
            degraded_quality_threshold: DEGRADED_QUALITY_THRESHOLD,
        }
    }
}

/// The diagnostic DAS.
pub struct DiagnosticEngine {
    detectors: SymptomDetectors,
    network: DiagnosticNetwork,
    state: DistributedState,
    bank: OnaBank,
    trust: FruAssessor,
    advisor: MaintenanceAdvisor,
    scratch: Vec<Symptom>,
    delivered: Vec<Symptom>,
    slots_per_round: u16,
    slot_in_round: u16,
    matches_last_round: Vec<PatternMatch>,
    /// The diagnostic-path disturbance in force (fed by the campaign
    /// runner from the fault environment; [`DiagDisturbance::NONE`] means
    /// a healthy path).
    disturbance: DiagDisturbance,
    /// Whether the primary diagnostic component is currently crashed.
    primary_down: bool,
    /// Rounds of bounded resync still owed after the last failover.
    resync_remaining: u16,
    resync_rounds: u16,
    failovers: u32,
    crashed_rounds: u64,
    /// Deterministic sequence for forged-frame fabrication (babbler).
    forge_seq: u64,
    quality_sum: f64,
    quality_rounds: u64,
    last_quality: f64,
    degraded_quality_threshold: f64,
    /// Total ONA pattern matches produced over the campaign (telemetry).
    ona_matches: u64,
    /// Fault-lifecycle flight recorder (inert by default; see
    /// DESIGN.md §11).
    recorder: FlightRecorder,
    /// Slot address of the record being observed (event stamping).
    current_round: u64,
    current_slot: u16,
    /// Cumulative dissemination stats at the last round close, for
    /// per-round event deltas.
    prev_stats: DisseminationStats,
    /// Trust freeze/thaw edge detection.
    prev_frozen_rounds: u64,
    was_frozen: bool,
    /// FRUs whose conviction event already fired (first decision only).
    convicted: Vec<FruRef>,
    /// Host component of each job (event stamping; the advisor keeps its
    /// own copy for root-cause consolidation).
    job_hosts: BTreeMap<JobId, NodeId>,
}

/// Component index a FRU's evidence lands on: a job maps to its host.
fn comp_index(job_hosts: &BTreeMap<JobId, NodeId>, fru: FruRef) -> u16 {
    match fru {
        FruRef::Component(n) => n.0,
        FruRef::Job(j) => job_hosts.get(&j).map_or(NO_COMPONENT, |n| n.0),
    }
}

/// Registry index of a fault class (the `detail` of conviction events).
fn class_index(c: FaultClass) -> u32 {
    FaultClass::ALL.iter().position(|x| *x == c).unwrap_or(0) as u32
}

impl DiagnosticEngine {
    /// Builds the engine for a cluster, its diagnostic network dimensioned
    /// by the spec's [`DiagNetSpec`](decos_platform::DiagNetSpec). A
    /// misdimensioned network is a [`SpecError`], which
    /// [`ClusterSim::new`] and the analyzer (DA070) already report for the
    /// same spec, so a built sim never fails here.
    pub fn try_new(sim: &ClusterSim, params: EngineParams) -> Result<Self, SpecError> {
        let network = DiagnosticNetwork::from_spec(&sim.spec().diag_net)?
            .with_screen(PlausibilityScreen::for_spec(sim.spec()));
        Ok(DiagnosticEngine {
            detectors: SymptomDetectors::new(sim),
            network,
            state: DistributedState::new(params.horizon_rounds, params.trend_window),
            bank: OnaBank::new(sim, params.ona),
            trust: FruAssessor::new(params.trust),
            advisor: MaintenanceAdvisor::with_hosts(
                params.advisor,
                sim.spec().jobs.iter().map(|j| (j.id, j.host)).collect(),
            ),
            scratch: Vec::new(),
            delivered: Vec::new(),
            slots_per_round: sim.schedule().slots_per_round(),
            slot_in_round: 0,
            matches_last_round: Vec::new(),
            disturbance: DiagDisturbance::NONE,
            primary_down: false,
            resync_remaining: 0,
            resync_rounds: params.resync_rounds,
            failovers: 0,
            crashed_rounds: 0,
            forge_seq: 0,
            quality_sum: 0.0,
            quality_rounds: 0,
            last_quality: 1.0,
            degraded_quality_threshold: params.degraded_quality_threshold,
            ona_matches: 0,
            recorder: FlightRecorder::disabled(),
            current_round: 0,
            current_slot: 0,
            prev_stats: DisseminationStats::default(),
            prev_frozen_rounds: 0,
            was_frozen: false,
            convicted: Vec::new(),
            job_hosts: sim.spec().jobs.iter().map(|j| (j.id, j.host)).collect(),
        })
    }

    /// Builds the engine for a cluster.
    ///
    /// # Panics
    /// On a misdimensioned diagnostic network, which [`ClusterSim::new`]
    /// already refuses; [`try_new`](DiagnosticEngine::try_new) returns it
    /// as a [`SpecError`] instead.
    pub fn new(sim: &ClusterSim, params: EngineParams) -> Self {
        Self::try_new(sim, params).expect("valid diagnostic-network dimensioning")
    }

    /// Sets the diagnostic-path disturbance for subsequent slots. Campaign
    /// runners call this each slot with
    /// [`FaultEnvironment::diag_disturbance`].
    ///
    /// [`FaultEnvironment::diag_disturbance`]:
    /// decos_faults::FaultEnvironment::diag_disturbance
    pub fn inject_disturbance(&mut self, d: DiagDisturbance) {
        self.disturbance = d;
    }

    /// The diagnostic-path disturbance currently in force (what the last
    /// [`Self::inject_disturbance`] set). The campaign store journals this
    /// per round so a resumed run can verify the replayed environment
    /// against the recorded one.
    #[must_use]
    pub fn disturbance(&self) -> DiagDisturbance {
        self.disturbance
    }

    /// Reseeds the transit randomness of the diagnostic network (campaign
    /// runners decorrelate vehicles with this).
    pub fn reseed_diag(&mut self, seed: u64) {
        self.network.reseed(seed);
    }

    /// Fabricates the babbling observer's forged symptom frames into the
    /// scratch buffer. Deterministic — the babbler rotates over subjects
    /// and alternates kinds, which is exactly the indiscriminate accusation
    /// flood the rate screen exists to catch.
    fn forge_babble(&mut self, sim: &ClusterSim, rec: &SlotRecord) {
        let Some(babbler) = self.disturbance.babbler else { return };
        let n = sim.spec().components.len().max(1) as u64;
        let per_slot =
            (self.disturbance.forged_per_round as usize).div_ceil(self.slots_per_round as usize);
        let point = sim.lattice().point(rec.start);
        for _ in 0..per_slot {
            let subject = Subject::Component(NodeId((self.forge_seq % n) as u16));
            let kind = if (self.forge_seq / n) % 2 == 0 {
                SymptomKind::Omission
            } else {
                SymptomKind::InvalidCrc
            };
            self.forge_seq += 1;
            self.scratch.push(Symptom { at: rec.start, point, observer: babbler, subject, kind });
        }
    }

    /// Observes one slot. Call for every record, in order.
    pub fn observe_slot(&mut self, sim: &ClusterSim, rec: &SlotRecord) {
        self.current_round = rec.addr.round;
        self.current_slot = rec.addr.slot.0;
        self.scratch.clear();
        self.detectors.detect(sim, rec, &mut self.scratch);
        if self.recorder.enabled() {
            // Real detector symptoms only — forged babble is recorded at
            // round close as a frames-forged delta, not as evidence.
            for s in &self.scratch {
                let comp = match s.subject {
                    Subject::Component(n) => n.0,
                    Subject::Job(j) => comp_index(&self.job_hosts, FruRef::Job(j)),
                };
                self.recorder.record(
                    TraceEventKind::SymptomRaised,
                    self.current_round,
                    self.current_slot,
                    comp,
                    1,
                );
            }
        }
        if self.disturbance.babbler.is_some() {
            self.forge_babble(sim, rec);
        }
        self.network.offer_disturbed(&self.scratch, &self.disturbance, Some(rec.start));
        self.slot_in_round += 1;
        if self.slot_in_round >= self.slots_per_round {
            self.slot_in_round = 0;
            self.close_round(rec.start);
        }
    }

    /// Closes one dissemination round: failover bookkeeping, delivery,
    /// state ingestion, ONA evaluation, quality-weighted trust update.
    fn close_round(&mut self, now: decos_sim::SimTime) {
        if self.disturbance.crashed {
            // The primary diagnostic component is down: nothing consumes
            // the round. Frames keep queuing in the virtual network (and
            // overflow by priority); the round contributes zero quality.
            self.primary_down = true;
            self.crashed_rounds += 1;
            self.matches_last_round.clear();
            self.track_quality(0.0);
            self.recorder.record(
                TraceEventKind::CrashedRound,
                self.current_round,
                self.current_slot,
                NO_COMPONENT,
                1,
            );
            return;
        }
        if self.primary_down {
            // The cold standby takes over. Trust levels and accumulated
            // evidence survive (they model the checkpointed maintenance
            // database); the in-RAM short-term window is lost except for
            // the bounded resync the peers replay.
            self.primary_down = false;
            self.failovers += 1;
            self.resync_remaining = self.resync_rounds;
            self.state.forget_short_term(self.resync_rounds as usize);
            self.recorder.record(
                TraceEventKind::Failover,
                self.current_round,
                self.current_slot,
                NO_COMPONENT,
                self.failovers,
            );
        }
        self.network.deliver_round_into(&mut self.delivered);
        let mut q = self.network.last_round_quality();
        let resyncing = self.resync_remaining > 0;
        if resyncing {
            self.resync_remaining -= 1;
            q *= 0.5;
        }
        // A round with no symptom traffic in transit says nothing about
        // the path; only informative rounds enter the campaign mean.
        if self.network.last_round_transit() > 0 || resyncing {
            self.track_quality(q);
        } else {
            self.last_quality = q;
        }
        self.state.ingest_round_buf(now, &self.delivered);
        self.bank.evaluate_round_into(now, &self.state, &mut self.matches_last_round);
        self.ona_matches += self.matches_last_round.len() as u64;
        if q < 1.0 {
            // Matches built on a lossy stream carry less weight.
            for m in self.matches_last_round.iter_mut() {
                m.confidence *= q;
            }
        }
        self.trust.update_round_weighted(&self.matches_last_round, q);
        self.advisor.ingest(&self.matches_last_round);
        if self.recorder.enabled() {
            self.record_round_events();
        }
    }

    /// Emits the flight-recorder events of a completed round: per-round
    /// dissemination deltas, ONA matches, trust freeze/thaw edges, and
    /// first-decision conviction edges. Fault-free rounds emit nothing
    /// beyond the (zero-suppressed) deltas, so the recorder stays silent —
    /// and allocation-free — in healthy steady state.
    fn record_round_events(&mut self) {
        let (round, slot) = (self.current_round, self.current_slot);
        let stats = self.network.stats();
        let deltas = [
            (TraceEventKind::SymptomsDelivered, stats.delivered - self.prev_stats.delivered),
            (TraceEventKind::SymptomsDropped, stats.dropped - self.prev_stats.dropped),
            (TraceEventKind::FramesCorrupted, stats.corrupted - self.prev_stats.corrupted),
            (TraceEventKind::FramesRejected, stats.rejected - self.prev_stats.rejected),
            (TraceEventKind::FramesDelayed, stats.delayed - self.prev_stats.delayed),
            (
                TraceEventKind::FramesForged,
                stats.forged_suspected - self.prev_stats.forged_suspected,
            ),
        ];
        self.prev_stats = stats;
        for (kind, n) in deltas {
            if n > 0 {
                self.recorder.record(
                    kind,
                    round,
                    slot,
                    NO_COMPONENT,
                    n.min(u32::MAX as u64) as u32,
                );
            }
        }
        for m in &self.matches_last_round {
            self.recorder.record(
                TraceEventKind::OnaMatch,
                round,
                slot,
                comp_index(&self.job_hosts, m.fru),
                (m.confidence * 1000.0) as u32,
            );
        }
        let frozen_rounds = self.trust.frozen_rounds();
        let frozen_now = frozen_rounds > self.prev_frozen_rounds;
        self.prev_frozen_rounds = frozen_rounds;
        if frozen_now != self.was_frozen {
            let kind =
                if frozen_now { TraceEventKind::TrustFrozen } else { TraceEventKind::TrustThawed };
            self.recorder.record(kind, round, slot, NO_COMPONENT, 0);
            self.was_frozen = frozen_now;
        }
        // Conviction edges: the first round a FRU with fresh evidence
        // crosses the advisor's decision thresholds.
        for i in 0..self.matches_last_round.len() {
            let fru = self.matches_last_round[i].fru;
            if self.convicted.contains(&fru) {
                continue;
            }
            if let Some(class) = self.advisor.decided_class(fru) {
                self.convicted.push(fru);
                self.recorder.record(
                    TraceEventKind::Conviction,
                    round,
                    slot,
                    comp_index(&self.job_hosts, fru),
                    class_index(class),
                );
            }
        }
    }

    fn track_quality(&mut self, q: f64) {
        self.last_quality = q;
        self.quality_sum += q;
        self.quality_rounds += 1;
    }

    /// Pattern matches of the most recently completed round.
    pub fn last_matches(&self) -> &[PatternMatch] {
        &self.matches_last_round
    }

    /// Current trust level of a FRU (Fig. 9 trajectory sampling).
    pub fn trust_of(&self, fru: FruRef) -> f64 {
        self.trust.trust(fru)
    }

    /// The distributed state (read access for experiments).
    pub fn state(&self) -> &DistributedState {
        &self.state
    }

    /// The ONA bank (read access for experiments, e.g. α values).
    pub fn bank(&self) -> &OnaBank {
        &self.bank
    }

    /// Diagnostic-network delivery statistics.
    pub fn dissemination_stats(&self) -> DisseminationStats {
        self.network.stats()
    }

    /// Mean delivery quality over all completed rounds (1.0 before any
    /// round closed).
    pub fn delivery_quality(&self) -> f64 {
        if self.quality_rounds == 0 {
            1.0
        } else {
            self.quality_sum / self.quality_rounds as f64
        }
    }

    /// Delivery quality of the most recently closed round.
    pub fn last_round_quality(&self) -> f64 {
        self.last_quality
    }

    /// Cold-standby failovers of the diagnostic component so far.
    pub fn failovers(&self) -> u32 {
        self.failovers
    }

    /// Rounds lost to a crashed diagnostic component so far.
    pub fn crashed_rounds(&self) -> u64 {
        self.crashed_rounds
    }

    /// Rounds the trust assessor discarded because the symptom stream was
    /// too starved to act on.
    pub fn frozen_rounds(&self) -> u64 {
        self.trust.frozen_rounds()
    }

    /// Total ONA pattern matches produced so far (telemetry).
    pub fn ona_matches(&self) -> u64 {
        self.ona_matches
    }

    /// Turns on the fault-lifecycle flight recorder with the given event
    /// ring capacity (0 keeps only the latency fold). Off by default:
    /// uninstrumented runs record nothing and allocate nothing.
    pub fn enable_flightrec(&mut self, capacity: usize) {
        self.recorder.enable(capacity);
    }

    /// The flight recorder (lifecycle fold + event ring).
    pub fn flightrec(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable recorder access: campaign runners register ground-truth
    /// faults and emit fault-injected/cleared events through this.
    pub fn flightrec_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }

    /// The campaign report, annotated with the health of the diagnostic
    /// path itself. `degraded` is the *only* place this judgement is made:
    /// quality below the configured threshold, any failover, or a primary
    /// still down — downstream aggregators must carry this flag instead of
    /// re-deriving it from `delivery_quality` alone.
    pub fn report(&self) -> DiagnosticReport {
        let mut rep = self.advisor.report(&self.trust);
        rep.delivery_quality = self.delivery_quality();
        rep.failovers = self.failovers;
        rep.crashed_rounds = self.crashed_rounds;
        rep.degraded = rep.delivery_quality < self.degraded_quality_threshold
            || self.failovers > 0
            || self.primary_down;
        rep
    }
}

impl decos_platform::SlotObserver for DiagnosticEngine {
    fn on_slot(&mut self, sim: &ClusterSim, rec: &SlotRecord) {
        self.observe_slot(sim, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_faults::{FaultClass, FaultEnvironment, FaultSpec, MaintenanceAction};
    use decos_platform::fig10;
    use decos_platform::{ClusterSim, NodeId};
    use decos_sim::SeedSource;

    fn run_engine(
        spec: decos_platform::ClusterSpec,
        faults: Vec<FaultSpec>,
        accel: f64,
        rounds: u64,
    ) -> (DiagnosticEngine, ClusterSim) {
        let mut env = FaultEnvironment::for_cluster(faults, &spec, accel, SeedSource::new(17));
        let mut sim = ClusterSim::new(spec, 23).unwrap();
        let mut eng = DiagnosticEngine::new(&sim, EngineParams::default());
        for _ in 0..rounds * 4 {
            let rec = sim.step_slot(&mut env);
            eng.observe_slot(&sim, &rec);
        }
        (eng, sim)
    }

    #[test]
    fn healthy_cluster_full_trust_no_actions() {
        let (eng, _) = run_engine(fig10::reference_spec(), vec![], 1.0, 500);
        let rep = eng.report();
        assert!(rep.verdicts.is_empty());
        assert!(rep.actions().is_empty());
        assert_eq!(eng.trust_of(decos_faults::FruRef::Component(NodeId(0))), 1.0);
    }

    #[test]
    fn end_to_end_wearout_yields_replacement() {
        let faults = decos_faults::campaign::wearout_campaign(NodeId(1), 200.0, 400_000.0);
        let (eng, _) = run_engine(fig10::reference_spec(), faults, 1.0, 15_000);
        let rep = eng.report();
        let fru = decos_faults::FruRef::Component(NodeId(1));
        let v = rep.verdict_of(fru).expect("worn component must be assessed");
        assert_eq!(v.class, Some(FaultClass::ComponentInternal), "verdict: {v:?}");
        assert_eq!(v.action, Some(MaintenanceAction::ReplaceComponent));
        assert!(eng.trust_of(fru) < 0.6, "trust {} must degrade", eng.trust_of(fru));
    }

    #[test]
    fn end_to_end_emi_yields_no_action() {
        use decos_faults::FaultKind;
        use decos_platform::Position;
        let faults = vec![FaultSpec {
            id: 1,
            kind: FaultKind::EmiBurst {
                rate_per_hour: 4000.0,
                duration_ms: 10.0,
                center: Position { x: 0.2, y: 0.1 },
                radius_m: 1.0,
            },
            target: decos_faults::FruRef::Component(NodeId(0)),
            onset: decos_sim::SimTime::ZERO,
        }];
        let (eng, _) = run_engine(fig10::reference_spec(), faults, 10.0, 6000);
        let rep = eng.report();
        // No removal recommended for any component.
        assert!(
            !rep.actions().iter().any(|(_, a)| *a == MaintenanceAction::ReplaceComponent),
            "EMI must not cause removals: {:?}",
            rep.actions()
        );
        // Where a verdict exists, it is external.
        for v in &rep.verdicts {
            if let Some(c) = v.class {
                assert_eq!(c, FaultClass::ComponentExternal, "verdict {v:?}");
            }
        }
    }

    #[test]
    fn end_to_end_misconfiguration_yields_config_update() {
        let (spec, _) =
            decos_faults::campaign::misconfiguration_campaign(fig10::reference_spec(), 16);
        let (eng, _) = run_engine(spec, vec![], 1.0, 4000);
        let rep = eng.report();
        let fru = decos_faults::FruRef::Job(fig10::jobs::C3);
        let v = rep.verdict_of(fru).expect("consumer must be assessed");
        assert_eq!(v.action, Some(MaintenanceAction::UpdateConfiguration), "verdict {v:?}");
    }

    #[test]
    fn dissemination_stats_track_flow() {
        let faults = decos_faults::campaign::connector_campaign(NodeId(2), 2000.0);
        let (eng, _) = run_engine(fig10::reference_spec(), faults, 10.0, 2000);
        let stats = eng.dissemination_stats();
        assert!(stats.offered > 0);
        assert!(stats.delivered > 0);
        assert!(stats.delivered <= stats.offered);
    }

    /// Like [`run_engine`], but bridging the environment's diagnostic-path
    /// disturbance into the engine each slot, the way campaign runners do.
    fn run_engine_disturbed(
        spec: decos_platform::ClusterSpec,
        faults: Vec<FaultSpec>,
        accel: f64,
        rounds: u64,
    ) -> (DiagnosticEngine, ClusterSim) {
        let mut env = FaultEnvironment::for_cluster(faults, &spec, accel, SeedSource::new(17));
        let mut sim = ClusterSim::new(spec, 23).unwrap();
        let mut eng = DiagnosticEngine::new(&sim, EngineParams::default());
        eng.reseed_diag(0xD1A6_5EED);
        for _ in 0..rounds * 4 {
            let rec = sim.step_slot(&mut env);
            eng.inject_disturbance(env.diag_disturbance());
            eng.observe_slot(&sim, &rec);
        }
        (eng, sim)
    }

    #[test]
    fn zero_capacity_network_is_a_spec_error() {
        let mut spec = fig10::reference_spec();
        spec.diag_net.capacity_per_round = 0;
        assert!(spec.structural_errors().contains(&SpecError::InvalidDiagNet));
        assert_eq!(ClusterSim::new(spec, 23).err(), Some(SpecError::InvalidDiagNet));
    }

    #[test]
    fn total_symptom_loss_degrades_gracefully() {
        // A real connector fault is active, but the diagnostic path loses
        // every symptom frame. The engine must recognise its own blindness:
        // no verdicts, no maintenance actions, trust frozen at full.
        let mut faults = decos_faults::campaign::connector_campaign(NodeId(2), 2000.0);
        faults.extend(decos_faults::campaign::diag_degradation_campaign(1.0, 0.0, 0));
        let (eng, _) = run_engine_disturbed(fig10::reference_spec(), faults, 10.0, 2000);
        let stats = eng.dissemination_stats();
        assert!(stats.offered > 0, "the detectors did raise symptoms: {stats:?}");
        assert_eq!(stats.delivered, 0, "total loss must deliver nothing: {stats:?}");
        let rep = eng.report();
        assert!(rep.actions().is_empty(), "blind diagnosis must not act: {:?}", rep.actions());
        assert_eq!(
            eng.trust_of(FruRef::Component(NodeId(2))),
            1.0,
            "no evidence must not move trust (in either direction)"
        );
        assert!(rep.degraded, "the report must flag the degraded path");
        assert!(rep.delivery_quality < 0.1, "quality {} must collapse", rep.delivery_quality);
    }

    #[test]
    fn babbling_observer_cannot_force_replacement() {
        // Node 3's diagnostic interface floods forged accusations against
        // every component. The rate screen must flag the excess and the ONA
        // breadth logic must refuse to convict the accused.
        let faults = decos_faults::campaign::babbling_observer_campaign(NodeId(3), 500);
        let (eng, _) = run_engine_disturbed(fig10::reference_spec(), faults, 1.0, 1500);
        let stats = eng.dissemination_stats();
        assert!(stats.forged_suspected > 0, "rate screen must flag the flood: {stats:?}");
        let rep = eng.report();
        assert!(
            !rep.actions().iter().any(|(_, a)| *a == MaintenanceAction::ReplaceComponent),
            "forged symptoms must not cause removals: {:?}",
            rep.actions()
        );
        for c in [0u16, 1, 2] {
            let t = eng.trust_of(FruRef::Component(NodeId(c)));
            assert!(t > 0.9, "accused component {c} keeps its trust: {t}");
        }
    }

    #[test]
    fn diag_crash_fails_over_to_standby() {
        let faults = decos_faults::campaign::diag_crash_campaign(NodeId(0), 2000.0, 30.0);
        let (eng, _) = run_engine_disturbed(fig10::reference_spec(), faults, 10.0, 4000);
        assert!(eng.crashed_rounds() > 0, "outages must cost rounds");
        assert!(eng.failovers() > 0, "each outage must end in a failover");
        let rep = eng.report();
        assert!(rep.degraded);
        assert_eq!(rep.failovers, eng.failovers());
        assert_eq!(rep.crashed_rounds, eng.crashed_rounds());
        // The healthy application cluster must still produce no actions.
        assert!(rep.actions().is_empty(), "{:?}", rep.actions());
    }

    #[test]
    fn partial_loss_still_converges_on_the_real_fault() {
        // Half the frames are lost, yet the wearout verdict must survive —
        // degraded, slower, but sound.
        let mut faults = decos_faults::campaign::wearout_campaign(NodeId(1), 200.0, 400_000.0);
        faults.extend(decos_faults::campaign::diag_degradation_campaign(0.3, 0.0, 0));
        let (eng, _) = run_engine_disturbed(fig10::reference_spec(), faults, 1.0, 15_000);
        let rep = eng.report();
        let fru = FruRef::Component(NodeId(1));
        let v = rep.verdict_of(fru).expect("worn component must still be assessed");
        assert_eq!(v.class, Some(FaultClass::ComponentInternal), "verdict: {v:?}");
        assert!(rep.degraded, "30% loss must be reported as a degraded path");
        assert!(rep.delivery_quality < 0.9);
    }
}
