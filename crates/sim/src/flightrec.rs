//! Fault-lifecycle flight recorder: a bounded, zero-alloc-in-steady-state
//! ring of structured [`TraceEvent`]s plus the streaming fold that turns
//! the event stream into per-fault latency records.
//!
//! The paper's argument is maintenance-oriented: what matters is not just
//! *whether* the integrated diagnostic engine convicts the right FRU but
//! *when* it does relative to fault onset, and what evidence trail a
//! workshop can replay afterwards. The recorder gives every run an
//! auditable diagnosis timeline:
//!
//! * every pipeline event — fault injected/cleared, symptom raised,
//!   per-round dissemination deltas, ONA match, trust freeze/thaw,
//!   failover, crashed round, conviction — is stamped with
//!   `(round, slot, component, fault_id)` so it is causally attributable
//!   to the originating fault;
//! * a fixed-capacity ring keeps the last events (flight-recorder style:
//!   old events are overwritten, `dropped` counts the loss) so anomaly
//!   dumps snapshot the end of the run without unbounded memory;
//! * a streaming `LifecycleTracker` folds events *as they are recorded*
//!   into per-fault [`FaultRecord`]s — ring overflow can therefore never
//!   lose lifecycle metrics;
//! * [`FaultLifecycle::from_events`] replays a serialized trace through
//!   the identical fold, so a post-hoc `trace-report` reconstructs the
//!   same latency table the live run measured.
//!
//! Like the rest of the telemetry layer (DESIGN.md §11) the recorder is
//! deterministic: events carry only simulation-derived fields, never wall
//! time, so two same-seed runs produce bit-identical traces.
//!
//! This crate stays generic: components are raw `u16` indices
//! ([`NO_COMPONENT`] = none) and faults raw `u32` ids (0 = unattributed);
//! the diagnosis and campaign layers map their typed ids down.

use serde::{Deserialize, Serialize};

/// Sentinel component index for events with no single component
/// (path-level events, trust freezes).
pub const NO_COMPONENT: u16 = u16::MAX;

/// Sentinel fault id for events no registered fault explains.
pub const NO_FAULT: u32 = 0;

/// Default ring capacity in events. At the reference cluster's symptom
/// rates this spans hundreds of rounds — comfortably more than any
/// anomaly's causal prefix.
pub const DEFAULT_CAPACITY: usize = 16_384;

/// The event taxonomy of the flight recorder.
///
/// `detail` semantics per kind are documented on each variant; counts are
/// per-round deltas (cumulative counters already live in the telemetry
/// registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// A ground-truth fault began manifesting (one event per episode
    /// window; continuous kinds fire once at onset). `detail` = episode
    /// ordinal, 1-based.
    FaultInjected,
    /// An episode window ended. `detail` = 0.
    FaultCleared,
    /// A detector raised one symptom (pre-dissemination). `detail` = 1.
    SymptomRaised,
    /// Symptoms delivered to the diagnostic DAS this round. `detail` =
    /// count.
    SymptomsDelivered,
    /// Symptoms dropped (bandwidth/transit) this round. `detail` = count.
    SymptomsDropped,
    /// Frames discarded by the per-frame CRC this round. `detail` = count.
    FramesCorrupted,
    /// Frames rejected by plausibility screening this round. `detail` =
    /// count.
    FramesRejected,
    /// Frames that arrived late through the delay line this round.
    /// `detail` = count.
    FramesDelayed,
    /// Frames flagged as forged by the rate screen this round. `detail` =
    /// count.
    FramesForged,
    /// The ONA bank produced a pattern match. `detail` = confidence ×
    /// 1000, truncated.
    OnaMatch,
    /// The trust assessor froze (evidence flow too starved to act on).
    /// Transition event. `detail` = 0.
    TrustFrozen,
    /// The trust assessor thawed. Transition event. `detail` = 0.
    TrustThawed,
    /// The cold-standby diagnostic replica took over. `detail` = failover
    /// ordinal, 1-based.
    Failover,
    /// A round was lost to a crashed diagnostic component. `detail` = 1.
    CrashedRound,
    /// The maintenance advisor's evidence for a FRU first crossed the
    /// decision thresholds (stable conviction). `detail` = fault-class
    /// registry index.
    Conviction,
}

impl TraceEventKind {
    /// All kinds, registry order (the `decos-flightrec/1` vocabulary).
    pub(crate) const ALL: [TraceEventKind; 15] = [
        TraceEventKind::FaultInjected,
        TraceEventKind::FaultCleared,
        TraceEventKind::SymptomRaised,
        TraceEventKind::SymptomsDelivered,
        TraceEventKind::SymptomsDropped,
        TraceEventKind::FramesCorrupted,
        TraceEventKind::FramesRejected,
        TraceEventKind::FramesDelayed,
        TraceEventKind::FramesForged,
        TraceEventKind::OnaMatch,
        TraceEventKind::TrustFrozen,
        TraceEventKind::TrustThawed,
        TraceEventKind::Failover,
        TraceEventKind::CrashedRound,
        TraceEventKind::Conviction,
    ];

    /// Stable kebab-case name (the `kind` field of `decos-flightrec/1`).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::FaultInjected => "fault-injected",
            TraceEventKind::FaultCleared => "fault-cleared",
            TraceEventKind::SymptomRaised => "symptom-raised",
            TraceEventKind::SymptomsDelivered => "symptoms-delivered",
            TraceEventKind::SymptomsDropped => "symptoms-dropped",
            TraceEventKind::FramesCorrupted => "frames-corrupted",
            TraceEventKind::FramesRejected => "frames-rejected",
            TraceEventKind::FramesDelayed => "frames-delayed",
            TraceEventKind::FramesForged => "frames-forged",
            TraceEventKind::OnaMatch => "ona-match",
            TraceEventKind::TrustFrozen => "trust-frozen",
            TraceEventKind::TrustThawed => "trust-thawed",
            TraceEventKind::Failover => "failover",
            TraceEventKind::CrashedRound => "crashed-round",
            TraceEventKind::Conviction => "conviction",
        }
    }

    /// Parses a stable name back (trace-report ingestion).
    pub fn from_name(name: &str) -> Option<TraceEventKind> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One recorded event. `Copy` and fixed-size: recording is an array write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic event number since recording started (stable identity
    /// across ring wrap-around).
    pub seq: u64,
    /// TDMA round the event belongs to.
    pub round: u64,
    /// Slot within the round.
    pub slot: u16,
    /// Component index, or [`NO_COMPONENT`].
    pub component: u16,
    /// Originating fault id, or [`NO_FAULT`] when unattributable.
    pub fault_id: u32,
    /// What happened.
    pub kind: TraceEventKind,
    /// Kind-specific payload (see [`TraceEventKind`]).
    pub detail: u32,
}

/// Per-fault lifecycle table entry (streaming fold state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultEntry {
    fault_id: u32,
    component: u16,
    /// Whether the fault attacks the diagnostic path itself (transport or
    /// diagnostic host). Path-level events attribute to these; component
    /// evidence events do not.
    diag_path: bool,
    injected_round: Option<u64>,
    active: bool,
    episodes: u32,
    first_symptom_round: Option<u64>,
    first_ona_round: Option<u64>,
    first_conviction_round: Option<u64>,
    conviction_class: Option<u32>,
}

impl FaultEntry {
    fn new(fault_id: u32, component: u16, diag_path: bool) -> Self {
        FaultEntry {
            fault_id,
            component,
            diag_path,
            injected_round: None,
            active: false,
            episodes: 0,
            first_symptom_round: None,
            first_ona_round: None,
            first_conviction_round: None,
            conviction_class: None,
        }
    }

    fn to_record(self) -> FaultRecord {
        FaultRecord {
            fault_id: self.fault_id,
            component: (self.component != NO_COMPONENT).then_some(self.component),
            injected_round: self.injected_round,
            episodes: self.episodes,
            first_symptom_round: self.first_symptom_round,
            first_ona_round: self.first_ona_round,
            first_conviction_round: self.first_conviction_round,
            conviction_class: self.conviction_class,
        }
    }
}

/// Folds stamped [`TraceEvent`]s into per-fault lifecycle state. The same
/// fold runs streaming inside the [`FlightRecorder`] (so ring overflow
/// cannot lose metrics) and batch in [`FaultLifecycle::from_events`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LifecycleTracker {
    table: Vec<FaultEntry>,
    wrong_fru_convictions: u64,
}

impl LifecycleTracker {
    /// Registers a ground-truth fault before the run (live recording).
    /// Replay registers lazily from `fault-injected` events instead.
    fn register(&mut self, fault_id: u32, component: u16, diag_path: bool) {
        if !self.table.iter().any(|e| e.fault_id == fault_id) {
            self.table.push(FaultEntry::new(fault_id, component, diag_path));
        }
    }

    fn entry_mut(&mut self, fault_id: u32) -> Option<&mut FaultEntry> {
        self.table.iter_mut().find(|e| e.fault_id == fault_id)
    }

    /// Folds one stamped event. Attribution (the `fault_id` stamp) has
    /// already happened at record time; the fold only consumes it.
    pub(crate) fn observe(&mut self, e: &TraceEvent) {
        match e.kind {
            TraceEventKind::FaultInjected => {
                if e.fault_id != NO_FAULT && self.entry_mut(e.fault_id).is_none() {
                    // Replay path: register from the event itself.
                    self.table.push(FaultEntry::new(e.fault_id, e.component, false));
                }
                if let Some(f) = self.entry_mut(e.fault_id) {
                    f.injected_round = Some(f.injected_round.map_or(e.round, |r| r.min(e.round)));
                    f.active = true;
                    f.episodes += 1;
                }
            }
            TraceEventKind::FaultCleared => {
                if let Some(f) = self.entry_mut(e.fault_id) {
                    f.active = false;
                }
            }
            TraceEventKind::SymptomRaised => {
                if let Some(f) = self.entry_mut(e.fault_id) {
                    f.first_symptom_round.get_or_insert(e.round);
                }
            }
            TraceEventKind::OnaMatch => {
                if let Some(f) = self.entry_mut(e.fault_id) {
                    f.first_ona_round.get_or_insert(e.round);
                }
            }
            TraceEventKind::Conviction => {
                if e.fault_id == NO_FAULT {
                    self.wrong_fru_convictions += 1;
                } else if let Some(f) = self.entry_mut(e.fault_id) {
                    if f.first_conviction_round.is_none() {
                        f.first_conviction_round = Some(e.round);
                        f.conviction_class = Some(e.detail);
                    }
                }
            }
            _ => {}
        }
    }

    /// Attributes a component-evidence event (symptom, ONA match,
    /// conviction): a registered, already-manifested fault on that
    /// component, preferring one in an active episode. Diagnostic-path
    /// transport faults are excluded unless `include_diag` (convictions
    /// may legitimately name the babbling/crashing diagnostic host).
    fn attribute_component(&self, component: u16, include_diag: bool) -> u32 {
        if component == NO_COMPONENT {
            return NO_FAULT;
        }
        let candidates = self
            .table
            .iter()
            .filter(|f| f.component == component && f.injected_round.is_some())
            .filter(|f| include_diag || !f.diag_path);
        let mut fallback = NO_FAULT;
        for f in candidates {
            if f.active {
                return f.fault_id;
            }
            if fallback == NO_FAULT {
                fallback = f.fault_id;
            }
        }
        fallback
    }

    /// Attributes a path-level event (dissemination deltas, crashed round,
    /// failover): a manifested diagnostic-path fault, preferring an active
    /// one (crash episodes).
    fn attribute_diag_path(&self) -> u32 {
        let mut fallback = NO_FAULT;
        for f in self.table.iter().filter(|f| f.diag_path && f.injected_round.is_some()) {
            if f.active {
                return f.fault_id;
            }
            if fallback == NO_FAULT {
                fallback = f.fault_id;
            }
        }
        fallback
    }

    /// Snapshot of the folded per-fault lifecycle.
    pub(crate) fn lifecycle(&self) -> FaultLifecycle {
        FaultLifecycle {
            records: self.table.iter().map(|e| e.to_record()).collect(),
            wrong_fru_convictions: self.wrong_fru_convictions,
        }
    }
}

/// The bounded event ring plus the streaming lifecycle fold.
///
/// Disabled (the default) every record site is one branch; enabling
/// preallocates the ring once, after which steady-state recording is an
/// index write — the counting-allocator regression test pins this.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecorder {
    enabled: bool,
    /// Ring storage; stays empty (capacity 0) in lifecycle-only mode.
    ring: Vec<TraceEvent>,
    capacity: usize,
    /// Next overwrite position once the ring is full.
    head: usize,
    seq: u64,
    tracker: LifecycleTracker,
}

impl FlightRecorder {
    /// An inert recorder: records nothing, attributes nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Enables recording. `capacity` bounds the ring (events kept for
    /// dumps); 0 keeps only the streaming lifecycle fold — latency
    /// metrics without event storage.
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity;
        self.ring = Vec::with_capacity(capacity);
        self.head = 0;
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers a ground-truth fault: its component (or
    /// [`NO_COMPONENT`]) and whether it attacks the diagnostic path.
    /// Attribution only considers registered faults.
    pub fn register_fault(&mut self, fault_id: u32, component: u16, diag_path: bool) {
        if self.enabled {
            self.tracker.register(fault_id, component, diag_path);
        }
    }

    fn push(&mut self, e: TraceEvent) {
        self.tracker.observe(&e);
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(e);
        } else {
            self.ring[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Records a fault-episode start (explicit attribution).
    pub fn fault_injected(&mut self, fault_id: u32, round: u64, slot: u16) {
        if !self.enabled {
            return;
        }
        let (component, episodes) = self
            .tracker
            .table
            .iter()
            .find(|f| f.fault_id == fault_id)
            .map_or((NO_COMPONENT, 0), |f| (f.component, f.episodes));
        let e = TraceEvent {
            seq: self.seq,
            round,
            slot,
            component,
            fault_id,
            kind: TraceEventKind::FaultInjected,
            detail: episodes + 1,
        };
        self.seq += 1;
        self.push(e);
    }

    /// Records a fault-episode end (explicit attribution).
    pub fn fault_cleared(&mut self, fault_id: u32, round: u64, slot: u16) {
        if !self.enabled {
            return;
        }
        let component = self
            .tracker
            .table
            .iter()
            .find(|f| f.fault_id == fault_id)
            .map_or(NO_COMPONENT, |f| f.component);
        let e = TraceEvent {
            seq: self.seq,
            round,
            slot,
            component,
            fault_id,
            kind: TraceEventKind::FaultCleared,
            detail: 0,
        };
        self.seq += 1;
        self.push(e);
    }

    /// Records one pipeline event, stamping `fault_id` by the kind's
    /// attribution rule (component evidence vs. diagnostic path).
    pub fn record(
        &mut self,
        kind: TraceEventKind,
        round: u64,
        slot: u16,
        component: u16,
        detail: u32,
    ) {
        if !self.enabled {
            return;
        }
        let fault_id = match kind {
            TraceEventKind::SymptomRaised | TraceEventKind::OnaMatch => {
                self.tracker.attribute_component(component, false)
            }
            TraceEventKind::Conviction => self.tracker.attribute_component(component, true),
            TraceEventKind::SymptomsDelivered
            | TraceEventKind::SymptomsDropped
            | TraceEventKind::FramesCorrupted
            | TraceEventKind::FramesRejected
            | TraceEventKind::FramesDelayed
            | TraceEventKind::FramesForged
            | TraceEventKind::TrustFrozen
            | TraceEventKind::TrustThawed
            | TraceEventKind::Failover
            | TraceEventKind::CrashedRound => self.tracker.attribute_diag_path(),
            TraceEventKind::FaultInjected | TraceEventKind::FaultCleared => NO_FAULT,
        };
        let e = TraceEvent { seq: self.seq, round, slot, component, fault_id, kind, detail };
        self.seq += 1;
        self.push(e);
    }

    /// Events recorded in total (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Events the ring overwrote (flight-recorder loss).
    pub(crate) fn dropped(&self) -> u64 {
        self.seq - self.ring.len() as u64
    }

    /// The retained events, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = self.ring.split_at(self.head.min(self.ring.len()));
        older.iter().chain(newer.iter())
    }

    /// Snapshot of the retained ring (serializable dump payload).
    pub fn recording(&self) -> FlightRecording {
        FlightRecording {
            events: self.events().copied().collect(),
            dropped: self.dropped(),
            capacity: self.capacity as u64,
        }
    }

    /// The folded per-fault lifecycle (latency metrics).
    pub fn lifecycle(&self) -> FaultLifecycle {
        self.tracker.lifecycle()
    }
}

/// A serializable snapshot of the event ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecording {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around before the snapshot.
    pub dropped: u64,
    /// Ring capacity the recording ran with.
    pub capacity: u64,
}

/// Lifecycle of one ground-truth fault, in rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// The fault's campaign-unique id.
    pub fault_id: u32,
    /// Component the fault manifests on (job faults map to the host).
    pub component: Option<u16>,
    /// Round of the first manifestation (onset), `None` if the fault
    /// never manifested within the horizon.
    pub injected_round: Option<u64>,
    /// Manifestation episodes observed.
    pub episodes: u32,
    /// Round of the first symptom attributed to this fault.
    pub first_symptom_round: Option<u64>,
    /// Round of the first ONA pattern match attributed to this fault.
    pub first_ona_round: Option<u64>,
    /// Round the advisor's evidence first crossed the decision
    /// thresholds for this fault's FRU.
    pub first_conviction_round: Option<u64>,
    /// Fault-class registry index of the conviction, if any.
    pub conviction_class: Option<u32>,
}

impl FaultRecord {
    /// Onset → first symptom, rounds.
    pub fn detect_latency(&self) -> Option<u64> {
        Some(self.first_symptom_round?.saturating_sub(self.injected_round?))
    }

    /// Onset → first ONA match, rounds.
    pub fn ona_latency(&self) -> Option<u64> {
        Some(self.first_ona_round?.saturating_sub(self.injected_round?))
    }

    /// Onset → stable conviction, rounds.
    pub fn convict_latency(&self) -> Option<u64> {
        Some(self.first_conviction_round?.saturating_sub(self.injected_round?))
    }

    /// Whether the advisor convicted this fault's FRU.
    pub fn convicted(&self) -> bool {
        self.first_conviction_round.is_some()
    }
}

/// The per-fault latency table of one run plus the wrong-FRU tally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultLifecycle {
    /// One record per registered (live) or observed (replay) fault.
    pub records: Vec<FaultRecord>,
    /// Conviction events no registered fault explains.
    pub wrong_fru_convictions: u64,
}

impl FaultLifecycle {
    /// Replays a serialized trace through the same fold the live
    /// recorder ran. Faults register lazily from their `fault-injected`
    /// events, so only manifested faults appear.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let mut t = LifecycleTracker::default();
        for e in events {
            t.observe(e);
        }
        t.lifecycle()
    }

    /// Faults that manifested within the horizon.
    pub fn faults_injected(&self) -> u64 {
        self.records.iter().filter(|r| r.injected_round.is_some()).count() as u64
    }

    /// Manifested faults with at least one attributed symptom.
    pub fn faults_detected(&self) -> u64 {
        self.records.iter().filter(|r| r.detect_latency().is_some()).count() as u64
    }

    /// Manifested faults whose FRU reached a stable conviction.
    pub fn faults_convicted(&self) -> u64 {
        self.records.iter().filter(|r| r.convict_latency().is_some()).count() as u64
    }

    /// Summed onset→first-symptom latency over detected faults, rounds.
    pub fn detect_latency_total(&self) -> u64 {
        self.records.iter().filter_map(|r| r.detect_latency()).sum()
    }

    /// Summed onset→conviction latency over convicted faults, rounds.
    pub fn convict_latency_total(&self) -> u64 {
        self.records.iter().filter_map(|r| r.convict_latency()).sum()
    }

    /// Mean onset→first-symptom latency, rounds (0 when nothing was
    /// detected).
    pub fn mean_detect_latency(&self) -> f64 {
        mean_latency(self.detect_latency_total(), self.faults_detected())
    }

    /// Mean onset→conviction latency, rounds (0 when nothing was
    /// convicted).
    pub fn mean_convict_latency(&self) -> f64 {
        mean_latency(self.convict_latency_total(), self.faults_convicted())
    }

    /// The record of one fault.
    pub fn record_of(&self, fault_id: u32) -> Option<&FaultRecord> {
        self.records.iter().find(|r| r.fault_id == fault_id)
    }
}

/// The one shared mean-latency derivation: campaign gauges and fleet
/// gauge re-derivation must both use this so merged counters reproduce
/// the same value.
pub fn mean_latency(total_rounds: u64, faults: u64) -> f64 {
    if faults == 0 {
        0.0
    } else {
        total_rounds as f64 / faults as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec_with_fault() -> FlightRecorder {
        let mut r = FlightRecorder::disabled();
        r.enable(8);
        r.register_fault(1, 2, false);
        r
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = FlightRecorder::disabled();
        r.record(TraceEventKind::SymptomRaised, 0, 0, 1, 1);
        assert_eq!(r.recorded(), 0);
        assert!(r.lifecycle().records.is_empty());
    }

    #[test]
    fn kind_names_roundtrip_and_are_unique() {
        let names: std::collections::BTreeSet<&str> =
            TraceEventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), TraceEventKind::ALL.len());
        for k in TraceEventKind::ALL {
            assert_eq!(TraceEventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(TraceEventKind::from_name("no-such-kind"), None);
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let mut r = rec_with_fault();
        for i in 0..20u64 {
            r.record(TraceEventKind::SymptomRaised, i, 0, 2, 1);
        }
        assert_eq!(r.recorded(), 20);
        assert_eq!(r.dropped(), 12);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>(), "oldest-first, newest retained");
        assert_eq!(r.recording().events.len(), 8);
    }

    #[test]
    fn capacity_zero_keeps_lifecycle_only() {
        let mut r = FlightRecorder::disabled();
        r.enable(0);
        r.register_fault(1, 2, false);
        r.fault_injected(1, 5, 0);
        r.record(TraceEventKind::SymptomRaised, 7, 1, 2, 1);
        assert_eq!(r.recording().events.len(), 0);
        let lc = r.lifecycle();
        assert_eq!(lc.record_of(1).unwrap().detect_latency(), Some(2));
    }

    #[test]
    fn attribution_prefers_active_fault_on_component() {
        let mut r = FlightRecorder::disabled();
        r.enable(32);
        r.register_fault(1, 2, false);
        r.register_fault(2, 2, false);
        r.fault_injected(1, 0, 0);
        r.fault_cleared(1, 1, 0);
        r.fault_injected(2, 2, 0);
        // Fault 2 is active on component 2; fault 1 manifested earlier.
        r.record(TraceEventKind::SymptomRaised, 3, 0, 2, 1);
        let last = r.events().last().unwrap();
        assert_eq!(last.fault_id, 2, "active fault wins attribution");
        r.fault_cleared(2, 4, 0);
        r.record(TraceEventKind::SymptomRaised, 5, 0, 2, 1);
        let last = r.events().last().unwrap();
        assert_eq!(last.fault_id, 1, "falls back to first manifested fault");
        // A component nobody registered stays unattributed.
        r.record(TraceEventKind::SymptomRaised, 5, 1, 3, 1);
        assert_eq!(r.events().last().unwrap().fault_id, NO_FAULT);
    }

    #[test]
    fn diag_path_events_attribute_to_diag_faults_only() {
        let mut r = FlightRecorder::disabled();
        r.enable(32);
        r.register_fault(1, 2, false);
        r.register_fault(9, 0, true);
        r.fault_injected(1, 0, 0);
        r.record(TraceEventKind::FramesCorrupted, 1, 3, NO_COMPONENT, 4);
        assert_eq!(
            r.events().last().unwrap().fault_id,
            NO_FAULT,
            "app fault does not explain path loss"
        );
        r.fault_injected(9, 2, 0);
        r.record(TraceEventKind::FramesCorrupted, 3, 3, NO_COMPONENT, 4);
        assert_eq!(r.events().last().unwrap().fault_id, 9);
        // Symptoms on the diag host do NOT attribute to the transport fault…
        r.record(TraceEventKind::SymptomRaised, 3, 0, 0, 1);
        assert_eq!(r.events().last().unwrap().fault_id, NO_FAULT);
        // …but a conviction of that component may.
        r.record(TraceEventKind::Conviction, 4, 3, 0, 2);
        assert_eq!(r.events().last().unwrap().fault_id, 9);
    }

    #[test]
    fn lifecycle_latencies_and_wrong_convictions() {
        let mut r = rec_with_fault();
        r.fault_injected(1, 10, 0);
        r.record(TraceEventKind::SymptomRaised, 11, 2, 2, 1);
        r.record(TraceEventKind::SymptomRaised, 12, 2, 2, 1);
        r.record(TraceEventKind::OnaMatch, 13, 3, 2, 900);
        r.record(TraceEventKind::Conviction, 50, 3, 2, 1);
        r.record(TraceEventKind::Conviction, 60, 3, 3, 2); // nobody's fault
        let lc = r.lifecycle();
        let f = lc.record_of(1).unwrap();
        assert_eq!(f.detect_latency(), Some(1), "first symptom only");
        assert_eq!(f.ona_latency(), Some(3));
        assert_eq!(f.convict_latency(), Some(40));
        assert_eq!(f.conviction_class, Some(1));
        assert!(f.convicted());
        assert_eq!(lc.wrong_fru_convictions, 1);
        assert_eq!(lc.faults_injected(), 1);
        assert_eq!(lc.faults_detected(), 1);
        assert_eq!(lc.faults_convicted(), 1);
        assert_eq!(lc.detect_latency_total(), 1);
        assert_eq!(lc.convict_latency_total(), 40);
        assert_eq!(lc.mean_convict_latency(), 40.0);
    }

    #[test]
    fn unmanifested_fault_is_reported_unconvicted() {
        let r = rec_with_fault();
        let lc = r.lifecycle();
        let f = lc.record_of(1).unwrap();
        assert_eq!(f.injected_round, None);
        assert_eq!(lc.faults_injected(), 0);
    }

    #[test]
    fn episodes_count_and_ordinals() {
        let mut r = rec_with_fault();
        r.fault_injected(1, 1, 0);
        r.fault_cleared(1, 2, 0);
        r.fault_injected(1, 5, 0);
        let lc = r.lifecycle();
        assert_eq!(lc.record_of(1).unwrap().episodes, 2);
        assert_eq!(lc.record_of(1).unwrap().injected_round, Some(1));
        let ordinals: Vec<u32> = r
            .events()
            .filter(|e| e.kind == TraceEventKind::FaultInjected)
            .map(|e| e.detail)
            .collect();
        assert_eq!(ordinals, vec![1, 2]);
    }

    #[test]
    fn replay_reproduces_streaming_fold() {
        let mut r = FlightRecorder::disabled();
        r.enable(64);
        r.register_fault(1, 2, false);
        r.register_fault(7, 1, false);
        r.fault_injected(1, 3, 0);
        r.record(TraceEventKind::SymptomRaised, 4, 1, 2, 1);
        r.record(TraceEventKind::OnaMatch, 6, 3, 2, 800);
        r.record(TraceEventKind::Conviction, 30, 3, 2, 2);
        r.record(TraceEventKind::Conviction, 31, 3, 0, 0); // wrong FRU
        let live = r.lifecycle();
        let snap = r.recording();
        let replayed = FaultLifecycle::from_events(&snap.events);
        // Replay only sees manifested faults; compare their records.
        for rr in &replayed.records {
            assert_eq!(Some(rr), live.record_of(rr.fault_id));
        }
        assert_eq!(replayed.wrong_fru_convictions, live.wrong_fru_convictions);
        assert_eq!(replayed.faults_injected(), live.faults_injected());
        assert_eq!(replayed.convict_latency_total(), live.convict_latency_total());
    }

    #[test]
    fn mean_latency_is_total_over_count() {
        assert_eq!(mean_latency(0, 0), 0.0);
        assert_eq!(mean_latency(10, 4), 2.5);
    }

    #[test]
    fn recording_roundtrips_through_json() {
        let mut r = rec_with_fault();
        r.fault_injected(1, 10, 0);
        r.record(TraceEventKind::SymptomRaised, 11, 2, 2, 1);
        let snap = r.recording();
        let json = serde_json::to_string(&snap).expect("serializable");
        let back: FlightRecording = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(snap, back);
    }
}
