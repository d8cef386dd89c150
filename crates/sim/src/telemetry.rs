//! Zero-allocation telemetry primitives for the slot pipeline.
//!
//! The paper's assessment process is a pipeline of observable evidence —
//! symptoms, ONAs, fault patterns, trust. This module makes the pipeline
//! itself observable: preallocated counters keyed by a static registry
//! ([`Counter`]) and gauges ([`Gauge`]), sized at compile time.
//!
//! Every value is a pure function of the simulation seed: two same-seed
//! runs produce byte-identical [`TelemetrySnapshot::counter_fingerprint`]s.
//! Wall time is not recorded here; the `perfbench/` crate times runs from
//! outside the library.

use serde::{Deserialize, Serialize};

/// The static counter registry. Every snapshot carries every counter, in
/// this order, so snapshots merge positionally and fingerprints are
/// directly comparable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// TDMA slots simulated.
    SlotsSimulated,
    /// TDMA rounds simulated.
    RoundsSimulated,
    /// Symptoms offered to the diagnostic network (detectors + forgeries).
    SymptomsOffered,
    /// Symptoms delivered to the diagnostic DAS.
    SymptomsDelivered,
    /// Symptoms dropped (bandwidth or transit loss).
    SymptomsDropped,
    /// Frames discarded by the per-frame CRC.
    FramesCorrupted,
    /// Frames rejected by plausibility screening.
    FramesRejected,
    /// Frames that arrived late through the delay line.
    FramesDelayed,
    /// Frames flagged by the rate screen as forged.
    FramesForgedSuspected,
    /// ONA pattern matches produced by the bank.
    OnaMatches,
    /// Rounds the trust assessor froze for lack of evidence flow.
    TrustFrozenRounds,
    /// Cold-standby failovers of the diagnostic component.
    Failovers,
    /// Rounds lost to a crashed diagnostic component.
    CrashedRounds,
    /// Vehicles simulated (1 for a single campaign).
    Vehicles,
    /// Vehicles whose diagnostic path the engine flagged degraded.
    DegradedVehicles,
    /// Ground-truth faults that manifested within the horizon
    /// (flight-recorder lifecycle fold).
    FaultsInjected,
    /// Manifested faults with at least one attributed symptom.
    FaultsDetected,
    /// Manifested faults whose FRU reached a stable conviction.
    FaultsConvicted,
    /// Conviction events attributable to no injected fault.
    WrongFruConvictions,
    /// Summed onset→first-symptom latency over detected faults, rounds.
    DetectLatencyRounds,
    /// Summed onset→conviction latency over convicted faults, rounds.
    ConvictLatencyRounds,
    /// Journal records written by the campaign store this process.
    JournalRecords,
    /// Journal bytes written by the campaign store this process.
    JournalBytes,
    /// Journal fsyncs issued by the campaign store this process.
    JournalFsyncs,
    /// Full snapshots written by the campaign store this process.
    SnapshotsWritten,
    /// Committed journal records recovered when the store opened.
    StoreRecoveredRecords,
    /// Torn-tail bytes the store's recovery quarantined at open.
    StoreQuarantinedBytes,
}

impl Counter {
    /// All counters, registry order.
    pub const ALL: [Counter; 27] = [
        Counter::SlotsSimulated,
        Counter::RoundsSimulated,
        Counter::SymptomsOffered,
        Counter::SymptomsDelivered,
        Counter::SymptomsDropped,
        Counter::FramesCorrupted,
        Counter::FramesRejected,
        Counter::FramesDelayed,
        Counter::FramesForgedSuspected,
        Counter::OnaMatches,
        Counter::TrustFrozenRounds,
        Counter::Failovers,
        Counter::CrashedRounds,
        Counter::Vehicles,
        Counter::DegradedVehicles,
        Counter::FaultsInjected,
        Counter::FaultsDetected,
        Counter::FaultsConvicted,
        Counter::WrongFruConvictions,
        Counter::DetectLatencyRounds,
        Counter::ConvictLatencyRounds,
        Counter::JournalRecords,
        Counter::JournalBytes,
        Counter::JournalFsyncs,
        Counter::SnapshotsWritten,
        Counter::StoreRecoveredRecords,
        Counter::StoreQuarantinedBytes,
    ];

    /// Number of registered counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SlotsSimulated => "slots_simulated",
            Counter::RoundsSimulated => "rounds_simulated",
            Counter::SymptomsOffered => "symptoms_offered",
            Counter::SymptomsDelivered => "symptoms_delivered",
            Counter::SymptomsDropped => "symptoms_dropped",
            Counter::FramesCorrupted => "frames_corrupted",
            Counter::FramesRejected => "frames_rejected",
            Counter::FramesDelayed => "frames_delayed",
            Counter::FramesForgedSuspected => "frames_forged_suspected",
            Counter::OnaMatches => "ona_matches",
            Counter::TrustFrozenRounds => "trust_frozen_rounds",
            Counter::Failovers => "failovers",
            Counter::CrashedRounds => "crashed_rounds",
            Counter::Vehicles => "vehicles",
            Counter::DegradedVehicles => "degraded_vehicles",
            Counter::FaultsInjected => "faults_injected",
            Counter::FaultsDetected => "faults_detected",
            Counter::FaultsConvicted => "faults_convicted",
            Counter::WrongFruConvictions => "wrong_fru_convictions",
            Counter::DetectLatencyRounds => "detect_latency_rounds",
            Counter::ConvictLatencyRounds => "convict_latency_rounds",
            Counter::JournalRecords => "journal_records",
            Counter::JournalBytes => "journal_bytes",
            Counter::JournalFsyncs => "journal_fsyncs",
            Counter::SnapshotsWritten => "snapshots_written",
            Counter::StoreRecoveredRecords => "store_recovered_records",
            Counter::StoreQuarantinedBytes => "store_quarantined_bytes",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The static gauge registry (deterministic floating-point observables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Mean delivery quality of the diagnostic path.
    DeliveryQuality,
    /// No-fault-found ratio of the integrated diagnosis (fleet scope).
    NffRatio,
    /// Mean onset→first-symptom latency over detected faults, rounds.
    DetectLatency,
    /// Mean onset→stable-conviction latency over convicted faults, rounds.
    ConvictLatency,
}

impl Gauge {
    /// All gauges, registry order.
    pub const ALL: [Gauge; 4] =
        [Gauge::DeliveryQuality, Gauge::NffRatio, Gauge::DetectLatency, Gauge::ConvictLatency];

    /// Number of registered gauges.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::DeliveryQuality => "delivery_quality",
            Gauge::NffRatio => "nff_ratio",
            Gauge::DetectLatency => "detect_latency",
            Gauge::ConvictLatency => "convict_latency",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Preallocated counter storage, one slot per [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSet {
    vals: [u64; Counter::COUNT],
}

impl Default for CounterSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterSet {
    /// All-zero counters.
    pub const fn new() -> Self {
        CounterSet { vals: [0; Counter::COUNT] }
    }

    /// Adds to one counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c.index()] += n;
    }

    /// Overwrites one counter.
    pub fn set(&mut self, c: Counter, n: u64) {
        self.vals[c.index()] = n;
    }

    /// Reads one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c.index()]
    }

    /// Element-wise sum (fleet aggregation).
    pub fn merge(&mut self, other: &CounterSet) {
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            *a += b;
        }
    }
}

/// Preallocated gauge storage, one slot per [`Gauge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSet {
    vals: [f64; Gauge::COUNT],
}

impl Default for GaugeSet {
    fn default() -> Self {
        Self::new()
    }
}

impl GaugeSet {
    /// All-zero gauges.
    pub const fn new() -> Self {
        GaugeSet { vals: [0.0; Gauge::COUNT] }
    }

    /// Overwrites one gauge.
    pub fn set(&mut self, g: Gauge, v: f64) {
        self.vals[g.index()] = v;
    }

    /// Reads one gauge.
    pub fn get(&self, g: Gauge) -> f64 {
        self.vals[g.index()]
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Registry name.
    pub name: String,
    /// Value.
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeValue {
    /// Registry name.
    pub name: String,
    /// Value.
    pub value: f64,
}

/// A serializable point-in-time view of the whole telemetry layer: the
/// full counter and gauge registries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Every registered counter, registry order.
    pub counters: Vec<CounterValue>,
    /// Every registered gauge, registry order.
    pub gauges: Vec<GaugeValue>,
}

impl TelemetrySnapshot {
    /// Assembles a snapshot from live storage.
    pub fn assemble(counters: &CounterSet, gauges: &GaugeSet) -> Self {
        TelemetrySnapshot {
            counters: Counter::ALL
                .iter()
                .map(|c| CounterValue { name: c.name().to_string(), value: counters.get(*c) })
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|g| GaugeValue { name: g.name().to_string(), value: gauges.get(*g) })
                .collect(),
        }
    }

    /// Value of one counter by registry name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Value of one gauge by registry name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The snapshot as one canonical string: counters and gauges,
    /// registry order. Two same-seed runs must produce byte-identical
    /// fingerprints.
    pub fn counter_fingerprint(&self) -> String {
        let mut s = String::new();
        for c in &self.counters {
            s.push_str(&c.name);
            s.push('=');
            s.push_str(&c.value.to_string());
            s.push(';');
        }
        for g in &self.gauges {
            s.push_str(&g.name);
            s.push('=');
            s.push_str(&format!("{:?}", g.value));
            s.push(';');
        }
        s
    }

    /// Merges another snapshot (fleet aggregation): counters sum. Gauges
    /// are **not** merged — ratios don't sum; the aggregating caller must
    /// re-set them from the aggregate outcome.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        debug_assert_eq!(self.counters.len(), other.counters.len());
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            debug_assert_eq!(a.name, b.name, "registry order must match");
            a.value += b.value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_consistent() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        let names: std::collections::BTreeSet<&str> =
            Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT, "counter names must be unique");
    }

    #[test]
    fn snapshot_fingerprint_covers_counters_and_gauges_only() {
        let mut counters = CounterSet::new();
        counters.add(Counter::SymptomsOffered, 41);
        counters.add(Counter::SymptomsOffered, 1);
        let mut gauges = GaugeSet::new();
        gauges.set(Gauge::DeliveryQuality, 0.75);

        let a = TelemetrySnapshot::assemble(&counters, &gauges);
        assert_eq!(a.counter("symptoms_offered"), Some(42));
        assert_eq!(a.gauge("delivery_quality"), Some(0.75));
        let fp = a.counter_fingerprint();
        assert!(fp.contains("symptoms_offered=42;"));
        assert!(fp.contains("delivery_quality=0.75;"));
        assert_eq!(fp.matches(';').count(), Counter::COUNT + Gauge::COUNT);
        gauges.set(Gauge::DeliveryQuality, 0.5);
        let b = TelemetrySnapshot::assemble(&counters, &gauges);
        assert_ne!(fp, b.counter_fingerprint(), "a gauge is part of the fingerprint");
    }

    #[test]
    fn snapshot_merge_sums_counters_and_keeps_gauges() {
        let mut counters = CounterSet::new();
        counters.set(Counter::Vehicles, 1);
        counters.set(Counter::SlotsSimulated, 100);
        let mut gauges = GaugeSet::new();
        gauges.set(Gauge::NffRatio, 0.25);

        let mut a = TelemetrySnapshot::assemble(&counters, &gauges);
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.counter("vehicles"), Some(2));
        assert_eq!(a.counter("slots_simulated"), Some(200));
        assert_eq!(a.gauge("nff_ratio"), Some(0.25), "gauges are not summed");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut counters = CounterSet::new();
        counters.set(Counter::OnaMatches, 7);
        let mut gauges = GaugeSet::new();
        gauges.set(Gauge::ConvictLatency, 12.5);
        let snap = TelemetrySnapshot::assemble(&counters, &gauges);
        let json = serde_json::to_string(&snap).expect("serializable");
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(snap, back);
    }
}
