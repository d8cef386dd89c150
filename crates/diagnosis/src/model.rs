//! Static facts behind the ONA pattern matchers, exposed for the
//! decos-analyzer's abstract diagnosability model.
//!
//! The [`OnaBank`](crate::patterns::OnaBank) matches symptom streams at
//! runtime; the static n-diagnosability check needs the facts *behind*
//! those matchers — which patterns a fault kind can manifest as, what
//! confidence a firing carries, how early a pattern can possibly fire —
//! without running a simulation. This module is the single home of those
//! facts so the runtime matchers and the static model cannot drift apart
//! silently: the constants here mirror `patterns.rs` and are pinned by
//! tests in both crates.
//!
//! The model is deliberately **optimistic** (a best-case envelope of the
//! runtime): it assumes every manifestation is observed at the earliest
//! possible round and scores with the highest confidence the matcher can
//! emit. Consequences for the analyzer's verdicts:
//!
//! * "pattern unreachable" / "conviction impossible within n rounds" are
//!   *sound* — if the optimistic envelope cannot reach it, the simulator
//!   cannot either;
//! * "reachable"/"diagnosable" are optimistic claims, validated
//!   empirically by the paired-simulation soundness suite in
//!   `crates/decos/tests/diagnosability.rs`.

use decos_faults::FaultKind;
use decos_reliability::AlphaParams;

use crate::patterns::OnaParams;

/// Where a pattern's evidence is observed, which determines the detector
/// placement precondition the analyzer must check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymptomDomain {
    /// Frame-level communication errors on the TDMA channel: observable
    /// only if the subject component owns a transmission slot and at
    /// least one peer exists to observe it.
    Comm,
    /// Clock-synchronization violations: observable via the membership /
    /// resync protocol, again requiring the subject to transmit.
    Sync,
    /// Queue overflows at a vnet port: detected *locally* at the
    /// affected job's host; no transmission slot of its own required.
    Queue,
    /// Message-value / timing violations of a job's outputs: observable
    /// where the outputs are published, i.e. the hosting component must
    /// own a slot.
    JobValue,
}

/// One row of static pattern metadata.
#[derive(Debug, Clone, Copy)]
pub struct PatternModel {
    /// Stable pattern name (matches `PatternMatch::pattern`).
    pub name: &'static str,
    /// Evidence domain (detector-placement precondition).
    pub domain: SymptomDomain,
    /// Highest confidence the runtime matcher ever attaches to a firing
    /// of this pattern (optimistic envelope).
    pub confidence: f64,
}

/// Static metadata for every pattern the ONA bank can emit, in Fig. 8
/// order. Confidences mirror the literals in `patterns.rs`.
pub(crate) const PATTERN_MODELS: &[PatternModel] = &[
    PatternModel { name: "massive-transient", domain: SymptomDomain::Comm, confidence: 0.9 },
    PatternModel { name: "isolated-transient", domain: SymptomDomain::Comm, confidence: 0.4 },
    PatternModel { name: "connector", domain: SymptomDomain::Comm, confidence: 0.9 },
    PatternModel { name: "connector-rx", domain: SymptomDomain::Comm, confidence: 0.45 },
    PatternModel { name: "recurring-internal", domain: SymptomDomain::Comm, confidence: 0.8 },
    PatternModel { name: "wearout", domain: SymptomDomain::Comm, confidence: 0.95 },
    PatternModel { name: "oscillator", domain: SymptomDomain::Sync, confidence: 0.85 },
    PatternModel { name: "cohost-correlation", domain: SymptomDomain::JobValue, confidence: 0.85 },
    PatternModel { name: "configuration", domain: SymptomDomain::Queue, confidence: 0.9 },
    PatternModel { name: "software-design", domain: SymptomDomain::JobValue, confidence: 0.7 },
    PatternModel { name: "transducer-stuck", domain: SymptomDomain::JobValue, confidence: 0.8 },
    PatternModel { name: "transducer-drift", domain: SymptomDomain::JobValue, confidence: 0.8 },
    PatternModel { name: "transducer-dead", domain: SymptomDomain::JobValue, confidence: 0.75 },
];

/// Looks up the static metadata row for a pattern name.
pub fn pattern_model(name: &str) -> Option<&'static PatternModel> {
    PATTERN_MODELS.iter().find(|m| m.name == name)
}

/// Judgement windows until an α-count declares, under the optimistic
/// assumption that *every* window fails (α grows by exactly 1 per
/// window, no decay is ever applied). `None` if the threshold is
/// unreachable (non-finite).
pub(crate) fn alpha_windows_to_declare(a: &AlphaParams) -> Option<u64> {
    if !a.threshold.is_finite() {
        return None;
    }
    Some((a.threshold.ceil() as u64).max(1))
}

/// Earliest round (1-indexed) at which a pattern can possibly fire,
/// under the optimistic envelope (a manifestation in every round /
/// judgement window from round 1 on). `None` when the pattern can never
/// fire under these parameters.
pub fn earliest_fire_round(pattern: &str, ona: &OnaParams) -> Option<u64> {
    let windows = alpha_windows_to_declare(&ona.alpha)?;
    let jr = ona.judgement_rounds.max(1) as u64;
    match pattern {
        // Single-round comm/sync evidence.
        "massive-transient" | "isolated-transient" | "connector" | "connector-rx"
        | "oscillator" => Some(1),
        // Correlated value violations within the correlation window.
        "cohost-correlation" => Some(1),
        // The α-count must declare: one failing judgement window per
        // α-increment.
        "recurring-internal" => Some(windows.saturating_mul(jr)),
        // Declared α-count *and* an established positive trend over the
        // minimum trend-window count.
        "wearout" => Some(windows.max(ona.wearout_min_windows as u64).saturating_mul(jr)),
        // One overflowing round per required overflow window.
        "configuration" => Some(ona.overflow_min_windows.max(1)),
        // One symptomatic dispatch per round until the event floor.
        "software-design" | "transducer-stuck" | "transducer-drift" | "transducer-dead" => {
            Some(ona.job_min_events.max(1))
        }
        _ => None,
    }
}

/// The set of ONA patterns a fault kind can manifest as, anywhere in its
/// parameter space (optimistic reachability — attribution scope is the
/// analyzer's concern). Derived from the manifestation survey of
/// `decos_faults::injector` crossed with the matcher branches in
/// `patterns.rs`. Diagnostic-path kinds perturb the diagnostic transport
/// only and never appear as application-level symptoms, hence the empty
/// slice.
pub fn patterns_for_kind(kind: &FaultKind) -> &'static [&'static str] {
    match kind {
        // Spatially scoped frame corruption across the affected zone;
        // recurring bursts can also drive zone members' α-counts over
        // the threshold.
        FaultKind::EmiBurst { .. } => {
            &["massive-transient", "isolated-transient", "recurring-internal"]
        }
        // Point frame corruption; recurrence reads as internal — the
        // α-count deliberately classifies *any* recurrence at one
        // location as repair-requiring (§V-C).
        FaultKind::CosmicRaySeu { .. } => &["isolated-transient", "recurring-internal"],
        // Transient outages (omission episodes) at one component.
        FaultKind::StressOutage { .. } | FaultKind::PowerSupplyMarginal { .. } => {
            &["isolated-transient", "recurring-internal"]
        }
        // Stub-level bidirectional omissions; the rx-side complaint
        // pattern backs the tx-side one.
        FaultKind::ConnectorIntermittent { .. } | FaultKind::ConnectorWearout { .. } => {
            &["connector", "connector-rx"]
        }
        // Growing-rate episodes add the wearout trend to the recurring
        // evidence.
        FaultKind::PcbCrack { .. } | FaultKind::SolderJointCrack { .. } => {
            &["isolated-transient", "recurring-internal", "wearout"]
        }
        FaultKind::QuartzDegradation { .. } => &["oscillator"],
        // Death manifests as permanent omissions: recurring from the
        // observers' perspective.
        FaultKind::IcPermanent { .. } | FaultKind::IcTransient { .. } => {
            &["isolated-transient", "recurring-internal"]
        }
        // Value drift of every hosted job: correlated across jobs when
        // more than one DAS is hosted, otherwise indistinguishable from
        // a per-job transducer drift.
        FaultKind::CapacitorAging { .. } => &["cohost-correlation", "transducer-drift"],
        FaultKind::VnetMisconfiguration => &["configuration"],
        // Interface-level value anomalies without persistence or trend —
        // includes noisy transducers, which the paper concedes cannot be
        // told apart from rare software bugs at the interface (§III-D).
        FaultKind::Bohrbug { .. } | FaultKind::Heisenbug { .. } | FaultKind::SensorNoise { .. } => {
            &["software-design"]
        }
        FaultKind::SensorStuck { .. } => &["transducer-stuck"],
        FaultKind::SensorDrift { .. } => &["transducer-drift"],
        FaultKind::SensorDead => &["transducer-dead"],
        // Diagnostic-path kinds never produce application symptoms; they
        // degrade the observer, which DA070-DA073 cover.
        FaultKind::DiagFrameLoss { .. }
        | FaultKind::DiagFrameCorruption { .. }
        | FaultKind::DiagFrameDelay { .. }
        | FaultKind::BabblingObserver { .. }
        | FaultKind::DiagComponentCrash { .. } => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_reliability::AlphaCount;

    #[test]
    fn every_reachable_pattern_has_a_model_row() {
        use decos_platform::Position;
        let kinds = [
            FaultKind::EmiBurst {
                rate_per_hour: 1.0,
                duration_ms: 10.0,
                center: Position { x: 0.0, y: 0.0 },
                radius_m: 1.0,
            },
            FaultKind::CosmicRaySeu { rate_per_hour: 1.0 },
            FaultKind::StressOutage { rate_per_hour: 1.0, outage_ms: 10.0 },
            FaultKind::ConnectorIntermittent { rate_per_hour: 1.0, duration_ms: 5.0 },
            FaultKind::ConnectorWearout {
                base_rate_per_hour: 1.0,
                growth_per_hour: 1.0,
                duration_ms: 5.0,
            },
            FaultKind::PcbCrack { base_rate_per_hour: 1.0, growth_per_hour: 1.0, outage_ms: 10.0 },
            FaultKind::SolderJointCrack {
                base_rate_per_hour: 1.0,
                growth_per_hour: 1.0,
                duration_ms: 5.0,
            },
            FaultKind::QuartzDegradation { drift_ppm_per_hour: 10.0 },
            FaultKind::IcPermanent { after_hours: 1.0 },
            FaultKind::IcTransient { rate_per_hour: 1.0, duration_ms: 5.0 },
            FaultKind::CapacitorAging { bias_per_hour: 1.0 },
            FaultKind::PowerSupplyMarginal { rate_per_hour: 1.0, outage_ms: 10.0 },
            FaultKind::VnetMisconfiguration,
            FaultKind::Bohrbug { trigger_band: (0.0, 1.0), offset: 1.0 },
            FaultKind::Heisenbug { prob_per_dispatch: 0.1, drop: false, wrong_value: 0.0 },
            FaultKind::SensorStuck { value: 0.0 },
            FaultKind::SensorDrift { per_hour: 1.0 },
            FaultKind::SensorNoise { std_dev: 1.0 },
            FaultKind::SensorDead,
            FaultKind::DiagFrameLoss { loss_prob: 0.5 },
            FaultKind::BabblingObserver { forged_per_round: 1 },
        ];
        let ona = OnaParams::default();
        for kind in &kinds {
            for p in patterns_for_kind(kind) {
                let m = pattern_model(p)
                    .unwrap_or_else(|| panic!("{}: no model row for {p}", kind.name()));
                assert!(m.confidence > 0.0 && m.confidence <= 1.0);
                assert!(
                    earliest_fire_round(p, &ona).is_some(),
                    "{p}: no earliest-fire bound under default params"
                );
            }
            assert_eq!(
                patterns_for_kind(kind).is_empty(),
                kind.is_diag_path(),
                "{}: only diagnostic-path kinds are invisible to the ONA bank",
                kind.name()
            );
        }
    }

    #[test]
    fn alpha_windows_match_the_runtime_counter() {
        // The optimistic bound must be exactly the number of consecutive
        // failing windows the real AlphaCount needs before declaring.
        for (decay, threshold) in [(0.95, 2.5), (0.9, 3.0), (0.5, 1.0), (0.0, 6.0)] {
            let params = AlphaParams { decay, threshold };
            let predicted = alpha_windows_to_declare(&params).expect("finite threshold");
            let mut a = AlphaCount::new(params);
            let mut windows = 0u64;
            while !a.is_declared() {
                a.observe(true);
                windows += 1;
                assert!(windows < 10_000, "counter must declare under constant failures");
            }
            assert_eq!(predicted, windows, "decay={decay} threshold={threshold}");
        }
    }

    #[test]
    fn earliest_fire_respects_judgement_horizon() {
        let ona = OnaParams::default();
        // Defaults: threshold 2.5 -> 3 windows of 50 rounds.
        assert_eq!(earliest_fire_round("recurring-internal", &ona), Some(150));
        // Wearout needs the trend floor too: max(3, 4) windows.
        assert_eq!(earliest_fire_round("wearout", &ona), Some(200));
        assert_eq!(earliest_fire_round("configuration", &ona), Some(5));
        assert_eq!(earliest_fire_round("software-design", &ona), Some(3));
        assert_eq!(earliest_fire_round("isolated-transient", &ona), Some(1));
        assert_eq!(earliest_fire_round("no-such-pattern", &ona), None);
    }

    #[test]
    fn confidences_mirror_patterns_rs() {
        // Spot-pin the envelope values against the matcher literals.
        assert_eq!(pattern_model("massive-transient").unwrap().confidence, 0.9);
        assert_eq!(pattern_model("isolated-transient").unwrap().confidence, 0.4);
        assert_eq!(pattern_model("wearout").unwrap().confidence, 0.95);
        assert_eq!(pattern_model("transducer-dead").unwrap().confidence, 0.75);
        assert!(pattern_model("nonexistent").is_none());
    }
}
