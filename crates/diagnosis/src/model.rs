//! The ONA pattern catalogue: which fault class each pattern indicates
//! (Fig. 8), where its evidence is observed, and whether it can fire by
//! round n — the static facts behind the runtime matchers.
//!
//! The [`OnaBank`](crate::patterns::OnaBank) matches symptom streams at
//! runtime; the decos-analyzer's coverage pass (DA020/DA021) and its
//! bounded n-diagnosability model (DA080–DA082) need the facts *behind*
//! those matchers without running a simulation. [`PATTERN_MODELS`] holds
//! one row per pattern the bank can emit, and [`reach`] is the one rule
//! both passes ask: a pattern is available within n rounds iff its
//! parameter gates pass and its envelope round is at most n. The rows
//! mirror the matcher literals in `patterns.rs`; a test there checks
//! every emitted match against its row and [`reach`].
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

use decos_faults::{FaultClass, FaultKind};
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

/// One row of the ONA pattern catalogue.
#[derive(Debug, Clone, Copy)]
pub struct PatternModel {
    /// Stable pattern name (matches `PatternMatch::pattern`).
    pub name: &'static str,
    /// The fault class the pattern indicates (Fig. 8).
    pub class: FaultClass,
    /// Evidence domain (detector-placement precondition).
    pub domain: SymptomDomain,
    /// Highest confidence the runtime matcher ever attaches to a firing
    /// of this pattern (optimistic envelope).
    pub confidence: f64,
}

const fn row(
    name: &'static str,
    class: FaultClass,
    domain: SymptomDomain,
    confidence: f64,
) -> PatternModel {
    PatternModel { name, class, domain, confidence }
}

/// Every pattern the ONA bank can emit, in Fig. 8 order.
pub const PATTERN_MODELS: &[PatternModel] = {
    use FaultClass::*;
    use SymptomDomain::*;
    &[
        row("massive-transient", ComponentExternal, Comm, 0.9),
        row("isolated-transient", ComponentExternal, Comm, 0.4),
        row("connector", ComponentBorderline, Comm, 0.9),
        row("connector-rx", ComponentBorderline, Comm, 0.45),
        row("recurring-internal", ComponentInternal, Comm, 0.8),
        row("wearout", ComponentInternal, Comm, 0.95),
        row("oscillator", ComponentInternal, Sync, 0.85),
        row("cohost-correlation", ComponentInternal, JobValue, 0.85),
        row("configuration", JobBorderline, Queue, 0.9),
        row("software-design", JobInherentSoftware, JobValue, 0.7),
        row("transducer-stuck", JobInherentTransducer, JobValue, 0.8),
        row("transducer-drift", JobInherentTransducer, JobValue, 0.8),
        row("transducer-dead", JobInherentTransducer, JobValue, 0.75),
    ]
};

/// Looks up the catalogue row for a pattern name.
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

/// Whether pattern `p` can fire under `ona` within `rounds` (0 = no fixed
/// horizon): the earliest round (1-indexed) it can fire, or why it
/// cannot.
///
/// The round is the optimistic envelope — a manifestation in every round
/// and judgement window from round 1 on. Only recurring-internal reads
/// the α-count to fire; the connector and oscillator patterns read it for
/// their confidence or class alone, and wearout fires on its trend.
///
/// # Errors
///
/// The reason, when a parameter gate closes the pattern or its envelope
/// round lies beyond the horizon.
pub fn reach(p: &PatternModel, ona: &OnaParams, rounds: u64) -> Result<u64, String> {
    let within = |needed: u64, what: &str| {
        if rounds == 0 || needed <= rounds {
            Ok(needed)
        } else {
            Err(format!("{what} needs {needed} rounds but the horizon is {rounds}"))
        }
    };
    let jr = ona.judgement_rounds.max(1) as u64;
    match p.name {
        "massive-transient" if !ona.enable_spatial => {
            Err("the spatial ONA is disabled (enable_spatial = false)".into())
        }
        "massive-transient" if !(ona.zone_radius_m.is_finite() && ona.zone_radius_m > 0.0) => {
            Err(format!("zone radius {} m is not a positive finite number", ona.zone_radius_m))
        }
        "cohost-correlation" if !ona.enable_cohost => {
            Err("the co-host correlation ONA is disabled (enable_cohost = false)".into())
        }
        // One failing judgement window per α-increment until the count
        // declares.
        "recurring-internal" => match alpha_windows_to_declare(&ona.alpha) {
            Some(windows)
                if ona.alpha.decay > 0.0 && ona.alpha.decay <= 1.0 && ona.alpha.threshold > 0.0 =>
            {
                within(windows.saturating_mul(jr), "the alpha-count declaration")
            }
            _ => Err(format!(
                "alpha-count parameters (decay {}, threshold {}) cannot cross the threshold",
                ona.alpha.decay, ona.alpha.threshold
            )),
        },
        "wearout" if !ona.wearout_slope_min.is_finite() => {
            Err("the minimum wearout slope is not finite".into())
        }
        // An established positive trend over the minimum window count.
        "wearout" => {
            within((ona.wearout_min_windows as u64).saturating_mul(jr).max(1), "the wearout trend")
        }
        // One overflowing round per required overflow window.
        "configuration" => within(ona.overflow_min_windows.max(1), "the overflow evidence"),
        "transducer-stuck" if !(ona.stuck_duty > 0.0 && ona.stuck_duty <= 1.0) => {
            Err(format!("stuck duty {} is outside (0, 1]", ona.stuck_duty))
        }
        // One symptomatic dispatch per round until the event floor.
        "software-design" | "transducer-stuck" | "transducer-drift" | "transducer-dead" => {
            within(ona.job_min_events.max(1), "the job symptom evidence")
        }
        // Single-round evidence: the transient, connector, oscillator and
        // co-host patterns.
        _ => Ok(1),
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
                assert!(reach(m, &ona, 0).is_ok(), "{p}: unreachable under default params");
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

    fn named(name: &str) -> &'static PatternModel {
        pattern_model(name).unwrap_or_else(|| panic!("{name}"))
    }

    fn with_alpha(decay: f64, threshold: f64) -> OnaParams {
        let mut o = OnaParams::default();
        o.alpha.decay = decay;
        o.alpha.threshold = threshold;
        o
    }

    #[test]
    fn earliest_fire_respects_judgement_horizon() {
        let ona = OnaParams::default();
        let round = |name| reach(named(name), &ona, 0);
        // Defaults: threshold 2.5 -> 3 windows of 50 rounds.
        assert_eq!(round("recurring-internal"), Ok(150));
        // The trend floor alone: 4 windows of 50 rounds.
        assert_eq!(round("wearout"), Ok(200));
        assert_eq!(round("configuration"), Ok(5));
        assert_eq!(round("software-design"), Ok(3));
        assert_eq!(round("isolated-transient"), Ok(1));
        assert_eq!(round("connector-rx"), Ok(1));
    }

    #[test]
    fn unknown_pattern_has_no_row() {
        assert!(pattern_model("no-such-pattern").is_none());
    }

    #[test]
    fn catalog_covers_every_class_by_default() {
        let ona = OnaParams::default();
        for class in FaultClass::ALL {
            let covered =
                PATTERN_MODELS.iter().any(|p| p.class == class && reach(p, &ona, 0).is_ok());
            assert!(covered, "{class} uncovered under default parameters");
        }
    }

    #[test]
    fn disabling_spatial_removes_only_massive_transient() {
        let ona = OnaParams { enable_spatial: false, ..OnaParams::default() };
        assert!(reach(named("massive-transient"), &ona, 0).is_err());
        // The class stays covered through the isolated-transient pattern.
        assert!(reach(named("isolated-transient"), &ona, 0).is_ok());
    }

    #[test]
    fn short_horizon_starves_evidence_thresholds() {
        let ona = OnaParams::default();
        let cfgp = named("configuration");
        assert!(reach(cfgp, &ona, 2).is_err(), "5 overflow windows need > 2 rounds");
        assert_eq!(reach(cfgp, &ona, 100), Ok(5));
    }

    #[test]
    fn unavailability_boundaries_table() {
        // Table-driven boundary cases: (pattern, ona, rounds, expect
        // unavailable). Defaults: judgement_rounds 50, alpha threshold
        // 2.5 (3 windows), wearout windows 4, overflow windows 5, job
        // events 3.
        let dflt = OnaParams::default;
        let cases: Vec<(&str, OnaParams, u64, bool)> = vec![
            // rounds = 0 means "unbounded": horizon starvation never fires.
            ("recurring-internal", dflt(), 0, false),
            ("wearout", dflt(), 0, false),
            ("configuration", dflt(), 0, false),
            ("software-design", dflt(), 0, false),
            // Off-by-one around each envelope round.
            ("recurring-internal", dflt(), 149, true),
            ("recurring-internal", dflt(), 150, false),
            ("wearout", dflt(), 199, true),
            ("wearout", dflt(), 200, false),
            ("configuration", dflt(), 4, true),
            ("configuration", dflt(), 5, false),
            ("software-design", dflt(), 2, true),
            ("software-design", dflt(), 3, false),
            ("transducer-stuck", dflt(), 2, true),
            ("transducer-stuck", dflt(), 3, false),
            ("transducer-drift", dflt(), 2, true),
            ("transducer-dead", dflt(), 3, false),
            // Instant patterns survive a one-round horizon.
            ("isolated-transient", dflt(), 1, false),
            ("connector", dflt(), 1, false),
            ("connector-rx", dflt(), 1, false),
            ("oscillator", dflt(), 1, false),
            ("massive-transient", dflt(), 1, false),
            // Saturated / degenerate parameters kill the pattern outright,
            // regardless of horizon.
            ("recurring-internal", with_alpha(0.9, f64::INFINITY), 0, true),
            ("recurring-internal", with_alpha(0.0, 3.0), 0, true),
            ("recurring-internal", with_alpha(0.9, 0.0), 0, true),
            ("wearout", OnaParams { wearout_slope_min: f64::NAN, ..dflt() }, 0, true),
            ("massive-transient", OnaParams { zone_radius_m: 0.0, ..dflt() }, 0, true),
            ("massive-transient", OnaParams { zone_radius_m: f64::INFINITY, ..dflt() }, 0, true),
            ("massive-transient", OnaParams { enable_spatial: false, ..dflt() }, 0, true),
            ("cohost-correlation", OnaParams { enable_cohost: false, ..dflt() }, 0, true),
            ("cohost-correlation", dflt(), 1, false),
            ("transducer-stuck", OnaParams { stuck_duty: 0.0, ..dflt() }, 0, true),
            ("transducer-stuck", OnaParams { stuck_duty: 1.5, ..dflt() }, 0, true),
            ("transducer-stuck", OnaParams { stuck_duty: 1.0, ..dflt() }, 0, false),
            // An unreachable alpha threshold closes only the pattern that
            // fires on a declared count.
            ("wearout", with_alpha(0.9, f64::INFINITY), 0, false),
            ("connector", with_alpha(0.9, f64::INFINITY), 1, false),
            ("oscillator", with_alpha(0.9, f64::INFINITY), 1, false),
        ];
        for (i, (name, ona, rounds, expect_unavailable)) in cases.iter().enumerate() {
            let got = reach(named(name), ona, *rounds);
            assert_eq!(
                got.is_err(),
                *expect_unavailable,
                "case {i}: {name} at {rounds} rounds -> {got:?}"
            );
        }
    }

    #[test]
    fn scaled_judgement_interval_moves_the_horizon() {
        // The rounds scale with the parameters, not with constants.
        let ona =
            OnaParams { judgement_rounds: 10, wearout_min_windows: 7, ..OnaParams::default() };
        assert!(reach(named("recurring-internal"), &ona, 29).is_err());
        assert_eq!(reach(named("recurring-internal"), &ona, 30), Ok(30));
        assert!(reach(named("wearout"), &ona, 69).is_err());
        assert_eq!(reach(named("wearout"), &ona, 70), Ok(70));
        let ona = OnaParams { overflow_min_windows: 1, job_min_events: 1, ..OnaParams::default() };
        assert_eq!(reach(named("configuration"), &ona, 1), Ok(1));
        assert_eq!(reach(named("software-design"), &ona, 1), Ok(1));
    }
}
