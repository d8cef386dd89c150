//! The ONA pattern catalog: which fault pattern indicates which taxonomy
//! class, and under which parameter settings it can fire at all.
//!
//! §V-A defines an ONA as a predicate over the distributed state in the
//! value, time and space domains; Fig. 8 maps patterns to fault classes.
//! The diagnostic argument of the paper implicitly assumes *coverage*:
//! every class of the maintenance-oriented taxonomy (Fig. 6) must manifest
//! in at least one detectable pattern, otherwise faults of that class are
//! structurally invisible to the architecture. This module makes that
//! assumption checkable.

use decos_diagnosis::OnaParams;
use decos_faults::FaultClass;

/// One pattern of the ONA bank, as the analyzer models it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PatternInfo {
    /// Stable pattern name (matches `PatternMatch::pattern`).
    pub name: &'static str,
    /// The fault class the pattern indicates (Fig. 8).
    pub class: FaultClass,
}

/// Every pattern the ONA bank implements, in Fig. 8 order.
pub(crate) const PATTERN_CATALOG: &[PatternInfo] = &[
    PatternInfo { name: "massive-transient", class: FaultClass::ComponentExternal },
    PatternInfo { name: "isolated-transient", class: FaultClass::ComponentExternal },
    PatternInfo { name: "connector", class: FaultClass::ComponentBorderline },
    PatternInfo { name: "recurring-internal", class: FaultClass::ComponentInternal },
    PatternInfo { name: "wearout", class: FaultClass::ComponentInternal },
    PatternInfo { name: "oscillator", class: FaultClass::ComponentInternal },
    PatternInfo { name: "cohost-correlation", class: FaultClass::ComponentInternal },
    PatternInfo { name: "configuration", class: FaultClass::JobBorderline },
    PatternInfo { name: "software-design", class: FaultClass::JobInherentSoftware },
    PatternInfo { name: "transducer-stuck", class: FaultClass::JobInherentTransducer },
    PatternInfo { name: "transducer-drift", class: FaultClass::JobInherentTransducer },
    PatternInfo { name: "transducer-dead", class: FaultClass::JobInherentTransducer },
];

/// Why a pattern cannot fire under `ona` within `rounds` (0 = unbounded),
/// or `None` if it can.
#[must_use]
pub(crate) fn unavailability(p: &PatternInfo, ona: &OnaParams, rounds: u64) -> Option<String> {
    let horizon = |needed: u64, what: &str| -> Option<String> {
        if rounds > 0 && needed > rounds {
            Some(format!("{what} needs {needed} rounds but the horizon is {rounds}"))
        } else {
            None
        }
    };
    let alpha_ok = ona.alpha.decay > 0.0
        && ona.alpha.decay <= 1.0
        && ona.alpha.threshold.is_finite()
        && ona.alpha.threshold > 0.0;
    match p.name {
        "massive-transient" => {
            if !ona.enable_spatial {
                Some("the spatial ONA is disabled (enable_spatial = false)".into())
            } else if !(ona.zone_radius_m.is_finite() && ona.zone_radius_m > 0.0) {
                Some(format!("zone radius {} m is not a positive finite number", ona.zone_radius_m))
            } else {
                None
            }
        }
        "isolated-transient" => None,
        "connector" => None,
        "recurring-internal" => {
            if alpha_ok {
                horizon(ona.judgement_rounds as u64, "one judgement interval")
            } else {
                Some(format!(
                    "alpha-count parameters (decay {}, threshold {}) cannot cross the threshold",
                    ona.alpha.decay, ona.alpha.threshold
                ))
            }
        }
        "wearout" => {
            if ona.wearout_slope_min.is_finite() {
                horizon(
                    (ona.wearout_min_windows as u64).saturating_mul(ona.judgement_rounds as u64),
                    "the wearout trend",
                )
            } else {
                Some("the minimum wearout slope is not finite".into())
            }
        }
        "oscillator" => None,
        "cohost-correlation" => {
            if ona.enable_cohost {
                None
            } else {
                Some("the co-host correlation ONA is disabled (enable_cohost = false)".into())
            }
        }
        "configuration" => horizon(ona.overflow_min_windows, "the overflow evidence"),
        "software-design" => horizon(ona.job_min_events, "the job symptom evidence"),
        "transducer-stuck" => {
            if ona.stuck_duty > 0.0 && ona.stuck_duty <= 1.0 {
                horizon(ona.job_min_events, "the job symptom evidence")
            } else {
                Some(format!("stuck duty {} is outside (0, 1]", ona.stuck_duty))
            }
        }
        "transducer-drift" | "transducer-dead" => {
            horizon(ona.job_min_events, "the job symptom evidence")
        }
        other => Some(format!("unknown pattern {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_class_by_default() {
        let ona = OnaParams::default();
        for class in FaultClass::ALL {
            let covered = PATTERN_CATALOG
                .iter()
                .any(|p| p.class == class && unavailability(p, &ona, 0).is_none());
            assert!(covered, "{class} uncovered under default parameters");
        }
    }

    #[test]
    fn disabling_spatial_removes_only_massive_transient() {
        let ona = OnaParams { enable_spatial: false, ..OnaParams::default() };
        let mt = PATTERN_CATALOG.iter().find(|p| p.name == "massive-transient").unwrap();
        assert!(unavailability(mt, &ona, 0).is_some());
        // The class stays covered through the isolated-transient pattern.
        let it = PATTERN_CATALOG.iter().find(|p| p.name == "isolated-transient").unwrap();
        assert!(unavailability(it, &ona, 0).is_none());
    }

    #[test]
    fn short_horizon_starves_evidence_thresholds() {
        let ona = OnaParams::default();
        let cfgp = PATTERN_CATALOG.iter().find(|p| p.name == "configuration").unwrap();
        assert!(unavailability(cfgp, &ona, 2).is_some(), "5 overflow windows need > 2 rounds");
        assert!(unavailability(cfgp, &ona, 100).is_none());
    }

    fn named(name: &str) -> &'static PatternInfo {
        PATTERN_CATALOG.iter().find(|p| p.name == name).unwrap_or_else(|| panic!("{name}"))
    }

    fn with_alpha(decay: f64, threshold: f64) -> OnaParams {
        let mut o = OnaParams::default();
        o.alpha.decay = decay;
        o.alpha.threshold = threshold;
        o
    }

    #[test]
    fn unavailability_boundaries_table() {
        // Table-driven boundary cases: (pattern, ona, rounds, expect
        // unavailable). Defaults: judgement_rounds 50, wearout windows 4,
        // overflow windows 5, job events 3.
        let dflt = OnaParams::default;
        let cases: Vec<(&str, OnaParams, u64, bool)> = vec![
            // rounds = 0 means "unbounded": horizon starvation never fires.
            ("recurring-internal", dflt(), 0, false),
            ("wearout", dflt(), 0, false),
            ("configuration", dflt(), 0, false),
            ("software-design", dflt(), 0, false),
            // Off-by-one around each evidence floor.
            ("recurring-internal", dflt(), 49, true),
            ("recurring-internal", dflt(), 50, false),
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
            ("oscillator", dflt(), 1, false),
            ("massive-transient", dflt(), 1, false),
            // Saturated / degenerate parameters kill the pattern outright,
            // regardless of horizon.
            ("recurring-internal", with_alpha(0.9, f64::INFINITY), 0, true),
            ("recurring-internal", with_alpha(0.0, 3.0), 0, true),
            ("wearout", OnaParams { wearout_slope_min: f64::NAN, ..dflt() }, 0, true),
            ("massive-transient", OnaParams { zone_radius_m: 0.0, ..dflt() }, 0, true),
            ("massive-transient", OnaParams { zone_radius_m: f64::INFINITY, ..dflt() }, 0, true),
            ("massive-transient", OnaParams { enable_spatial: false, ..dflt() }, 0, true),
            ("cohost-correlation", OnaParams { enable_cohost: false, ..dflt() }, 0, true),
            ("cohost-correlation", dflt(), 1, false),
            ("transducer-stuck", OnaParams { stuck_duty: 0.0, ..dflt() }, 0, true),
            ("transducer-stuck", OnaParams { stuck_duty: 1.5, ..dflt() }, 0, true),
            ("transducer-stuck", OnaParams { stuck_duty: 1.0, ..dflt() }, 0, false),
        ];
        for (i, (name, ona, rounds, expect_unavailable)) in cases.iter().enumerate() {
            let got = unavailability(named(name), ona, *rounds);
            assert_eq!(
                got.is_some(),
                *expect_unavailable,
                "case {i}: {name} at {rounds} rounds -> {got:?}"
            );
        }
    }

    #[test]
    fn scaled_judgement_interval_moves_the_horizon() {
        // The floors scale with the parameters, not with constants.
        let ona =
            OnaParams { judgement_rounds: 10, wearout_min_windows: 7, ..OnaParams::default() };
        assert!(unavailability(named("recurring-internal"), &ona, 9).is_some());
        assert!(unavailability(named("recurring-internal"), &ona, 10).is_none());
        assert!(unavailability(named("wearout"), &ona, 69).is_some());
        assert!(unavailability(named("wearout"), &ona, 70).is_none());
        let ona = OnaParams { overflow_min_windows: 1, job_min_events: 1, ..OnaParams::default() };
        assert!(unavailability(named("configuration"), &ona, 1).is_none());
        assert!(unavailability(named("software-design"), &ona, 1).is_none());
    }

    #[test]
    fn unknown_pattern_is_always_unavailable() {
        let p = PatternInfo { name: "no-such-pattern", class: FaultClass::ComponentExternal };
        assert!(unavailability(&p, &OnaParams::default(), 0).is_some());
    }
}
