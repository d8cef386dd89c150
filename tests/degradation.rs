//! Robustness of the diagnostic subsystem under stress: symptom floods,
//! concurrent faults, mid-life onsets and dead components — and, since the
//! diagnostic path is itself subject to the fault model, campaigns where
//! the symptom stream is lost, corrupted, delayed or forged in transit.

use decos::diagnosis::{score_case, ConfusionMatrix, EngineParams};
use decos::faults::campaign;
use decos::platform::DiagNetSpec;
use decos::prelude::*;
use proptest::prelude::*;

#[test]
fn diagnosis_survives_symptom_floods_on_a_starved_network() {
    // A violent EMI storm with a diagnostic network of only 4 symptoms per
    // round: symptoms are dropped, but the verdict stays external and no
    // removal is recommended (graceful degradation under encapsulated
    // bandwidth).
    let faults = vec![FaultSpec {
        id: 1,
        kind: FaultKind::EmiBurst {
            rate_per_hour: 20_000.0,
            duration_ms: 10.0,
            center: Position { x: 0.2, y: 0.1 },
            radius_m: 1.0,
        },
        target: FruRef::Component(NodeId(0)),
        onset: SimTime::ZERO,
    }];
    let mut c = Campaign::reference(faults, 10.0, 4_000, 31);
    c.spec.diag_net = DiagNetSpec { capacity_per_round: 4, queue_depth: 32 };
    let mut last_stats = None;
    let out = run_campaign_opts(&c, EngineParams::default(), RunOptions::default(), |_, eng, _| {
        last_stats = Some(eng.dissemination_stats());
    })
    .unwrap();
    let stats = last_stats.unwrap();
    assert!(stats.dropped > 0, "the storm must saturate the 4/round budget");
    assert!(
        !out.report.actions().iter().any(|(_, a)| *a == MaintenanceAction::ReplaceComponent),
        "even under symptom loss, EMI must not cause removals: {:?}",
        out.report.actions()
    );
}

#[test]
fn concurrent_faults_are_both_identified() {
    // A connector fault at component 2 and an independent stuck sensor at
    // A1 (component 0) at the same time.
    let mut faults = campaign::connector_campaign(NodeId(2), 4_000.0);
    faults.push(FaultSpec {
        id: 2,
        kind: FaultKind::SensorStuck { value: 99.0 },
        target: FruRef::Job(fig10::jobs::A1),
        onset: SimTime::ZERO,
    });
    // accel 10 drives the connector; the sensor fault is time-independent.
    let out = run_campaign(&Campaign::reference(faults, 10.0, 6_000, 32)).unwrap();
    let conn = out.report.verdict_of(FruRef::Component(NodeId(2))).expect("connector assessed");
    assert_eq!(conn.class, Some(FaultClass::ComponentBorderline), "{conn:?}");
    let sens = out.report.verdict_of(FruRef::Job(fig10::jobs::A1)).expect("sensor assessed");
    assert_eq!(sens.class, Some(FaultClass::JobInherentTransducer), "{sens:?}");
}

#[test]
fn late_onset_fault_leaves_early_trust_untouched() {
    let onset = SimTime::from_secs(20);
    let faults = vec![FaultSpec {
        id: 1,
        kind: FaultKind::IcTransient { rate_per_hour: 9_000.0, duration_ms: 4.0 },
        target: FruRef::Component(NodeId(1)),
        onset,
    }];
    let c = Campaign::reference(faults, 10.0, 10_000, 33);
    let mut trust_before_onset = 1.0f64;
    let (params, opts) = (EngineParams::default(), RunOptions::default());
    let out = run_campaign_opts(&c, params, opts, |_, eng, rec| {
        if rec.start < onset {
            trust_before_onset = trust_before_onset.min(eng.trust_of(FruRef::Component(NodeId(1))));
        }
    })
    .unwrap();
    assert_eq!(trust_before_onset, 1.0, "no evidence before the fault exists");
    let v = out.report.verdict_of(FruRef::Component(NodeId(1))).expect("assessed after onset");
    assert_eq!(v.class, Some(FaultClass::ComponentInternal), "{v:?}");
}

#[test]
fn dead_component_does_not_blind_the_rest() {
    // Component 3 (hosting the voter and the consumer) dies permanently;
    // afterwards a connector fault develops at component 2. The diagnosis
    // must still classify the connector with the two remaining observers.
    let faults = vec![
        FaultSpec {
            id: 1,
            kind: FaultKind::IcPermanent { after_hours: 0.0 },
            target: FruRef::Component(NodeId(3)),
            onset: SimTime::ZERO,
        },
        FaultSpec {
            id: 2,
            kind: FaultKind::ConnectorIntermittent { rate_per_hour: 4_000.0, duration_ms: 5.0 },
            target: FruRef::Component(NodeId(2)),
            onset: SimTime::from_secs(5),
        },
    ];
    let out = run_campaign(&Campaign::reference(faults, 10.0, 8_000, 34)).unwrap();
    let dead = out.report.verdict_of(FruRef::Component(NodeId(3))).expect("dead node assessed");
    assert_eq!(dead.action, Some(MaintenanceAction::ReplaceComponent), "{dead:?}");
    let conn = out.report.verdict_of(FruRef::Component(NodeId(2)));
    // With one component dead (n-1 observers), the tx-event threshold is
    // still reachable; the connector must at least be under suspicion.
    assert!(conn.is_some(), "connector fault invisible after a node death");
}

#[test]
fn zero_round_campaign_is_empty_but_valid() {
    let out = run_campaign(&Campaign::reference(vec![], 1.0, 0, 35)).unwrap();
    assert!(out.report.verdicts.is_empty());
    assert_eq!(out.sim_seconds, 0.0);
    assert_eq!(out.dissemination.offered, 0);
}

// ---------------------------------------------------------------------------
// The diagnostic path under its own fault model (PR 4).
// ---------------------------------------------------------------------------

/// A connector fault whose symptoms must cross a diagnostic path degraded
/// by `loss`/`corrupt`/`delay`.
fn degraded_connector_campaign(loss: f64, corrupt: f64, delay: u32, seed: u64) -> Campaign {
    let mut faults = campaign::connector_campaign(NodeId(2), 2_000.0);
    faults.extend(campaign::diag_degradation_campaign(loss, corrupt, delay));
    Campaign::reference(faults, 10.0, 3_000, seed)
}

#[test]
fn total_symptom_loss_is_flagged_and_recommends_nothing() {
    // 100% frame loss: the engine is blind. It must SAY it is blind
    // (degraded, quality ~0) and must not manufacture verdicts — a silent
    // channel is not a silent fault, and absence of evidence is not
    // evidence of health.
    let out = run_campaign(&degraded_connector_campaign(1.0, 0.0, 0, 36)).unwrap();
    assert!(out.dissemination.offered > 0, "the connector fault must produce symptoms");
    assert_eq!(out.dissemination.delivered, 0, "nothing survives total loss");
    assert!(out.report.degraded, "total loss must be flagged");
    assert!(out.report.delivery_quality < 0.1, "quality {}", out.report.delivery_quality);
    assert!(
        out.report.actions().is_empty(),
        "no action may rest on a severed symptom stream: {:?}",
        out.report.actions()
    );
}

#[test]
fn delivered_is_monotone_nonincreasing_in_loss() {
    // Same seed, increasing loss: per-frame survival draws are identical
    // across runs, so the delivered count can only shrink.
    let mut last = u64::MAX;
    for loss in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let out = run_campaign(&degraded_connector_campaign(loss, 0.0, 0, 37)).unwrap();
        assert!(
            out.dissemination.delivered <= last,
            "loss {loss}: delivered {} > previous {last}",
            out.dissemination.delivered
        );
        last = out.dissemination.delivered;
    }
    assert_eq!(last, 0, "the sweep must end fully severed");
}

#[test]
fn delayed_symptoms_still_converge_on_the_truth() {
    // A two-round store-and-forward delay reorders nothing semantically:
    // the verdict must be unchanged, only later.
    let out = run_campaign(&degraded_connector_campaign(0.0, 0.0, 2, 38)).unwrap();
    assert!(out.dissemination.delayed > 0, "the delay line must have been exercised");
    let v = out.report.verdict_of(FruRef::Component(NodeId(2))).expect("connector assessed");
    assert_eq!(v.class, Some(FaultClass::ComponentBorderline), "{v:?}");
}

proptest! {
    /// Any mixture of loss/corruption/delay over a real campaign: the
    /// pipeline never panics, every reported figure stays finite and in
    /// domain, and the scoring metrics never go NaN.
    #[test]
    fn degraded_path_never_panics_and_never_yields_nan(
        loss_pm in 0u32..=1_000,
        corrupt_pm in 0u32..=1_000,
        delay in 0u32..4,
        seed in 0u64..1_000,
    ) {
        // Permille draws so the closed endpoints (0 and 1 exactly) are hit.
        let (loss, corrupt) = (f64::from(loss_pm) / 1_000.0, f64::from(corrupt_pm) / 1_000.0);
        let mut faults = campaign::connector_campaign(NodeId(2), 2_000.0);
        faults.extend(campaign::diag_degradation_campaign(loss, corrupt, delay));
        let out = run_campaign(&Campaign::reference(faults, 10.0, 600, seed)).unwrap();
        let q = out.report.delivery_quality;
        prop_assert!(q.is_finite() && (0.0..=1.0).contains(&q), "quality {q}");
        for v in &out.report.verdicts {
            prop_assert!(v.trust.is_finite() && (0.0..=1.0).contains(&v.trust));
            prop_assert!(v.evidence.is_finite() && v.evidence >= 0.0);
            prop_assert!(v.share.is_finite() && (0.0..=1.0).contains(&v.share));
        }
        let truth = FruRef::Component(NodeId(2));
        let score = score_case(truth, FaultClass::ComponentBorderline, &out.report.actions());
        prop_assert!(score.nff_ratio().is_finite());
        let mut cm = ConfusionMatrix::new();
        cm.record(
            FaultClass::ComponentBorderline,
            out.report.verdict_of(truth).and_then(|v| v.class),
        );
        prop_assert!(cm.accuracy().is_finite());
        prop_assert!(cm.undecided_share().is_finite());
    }

    /// A babbling observer, at any forging rate, must never get a healthy
    /// peer component replaced: forged single-observer complaints lack the
    /// observation breadth every replacement-class pattern requires.
    #[test]
    fn babbling_observer_never_convicts_a_peer(
        babbler in 0u16..4,
        forged in 1u32..64,
        seed in 0u64..1_000,
    ) {
        let faults = campaign::babbling_observer_campaign(NodeId(babbler), forged);
        let out = run_campaign(&Campaign::reference(faults, 10.0, 800, seed)).unwrap();
        for (fru, a) in out.report.actions() {
            prop_assert!(
                !(a == MaintenanceAction::ReplaceComponent
                    && fru != FruRef::Component(NodeId(babbler))),
                "babbler {babbler} got {fru:?} condemned"
            );
        }
    }
}
