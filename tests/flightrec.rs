//! Flight-recorder contract: the trace is bit-identical across same-seed
//! runs, recording never perturbs the simulation or its telemetry
//! fingerprint, the batch lifecycle replay reproduces the streaming fold,
//! and a known fault's onset→conviction latency matches a hand-checked
//! value.

use decos::faults::campaign;
use decos::prelude::*;
use decos::sim::flightrec::NO_FAULT;

fn connector(seed: u64, rounds: u64) -> Campaign {
    Campaign::reference(campaign::connector_campaign(NodeId(2), 800.0), 10.0, rounds, seed)
}

fn run_flightrec(c: &Campaign) -> decos::runner::CampaignOutcome {
    let opts = RunOptions { telemetry: true, flightrec: true, ..Default::default() };
    run_campaign_opts(c, EngineParams::default(), opts, |_, _, _| {}).unwrap()
}

#[test]
fn trace_is_bit_identical_across_runs() {
    let c = connector(2026, 1_500);
    let a = run_flightrec(&c);
    let b = run_flightrec(&c);
    // FlightRecording compares events, dropped count and capacity exactly —
    // every stamped (seq, round, slot, component, fault_id, kind, detail).
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.lifecycle, b.lifecycle);
    let trace = a.trace.expect("recorder on");
    assert!(!trace.events.is_empty(), "a connector campaign must leave a tape");
}

#[test]
fn recorder_does_not_perturb_outcome_or_fingerprint() {
    // The recorder is an observer: arming it must change neither the
    // diagnosis nor the telemetry counter fingerprint (which now includes
    // the lifecycle counters — fed by the same fold whether or not the
    // event ring is allocated).
    let c = connector(77, 1_500);
    let telemetry_only = run_campaign_opts(
        &c,
        EngineParams::default(),
        RunOptions { telemetry: true, ..Default::default() },
        |_, _, _| {},
    )
    .unwrap();
    let recorded = run_flightrec(&c);
    assert_eq!(telemetry_only.report, recorded.report);
    assert_eq!(telemetry_only.dissemination, recorded.dissemination);
    assert_eq!(
        telemetry_only.telemetry.expect("telemetry on").counter_fingerprint(),
        recorded.telemetry.expect("telemetry on").counter_fingerprint()
    );
    // The lifecycle fold runs in capacity-0 mode under plain telemetry and
    // must agree with the ring-armed run.
    assert_eq!(telemetry_only.lifecycle, recorded.lifecycle);
}

#[test]
fn batch_replay_reproduces_streaming_fold() {
    let out = run_flightrec(&connector(5, 1_500));
    let trace = out.trace.expect("recorder on");
    assert_eq!(trace.dropped, 0, "short campaign must fit the default ring");
    let replayed = FaultLifecycle::from_events(&trace.events);
    assert_eq!(out.lifecycle, Some(replayed));
}

#[test]
fn connector_conviction_latency_matches_hand_check() {
    // Seeded acceptance check: the reference connector campaign injects
    // fault 1 (connector-intermittent at component 2, onset 0). The
    // lifecycle's onset→conviction latency must equal the distance from
    // the first activation window to the first conviction event on the
    // tape — the two are computed by independent code paths (streaming
    // fold at record time vs. raw event scan here).
    let out = run_flightrec(&connector(2026, 2_000));
    let trace = out.trace.expect("recorder on");
    let lc = out.lifecycle.expect("lifecycle on");

    let first = |kind: TraceEventKind| {
        trace.events.iter().find(|e| e.kind == kind && e.fault_id == 1).map(|e| e.round)
    };
    let injected = first(TraceEventKind::FaultInjected).expect("fault 1 manifests");
    let symptom = first(TraceEventKind::SymptomRaised).expect("fault 1 raises symptoms");
    let conviction = first(TraceEventKind::Conviction).expect("fault 1 is convicted");

    let r = lc.record_of(1).expect("fault 1 tracked");
    assert_eq!(r.injected_round, Some(injected));
    assert_eq!(r.detect_latency(), Some(symptom - injected));
    assert_eq!(r.convict_latency(), Some(conviction - injected));

    // Hand-checked against `repro trace-report` on this exact campaign
    // (seed 2026, 2 000 rounds): first window opens at round 20, first
    // symptom 64 rounds later, stable conviction 360 rounds after onset.
    assert_eq!(r.injected_round, Some(20));
    assert_eq!(r.detect_latency(), Some(64));
    assert_eq!(r.convict_latency(), Some(360));
    assert_eq!(r.conviction_class, Some(1), "component-borderline");

    // FRU attribution: the conviction names component 2 — no conviction on
    // the tape is unexplained by the injected fault.
    assert_eq!(r.component, Some(2));
    assert_eq!(lc.wrong_fru_convictions, 0);
    assert!(trace
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Conviction)
        .all(|e| e.fault_id != NO_FAULT && e.component == 2));

    // The report agrees: the true FRU carries a verdict.
    assert!(out.report.verdict_of(FruRef::Component(NodeId(2))).is_some());
}
