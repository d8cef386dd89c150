//! Soundness suite for the static diagnosability engine.
//!
//! The analyzer's verdicts are claims about what `ClusterSim` *can*
//! observe; this suite checks them against what paired simulations
//! actually convict. For a pair the analyzer declares **ambiguous**, two
//! campaigns differing only in the injected hypothesis must land on the
//! same conviction outcome (the architecture cannot tell them apart, so
//! confusing them is observable reality, not an analyzer bug). For pairs
//! declared **diagnosable**, the paired runs must land on *different*
//! outcomes — the distinguishing observation the analyzer predicts is
//! really there.
//!
//! Conviction outcome = the sorted set of `(FRU, decided class)` pairs of
//! the final report. Seeds, rates and horizons are pinned; everything
//! here is deterministic.

use decos::analyzer::diagnosability::{pair_verdict, Hypothesis, Verdict};
use decos::analyzer::ExperimentSpec;
use decos::platform::{fig10, NodeId, Position};
use decos::prelude::{run_campaign, Campaign, FaultClass, FaultKind, FaultSpec, FruRef};
use decos::sim::time::SimTime;

const ROUNDS: u64 = 4000;
const ACCEL: f64 = 10.0;

fn hyp(kind: &FaultKind, fru: FruRef) -> Hypothesis {
    Hypothesis { kind: kind.clone(), fru, fault_id: None }
}

/// The analyzer's static verdict for the pair on the fig10 cluster.
fn static_verdict(a: &(FaultKind, FruRef), b: &(FaultKind, FruRef)) -> Verdict {
    let spec = fig10::reference_spec();
    let mut exp = ExperimentSpec::new(&spec);
    exp.rounds = ROUNDS;
    pair_verdict(&exp, &hyp(&a.0, a.1), &hyp(&b.0, b.1), ROUNDS)
}

/// Runs a single-hypothesis campaign and extracts its conviction outcome.
fn convictions(h: &(FaultKind, FruRef), seed: u64) -> Vec<(FruRef, FaultClass)> {
    let fault = FaultSpec { id: 1, kind: h.0.clone(), target: h.1, onset: SimTime::ZERO };
    let c = Campaign::reference(vec![fault], ACCEL, ROUNDS, seed);
    let out = run_campaign(&c).unwrap_or_else(|e| panic!("{}@{} rejected: {e:?}", h.0.name(), h.1));
    let mut decided: Vec<(FruRef, FaultClass)> =
        out.report.verdicts.iter().filter_map(|v| v.class.map(|c| (v.fru, c))).collect();
    decided.sort();
    decided
}

/// Asserts the analyzer calls the pair ambiguous and the paired runs
/// collide on a non-trivial conviction outcome.
fn assert_ambiguity_is_real(a: (FaultKind, FruRef), b: (FaultKind, FruRef), seed: u64) {
    let label = format!("{}@{} ~ {}@{}", a.0.name(), a.1, b.0.name(), b.1);
    match static_verdict(&a, &b) {
        Verdict::Ambiguous { witness } => {
            assert!(!witness.is_empty(), "{label}: ambiguous without a witness")
        }
        other => panic!("{label}: expected Ambiguous, analyzer says {other:?}"),
    }
    let ca = convictions(&a, seed);
    let cb = convictions(&b, seed);
    assert!(!ca.is_empty(), "{label}: first run convicted nothing — the collision is vacuous");
    assert_eq!(ca, cb, "{label}: declared ambiguous, but the paired runs disagree");
}

/// Asserts the analyzer calls the pair diagnosable and the paired runs
/// really land on different conviction outcomes.
fn assert_distinguishable(a: (FaultKind, FruRef), b: (FaultKind, FruRef), seed: u64) {
    let label = format!("{}@{} vs {}@{}", a.0.name(), a.1, b.0.name(), b.1);
    match static_verdict(&a, &b) {
        Verdict::Diagnosable { round } => {
            assert!((1..=ROUNDS).contains(&round), "{label}: round {round} out of horizon")
        }
        other => panic!("{label}: expected Diagnosable, analyzer says {other:?}"),
    }
    let ca = convictions(&a, seed);
    let cb = convictions(&b, seed);
    assert_ne!(
        ca, cb,
        "{label}: declared diagnosable, but the paired runs convict identically ({ca:?})"
    );
}

fn seu(rate: f64) -> FaultKind {
    FaultKind::CosmicRaySeu { rate_per_hour: rate }
}

fn ic_transient(rate: f64) -> FaultKind {
    FaultKind::IcTransient { rate_per_hour: rate, duration_ms: 4.0 }
}

fn emi_at(center: Position) -> FaultKind {
    FaultKind::EmiBurst { rate_per_hour: 20_000.0, duration_ms: 10.0, center, radius_m: 1.5 }
}

fn node_pos(n: u16) -> Position {
    fig10::reference_spec()
        .components
        .iter()
        .find(|c| c.node == NodeId(n))
        .expect("fig10 node")
        .position
}

// ---------------------------------------------------------------------
// Declared-ambiguous pairs: the confusion must be observable in vivo.
// ---------------------------------------------------------------------

/// A cosmic-ray environment and a residual IC defect at the same node
/// both manifest as isolated + recurring transients there; the advisor
/// convicts the same FRU with the same class either way.
#[test]
fn seu_vs_ic_transient_same_node_collide() {
    let n1 = FruRef::Component(NodeId(1));
    assert_ambiguity_is_real((seu(20_000.0), n1), (ic_transient(20_000.0), n1), 23);
}

/// Stress outages and power-supply brownouts are both constant-rate
/// outage processes: identical symptom signatures, identical convictions.
#[test]
fn stress_outage_vs_brownout_same_node_collide() {
    let n2 = FruRef::Component(NodeId(2));
    let stress = FaultKind::StressOutage { rate_per_hour: 20_000.0, outage_ms: 4.0 };
    let brown = FaultKind::PowerSupplyMarginal { rate_per_hour: 20_000.0, outage_ms: 4.0 };
    assert_ambiguity_is_real((stress, n2), (brown, n2), 29);
}

/// EMI centred on N0 and EMI centred on N1 share the proximity zone
/// {N0, N1} (0.54 m apart, 1.5 m radius): the massive-transient pattern
/// attributes both to the same zone, so the source is not localizable.
#[test]
fn emi_zone_sources_collide() {
    let a = (emi_at(node_pos(0)), FruRef::Component(NodeId(0)));
    let b = (emi_at(node_pos(1)), FruRef::Component(NodeId(1)));
    assert_ambiguity_is_real(a, b, 31);
}

// ---------------------------------------------------------------------
// Declared-diagnosable pairs: the predicted distinction must show up.
// ---------------------------------------------------------------------

/// A connector fault at N2 and an IC defect at N1 differ in both pattern
/// and attributed FRU.
#[test]
fn connector_vs_ic_transient_distinguishable() {
    let conn = FaultKind::ConnectorIntermittent { rate_per_hour: 2_000.0, duration_ms: 5.0 };
    let a = (conn, FruRef::Component(NodeId(2)));
    let b = (ic_transient(20_000.0), FruRef::Component(NodeId(1)));
    assert_distinguishable(a, b, 37);
}

/// A stuck transducer and a software design fault on the same job fire
/// different value-domain patterns (transducer-stuck vs software-design).
#[test]
fn sensor_stuck_vs_bohrbug_distinguishable() {
    let a1 = FruRef::Job(fig10::jobs::A1);
    let stuck = FaultKind::SensorStuck { value: 99.0 };
    let bohr = FaultKind::Bohrbug { trigger_band: (-1e9, 1e9), offset: 40.0 };
    assert_distinguishable((stuck, a1), (bohr, a1), 41);
}

/// EMI zones {N0, N1} and {N2, N3} are ~3 m apart: disjoint footprints,
/// disjoint attribution.
#[test]
fn distant_emi_zones_distinguishable() {
    let a = (emi_at(node_pos(0)), FruRef::Component(NodeId(0)));
    let b = (emi_at(node_pos(2)), FruRef::Component(NodeId(2)));
    assert_distinguishable(a, b, 43);
}

/// An oscillator defect and a connector defect at the same node stay
/// distinguishable even on the same FRU: quartz degradation fires the
/// oscillator pattern, the connector fires the omission patterns.
#[test]
fn quartz_vs_connector_same_node_distinguishable() {
    let n2 = FruRef::Component(NodeId(2));
    let quartz = FaultKind::QuartzDegradation { drift_ppm_per_hour: 2_000.0 };
    let conn = FaultKind::ConnectorIntermittent { rate_per_hour: 2_000.0, duration_ms: 5.0 };
    assert_distinguishable((quartz, n2), (conn, n2), 47);
}

// ---------------------------------------------------------------------
// Static "unreachable" claims must hold in vivo.
// ---------------------------------------------------------------------

/// With an α threshold no count can reach, only the patterns that fire on
/// a declared α-count go dark: the connector pattern reads the count for
/// its confidence alone. The static model must therefore still see the
/// connector fault, and the run does convict the connector's FRU.
#[test]
fn unreachable_alpha_threshold_leaves_the_connector_visible() {
    use decos::analyzer::DiagCode;
    use decos::prelude::{run_campaign_opts, EngineParams, RunOptions};
    let mut params = EngineParams::default();
    params.ona.alpha.threshold = f64::INFINITY;
    let faults = decos::faults::campaign::connector_campaign(NodeId(2), 2000.0);
    let c = Campaign::reference(faults, ACCEL, 1000, 5);
    let report = c.analyze(&params);
    assert!(!report.contains(DiagCode::FaultClassInvisibleToOna), "{report}");
    // The hardened gate admits the run: no DA08x verdict stands against it.
    let opts = RunOptions { deny_diagnosability: true, ..RunOptions::default() };
    let out = run_campaign_opts(&c, params, opts, |_, _, _| {})
        .unwrap_or_else(|e| panic!("rejected: {e:?}"));
    let n2 = FruRef::Component(NodeId(2));
    assert!(
        out.report
            .verdicts
            .iter()
            .any(|v| v.fru == n2 && v.class == Some(FaultClass::ComponentBorderline)),
        "N2 not convicted as component-borderline: {:?}",
        out.report.verdicts
    );
}
