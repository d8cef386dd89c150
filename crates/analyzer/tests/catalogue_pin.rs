//! Pins the verdicts that rest on the ONA pattern catalogue: the full
//! class x FRU diagnosability matrices of the built-in clusters, and the
//! rendered `analyze()` report over an edge grid of `OnaParams` and
//! horizons. Both passes ask the catalogue whether a pattern can fire by
//! round n, so a change to a gate, an envelope round or a catalogue row
//! moves an entry here.
//!
//! A failure names every moved entry and prints the whole actual table.
//! Only a deliberate change to what the static model claims may edit a
//! constant, by hand.

use decos_analyzer::diagnosability::{analyze_diagnosability, full_hypotheses, Verdict};
use decos_analyzer::{analyze, ExperimentSpec};
use decos_diagnosis::OnaParams;
use decos_faults::{FaultClass, FaultKind, FaultSpec, FruRef};
use decos_platform::{avionics, fig10, ClusterSpec, NodeId};
use decos_sim::time::SimTime;

/// FNV-1a, 64 bit: a stable digest of a rendered text.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The 32-bit fold of [`fnv`], short enough for a table row.
fn digest(text: &str) -> u32 {
    let h = fnv(text);
    (h ^ (h >> 32)) as u32
}

/// Compares `actual` with `expected` line by line; panics naming every
/// moved line and printing the whole actual table.
fn assert_table(what: &str, expected: &str, actual: &str) {
    let exp: Vec<&str> = expected.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut moved = Vec::new();
    for i in 0..exp.len().max(act.len()) {
        let (e, a) =
            (exp.get(i).copied().unwrap_or("<none>"), act.get(i).copied().unwrap_or("<none>"));
        if e != a {
            moved.push(format!("  expected {e}\n  actual   {a}"));
        }
    }
    assert!(moved.is_empty(), "{what} moved:\n{}\nactual table:\n{actual}", moved.join("\n"));
}

/// The full class x FRU matrix of one cluster at one horizon: the verdict
/// counts and a digest of every pair's verdict, distinguishing round and
/// witness.
fn matrix_line(name: &str, spec: &ClusterSpec, rounds: u64) -> String {
    let mut exp = ExperimentSpec::new(spec);
    exp.rounds = rounds;
    let report = analyze_diagnosability(&exp, full_hypotheses(&exp), rounds);
    let (mut d, mut a, mut u) = (0, 0, 0);
    let mut text = String::new();
    for p in &report.pairs {
        let verdict = match &p.verdict {
            Verdict::Diagnosable { round } => {
                d += 1;
                format!("D{round}")
            }
            Verdict::Ambiguous { witness } => {
                a += 1;
                let steps: Vec<String> = witness.iter().map(ToString::to_string).collect();
                format!("A[{}]", steps.join(" "))
            }
            Verdict::Undetectable => {
                u += 1;
                "U".to_string()
            }
        };
        text.push_str(&format!("{} {} {verdict}\n", p.a, p.b));
    }
    for i in report.invisible() {
        text.push_str(&format!("invisible {i}\n"));
    }
    format!("{name} n={rounds}: {d} D / {a} A / {u} U {:016x}", fnv(&text))
}

const MATRICES: &str = "
fig10 n=40: 6783 D / 120 A / 0 U ec8a1f24f219efb6
fig10 n=100: 6783 D / 120 A / 0 U ec8a1f24f219efb6
fig10 n=160: 6783 D / 120 A / 0 U 1f8757f4af256c62
fig10 n=4000: 6823 D / 80 A / 0 U a92336d9ba555166
avionics n=40: 17161 D / 230 A / 0 U 1ee0dadbafe00e42
avionics n=100: 17161 D / 230 A / 0 U 1ee0dadbafe00e42
avionics n=160: 17161 D / 230 A / 0 U d95c24886bd8169a
avionics n=4000: 17241 D / 150 A / 0 U bd8e486a7f3bd498
";

#[test]
fn full_diagnosability_matrices_are_pinned() {
    let mut actual = String::new();
    for (name, spec) in
        [("fig10", fig10::reference_spec()), ("avionics", avionics::avionics_spec())]
    {
        for rounds in [40, 100, 160, 4000] {
            actual.push_str(&matrix_line(name, &spec, rounds));
            actual.push('\n');
        }
    }
    assert_table("diagnosability matrices", MATRICES, &actual);
}

/// One fault of every maintenance-oriented class on the fig10 cluster.
fn one_fault_per_class() -> Vec<FaultSpec> {
    let kinds = [
        (FaultKind::CosmicRaySeu { rate_per_hour: 100.0 }, FruRef::Component(NodeId(1))),
        (
            FaultKind::ConnectorIntermittent { rate_per_hour: 2000.0, duration_ms: 5.0 },
            FruRef::Component(NodeId(2)),
        ),
        (
            FaultKind::IcTransient { rate_per_hour: 9000.0, duration_ms: 4.0 },
            FruRef::Component(NodeId(3)),
        ),
        (FaultKind::VnetMisconfiguration, FruRef::Job(fig10::jobs::C3)),
        (
            FaultKind::Bohrbug { trigger_band: (0.0, 1.0), offset: 1.0 },
            FruRef::Job(fig10::jobs::A3),
        ),
        (FaultKind::SensorStuck { value: 0.4 }, FruRef::Job(fig10::jobs::A1)),
    ];
    let faults: Vec<FaultSpec> = kinds
        .into_iter()
        .zip(1..)
        .map(|((kind, target), id)| FaultSpec { id, kind, target, onset: SimTime::ZERO })
        .collect();
    for class in FaultClass::ALL {
        assert!(faults.iter().any(|f| f.class() == class), "{class} not injected");
    }
    faults
}

/// The `OnaParams` edges the catalogue's gates and envelope rounds turn on.
fn ona_grid() -> Vec<(&'static str, OnaParams)> {
    let d = OnaParams::default;
    let mut no_alpha = d();
    no_alpha.alpha.threshold = f64::INFINITY;
    vec![
        ("default", d()),
        ("spatial-off", OnaParams { enable_spatial: false, ..d() }),
        ("cohost-off", OnaParams { enable_cohost: false, ..d() }),
        ("radius-0", OnaParams { zone_radius_m: 0.0, ..d() }),
        ("stuck-duty-0", OnaParams { stuck_duty: 0.0, ..d() }),
        ("alpha-inf", no_alpha),
    ]
}

const HORIZONS: [u64; 9] = [1, 3, 5, 49, 50, 149, 150, 199, 200];

const REPORTS: &str = "
fig10 default: 66b5b24e 53dd13f4 408c3948 cb582943 ce2713e6 8ca32f05 ff19cdb1 8cd7ff1b 992da494
fig10 spatial-off: 7c176817 9ef2b397 fc215c20 b91375fd 65300d75 6b80e32b 2f9ec256 2191688c faf9b2f2
fig10 cohost-off: 2feadc3b f1f44f0b da6a95d0 4e6a60cd 0d892aa7 493c28a7 ee9b6324 ab5f106b 5d09dddf
fig10 radius-0: b21886ed de5f919d c22c6b03 7daaca8d 814c8271 5bf10263 507dfcca a937efd7 24348baf
fig10 stuck-duty-0: c2ec3c79 1d137e75 2abf44de 39a40823 b06eae53 73cacaa2 e2f14d48 581068b4 618df6f7
fig10 alpha-inf: 16aeb2b8 5f52a202 bfb17fec 37db977a 6949f12b 534684a1 1e3cab4e 92b8a15d 2dcacf10
avionics default: b5d4e2c3 8a672c83 455c09e5 75f152b8 8ebea269 e737cfda cb1aa024 84630887 3c066361
avionics spatial-off: b8a87b53 dd75e7ab 350ba9a4 13b3a8ff 737b328a 1502b43a 41bb4081 d4c525c0 c9b109b5
avionics cohost-off: 9eca7b04 ec9fd516 6d5dc290 c039f49f 9d376f33 e614d460 d73d7f02 e5d01251 3fdf4a38
avionics radius-0: b21886ed de5f919d c22c6b03 7daaca8d 814c8271 5bf10263 507dfcca a937efd7 24348baf
avionics stuck-duty-0: 9f56af20 3dc587a1 784e8968 a03d1d28 cf9a472c a17d51fb 418e2574 c58cf40e 1a8d897e
avionics alpha-inf: 17e1d04a 834d8f90 0f972711 190fdb80 e95fe3fa cd27eeb8 c7a4c33c d42a084d 62b6d154
campaign default: 053d18a5 4c842013 ddd2775c d90cbc8c cc1195bb 412e6efe 3a9481a2 92712e14 58734a10
campaign spatial-off: e77bac26 0760a835 89b835c1 16ae86dd 7e9cbb7f 13cdff6d 655ff7c9 ccdf695f 6e3f1154
campaign cohost-off: ee888f05 da8b7560 28131c24 4063451e eed762aa 584ce726 2a437346 e7972274 c32015d6
campaign radius-0: c0fada60 e8481e84 46a26f05 44776053 2502f750 70f5331f a00f113b b62050f7 cffe7554
campaign stuck-duty-0: 774aadad 01072fc6 0b633f52 36f8e4b9 114adfe3 d77c0d13 0b3f00c7 e74c6a8d b7413db3
campaign alpha-inf: 4d195505 97c7cc44 2268bedc 004d9768 4ca8526c d08a94fd 776da41e e1b13cf7 9d9467aa
";

#[test]
fn analyze_reports_over_the_ona_edge_grid_are_pinned() {
    let fig10 = fig10::reference_spec();
    let avionics = avionics::avionics_spec();
    let faults = one_fault_per_class();
    let mut actual = String::new();
    for (spec_name, spec, faults) in [
        ("fig10", &fig10, &[][..]),
        ("avionics", &avionics, &[][..]),
        ("campaign", &fig10, &faults[..]),
    ] {
        for (ona_name, ona) in ona_grid() {
            actual.push_str(&format!("{spec_name} {ona_name}:"));
            for rounds in HORIZONS {
                let mut exp = ExperimentSpec::with_campaign(spec, faults, 10.0, rounds);
                exp.ona = ona;
                actual.push_str(&format!(" {:08x}", digest(&analyze(&exp).to_string())));
            }
            actual.push('\n');
        }
    }
    assert_table(
        "analyze() reports (digests at horizons 1 3 5 49 50 149 150 199 200)",
        REPORTS,
        &actual,
    );
}
