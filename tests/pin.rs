//! Behaviour pin: the committed counter fingerprints every refactor must
//! reproduce.
//!
//! Each constant is a full [`TelemetrySnapshot::counter_fingerprint`]
//! string, so a failing entry names the counter that moved. There is no
//! regeneration tool: a failure prints the entry's actual string, and a
//! deliberate behaviour change edits the constant by hand, so the diff
//! shows what changed.

use decos::platform::avionics;
use decos::prelude::*;
use decos::store::FaultIo;

/// The reference connector campaign: a borderline connector on fig10
/// component 2, accel 10, 4000 rounds, seed 2026. The fast and the legacy
/// slot body must both land here.
const CONNECTOR: &str = concat!(
    "slots_simulated=16000;",
    "rounds_simulated=4000;",
    "symptoms_offered=608;",
    "symptoms_delivered=608;",
    "symptoms_dropped=0;",
    "frames_corrupted=0;",
    "frames_rejected=0;",
    "frames_delayed=0;",
    "frames_forged_suspected=0;",
    "ona_matches=156;",
    "trust_frozen_rounds=0;",
    "failovers=0;",
    "crashed_rounds=0;",
    "vehicles=1;",
    "degraded_vehicles=0;",
    "faults_injected=1;",
    "faults_detected=1;",
    "faults_convicted=1;",
    "wrong_fru_convictions=0;",
    "detect_latency_rounds=64;",
    "convict_latency_rounds=360;",
    "journal_records=0;",
    "journal_bytes=0;",
    "journal_fsyncs=0;",
    "snapshots_written=0;",
    "store_recovered_records=0;",
    "store_quarantined_bytes=0;",
    "delivery_quality=1.0;",
    "nff_ratio=0.0;",
    "detect_latency=64.0;",
    "convict_latency=360.0;",
);

/// A borderline connector on avionics LRM 6, accel 10, 2000 rounds,
/// seed 2026.
const AVIONICS_CONNECTOR: &str = concat!(
    "slots_simulated=16000;",
    "rounds_simulated=2000;",
    "symptoms_offered=3309;",
    "symptoms_delivered=3309;",
    "symptoms_dropped=0;",
    "frames_corrupted=0;",
    "frames_rejected=0;",
    "frames_delayed=0;",
    "frames_forged_suspected=0;",
    "ona_matches=522;",
    "trust_frozen_rounds=0;",
    "failovers=0;",
    "crashed_rounds=0;",
    "vehicles=1;",
    "degraded_vehicles=0;",
    "faults_injected=1;",
    "faults_detected=1;",
    "faults_convicted=1;",
    "wrong_fru_convictions=0;",
    "detect_latency_rounds=0;",
    "convict_latency_rounds=8;",
    "journal_records=0;",
    "journal_bytes=0;",
    "journal_fsyncs=0;",
    "snapshots_written=0;",
    "store_recovered_records=0;",
    "store_quarantined_bytes=0;",
    "delivery_quality=1.0;",
    "nff_ratio=0.0;",
    "detect_latency=0.0;",
    "convict_latency=8.0;",
);

/// The fig10 mixed-fault fleet: 512 vehicles x 40 rounds, seed 2026.
/// Shard count and a stored, interrupted and resumed run must not move it.
const FLEET_512: &str = concat!(
    "slots_simulated=81920;",
    "rounds_simulated=20480;",
    "symptoms_offered=6153;",
    "symptoms_delivered=6153;",
    "symptoms_dropped=0;",
    "frames_corrupted=0;",
    "frames_rejected=0;",
    "frames_delayed=0;",
    "frames_forged_suspected=0;",
    "ona_matches=3250;",
    "trust_frozen_rounds=0;",
    "failovers=0;",
    "crashed_rounds=0;",
    "vehicles=512;",
    "degraded_vehicles=0;",
    "faults_injected=233;",
    "faults_detected=148;",
    "faults_convicted=123;",
    "wrong_fru_convictions=5;",
    "detect_latency_rounds=308;",
    "convict_latency_rounds=1558;",
    "journal_records=0;",
    "journal_bytes=0;",
    "journal_fsyncs=0;",
    "snapshots_written=0;",
    "store_recovered_records=0;",
    "store_quarantined_bytes=0;",
    "delivery_quality=1.0;",
    "nff_ratio=0.0;",
    "detect_latency=2.081081081081081;",
    "convict_latency=12.666666666666666;",
);

/// Panics unless `actual` equals `pinned`, listing each moved
/// `name=value` pair and printing the whole actual string.
fn check(entry: &str, actual: &str, pinned: &str) {
    if actual == pinned {
        return;
    }
    let moved: Vec<String> = actual
        .split(';')
        .zip(pinned.split(';'))
        .filter(|(a, p)| a != p)
        .map(|(a, p)| format!("{p} -> {a}"))
        .collect();
    panic!("{entry}: fingerprint moved: {}\nactual: {actual}", moved.join(", "));
}

fn telemetry_fingerprint(telemetry: Option<&TelemetrySnapshot>) -> String {
    telemetry.expect("telemetry on").counter_fingerprint()
}

fn campaign_fingerprint(c: &Campaign, legacy_paths: bool) -> String {
    let opts = RunOptions { telemetry: true, legacy_paths, ..Default::default() };
    let out = run_campaign_opts(c, EngineParams::default(), opts, &mut [], |_, _, _| {})
        .expect("campaign runs");
    telemetry_fingerprint(out.telemetry.as_ref())
}

fn reference_connector() -> Campaign {
    Campaign::reference(
        decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
        10.0,
        4_000,
        2026,
    )
}

const FLEET: FleetConfig = FleetConfig { vehicles: 512, rounds: 40, accel: 10.0, seed: 2026 };

fn fleet_opts(shards: usize) -> FleetOptions {
    FleetOptions { telemetry: true, shards: Some(shards), ..FleetOptions::default() }
}

#[test]
fn reference_connector_campaign() {
    check("connector", &campaign_fingerprint(&reference_connector(), false), CONNECTOR);
}

#[test]
fn reference_connector_campaign_on_the_legacy_body() {
    check("connector legacy", &campaign_fingerprint(&reference_connector(), true), CONNECTOR);
}

#[test]
fn avionics_connector_campaign() {
    let c = Campaign {
        spec: avionics::avionics_spec(),
        faults: decos::faults::campaign::connector_campaign(NodeId(6), 4_000.0),
        accel: 10.0,
        rounds: 2_000,
        seed: 2026,
    };
    check("avionics connector", &campaign_fingerprint(&c, false), AVIONICS_CONNECTOR);
}

#[test]
fn fleet_at_one_and_three_shards() {
    for shards in [1, 3] {
        let out = run_fleet_configured(
            &fig10::reference_spec(),
            FLEET,
            EngineParams::default(),
            &fleet_opts(shards),
        )
        .expect("fleet runs");
        check(
            &format!("fleet at {shards} shards"),
            &telemetry_fingerprint(out.telemetry.as_ref()),
            FLEET_512,
        );
    }
}

#[test]
fn stored_fleet_interrupted_after_one_batch_and_resumed() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let policy = StorePolicy::default();
    let opts = fleet_opts(2);
    // The first process journals one batch and stops; the second reopens
    // the files it left and runs the fleet to the end.
    let first = FleetConfig { vehicles: policy.chunk as u64, ..FLEET };
    let io = FaultIo::pristine();
    let mut fs = FleetStore::open_or_create(io.clone(), &spec, &first, &params, &opts, &policy)
        .expect("store created");
    run_fleet_stored(&spec, first, params, &opts, &policy, &mut fs).expect("first batch");
    drop(fs);
    let io = FaultIo::from_files(io.files(), Default::default());
    let mut fs = FleetStore::open_or_create(io, &spec, &FLEET, &params, &opts, &policy)
        .expect("store reopened");
    let (out, stats) =
        run_fleet_stored(&spec, FLEET, params, &opts, &policy, &mut fs).expect("resumed");
    assert_eq!(stats.verified, first.vehicles, "the first batch replays from the journal");
    check("stored fleet", &telemetry_fingerprint(out.telemetry.as_ref()), FLEET_512);
}
