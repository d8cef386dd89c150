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
use decos::vnet::ConfigDefect;
use std::collections::BTreeMap;

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

// The long-horizon job-inherent classifier campaigns: fig10, accel 10,
// 4000 rounds, seed 2026. Each entry is the counter fingerprint followed
// by the ONA matches per pattern over all closed rounds, because the
// fingerprint alone does not tell a drift verdict from a stuck one.

/// S1's sensor drifting at 5000 units per hour: the drift branch.
const DRIFT_S1: &str = concat!(
    "slots_simulated=16000;",
    "rounds_simulated=4000;",
    "symptoms_offered=7815;",
    "symptoms_delivered=7815;",
    "symptoms_dropped=0;",
    "frames_corrupted=0;",
    "frames_rejected=0;",
    "frames_delayed=0;",
    "frames_forged_suspected=0;",
    "ona_matches=3953;",
    "trust_frozen_rounds=0;",
    "failovers=0;",
    "crashed_rounds=0;",
    "vehicles=1;",
    "degraded_vehicles=0;",
    "faults_injected=1;",
    "faults_detected=1;",
    "faults_convicted=1;",
    "wrong_fru_convictions=0;",
    "detect_latency_rounds=44;",
    "convict_latency_rounds=52;",
    "journal_records=0;",
    "journal_bytes=0;",
    "journal_fsyncs=0;",
    "snapshots_written=0;",
    "store_recovered_records=0;",
    "store_quarantined_bytes=0;",
    "delivery_quality=1.0;",
    "nff_ratio=0.0;",
    "detect_latency=44.0;",
    "convict_latency=52.0;",
    "match.software-design=164;",
    "match.transducer-drift=3789;",
);
/// A1's sensor stuck at 99.0: the stuck branch.
const STUCK_A1: &str = concat!(
    "slots_simulated=16000;",
    "rounds_simulated=4000;",
    "symptoms_offered=4000;",
    "symptoms_delivered=4000;",
    "symptoms_dropped=0;",
    "frames_corrupted=0;",
    "frames_rejected=0;",
    "frames_delayed=0;",
    "frames_forged_suspected=0;",
    "ona_matches=3998;",
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
    "convict_latency_rounds=5;",
    "journal_records=0;",
    "journal_bytes=0;",
    "journal_fsyncs=0;",
    "snapshots_written=0;",
    "store_recovered_records=0;",
    "store_quarantined_bytes=0;",
    "delivery_quality=1.0;",
    "nff_ratio=0.0;",
    "detect_latency=0.0;",
    "convict_latency=5.0;",
    "match.transducer-stuck=3998;",
);
/// A Bohrbug in A1: the software branch on series of about 2000 points.
const SOFTWARE_A1: &str = concat!(
    "slots_simulated=16000;",
    "rounds_simulated=4000;",
    "symptoms_offered=3972;",
    "symptoms_delivered=3972;",
    "symptoms_dropped=0;",
    "frames_corrupted=0;",
    "frames_rejected=0;",
    "frames_delayed=0;",
    "frames_forged_suspected=0;",
    "ona_matches=3998;",
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
    "convict_latency_rounds=6;",
    "journal_records=0;",
    "journal_bytes=0;",
    "journal_fsyncs=0;",
    "snapshots_written=0;",
    "store_recovered_records=0;",
    "store_quarantined_bytes=0;",
    "delivery_quality=1.0;",
    "nff_ratio=0.0;",
    "detect_latency=0.0;",
    "convict_latency=6.0;",
    "match.software-design=3998;",
);

// Misconfigured event networks: fig10 with one `ConfigDefect` on
// `vnets::C`, accel 1, 2000 rounds, seed 2026. Each entry is the counter
// fingerprint followed by the overflow deltas the slot records carried,
// summed per side, and the number of records that carried any.

/// Transmit queues shrunk eightfold (depth 2).
const TX_QUEUE_DEFECT: &str = concat!(
    "slots_simulated=8000;",
    "rounds_simulated=2000;",
    "symptoms_offered=343;",
    "symptoms_delivered=343;",
    "symptoms_dropped=0;",
    "frames_corrupted=0;",
    "frames_rejected=0;",
    "frames_delayed=0;",
    "frames_forged_suspected=0;",
    "ona_matches=335;",
    "trust_frozen_rounds=0;",
    "failovers=0;",
    "crashed_rounds=0;",
    "vehicles=1;",
    "degraded_vehicles=0;",
    "faults_injected=2;",
    "faults_detected=2;",
    "faults_convicted=2;",
    "wrong_fru_convictions=0;",
    "detect_latency_rounds=32;",
    "convict_latency_rounds=192;",
    "journal_records=0;",
    "journal_bytes=0;",
    "journal_fsyncs=0;",
    "snapshots_written=0;",
    "store_recovered_records=0;",
    "store_quarantined_bytes=0;",
    "delivery_quality=1.0;",
    "nff_ratio=0.0;",
    "detect_latency=16.0;",
    "convict_latency=96.0;",
    "overflow.tx=439;",
    "overflow.rx=0;",
    "overflow.records=343;",
);
/// Segments shrunk fourfold (one message per slot).
const BANDWIDTH_DEFECT: &str = concat!(
    "slots_simulated=8000;",
    "rounds_simulated=2000;",
    "symptoms_offered=87;",
    "symptoms_delivered=87;",
    "symptoms_dropped=0;",
    "frames_corrupted=0;",
    "frames_rejected=0;",
    "frames_delayed=0;",
    "frames_forged_suspected=0;",
    "ona_matches=79;",
    "trust_frozen_rounds=0;",
    "failovers=0;",
    "crashed_rounds=0;",
    "vehicles=1;",
    "degraded_vehicles=0;",
    "faults_injected=2;",
    "faults_detected=2;",
    "faults_convicted=2;",
    "wrong_fru_convictions=0;",
    "detect_latency_rounds=264;",
    "convict_latency_rounds=1389;",
    "journal_records=0;",
    "journal_bytes=0;",
    "journal_fsyncs=0;",
    "snapshots_written=0;",
    "store_recovered_records=0;",
    "store_quarantined_bytes=0;",
    "delivery_quality=1.0;",
    "nff_ratio=0.0;",
    "detect_latency=132.0;",
    "convict_latency=694.5;",
    "overflow.tx=119;",
    "overflow.rx=0;",
    "overflow.records=87;",
);

/// Receive queues shrunk sixteenfold (depth 1).
const RX_QUEUE_DEFECT: &str = concat!(
    "slots_simulated=8000;",
    "rounds_simulated=2000;",
    "symptoms_offered=1067;",
    "symptoms_delivered=1067;",
    "symptoms_dropped=0;",
    "frames_corrupted=0;",
    "frames_rejected=0;",
    "frames_delayed=0;",
    "frames_forged_suspected=0;",
    "ona_matches=916;",
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
    "convict_latency_rounds=18;",
    "journal_records=0;",
    "journal_bytes=0;",
    "journal_fsyncs=0;",
    "snapshots_written=0;",
    "store_recovered_records=0;",
    "store_quarantined_bytes=0;",
    "delivery_quality=1.0;",
    "nff_ratio=0.0;",
    "detect_latency=0.0;",
    "convict_latency=18.0;",
    "overflow.tx=0;",
    "overflow.rx=1496;",
    "overflow.records=1067;",
);

// Quiescent windows: runs with no fault able to act for a stretch of
// rounds. Each entry is the counter fingerprint followed by what the slot
// records carried: messages sent, error observations and a digest of every
// sent message. Several pairs share a line; `check` still names each one.

/// The fault-free reference cluster, 4000 rounds, seed 2026.
const CLEAN_4000: &str = concat!(
    "slots_simulated=16000;rounds_simulated=4000;symptoms_offered=0;symptoms_delivered=0;",
    "symptoms_dropped=0;frames_corrupted=0;frames_rejected=0;frames_delayed=0;",
    "frames_forged_suspected=0;ona_matches=0;trust_frozen_rounds=0;failovers=0;crashed_rounds=0;",
    "vehicles=1;degraded_vehicles=0;faults_injected=0;faults_detected=0;faults_convicted=0;",
    "wrong_fru_convictions=0;detect_latency_rounds=0;convict_latency_rounds=0;journal_records=0;",
    "journal_bytes=0;journal_fsyncs=0;snapshots_written=0;store_recovered_records=0;",
    "store_quarantined_bytes=0;delivery_quality=1.0;nff_ratio=0.0;detect_latency=0.0;",
    "convict_latency=0.0;records.messages=36110;records.errors=0;records.digest=ba2234450cbab62e;",
);

/// The reference connector campaign with the fault's onset moved to the
/// start of round 1000: fault-free for a quarter of the run, then faulty.
const LATE_ONSET_CONNECTOR: &str = concat!(
    "slots_simulated=16000;rounds_simulated=4000;symptoms_offered=448;symptoms_delivered=448;",
    "symptoms_dropped=0;frames_corrupted=0;frames_rejected=0;frames_delayed=0;",
    "frames_forged_suspected=0;ona_matches=110;trust_frozen_rounds=0;failovers=0;",
    "crashed_rounds=0;vehicles=1;degraded_vehicles=0;faults_injected=1;faults_detected=1;",
    "faults_convicted=1;wrong_fru_convictions=0;detect_latency_rounds=64;",
    "convict_latency_rounds=360;journal_records=0;journal_bytes=0;journal_fsyncs=0;",
    "snapshots_written=0;store_recovered_records=0;store_quarantined_bytes=0;",
    "delivery_quality=1.0;nff_ratio=0.0;detect_latency=64.0;convict_latency=360.0;",
    "records.messages=36013;records.errors=304;records.digest=395729c4681a2d6f;",
);

// Fleet and clock-path entries whose float and timing details a fold
// order or a slot-admission change could move.

/// The fig10 mixed-fault fleet with a lossy, corrupting diagnostic path in
/// every vehicle: 300 vehicles x 200 rounds, seed 2026. The entry is the
/// counter fingerprint followed by the bits of the f64 mean delivery
/// quality, which most vehicles pull below 1.0.
const LOSSY_FLEET_300: &str = concat!(
    "slots_simulated=240000;rounds_simulated=60000;symptoms_offered=26007;",
    "symptoms_delivered=17310;symptoms_dropped=7820;frames_corrupted=870;frames_rejected=7;",
    "frames_delayed=0;frames_forged_suspected=0;ona_matches=12175;trust_frozen_rounds=2665;",
    "failovers=0;crashed_rounds=0;vehicles=300;degraded_vehicles=192;faults_injected=822;",
    "faults_detected=191;faults_convicted=112;wrong_fru_convictions=10;",
    "detect_latency_rounds=3571;convict_latency_rounds=4585;journal_records=0;journal_bytes=0;",
    "journal_fsyncs=0;snapshots_written=0;store_recovered_records=0;store_quarantined_bytes=0;",
    "delivery_quality=0.7800175014813021;nff_ratio=0.0;detect_latency=18.69633507853403;",
    "convict_latency=40.9375;quality_bits=3fe8f5e743656f33;",
);

/// fig10 component 1 with PCB-crack outages that silence it, 4000 rounds,
/// seed 2026; the campaign's IC death at 180 s lies beyond the horizon.
const INTERNAL_DEGRADATION_C1: &str = concat!(
    "slots_simulated=16000;rounds_simulated=4000;symptoms_offered=198;symptoms_delivered=198;",
    "symptoms_dropped=0;frames_corrupted=0;frames_rejected=0;frames_delayed=0;",
    "frames_forged_suspected=0;ona_matches=72;trust_frozen_rounds=0;failovers=0;",
    "crashed_rounds=0;vehicles=1;degraded_vehicles=0;faults_injected=1;faults_detected=1;",
    "faults_convicted=1;wrong_fru_convictions=0;detect_latency_rounds=1;",
    "convict_latency_rounds=4;journal_records=0;journal_bytes=0;journal_fsyncs=0;",
    "snapshots_written=0;store_recovered_records=0;store_quarantined_bytes=0;",
    "delivery_quality=1.0;nff_ratio=0.0;detect_latency=1.0;convict_latency=4.0;",
    "records.messages=35934;records.errors=180;records.digest=54f32d2cd7ffaa11;",
);

/// fig10 component 1 crashing under stress and restarting (with state
/// synchronization) about every 2 s of simulated time, then failing
/// permanently (a dead clock) after 0.002 h, 4000 rounds, seed 2026.
const STRESS_RESTARTS_THEN_DEAD_C1: &str = concat!(
    "slots_simulated=16000;rounds_simulated=4000;symptoms_offered=6704;symptoms_delivered=6704;",
    "symptoms_dropped=0;frames_corrupted=0;frames_rejected=0;frames_delayed=0;",
    "frames_forged_suspected=0;ona_matches=2237;trust_frozen_rounds=0;failovers=0;",
    "crashed_rounds=0;vehicles=1;degraded_vehicles=0;faults_injected=2;faults_detected=2;",
    "faults_convicted=1;wrong_fru_convictions=0;detect_latency_rounds=3;",
    "convict_latency_rounds=4;journal_records=0;journal_bytes=0;journal_fsyncs=0;",
    "snapshots_written=0;store_recovered_records=0;store_quarantined_bytes=0;",
    "delivery_quality=1.0;nff_ratio=0.0;detect_latency=1.5;convict_latency=4.0;",
    "records.messages=29408;records.errors=6693;records.digest=3d04d3a38154e202;",
);

/// fig10 component 2's quartz degrading at 1e7 ppm per hour: the clocks
/// spread out of the admission window, 4000 rounds, seed 2026.
const QUARTZ_C2: &str = concat!(
    "slots_simulated=16000;rounds_simulated=4000;symptoms_offered=11971;",
    "symptoms_delivered=11971;symptoms_dropped=0;frames_corrupted=0;frames_rejected=0;",
    "frames_delayed=0;frames_forged_suspected=0;ona_matches=3990;trust_frozen_rounds=0;",
    "failovers=0;crashed_rounds=0;vehicles=1;degraded_vehicles=0;faults_injected=1;",
    "faults_detected=1;faults_convicted=1;wrong_fru_convictions=0;detect_latency_rounds=4;",
    "convict_latency_rounds=17;journal_records=0;journal_bytes=0;journal_fsyncs=0;",
    "snapshots_written=0;store_recovered_records=0;store_quarantined_bytes=0;",
    "delivery_quality=1.0;nff_ratio=0.0;detect_latency=4.0;convict_latency=17.0;",
    "records.messages=36110;records.errors=11967;records.digest=3cbc2781ced7c802;",
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
    let out =
        run_campaign_opts(c, EngineParams::default(), opts, |_, _, _| {}).expect("campaign runs");
    telemetry_fingerprint(out.telemetry.as_ref())
}

/// Runs `c` with telemetry on and appends one `match.<pattern>=N;` pair
/// per ONA pattern (in name order) to its counter fingerprint.
fn classifier_fingerprint(c: &Campaign) -> String {
    let opts = RunOptions { telemetry: true, ..Default::default() };
    let mut per_pattern: BTreeMap<&'static str, u64> = BTreeMap::new();
    let out = run_campaign_opts(c, EngineParams::default(), opts, |sim, engine, rec| {
        if rec.addr.slot.0 + 1 == sim.schedule().slots_per_round() {
            for m in engine.last_matches() {
                *per_pattern.entry(m.pattern).or_insert(0) += 1;
            }
        }
    })
    .expect("campaign runs");
    let mut s = telemetry_fingerprint(out.telemetry.as_ref());
    for (pattern, n) in per_pattern {
        s.push_str(&format!("match.{pattern}={n};"));
    }
    s
}

/// Runs `c` with telemetry on and appends the summed transmit- and
/// receive-side overflow deltas and the count of records carrying any.
fn overflow_fingerprint(c: &Campaign) -> String {
    let opts = RunOptions { telemetry: true, ..Default::default() };
    let (mut tx, mut rx, mut records) = (0u64, 0u64, 0u64);
    let out = run_campaign_opts(c, EngineParams::default(), opts, |_, _, rec| {
        records += u64::from(!rec.overflow_deltas.is_empty());
        for d in &rec.overflow_deltas {
            tx += d.tx;
            rx += d.rx;
        }
    })
    .expect("campaign runs");
    let mut s = telemetry_fingerprint(out.telemetry.as_ref());
    s.push_str(&format!("overflow.tx={tx};overflow.rx={rx};overflow.records={records};"));
    s
}

/// Runs `c` with telemetry on and appends the messages its slot records
/// carried, their error observations, and an FNV-1a digest of every sent
/// message (network, source port, sequence, send instant, value bits).
fn record_fingerprint(c: &Campaign) -> String {
    let opts = RunOptions { telemetry: true, ..Default::default() };
    let (mut messages, mut errors, mut digest) = (0u64, 0u64, 0xcbf2_9ce4_8422_2325u64);
    let out = run_campaign_opts(c, EngineParams::default(), opts, |_, _, rec| {
        errors += rec.observations.iter().filter(|o| o.is_error()).count() as u64;
        for (v, m) in rec.sent.iter().flat_map(|(v, ms)| ms.iter().map(move |m| (v.0, m))) {
            messages += 1;
            for w in
                [u64::from(v), u64::from(m.src.0), m.seq, m.sent_at.as_nanos(), m.value.to_bits()]
            {
                digest = (digest ^ w).wrapping_mul(0x100_0000_01b3);
            }
        }
    })
    .expect("campaign runs");
    let mut s = telemetry_fingerprint(out.telemetry.as_ref());
    s.push_str(&format!(
        "records.messages={messages};records.errors={errors};records.digest={digest:016x};"
    ));
    s
}

fn defect_campaign(defect: ConfigDefect) -> Campaign {
    let (spec, faults) =
        decos::faults::campaign::config_defect_campaign(fig10::reference_spec(), defect);
    Campaign { spec, faults, accel: 1.0, rounds: 2_000, seed: 2026 }
}

fn classifier_campaign(faults: Vec<FaultSpec>) -> Campaign {
    Campaign::reference(faults, 10.0, 4_000, 2026)
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

#[test]
fn drifting_sensor_campaign() {
    let faults = decos::faults::campaign::sensor_campaign(
        fig10::jobs::S1,
        FaultKind::SensorDrift { per_hour: 5000.0 },
    );
    check("drifting sensor", &classifier_fingerprint(&classifier_campaign(faults)), DRIFT_S1);
}

#[test]
fn stuck_sensor_campaign() {
    let faults = decos::faults::campaign::sensor_campaign(
        fig10::jobs::A1,
        FaultKind::SensorStuck { value: 99.0 },
    );
    check("stuck sensor", &classifier_fingerprint(&classifier_campaign(faults)), STUCK_A1);
}

#[test]
fn software_bohrbug_campaign() {
    let faults = decos::faults::campaign::software_campaign(fig10::jobs::A1, false);
    check("software bohrbug", &classifier_fingerprint(&classifier_campaign(faults)), SOFTWARE_A1);
}

#[test]
fn under_dimensioned_tx_queue_campaign() {
    let c = defect_campaign(ConfigDefect::UnderDimensionedTxQueue { factor: 8 });
    check("tx queue defect", &overflow_fingerprint(&c), TX_QUEUE_DEFECT);
}

#[test]
fn insufficient_bandwidth_campaign() {
    let c = defect_campaign(ConfigDefect::InsufficientBandwidth { factor: 4 });
    check("bandwidth defect", &overflow_fingerprint(&c), BANDWIDTH_DEFECT);
}

#[test]
fn under_dimensioned_rx_queue_campaign() {
    let c = defect_campaign(ConfigDefect::UnderDimensionedRxQueue { factor: 16 });
    check("rx queue defect", &overflow_fingerprint(&c), RX_QUEUE_DEFECT);
}

#[test]
fn fault_free_campaign() {
    let c = Campaign::reference(vec![], 10.0, 4_000, 2026);
    check("fault-free", &record_fingerprint(&c), CLEAN_4000);
}

#[test]
fn late_onset_connector_campaign() {
    let mut c = reference_connector();
    let round_len = ClusterSim::new(c.spec.clone(), c.seed).expect("valid spec").round_len();
    c.faults[0].onset = SimTime::ZERO + round_len * 1_000;
    check("late-onset connector", &record_fingerprint(&c), LATE_ONSET_CONNECTOR);
}

const LOSSY_FLEET: FleetConfig =
    FleetConfig { vehicles: 300, rounds: 200, accel: 10.0, seed: 2026 };

fn lossy_fleet_opts(shards: usize) -> FleetOptions {
    FleetOptions {
        base_faults: decos::faults::campaign::diag_degradation_campaign(0.3, 0.05, 0),
        ..fleet_opts(shards)
    }
}

#[test]
fn lossy_diagnostic_path_fleet_at_one_two_and_three_shards() {
    for shards in [1, 2, 3] {
        let out = run_fleet_configured(
            &fig10::reference_spec(),
            LOSSY_FLEET,
            EngineParams::default(),
            &lossy_fleet_opts(shards),
        )
        .expect("fleet runs");
        let below = out.vehicles.iter().filter(|v| v.delivery_quality < 1.0).count();
        assert!(
            2 * below > out.vehicles.len(),
            "only {below} of {} vehicles have a quality below 1.0",
            out.vehicles.len()
        );
        let mut s = telemetry_fingerprint(out.telemetry.as_ref());
        s.push_str(&format!("quality_bits={:016x};", out.mean_delivery_quality.to_bits()));
        check(&format!("lossy fleet at {shards} shards"), &s, LOSSY_FLEET_300);
    }
}

#[test]
fn internal_degradation_campaign_with_silencing_outages() {
    let faults = decos::faults::campaign::internal_degradation_campaign(NodeId(1));
    let c = Campaign::reference(faults, 10.0, 4_000, 2026);
    check("internal degradation", &record_fingerprint(&c), INTERNAL_DEGRADATION_C1);
}

#[test]
fn stress_restarts_then_a_dead_clock_campaign() {
    let c1 = FruRef::Component(NodeId(1));
    let faults = vec![
        FaultSpec {
            id: 1,
            kind: FaultKind::StressOutage { rate_per_hour: 180.0, outage_ms: 40.0 },
            target: c1,
            onset: SimTime::ZERO,
        },
        FaultSpec {
            id: 2,
            kind: FaultKind::IcPermanent { after_hours: 0.002 },
            target: c1,
            onset: SimTime::ZERO,
        },
    ];
    let c = Campaign::reference(faults, 10.0, 4_000, 2026);
    check("stress restarts then dead", &record_fingerprint(&c), STRESS_RESTARTS_THEN_DEAD_C1);
}

#[test]
fn quartz_degradation_campaign() {
    let faults = vec![FaultSpec {
        id: 1,
        kind: FaultKind::QuartzDegradation { drift_ppm_per_hour: 1e7 },
        target: FruRef::Component(NodeId(2)),
        onset: SimTime::ZERO,
    }];
    let c = Campaign::reference(faults, 10.0, 4_000, 2026);
    check("quartz degradation", &record_fingerprint(&c), QUARTZ_C2);
}
