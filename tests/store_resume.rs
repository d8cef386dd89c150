//! Crash-safe store integration: bit-identical resume, the campaign-level
//! crash matrix, DA090 spec-hash rejection, fleet vehicle skipping, and
//! tamper detection.
//!
//! The contract under test (DESIGN.md §15): running `2N` rounds straight
//! and running `N` rounds, crashing, recovering, and running `N` more
//! produce identical telemetry counter fingerprints — and byte-identical
//! journals. Everything here runs on [`FaultIo`], so "crash" means a real
//! torn write at a scripted byte offset, not a polite shutdown.

use decos::analyzer::DiagCode;
use decos::prelude::*;
use decos::store::{
    fnv1a, fnv1a_extend, frame, scan, FaultIo, FaultPlan, RoundDelta, Store, StoreError,
    JOURNAL_FILE, ROUND_DELTA_KIND,
};
use decos::store_run::{
    run_campaign_stored, run_fleet_stored, CampaignSnapshot, CampaignStore, FleetStore,
    StorePolicy, StoreRunError,
};

fn reference_campaign(rounds: u64, seed: u64) -> Campaign {
    Campaign::reference(
        decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
        10.0,
        rounds,
        seed,
    )
}

fn policy() -> StorePolicy {
    StorePolicy { snapshot_every: 16, sync_every: 4, chunk: 2 }
}

fn telemetry_opts() -> RunOptions {
    RunOptions { telemetry: true, ..Default::default() }
}

/// Straight (unstored) campaign fingerprint — the ground truth a resumed
/// run must reproduce.
fn straight_fingerprint(c: &Campaign) -> String {
    let out = decos::runner::run_campaign_opts(
        c,
        EngineParams::default(),
        telemetry_opts(),
        |_, _, _| {},
    )
    .expect("straight campaign runs");
    out.telemetry.expect("telemetry on").counter_fingerprint()
}

fn run_stored(
    io: FaultIo,
    c: &Campaign,
) -> Result<(CampaignOutcome, decos::store_run::StoreRunStats), StoreRunError> {
    let params = EngineParams::default();
    let mut cs = CampaignStore::open_or_create(io, c, &params, &policy())?;
    run_campaign_stored(c, params, telemetry_opts(), &policy(), &mut cs)
}

#[test]
fn resume_after_clean_half_run_is_bit_identical_to_the_straight_run() {
    const N: u64 = 40;
    let half = reference_campaign(N, 909);
    let full = reference_campaign(2 * N, 909);
    let fp_straight = straight_fingerprint(&full);

    // First process: journal N rounds, then "the machine loses power"
    // (we simply stop using the handle — everything appended survives).
    let io = FaultIo::pristine();
    let (_, stats) = run_stored(io.clone(), &half).expect("first half runs");
    assert_eq!(stats.committed_before, 0);
    assert_eq!(stats.appended, N);
    let journal_after_half = io.file(JOURNAL_FILE).expect("journal exists");

    // Second process: same disk image, extended horizon. The committed
    // prefix is replay-verified, the second half appended.
    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let (out, stats) = run_stored(io2.clone(), &full).expect("resume runs");
    assert_eq!(stats.committed_before, N);
    assert_eq!(stats.verified, N, "every committed round was replay-verified");
    assert_eq!(stats.appended, N, "only the second half was appended");
    let fp_resumed = out.telemetry.expect("telemetry on").counter_fingerprint();
    assert_eq!(fp_resumed, fp_straight, "resume must be bit-identical to the straight run");

    // The resumed journal extends the first-half journal byte for byte,
    // and equals the journal a single uninterrupted stored run writes.
    let journal_resumed = io2.file(JOURNAL_FILE).expect("journal exists");
    assert_eq!(&journal_resumed[..journal_after_half.len()], &journal_after_half[..]);
    let io3 = FaultIo::pristine();
    let _ = run_stored(io3.clone(), &full).expect("uninterrupted stored run");
    assert_eq!(io3.file(JOURNAL_FILE).unwrap(), journal_resumed, "journals are byte-identical");
}

#[test]
fn crash_matrix_every_cut_of_a_mid_journal_record_recovers_and_resumes() {
    const N: u64 = 24;
    let c = reference_campaign(N, 4242);
    let fp_straight = straight_fingerprint(&c);
    let record_len = frame::framed_len(decos::store::codec::ROUND_DELTA_LEN) as u64;

    // Cut the journal at every byte offset of record 5: before it starts
    // (clean boundary), through its header, payload, and CRC trailer.
    let base = 5 * record_len;
    for cut in 0..=record_len {
        let budget = base + cut;
        let io =
            FaultIo::with_plan(FaultPlan { crash_after_bytes: Some(budget), ..Default::default() });
        let err = run_stored(io.clone(), &c).expect_err("the scripted crash must surface");
        assert!(
            matches!(err, StoreRunError::Store(StoreError::Io(_))),
            "crash at byte {budget} surfaced as {err}"
        );
        assert!(io.crashed(), "the process died");

        // Restart on the surviving disk image: recovery must keep exactly
        // the fully-persisted records and quarantine the torn remainder.
        io.restart();
        let expected_committed = budget / record_len;
        let torn_bytes = budget % record_len;
        let (out, stats) = run_stored(io.clone(), &c).expect("post-crash resume runs");
        assert_eq!(
            stats.committed_before, expected_committed,
            "crash at byte {budget}: committed prefix"
        );
        assert_eq!(stats.quarantined_bytes, torn_bytes, "crash at byte {budget}: torn tail");
        assert_eq!(stats.verified, expected_committed);
        assert_eq!(stats.appended, N - expected_committed);
        let fp = out.telemetry.expect("telemetry on").counter_fingerprint();
        assert_eq!(fp, fp_straight, "crash at byte {budget}: resume diverged");
        assert_eq!(
            io.file(JOURNAL_FILE).unwrap().len() as u64,
            N * record_len,
            "journal is whole again"
        );
    }
}

#[test]
fn resume_against_a_different_experiment_is_rejected_with_da090() {
    let c1 = reference_campaign(30, 1);
    let c2 = reference_campaign(30, 2); // different seed = different experiment
    let io = FaultIo::pristine();
    run_stored(io.clone(), &c1).expect("first experiment runs");

    let params = EngineParams::default();
    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let err = CampaignStore::open_or_create(io2, &c2, &params, &policy())
        .err()
        .expect("spec mismatch must be rejected");
    assert_da090(err);
}

fn assert_da090(err: StoreRunError) {
    match err {
        StoreRunError::Campaign(CampaignError::Rejected(report)) => {
            assert!(
                report.diagnostics.iter().any(|d| d.code == DiagCode::StoreSpecMismatch),
                "rejection must carry DA090, got: {:?}",
                report.diagnostics.iter().map(|d| d.code.code()).collect::<Vec<_>>()
            );
            assert!(report.has_errors(), "DA090 is error severity");
        }
        other => panic!("expected a DA090 rejection, got {other}"),
    }
}

#[test]
fn campaign_run_against_a_different_experiment_than_its_store_is_rejected_with_da090() {
    let c1 = reference_campaign(30, 1);
    let c2 = reference_campaign(30, 2);
    let params = EngineParams::default();
    let io = FaultIo::pristine();
    // A fresh handle opened for seed 1, then one that recovered seed 1's
    // journal: a seed-2 run must extend neither.
    for _ in 0..2 {
        let journal = io.file(JOURNAL_FILE);
        let mut cs = CampaignStore::open_or_create(io.clone(), &c1, &params, &policy()).unwrap();
        let err = run_campaign_stored(&c2, params, telemetry_opts(), &policy(), &mut cs)
            .expect_err("a seed-2 run on a seed-1 store must be rejected");
        assert_da090(err);
        assert_eq!(io.file(JOURNAL_FILE), journal, "the journal is untouched");
        run_campaign_stored(&c1, params, telemetry_opts(), &policy(), &mut cs)
            .expect("the opened experiment runs");
    }
}

#[test]
fn fleet_run_against_a_different_experiment_than_its_store_is_rejected_with_da090() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions { telemetry: true, ..Default::default() };
    let cfg = FleetConfig { vehicles: 2, rounds: 40, accel: 10.0, seed: 5 };
    let io = FaultIo::pristine();
    // A fresh handle opened for seed 5 at two vehicles, then one that
    // recovered them: another seed, another fleet size and a second run on
    // the spent handle are all refused.
    for _ in 0..2 {
        let journal = io.file(JOURNAL_FILE);
        let mut fs =
            FleetStore::open_or_create(io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
        for other in [FleetConfig { seed: 6, ..cfg }, FleetConfig { vehicles: 4, ..cfg }] {
            let err = run_fleet_stored(&spec, other, params, &opts, &policy(), &mut fs)
                .expect_err("a run of another experiment must be rejected");
            assert_da090(err);
        }
        assert_eq!(io.file(JOURNAL_FILE), journal, "the journal is untouched");
        run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs).expect("the fleet runs");
        let journal = io.file(JOURNAL_FILE);
        let err = run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs)
            .expect_err("a handle runs once");
        assert_da090(err);
        assert_eq!(io.file(JOURNAL_FILE), journal, "the journal is untouched");
    }
}

/// A two-vehicle fleet store whose journal `forge` rewrote record by
/// record with valid CRCs: opening it must fail as corrupt and leave the
/// forged journal as it was.
fn assert_forged_vehicle_journal_is_refused(
    what: &str,
    forge: impl Fn(&decos::store::ScanRecord) -> (u8, u64, Vec<u8>),
) {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions { telemetry: true, ..Default::default() };
    let cfg = FleetConfig { vehicles: 2, rounds: 40, accel: 10.0, seed: 3 };
    let io = FaultIo::pristine();
    let mut fs =
        FleetStore::open_or_create(io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs).unwrap();

    let mut forged = Vec::new();
    for rec in scan(&io.file(JOURNAL_FILE).unwrap()).records {
        let (kind, seq, payload) =
            if rec.round == 1 { forge(&rec) } else { (rec.kind, rec.seq, rec.payload.clone()) };
        frame::encode_record(kind, rec.round, seq, &payload, &mut forged);
    }
    let io2 =
        FaultIo::from_files([(JOURNAL_FILE.to_string(), forged.clone())], FaultPlan::default());
    io2.put("MANIFEST.json", io.file("MANIFEST.json").unwrap());
    match FleetStore::open_or_create(io2.clone(), &spec, &cfg, &params, &opts, &policy()) {
        Err(StoreRunError::Store(StoreError::Corrupt(_))) => {}
        Err(e) => panic!("{what}: expected a corrupt store, got {e}"),
        Ok(_) => panic!("{what}: the forged journal opened"),
    }
    assert_eq!(io2.file(JOURNAL_FILE).unwrap(), forged, "{what}: the journal is untouched");
}

/// Rewrites a journaled vehicle record's JSON through `edit`.
fn edit_vehicle(
    rec: &decos::store::ScanRecord,
    edit: impl Fn(&mut decos::store_run::VehicleRecord),
) -> Vec<u8> {
    let mut vr = serde_json::from_str(std::str::from_utf8(&rec.payload).unwrap()).unwrap();
    edit(&mut vr);
    serde_json::to_string(&vr).unwrap().into_bytes()
}

#[test]
fn fleet_store_refuses_vehicle_records_that_contradict_their_frames() {
    use decos::store::VEHICLE_KIND;
    assert_forged_vehicle_journal_is_refused("wrong kind", |r| {
        (ROUND_DELTA_KIND, r.seq, r.payload.clone())
    });
    assert_forged_vehicle_journal_is_refused("seq differs from the vehicle", |r| {
        (VEHICLE_KIND, r.seq + 1, r.payload.clone())
    });
    assert_forged_vehicle_journal_is_refused("not UTF-8", |r| {
        (VEHICLE_KIND, r.seq, vec![0xff, 0xfe, 0xfd])
    });
    assert_forged_vehicle_journal_is_refused("unparseable JSON", |r| {
        (VEHICLE_KIND, r.seq, b"{\"schema\":".to_vec())
    });
    assert_forged_vehicle_journal_is_refused("wrong schema", |r| {
        (VEHICLE_KIND, r.seq, edit_vehicle(r, |vr| vr.schema = "decos-store-vehicle/0".into()))
    });
    assert_forged_vehicle_journal_is_refused("vehicle differs from the frame", |r| {
        (VEHICLE_KIND, r.seq, edit_vehicle(r, |vr| vr.vehicle = 0))
    });
}

#[test]
fn stored_runs_keep_only_the_recovered_records_in_memory() {
    // Fresh store, then a resume: the handle's records are what recovery
    // read, and the run's journal count adds what it appended.
    let io = FaultIo::pristine();
    let params = EngineParams::default();
    for (rounds, recovered) in [(20, 0), (30, 20)] {
        let c = reference_campaign(rounds, 12);
        let mut cs = CampaignStore::open_or_create(io.clone(), &c, &params, &policy()).unwrap();
        let (_, stats) = run_campaign_stored(&c, params, telemetry_opts(), &policy(), &mut cs)
            .expect("stored campaign runs");
        let store = cs.store();
        assert_eq!(store.records().len() as u64, store.stats().recovered_records);
        assert_eq!(store.stats().recovered_records, recovered);
        assert_eq!(stats.journal_records, recovered + store.stats().appended_records);
        assert_eq!(stats.journal_records, rounds);
    }

    let spec = fig10::reference_spec();
    let opts = decos::fleet::FleetOptions { telemetry: true, ..Default::default() };
    let io = FaultIo::pristine();
    for (vehicles, recovered) in [(2, 0), (5, 2)] {
        let cfg = FleetConfig { vehicles, rounds: 40, accel: 10.0, seed: 12 };
        let mut fs =
            FleetStore::open_or_create(io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
        let (_, stats) = run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs)
            .expect("stored fleet runs");
        let store = fs.store();
        assert_eq!(store.records().len() as u64, store.stats().recovered_records);
        assert_eq!(store.stats().recovered_records, recovered);
        assert_eq!(stats.journal_records, recovered + store.stats().appended_records);
        assert_eq!(stats.journal_records, vehicles);
    }
}

#[test]
fn tampered_journal_payload_fails_replay_verification() {
    const N: u64 = 20;
    let c = reference_campaign(N, 77);
    let io = FaultIo::pristine();
    run_stored(io.clone(), &c).expect("campaign runs");

    // Rewrite the journal with round 7's delivered-count inflated by one.
    // Re-framing keeps every CRC valid, so only replay verification —
    // not recovery — can catch the lie.
    let bytes = io.file(JOURNAL_FILE).unwrap();
    let scanned = scan(&bytes);
    assert_eq!(scanned.records.len() as u64, N);
    assert!(scanned.torn.is_none());
    let mut forged = Vec::new();
    for rec in &scanned.records {
        let mut delta = RoundDelta::decode(&rec.payload).unwrap();
        if rec.round == 7 {
            delta.delivered += 1;
        }
        frame::encode_record(ROUND_DELTA_KIND, rec.round, rec.seq, &delta.encode(), &mut forged);
    }
    let io2 = FaultIo::from_files([(JOURNAL_FILE.to_string(), forged)], FaultPlan::default());
    // Carry the manifest over unchanged.
    io2.put("MANIFEST.json", io.file("MANIFEST.json").unwrap());

    let err = run_stored(io2, &c).expect_err("tampered journal must not verify");
    match err {
        StoreRunError::Determinism { round, .. } => assert_eq!(round, 7),
        other => panic!("expected a determinism mismatch at round 7, got {other}"),
    }
}

#[test]
fn campaign_snapshots_anchor_the_journal_prefix() {
    const N: u64 = 40; // snapshot_every=16 → snapshots after rounds 15 and 31
    let c = reference_campaign(N, 33);
    let io = FaultIo::pristine();
    let params = EngineParams::default();
    let mut cs = CampaignStore::open_or_create(io.clone(), &c, &params, &policy()).unwrap();
    run_campaign_stored(&c, params, telemetry_opts(), &policy(), &mut cs).unwrap();

    let names = cs.store_mut().snapshot_names().unwrap();
    assert_eq!(names, vec!["snap-000000000015.json", "snap-000000000031.json"]);
    let body = cs.store_mut().read_snapshot("snap-000000000031.json").unwrap();
    let snap: CampaignSnapshot = serde_json::from_str(&body).unwrap();
    assert_eq!(snap.round, 31);
    // The snapshot's fingerprint is the streaming hash of the journal
    // prefix it claims to capture.
    let mut fp = fnv1a(b"decos-store-campaign");
    for rec in Store::open(io).unwrap().records().iter().take(32) {
        fp = fnv1a_extend(fp, &rec.payload);
    }
    assert_eq!(snap.journal_fingerprint, fp);
    assert!(snap.delivery_quality > 0.0);
    // The embedded diagnostic report is self-consistent with the
    // snapshot's own summary fields (verdicts may legitimately be empty
    // this early in a short campaign).
    assert_eq!(snap.report.delivery_quality, snap.delivery_quality);
}

#[test]
fn fleet_resume_skips_committed_vehicles_and_matches_the_straight_fleet() {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts = decos::fleet::FleetOptions { telemetry: true, ..Default::default() };
    let small = FleetConfig { vehicles: 3, rounds: 300, accel: 10.0, seed: 5 };
    let grown = FleetConfig { vehicles: 6, ..small };

    let straight = decos::fleet::run_fleet_configured(&spec, grown, params, &opts).unwrap();
    let fp_straight = straight.telemetry.as_ref().unwrap().counter_fingerprint();

    let io = FaultIo::pristine();
    let mut fs = FleetStore::open_or_create(io.clone(), &spec, &small, &params, &opts, &policy())
        .expect("fleet store opens");
    let (_, stats) = run_fleet_stored(&spec, small, params, &opts, &policy(), &mut fs).unwrap();
    assert_eq!(stats.appended, 3);

    // Second process, bigger fleet: the three committed vehicles are read
    // back from the journal, only the new three are simulated.
    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let mut fs2 = FleetStore::open_or_create(io2, &spec, &grown, &params, &opts, &policy())
        .expect("fleet store reopens");
    let (out, stats) = run_fleet_stored(&spec, grown, params, &opts, &policy(), &mut fs2).unwrap();
    assert_eq!(stats.committed_before, 3);
    assert_eq!(stats.verified, 3, "committed vehicles reused, not re-simulated");
    assert_eq!(stats.appended, 3);

    assert_eq!(out.telemetry.as_ref().unwrap().counter_fingerprint(), fp_straight);
    assert_eq!(out.vehicles.len(), straight.vehicles.len());
    assert_eq!(out.confusion, straight.confusion);
    assert_eq!(out.decos, straight.decos);
    assert_eq!(out.obd, straight.obd);
    assert_eq!(out.mean_delivery_quality, straight.mean_delivery_quality);
    assert_eq!(out.degraded_vehicles, straight.degraded_vehicles);
    for (a, b) in out.vehicles.iter().zip(&straight.vehicles) {
        assert_eq!(a.truth_fru, b.truth_fru);
        assert_eq!(a.decos_class, b.decos_class);
        assert_eq!(a.delivery_quality, b.delivery_quality);
    }
}

#[test]
fn fleet_crash_mid_batch_loses_at_most_the_uncommitted_batch() {
    // One shard commits on the thread that simulates; three simulate
    // ahead of the committer, so a failing commit finds vehicles in
    // flight that must never reach the journal.
    for shards in [1, 3] {
        fleet_commit_failures_keep_the_committed_prefix(shards);
    }
}

fn fleet_commit_failures_keep_the_committed_prefix(shards: usize) {
    let spec = fig10::reference_spec();
    let params = EngineParams::default();
    let opts =
        decos::fleet::FleetOptions { telemetry: true, shards: Some(shards), ..Default::default() };
    let cfg = FleetConfig { vehicles: 5, rounds: 250, accel: 10.0, seed: 8 };

    // Let two vehicles commit, then kill the journal mid-append of the
    // third record. (Vehicle records are JSON, variable length — find the
    // third record's start from a clean reference run.)
    let ref_io = FaultIo::pristine();
    let mut ref_fs =
        FleetStore::open_or_create(ref_io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut ref_fs).unwrap();
    let clean = ref_io.file(JOURNAL_FILE).unwrap();
    let scanned = scan(&clean);
    assert_eq!(scanned.records.len(), 5);
    let third_start = scanned.records[2].offset;

    // The disk fills up in the second batch: the run fails with the
    // store's error, and the journal holds exactly the first batch.
    let io = FaultIo::with_plan(FaultPlan {
        enospc_after_bytes: Some(third_start + 10),
        ..Default::default()
    });
    let mut fs =
        FleetStore::open_or_create(io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    let err = run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs)
        .expect_err("the full disk must surface");
    assert!(matches!(err, StoreRunError::Store(StoreError::Io(_))), "{shards} shards: got {err}");
    assert_eq!(
        io.file(JOURNAL_FILE).unwrap(),
        &clean[..third_start as usize],
        "{shards} shards: the journal holds exactly the first batch"
    );

    let io = FaultIo::with_plan(FaultPlan {
        crash_after_bytes: Some(third_start + 10),
        ..Default::default()
    });
    let mut fs =
        FleetStore::open_or_create(io.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    let err = run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs)
        .expect_err("the scripted crash must surface");
    assert!(matches!(err, StoreRunError::Store(StoreError::Io(_))), "{shards} shards: got {err}");

    io.restart();
    let io2 = FaultIo::from_files(io.files(), FaultPlan::default());
    let mut fs2 =
        FleetStore::open_or_create(io2.clone(), &spec, &cfg, &params, &opts, &policy()).unwrap();
    assert_eq!(fs2.committed_vehicles(), 2, "two committed vehicles survive the crash");
    let (out, stats) = run_fleet_stored(&spec, cfg, params, &opts, &policy(), &mut fs2).unwrap();
    assert_eq!(stats.verified, 2);
    assert_eq!(stats.appended, 3);
    assert!(stats.quarantined_bytes > 0, "the torn vehicle record was quarantined");

    // And the recovered fleet still matches the uninterrupted one.
    let straight = decos::fleet::run_fleet_configured(&spec, cfg, params, &opts).unwrap();
    assert_eq!(
        out.telemetry.as_ref().unwrap().counter_fingerprint(),
        straight.telemetry.as_ref().unwrap().counter_fingerprint()
    );
    assert_eq!(io2.file(JOURNAL_FILE).unwrap(), clean, "journal is byte-identical again");
}
