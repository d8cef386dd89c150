//! Shard-count invariance: the sharded streaming fleet executor must
//! produce bit-identical aggregates — counter fingerprint, every gauge,
//! the f64 mean delivery quality — for *any* shard count, including
//! through a crash-safe store resume (DESIGN.md §16).

use decos::prelude::*;

fn fleet_at(shards: Option<usize>) -> FleetOutcome {
    let cfg = FleetConfig { vehicles: 150, rounds: 200, accel: 10.0, seed: 77 };
    let opts = FleetOptions { telemetry: true, shards, ..FleetOptions::default() };
    run_fleet_configured(&fig10::reference_spec(), cfg, EngineParams::default(), &opts).unwrap()
}

fn fingerprint(out: &FleetOutcome) -> String {
    out.telemetry.as_ref().expect("telemetry on").counter_fingerprint()
}

#[test]
fn aggregates_are_bit_identical_across_shard_counts() {
    let reference = fleet_at(Some(1));
    let ref_fp = fingerprint(&reference);
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    for shards in [2, 3, auto] {
        let out = fleet_at(Some(shards));
        assert_eq!(fingerprint(&out), ref_fp, "counter fingerprint at {shards} shards");
        assert_eq!(
            out.mean_delivery_quality.to_bits(),
            reference.mean_delivery_quality.to_bits(),
            "f64 quality mean must be bit-identical at {shards} shards"
        );
        assert_eq!(out.degraded_vehicles, reference.degraded_vehicles);
        assert_eq!(out.class_counts, reference.class_counts);
        assert_eq!(out.class_correct, reference.class_correct);
        assert_eq!(out.decos, reference.decos);
        assert_eq!(out.obd, reference.obd);
        assert_eq!(out.confusion.render(), reference.confusion.render());
        // Retention is a policy of (total, policy), never of shard count.
        assert_eq!(out.vehicles.len(), reference.vehicles.len());
        assert_eq!(out.vehicles.stride(), reference.vehicles.stride());
        for (a, b) in out.vehicles.samples().iter().zip(reference.vehicles.samples()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.outcome.truth_fru, b.outcome.truth_fru);
        }
    }
}

/// A fleet whose every vehicle carries a lossy, corrupting diagnostic
/// network, so that most vehicles have a delivery quality below 1.0 and
/// the fold order of the quality mean shows in its bits.
fn lossy_fleet_at(shards: usize) -> FleetOutcome {
    let cfg = FleetConfig { vehicles: 150, rounds: 200, accel: 10.0, seed: 31 };
    let opts = FleetOptions {
        telemetry: true,
        shards: Some(shards),
        base_faults: decos::faults::campaign::diag_degradation_campaign(0.3, 0.05, 0),
        ..FleetOptions::default()
    };
    run_fleet_configured(&fig10::reference_spec(), cfg, EngineParams::default(), &opts).unwrap()
}

#[test]
fn quality_mean_is_bit_identical_across_shard_counts_on_a_lossy_fleet() {
    let reference = lossy_fleet_at(1);
    let below = reference.vehicles.iter().filter(|v| v.delivery_quality < 1.0).count();
    assert!(2 * below > reference.vehicles.len(), "only {below} vehicles below quality 1.0");
    for shards in [2, 3, 7] {
        let out = lossy_fleet_at(shards);
        assert_eq!(fingerprint(&out), fingerprint(&reference), "fingerprint at {shards} shards");
        assert_eq!(
            out.mean_delivery_quality.to_bits(),
            reference.mean_delivery_quality.to_bits(),
            "f64 quality mean at {shards} shards"
        );
    }
}

#[test]
fn auto_shards_match_the_pinned_reference() {
    let pinned = fleet_at(Some(1));
    let auto = fleet_at(None);
    assert_eq!(fingerprint(&auto), fingerprint(&pinned));
    assert_eq!(auto.mean_delivery_quality.to_bits(), pinned.mean_delivery_quality.to_bits());
}

#[test]
fn store_resume_streams_into_the_same_aggregate() {
    use decos::store::FsIo;
    use decos::store_run;

    // A fleet interrupted mid-run and resumed must stream journalled +
    // fresh vehicles through the same accumulator and land on the exact
    // straight-run aggregate, even at a different shard count.
    let dir = std::env::temp_dir().join(format!("decos-shard-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    let spec = fig10::reference_spec();
    let cfg = FleetConfig { vehicles: 40, rounds: 150, accel: 10.0, seed: 9091 };
    let params = EngineParams::default();
    let policy = StorePolicy::default();
    let opts = FleetOptions { telemetry: true, shards: Some(2), ..FleetOptions::default() };
    let straight = run_fleet_configured(&spec, cfg, params, &opts).expect("straight run");

    // First leg: persist only the first 15 vehicles.
    let first = FleetConfig { vehicles: 15, ..cfg };
    let io = FsIo::new(dir_s).expect("store root");
    let mut fs =
        FleetStore::open_or_create(io, &spec, &first, &params, &opts, &policy).expect("created");
    store_run::run_fleet_stored(&spec, first, params, &opts, &policy, &mut fs).expect("first leg");
    drop(fs);

    // Second leg: reopen and extend to the full horizon on one shard.
    let io = FsIo::new(dir_s).expect("store root");
    let resumed_opts = FleetOptions { shards: Some(1), ..opts };
    let mut fs = FleetStore::open_or_create(io, &spec, &cfg, &params, &resumed_opts, &policy)
        .expect("reopened");
    let (resumed, stats) =
        store_run::run_fleet_stored(&spec, cfg, params, &resumed_opts, &policy, &mut fs)
            .expect("resumed leg");
    assert_eq!(stats.verified, 15, "the first leg's vehicles replay from the journal");

    assert_eq!(fingerprint(&resumed), fingerprint(&straight));
    assert_eq!(
        resumed.mean_delivery_quality.to_bits(),
        straight.mean_delivery_quality.to_bits(),
        "resume must be bit-identical to the straight run"
    );
    assert_eq!(resumed.degraded_vehicles, straight.degraded_vehicles);
    assert_eq!(resumed.decos, straight.decos);
    assert_eq!(resumed.vehicles.len(), straight.vehicles.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stored_fleet_journal_does_not_depend_on_the_shard_count() {
    use decos::store::{FaultIo, JOURNAL_FILE};

    // The stored fleet runs its batches on `FleetOptions::shards` shards;
    // the journal is appended in index order after each batch, so one
    // shard and three must write the same bytes and fold the same
    // aggregate.
    let spec = fig10::reference_spec();
    let cfg = FleetConfig { vehicles: 20, rounds: 150, accel: 10.0, seed: 4242 };
    let params = EngineParams::default();
    let policy = StorePolicy::default();
    let stored_at = |shards: usize| {
        let opts =
            FleetOptions { telemetry: true, shards: Some(shards), ..FleetOptions::default() };
        let io = FaultIo::pristine();
        let mut fs = FleetStore::open_or_create(io.clone(), &spec, &cfg, &params, &opts, &policy)
            .expect("created");
        let (out, stats) =
            run_fleet_stored(&spec, cfg, params, &opts, &policy, &mut fs).expect("stored fleet");
        assert_eq!(stats.appended, cfg.vehicles);
        (out, io.files())
    };
    let (one, one_files) = stored_at(1);
    let (three, three_files) = stored_at(3);
    assert!(one_files.get(JOURNAL_FILE).is_some_and(|j| !j.is_empty()), "journal written");
    assert_eq!(one_files, three_files, "store directories must be byte-identical");
    assert_eq!(fingerprint(&three), fingerprint(&one));
    assert_eq!(
        three.mean_delivery_quality.to_bits(),
        one.mean_delivery_quality.to_bits(),
        "f64 quality mean must be bit-identical at 1 and 3 shards"
    );
}
