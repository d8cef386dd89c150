//! Integration tests on the larger avionics cluster: diagnosis scales past
//! Fig. 10, and the hidden-gateway service composes with root-cause
//! analysis.

use decos::faults::campaign;
use decos::platform::avionics::{self, jobs};
use decos::prelude::*;

fn avionics_campaign(faults: Vec<FaultSpec>, accel: f64, rounds: u64, seed: u64) -> Campaign {
    Campaign { spec: avionics::avionics_spec(), faults, accel, rounds, seed }
}

#[test]
fn healthy_avionics_cluster_reports_nothing() {
    let out = run_campaign(&avionics_campaign(vec![], 1.0, 500, 1)).unwrap();
    assert!(out.report.verdicts.is_empty());
    assert!(out.obd.replacements.is_empty());
}

#[test]
fn connector_fault_on_eight_node_cluster() {
    let faults = campaign::connector_campaign(NodeId(6), 4_000.0);
    let out = run_campaign(&avionics_campaign(faults, 10.0, 6_000, 2)).unwrap();
    let v = out.report.verdict_of(FruRef::Component(NodeId(6))).expect("assessed");
    assert_eq!(v.class, Some(FaultClass::ComponentBorderline), "verdict {v:?}");
}

#[test]
fn air_sensor_fault_blames_sensor_not_gateway_chain() {
    // The AIR publisher's sensor sticks. Downstream: two AIR controllers,
    // the AIR→NAV gateway and the NAV controller all republish/consume the
    // bad value — root-cause suppression must keep the blame on the AIR job.
    let faults = campaign::sensor_campaign(jobs::AIR, FaultKind::SensorStuck { value: 500.0 });
    let out = run_campaign(&avionics_campaign(faults, 1.0, 5_000, 3)).unwrap();
    let v = out.report.verdict_of(FruRef::Job(jobs::AIR)).expect("AIR job assessed");
    assert_eq!(v.class, Some(FaultClass::JobInherentTransducer), "verdict {v:?}");
    // Neither the gateway nor the NAV controller gets an action.
    for j in [jobs::GATEWAY, jobs::NAV_C, jobs::AIR_C1, jobs::AIR_C2] {
        if let Some(jv) = out.report.verdict_of(FruRef::Job(j)) {
            assert_eq!(jv.action, None, "downstream job {j} wrongly actioned: {jv:?}");
        }
    }
    // And no hardware replacement anywhere.
    assert!(out.report.actions().iter().all(|(_, a)| *a != MaintenanceAction::ReplaceComponent));
}

#[test]
fn aft_bay_emi_stays_in_the_aft_bay() {
    // An EMI burst source in the aft equipment bay: forward LRMs (0-3) must
    // not be implicated with actions.
    let faults = vec![FaultSpec {
        id: 1,
        kind: FaultKind::EmiBurst {
            rate_per_hour: 4_000.0,
            duration_ms: 10.0,
            center: Position { x: 30.5, y: 0.5 },
            radius_m: 2.0,
        },
        target: FruRef::Component(NodeId(5)),
        onset: SimTime::ZERO,
    }];
    let out = run_campaign(&avionics_campaign(faults, 10.0, 6_000, 4)).unwrap();
    // No removals at all, and any decided verdicts are external.
    for v in &out.report.verdicts {
        assert_ne!(v.action, Some(MaintenanceAction::ReplaceComponent), "verdict {v:?}");
        if let (FruRef::Component(n), Some(c)) = (v.fru, v.class) {
            assert_eq!(c, FaultClass::ComponentExternal, "verdict {v:?}");
            assert!(n.0 >= 4, "forward-bay LRM {n} implicated by aft-bay EMI");
        }
    }
}

#[test]
fn internal_fault_at_gateway_host_consolidates() {
    // Component 7 hosts the gateway (NAV) and a cabin sender (CAB): an
    // internal hardware fault there shows up as correlated job trouble of
    // two DASs plus comm errors — the verdict must be the component.
    let faults = campaign::wearout_campaign(NodeId(7), 200.0, 400_000.0);
    let out = run_campaign(&avionics_campaign(faults, 1.0, 15_000, 5)).unwrap();
    let v = out.report.verdict_of(FruRef::Component(NodeId(7))).expect("assessed");
    assert_eq!(v.action, Some(MaintenanceAction::ReplaceComponent), "verdict {v:?}");
}

/// The fleet sampler draws its job faults from fig10's jobs, and a
/// vehicle whose sampled fault names a job the avionics cluster lacks
/// fails the per-vehicle analysis. Both fleet runners return that
/// rejection instead of panicking: the lowest rejected vehicle's, at any
/// shard count, and the stored run journals nothing of the failing batch.
#[test]
fn fleet_sampling_a_job_the_cluster_lacks_is_rejected() {
    let spec = avionics::avionics_spec();
    let params = EngineParams::default();
    // At seed 4 vehicle 31 is the first to sample such a fault, so three
    // whole batches run before it; later blocks hold more rejections.
    let cfg = FleetConfig { vehicles: 96, rounds: 20, accel: 10.0, seed: 4 };
    let opts = |shards| FleetOptions { shards: Some(shards), ..FleetOptions::default() };
    let rejection = |r: Result<FleetOutcome, CampaignError>| match r {
        Err(CampaignError::Rejected(report)) => report.to_string(),
        Err(e) => panic!("expected an analyzer rejection, got: {e}"),
        Ok(_) => panic!("expected an analyzer rejection, the fleet ran"),
    };
    let unstored = [1, 3].map(|s| rejection(run_fleet_configured(&spec, cfg, params, &opts(s))));
    assert_eq!(unstored[0], unstored[1], "the rejection depends on the shard count");

    let policy = StorePolicy::default();
    let mut journaled = Vec::new();
    for shards in [1, 3] {
        let io = decos::store::FaultIo::pristine();
        let mut fs =
            FleetStore::open_or_create(io.clone(), &spec, &cfg, &params, &opts(shards), &policy)
                .expect("store created");
        match run_fleet_stored(&spec, cfg, params, &opts(shards), &policy, &mut fs) {
            Err(StoreRunError::Campaign(CampaignError::Rejected(report))) => {
                assert_eq!(report.to_string(), unstored[0], "stored at {shards} shards");
            }
            Err(e) => panic!("expected an analyzer rejection, got: {e}"),
            Ok(_) => panic!("expected an analyzer rejection, the stored fleet ran"),
        }
        // The handle keeps only what recovery read; reopen to count.
        let reopened = decos::store::Store::open(io).expect("store reopens");
        journaled.push(reopened.records().len() as u64);
    }
    assert_eq!(journaled[0], journaled[1], "the journal depends on the shard count");

    // The first fleet size that fails ends on the lowest rejected vehicle;
    // the stored run journaled exactly the whole batches before it.
    let runs =
        |vehicles| run_fleet_configured(&spec, FleetConfig { vehicles, ..cfg }, params, &opts(1));
    let lowest =
        (0..cfg.vehicles).find(|&v| runs(v + 1).is_err()).expect("some vehicle is rejected");
    assert_eq!(lowest, 31);
    assert_eq!(rejection(runs(lowest + 1)), unstored[0]);
    assert_eq!(journaled[0], lowest / policy.chunk as u64 * policy.chunk as u64);
}
