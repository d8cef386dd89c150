//! Fast-path vs legacy-path equivalence.
//!
//! The slot pipeline carries two bodies for the same slot semantics. Both
//! share the sender side (job dispatch with the environment's job hooks)
//! and the receiver side. The fast body is taken when the channel is
//! undisturbed (no channel-disturbing episode is active) and the owner's
//! send offset lies inside the admission window; it skips the channel
//! machinery. The legacy body runs the
//! transmit/receive disturbances, CRC, guardian and channel resolution
//! for every other slot. Value-domain faults (sensor, software, capacitor
//! aging) never disturb the channel, so they run on the fast body; quartz
//! drift exercises the exact send-offset admission. The contract is
//! that the choice is *unobservable*: counters, gauges, the diagnostic
//! report, the OBD verdict and the flight-recorder tape must be
//! bit-identical whichever body ran. [`RunOptions::legacy_paths`] pins
//! every slot to the legacy body, so running the same campaign twice —
//! once with the dispatcher free to take the fast path, once forced
//! legacy — and comparing the complete observable surface proves the
//! contract over each fault family and, via proptest, over randomized
//! campaign shapes.

use decos::faults::campaign;
use decos::prelude::*;
use decos::sim::SeedSource;
use decos::vnet::ConfigDefect;
use proptest::prelude::*;

fn quartz(node: NodeId) -> Vec<FaultSpec> {
    vec![FaultSpec {
        id: 1,
        kind: FaultKind::QuartzDegradation { drift_ppm_per_hour: 1e7 },
        target: FruRef::Component(node),
        onset: SimTime::ZERO,
    }]
}

/// What one run showed: the fast-body slots its sim stepped, the overflow
/// deltas its records carried, summed per side, and the faults injected.
#[derive(Default)]
struct Seen {
    fast_slots: u64,
    tx_overflows: u64,
    rx_overflows: u64,
    faults_injected: u64,
}

fn run_with(c: &Campaign, legacy: bool, seen: &mut Seen) -> decos::runner::CampaignOutcome {
    let opts =
        RunOptions { telemetry: true, flightrec: true, legacy_paths: legacy, ..Default::default() };
    run_campaign_opts(c, EngineParams::default(), opts, |sim, _, rec| {
        seen.fast_slots = sim.slot_body_counts().0;
        for d in &rec.overflow_deltas {
            seen.tx_overflows += d.tx;
            seen.rx_overflows += d.rx;
        }
    })
    .unwrap()
}

/// Runs `c` free and forced legacy, asserts the observable surfaces agree,
/// and returns what the free run saw.
fn assert_equivalent(c: &Campaign) -> Seen {
    let mut seen = Seen::default();
    let fast = run_with(c, false, &mut seen);
    let legacy = run_with(c, true, &mut Seen::default());
    assert_eq!(
        fast.telemetry.as_ref().unwrap().counter_fingerprint(),
        legacy.telemetry.as_ref().unwrap().counter_fingerprint(),
        "fast and legacy paths must produce identical counter fingerprints"
    );
    assert_eq!(fast.trace, legacy.trace, "flight-recorder tapes must be bit-identical");
    assert_eq!(fast.lifecycle, legacy.lifecycle, "lifecycle folds must agree");
    assert_eq!(fast.report, legacy.report, "diagnostic reports must agree");
    assert_eq!(fast.obd, legacy.obd, "OBD verdicts must agree");
    assert_eq!(fast.episodes, legacy.episodes, "environment episode logs must agree");
    seen.faults_injected = fast.telemetry.as_ref().unwrap().counter("faults_injected").unwrap();
    seen
}

#[test]
fn clean_vehicle_paths_agree() {
    // No fault can act: the fast path runs essentially everywhere.
    assert_equivalent(&Campaign::reference(vec![], 1.0, 400, 7));
}

#[test]
fn late_onset_connector_paths_agree() {
    // The reference connector campaign with its onset at round 1000 of
    // 4000: no fault can act for the first quarter, then episodes begin.
    let mut c =
        Campaign::reference(campaign::connector_campaign(NodeId(2), 800.0), 10.0, 4_000, 2026);
    let round_len = ClusterSim::new(c.spec.clone(), c.seed).unwrap().round_len();
    c.faults[0].onset = SimTime::ZERO + round_len * 1_000;
    let seen = assert_equivalent(&c);
    assert!(seen.fast_slots > 0, "no fast-body slot was stepped");
    assert!(seen.faults_injected >= 1, "no fault was injected after the onset");
}

#[test]
fn connector_campaign_paths_agree() {
    let faults = campaign::connector_campaign(NodeId(2), 800.0);
    assert_equivalent(&Campaign::reference(faults, 10.0, 400, 2026));
}

#[test]
fn wearout_campaign_paths_agree() {
    let faults = campaign::wearout_campaign(NodeId(1), 50.0, 2_000.0);
    assert_equivalent(&Campaign::reference(faults, 10.0, 400, 11));
}

#[test]
fn internal_degradation_paths_agree() {
    // Includes a permanent death: the owner goes non-operational, which
    // exercises the legacy body's offline branches on both runs.
    let faults = campaign::internal_degradation_campaign(NodeId(1));
    assert_equivalent(&Campaign::reference(faults, 10.0, 400, 13));
}

#[test]
fn software_campaign_paths_agree() {
    // Heisenbug, then Bohrbug.
    for heisen in [true, false] {
        let faults = campaign::software_campaign(fig10::jobs::A1, heisen);
        assert_equivalent(&Campaign::reference(faults, 5.0, 400, 17));
    }
}

#[test]
fn sensor_campaigns_paths_agree() {
    let kinds = [
        FaultKind::SensorStuck { value: 99.0 },
        FaultKind::SensorDrift { per_hour: 5_000.0 },
        FaultKind::SensorNoise { std_dev: 2.0 },
        FaultKind::SensorDead,
    ];
    for (k, kind) in kinds.into_iter().enumerate() {
        for job in [fig10::jobs::A1, fig10::jobs::S1] {
            let faults = campaign::sensor_campaign(job, kind.clone());
            assert_equivalent(&Campaign::reference(faults, 10.0, 300, 40 + k as u64));
        }
    }
}

#[test]
fn capacitor_aging_paths_agree() {
    let faults = vec![FaultSpec {
        id: 1,
        kind: FaultKind::CapacitorAging { bias_per_hour: 2_000.0 },
        target: FruRef::Component(NodeId(1)),
        onset: SimTime::ZERO,
    }];
    assert_equivalent(&Campaign::reference(faults, 10.0, 400, 47));
}

#[test]
fn quartz_degradation_paths_agree() {
    // The drifting clock widens the spread past the admission window, so
    // slots are admitted on the exact send offset until the owner itself
    // leaves the window.
    assert_equivalent(&Campaign::reference(quartz(NodeId(2)), 10.0, 400, 53));
}

#[test]
fn mixed_fleet_paths_agree() {
    // The fleet-short sampler: the first 256 mixed-fault vehicles at 40
    // rounds, seeded the way the fleet runner seeds them.
    let spec = fig10::reference_spec();
    let seeds = SeedSource::new(7);
    for index in 0..256 {
        let (spec, faults) = campaign::sample_mixed_fault(&spec, seeds, index);
        let seed = seeds.child(index).master();
        assert_equivalent(&Campaign { spec, faults, accel: 10.0, rounds: 40, seed });
    }
}

#[test]
fn babbling_observer_paths_agree() {
    let faults = campaign::babbling_observer_campaign(NodeId(0), 3);
    assert_equivalent(&Campaign::reference(faults, 1.0, 300, 19));
}

#[test]
fn diag_crash_paths_agree() {
    // Diagnostic-host outages force cold-standby failovers mid-campaign.
    let faults = campaign::diag_crash_campaign(NodeId(0), 40.0, 12.0);
    assert_equivalent(&Campaign::reference(faults, 10.0, 400, 23));
}

#[test]
fn diag_degradation_paths_agree() {
    let faults = campaign::diag_degradation_campaign(0.3, 0.1, 2);
    assert_equivalent(&Campaign::reference(faults, 1.0, 300, 29));
}

#[test]
fn misconfigured_cluster_paths_agree() {
    let (spec, faults) = campaign::misconfiguration_campaign(fig10::reference_spec(), 4);
    assert_equivalent(&Campaign { spec, faults, accel: 1.0, rounds: 300, seed: 31 });
}

#[test]
fn under_dimensioned_tx_queue_paths_agree() {
    // Depth-2 transmit queues overflow at the senders' `send`.
    let defect = ConfigDefect::UnderDimensionedTxQueue { factor: 8 };
    let (spec, faults) = campaign::config_defect_campaign(fig10::reference_spec(), defect);
    let seen = assert_equivalent(&Campaign { spec, faults, accel: 1.0, rounds: 400, seed: 37 });
    assert!(seen.fast_slots > 0, "no fast-body slot was stepped");
    assert!(seen.tx_overflows > 0, "no transmit-side overflow was recorded");
}

#[test]
fn under_dimensioned_rx_queue_paths_agree() {
    // Depth-1 receive queues overflow at the consumer's delivery.
    let (spec, faults) = campaign::misconfiguration_campaign(fig10::reference_spec(), 16);
    let seen = assert_equivalent(&Campaign { spec, faults, accel: 1.0, rounds: 400, seed: 43 });
    assert!(seen.fast_slots > 0, "no fast-body slot was stepped");
    assert!(seen.rx_overflows > 0, "no receive-side overflow was recorded");
}

#[test]
fn insufficient_bandwidth_paths_agree() {
    // One message per slot against a mean of one per round from each of
    // two senders: the transmit backlog grows until the queues overflow.
    let defect = ConfigDefect::InsufficientBandwidth { factor: 4 };
    let (spec, faults) = campaign::config_defect_campaign(fig10::reference_spec(), defect);
    let seen = assert_equivalent(&Campaign { spec, faults, accel: 1.0, rounds: 400, seed: 41 });
    assert!(seen.fast_slots > 0, "no fast-body slot was stepped");
    assert!(seen.tx_overflows > 0, "no transmit-side overflow was recorded");
}

proptest! {
    /// Randomized campaign shapes: fault family, target, episode rate,
    /// acceleration, horizon and seed all vary, so the dispatcher's
    /// fast/legacy mix is different in every case — and must never show.
    #[test]
    fn random_campaigns_paths_agree(
        seed in 0u64..1_000_000,
        family in 0usize..7,
        node in 0u16..4,
        rate in 50.0f64..4_000.0,
        accel in 1.0f64..16.0,
        rounds in 64u64..256,
    ) {
        let faults = match family {
            0 => campaign::connector_campaign(NodeId(node), rate),
            1 => campaign::wearout_campaign(NodeId(node), rate / 4.0, rate),
            2 => campaign::software_campaign(fig10::jobs::A1, seed % 2 == 0),
            3 => campaign::babbling_observer_campaign(NodeId(node), 1 + (seed % 4) as u32),
            4 => campaign::diag_crash_campaign(NodeId(0), rate / 10.0, 8.0),
            5 => campaign::sensor_campaign(
                if seed / 4 % 2 == 0 { fig10::jobs::A1 } else { fig10::jobs::S1 },
                match seed % 4 {
                    0 => FaultKind::SensorStuck { value: rate / 40.0 },
                    1 => FaultKind::SensorDrift { per_hour: rate },
                    2 => FaultKind::SensorNoise { std_dev: rate / 1_000.0 },
                    _ => FaultKind::SensorDead,
                },
            ),
            _ => quartz(NodeId(node)),
        };
        assert_equivalent(&Campaign::reference(faults, accel, rounds, seed));
    }
}
