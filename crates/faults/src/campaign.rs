//! Campaign builders — curated fault sets for the experiments.
//!
//! Each builder returns the [`FaultSpec`] list (and, where needed, the
//! mutated cluster spec) for one experiment family. The numeric choices
//! trace back to §III-E / §IV of the paper; acceleration factors are the
//! experiments' business and are documented in EXPERIMENTS.md.

use crate::injector::FaultSpec;
use crate::taxonomy::{FaultKind, FruRef};
use decos_platform::fig10;
use decos_platform::{ClusterSpec, JobId, NodeId, Position};
use decos_sim::rng::{SampleExt, SeedSource};
use decos_sim::time::SimTime;
use decos_vnet::ConfigDefect;
use rand::RngExt as _;

/// Fresh id counter helper.
fn ids() -> impl FnMut() -> u32 {
    let mut n = 0;
    move || {
        n += 1;
        n
    }
}

/// An ambient external environment: EMI bursts near the front zone, SEUs on
/// every component, occasional stress outages. All component-external.
pub fn external_environment(spec: &ClusterSpec, emi_rate_per_hour: f64) -> Vec<FaultSpec> {
    let mut next = ids();
    let mut v = Vec::new();
    v.push(FaultSpec {
        id: next(),
        kind: FaultKind::EmiBurst {
            rate_per_hour: emi_rate_per_hour,
            duration_ms: 10.0, // ISO 7637
            center: Position { x: 0.2, y: 0.1 },
            radius_m: 1.0,
        },
        target: FruRef::Component(NodeId(0)),
        onset: SimTime::ZERO,
    });
    for c in &spec.components {
        v.push(FaultSpec {
            id: next() + 100,
            kind: FaultKind::CosmicRaySeu { rate_per_hour: emi_rate_per_hour / 10.0 },
            target: FruRef::Component(c.node),
            onset: SimTime::ZERO,
        });
    }
    v
}

/// A connector developing intermittent contact at one component
/// (component borderline).
pub fn connector_campaign(node: NodeId, rate_per_hour: f64) -> Vec<FaultSpec> {
    vec![FaultSpec {
        id: 1,
        kind: FaultKind::ConnectorIntermittent { rate_per_hour, duration_ms: 5.0 },
        target: FruRef::Component(node),
        onset: SimTime::ZERO,
    }]
}

/// A wearing-out component: solder-joint crack with growing transient rate
/// plus capacitor aging (value drift) — the full wearout pattern of Fig. 8
/// (time: increasing frequency; space: one component; value: increasing
/// deviation).
pub fn wearout_campaign(
    node: NodeId,
    base_rate_per_hour: f64,
    growth_per_hour: f64,
) -> Vec<FaultSpec> {
    vec![
        FaultSpec {
            id: 1,
            kind: FaultKind::SolderJointCrack {
                base_rate_per_hour,
                growth_per_hour,
                duration_ms: 4.0,
            },
            target: FruRef::Component(node),
            onset: SimTime::ZERO,
        },
        FaultSpec {
            id: 2,
            // Scaled so the drift becomes visible within a slot-level
            // campaign (minutes of simulated time).
            kind: FaultKind::CapacitorAging { bias_per_hour: 300.0 },
            target: FruRef::Component(node),
            onset: SimTime::ZERO,
        },
    ]
}

/// A component-internal hard failure developing over time: PCB-crack
/// outages at a growing rate, each of which silences the component's
/// transmissions (no restart), and an IC death 0.05 h after onset. The
/// death time is compared with unaccelerated simulated time (180 s), so
/// a 4000-round fig10 run (16 s) sees only the outages.
pub fn internal_degradation_campaign(node: NodeId) -> Vec<FaultSpec> {
    vec![
        FaultSpec {
            id: 1,
            kind: FaultKind::PcbCrack {
                base_rate_per_hour: 50.0,
                growth_per_hour: 2_000.0,
                outage_ms: 30.0,
            },
            target: FruRef::Component(node),
            onset: SimTime::ZERO,
        },
        FaultSpec {
            id: 2,
            kind: FaultKind::IcPermanent { after_hours: 0.05 },
            target: FruRef::Component(node),
            onset: SimTime::ZERO,
        },
    ]
}

/// A virtual-network misconfiguration (job borderline): shrinks the event
/// network's receive queues. Returns the mutated spec plus the ground-truth
/// record.
pub fn misconfiguration_campaign(spec: ClusterSpec, factor: u32) -> (ClusterSpec, Vec<FaultSpec>) {
    config_defect_campaign(spec, ConfigDefect::UnderDimensionedRxQueue { factor })
}

/// A virtual-network misconfiguration of any kind (job borderline):
/// deploys the event network with `defect` applied. Returns the mutated
/// spec plus one ground-truth record per job whose configuration is wrong:
/// the consumer `C3` for an under-dimensioned receive queue, the producers
/// `C1` and `C2` for a transmit queue or a segment that is too small.
pub fn config_defect_campaign(
    mut spec: ClusterSpec,
    defect: ConfigDefect,
) -> (ClusterSpec, Vec<FaultSpec>) {
    spec.config_defects.push((fig10::vnets::C, defect));
    let jobs: &[JobId] = match defect {
        ConfigDefect::UnderDimensionedRxQueue { .. } => &[fig10::jobs::C3],
        _ => &[fig10::jobs::C1, fig10::jobs::C2],
    };
    let truth = jobs
        .iter()
        .zip(1..)
        .map(|(&job, id)| FaultSpec {
            id,
            kind: FaultKind::VnetMisconfiguration,
            target: FruRef::Job(job),
            onset: SimTime::ZERO,
        })
        .collect();
    (spec, truth)
}

/// A software design fault in one job.
pub fn software_campaign(job: JobId, heisen: bool) -> Vec<FaultSpec> {
    let kind = if heisen {
        FaultKind::Heisenbug { prob_per_dispatch: 0.002, drop: false, wrong_value: 500.0 }
    } else {
        // The band starts at the sawtooth's origin so the bug manifests
        // early in a campaign.
        FaultKind::Bohrbug { trigger_band: (0.0, 5.0), offset: 500.0 }
    };
    vec![FaultSpec { id: 1, kind, target: FruRef::Job(job), onset: SimTime::ZERO }]
}

/// Degradation of the diagnostic path itself: symptom-frame loss and/or
/// bit corruption on the encapsulated diagnostic network, optionally with a
/// store-and-forward delay. Rates of 0 disable the respective kind, so the
/// same builder drives the whole 0→100 % degradation sweep.
pub fn diag_degradation_campaign(
    loss_prob: f64,
    corrupt_prob: f64,
    delay_rounds: u32,
) -> Vec<FaultSpec> {
    let mut next = ids();
    let mut v = Vec::new();
    if loss_prob > 0.0 {
        v.push(FaultSpec {
            id: next() + 900,
            kind: FaultKind::DiagFrameLoss { loss_prob },
            target: FruRef::Component(NodeId(0)),
            onset: SimTime::ZERO,
        });
    }
    if corrupt_prob > 0.0 {
        v.push(FaultSpec {
            id: next() + 900,
            kind: FaultKind::DiagFrameCorruption { corrupt_prob },
            target: FruRef::Component(NodeId(0)),
            onset: SimTime::ZERO,
        });
    }
    if delay_rounds > 0 {
        v.push(FaultSpec {
            id: next() + 900,
            kind: FaultKind::DiagFrameDelay { delay_rounds },
            target: FruRef::Component(NodeId(0)),
            onset: SimTime::ZERO,
        });
    }
    v
}

/// A babbling observer: component `node` floods the diagnostic network with
/// forged symptoms accusing its peers.
pub fn babbling_observer_campaign(node: NodeId, forged_per_round: u32) -> Vec<FaultSpec> {
    vec![FaultSpec {
        id: 950,
        kind: FaultKind::BabblingObserver { forged_per_round },
        target: FruRef::Component(node),
        onset: SimTime::ZERO,
    }]
}

/// A crashing/restarting diagnostic component: episodic outages of the
/// diagnostic DAS host, forcing cold-standby failovers.
pub fn diag_crash_campaign(node: NodeId, rate_per_hour: f64, outage_ms: f64) -> Vec<FaultSpec> {
    vec![FaultSpec {
        id: 960,
        kind: FaultKind::DiagComponentCrash { rate_per_hour, outage_ms },
        target: FruRef::Component(node),
        onset: SimTime::ZERO,
    }]
}

/// A transducer fault in one job.
pub fn sensor_campaign(job: JobId, kind: FaultKind) -> Vec<FaultSpec> {
    debug_assert!(matches!(
        kind,
        FaultKind::SensorStuck { .. }
            | FaultKind::SensorDrift { .. }
            | FaultKind::SensorNoise { .. }
            | FaultKind::SensorDead
    ));
    vec![FaultSpec { id: 1, kind, target: FruRef::Job(job), onset: SimTime::ZERO }]
}

/// Samples a mixed campaign: one ground-truth fault drawn from the model's
/// leaf kinds with realistic relative frequencies (connector/wiring-heavy,
/// per the field studies in §IV-A.2), targeting a random FRU.
///
/// Returns the fault list and, where the draw is a misconfiguration, the
/// mutated spec.
///
/// ## Primary-fault convention
///
/// Fleet drivers label each vehicle's ground truth with `faults[0]` only.
/// That label is loss-free because every sample drawn here is one root
/// cause: when a draw yields multiple [`FaultSpec`]s (e.g. the wear-out
/// campaign's solder-joint crack plus capacitor aging), all of them target
/// the same FRU and share the same [`FaultClass`](crate::FaultClass) —
/// they are manifestations of a single underlying defect, not independent
/// faults. `primary_fault_convention_holds` pins this invariant.
pub fn sample_mixed_fault(
    spec: &ClusterSpec,
    seeds: SeedSource,
    index: u64,
) -> (ClusterSpec, Vec<FaultSpec>) {
    let mut rng = seeds.stream("mixed-campaign", index);
    let node = NodeId((rng.random::<u32>() % spec.components.len() as u32) as u16);
    let onset = SimTime::ZERO;
    // Relative weights guided by §IV: connectors ≈ 30-40 % of electrical
    // failures [20][39], externals frequent but harmless, internals and
    // software the rest.
    let roll = rng.uniform(0.0, 1.0);
    let mut out_spec = spec.clone();
    let faults = if roll < 0.20 {
        // external
        if rng.chance(0.5) {
            vec![FaultSpec {
                id: 1,
                kind: FaultKind::EmiBurst {
                    rate_per_hour: 400.0,
                    duration_ms: 10.0,
                    center: spec.components[node.0 as usize].position,
                    radius_m: 1.0,
                },
                target: FruRef::Component(node),
                onset,
            }]
        } else {
            vec![FaultSpec {
                id: 1,
                kind: FaultKind::StressOutage { rate_per_hour: 200.0, outage_ms: 40.0 },
                target: FruRef::Component(node),
                onset,
            }]
        }
    } else if roll < 0.50 {
        // borderline (the 30 %+ connector share)
        connector_campaign(node, 400.0)
    } else if roll < 0.75 {
        // internal
        match rng.random::<u32>() % 4 {
            0 => wearout_campaign(node, 50.0, 50_000.0),
            1 => vec![FaultSpec {
                id: 1,
                kind: FaultKind::IcTransient { rate_per_hour: 400.0, duration_ms: 4.0 },
                target: FruRef::Component(node),
                onset,
            }],
            2 => vec![FaultSpec {
                id: 1,
                kind: FaultKind::QuartzDegradation { drift_ppm_per_hour: 1e7 },
                target: FruRef::Component(node),
                onset,
            }],
            _ => vec![FaultSpec {
                id: 1,
                kind: FaultKind::PowerSupplyMarginal { rate_per_hour: 300.0, outage_ms: 20.0 },
                target: FruRef::Component(node),
                onset,
            }],
        }
    } else if roll < 0.83 {
        // job borderline
        let (s, f) = misconfiguration_campaign(out_spec.clone(), 16);
        out_spec = s;
        f
    } else if roll < 0.93 {
        // software (non safety-critical jobs only, §III-E assumption)
        let candidates = [fig10::jobs::A1, fig10::jobs::A2, fig10::jobs::A3];
        let job = candidates[(rng.random::<u32>() % 3) as usize];
        software_campaign(job, rng.chance(0.5))
    } else {
        // transducer
        let job = if rng.chance(0.5) { fig10::jobs::A1 } else { fig10::jobs::S1 };
        sensor_campaign(
            job,
            if rng.chance(0.5) {
                FaultKind::SensorStuck { value: 99.0 }
            } else {
                FaultKind::SensorDrift { per_hour: 5_000.0 }
            },
        )
    };
    (out_spec, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::FaultClass;

    #[test]
    fn builders_produce_expected_classes() {
        let spec = fig10::reference_spec();
        assert!(external_environment(&spec, 100.0)
            .iter()
            .all(|f| f.class() == FaultClass::ComponentExternal));
        assert!(connector_campaign(NodeId(1), 10.0)
            .iter()
            .all(|f| f.class() == FaultClass::ComponentBorderline));
        assert!(wearout_campaign(NodeId(1), 1.0, 1.0)
            .iter()
            .all(|f| f.class() == FaultClass::ComponentInternal));
        assert!(software_campaign(fig10::jobs::A1, true)
            .iter()
            .all(|f| f.class() == FaultClass::JobInherentSoftware));
        assert!(sensor_campaign(fig10::jobs::A1, FaultKind::SensorDead)
            .iter()
            .all(|f| f.class() == FaultClass::JobInherentTransducer));
    }

    #[test]
    fn primary_fault_convention_holds() {
        // `faults[0]` is a loss-free ground-truth label: every multi-fault
        // sample shares one target FRU and one fault class.
        let spec = fig10::reference_spec();
        let seeds = SeedSource::new(77);
        for index in 0..500 {
            let (_, faults) = sample_mixed_fault(&spec, seeds, index);
            assert!(!faults.is_empty(), "sample {index} drew no faults");
            let primary = &faults[0];
            for f in &faults[1..] {
                assert_eq!(
                    f.target, primary.target,
                    "sample {index}: secondary fault targets a different FRU"
                );
                assert_eq!(
                    f.class(),
                    primary.class(),
                    "sample {index}: secondary fault has a different class"
                );
            }
        }
    }

    #[test]
    fn config_defect_truth_names_the_misconfigured_side() {
        let targets = |defect| {
            let (_, truth) = config_defect_campaign(fig10::reference_spec(), defect);
            truth.iter().map(|f| (f.id, f.target)).collect::<Vec<_>>()
        };
        let producers = vec![(1, FruRef::Job(fig10::jobs::C1)), (2, FruRef::Job(fig10::jobs::C2))];
        assert_eq!(targets(ConfigDefect::UnderDimensionedTxQueue { factor: 2 }), producers);
        assert_eq!(targets(ConfigDefect::InsufficientBandwidth { factor: 2 }), producers);
        assert_eq!(
            targets(ConfigDefect::UnderDimensionedRxQueue { factor: 2 }),
            vec![(1, FruRef::Job(fig10::jobs::C3))]
        );
    }

    #[test]
    fn misconfiguration_mutates_spec() {
        let (spec, truth) = misconfiguration_campaign(fig10::reference_spec(), 8);
        assert_eq!(spec.config_defects.len(), 1);
        assert_eq!(truth[0].class(), FaultClass::JobBorderline);
        let deployed = spec.deployed_vnets();
        let c = deployed.iter().find(|v| v.id == fig10::vnets::C).unwrap();
        assert_eq!(c.rx_queue_depth, 2);
    }

    #[test]
    fn mixed_sampler_is_deterministic_and_diverse() {
        let spec = fig10::reference_spec();
        let seeds = SeedSource::new(5);
        let a = sample_mixed_fault(&spec, seeds, 3);
        let b = sample_mixed_fault(&spec, seeds, 3);
        assert_eq!(a.1, b.1, "same index, same draw");
        let classes: std::collections::BTreeSet<FaultClass> =
            (0..200).map(|i| sample_mixed_fault(&spec, seeds, i).1[0].class()).collect();
        assert!(classes.len() >= 5, "sampler must cover the taxonomy: {classes:?}");
    }

    #[test]
    fn mixed_sampler_never_puts_software_faults_on_safety_jobs() {
        let spec = fig10::reference_spec();
        let seeds = SeedSource::new(6);
        for i in 0..500 {
            let (_, faults) = sample_mixed_fault(&spec, seeds, i);
            for f in &faults {
                if f.class() == FaultClass::JobInherentSoftware {
                    if let FruRef::Job(j) = f.target {
                        let job = spec.jobs.iter().find(|js| js.id == j).unwrap();
                        assert_eq!(
                            job.criticality,
                            decos_platform::Criticality::NonSafetyCritical,
                            "§III-E: safety-critical jobs are certified free of design faults"
                        );
                    }
                }
            }
        }
    }
}
