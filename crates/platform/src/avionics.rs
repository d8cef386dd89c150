//! A larger, avionics-flavoured reference cluster.
//!
//! Eight Line Replaceable Modules in two equipment bays (forward avionics
//! bay and aft bay — the spatial zones of the massive-transient pattern)
//! hosting four DASs:
//!
//! * **FCS** (safety-critical): flight-control TMR — replicas `F1..F3` on
//!   LRMs 0–2, voter on LRM 3;
//! * **AIR** (non safety-critical, state): air-data publisher on LRM 4,
//!   consumers on LRMs 3 and 5;
//! * **NAV** (non safety-critical, state): the navigation DAS has **no own
//!   air-data sensor** — a *hidden gateway* on LRM 7 republishes the AIR
//!   value into the NAV network (§II-B: gateways "eliminate resource
//!   duplication"), where a NAV controller on LRM 6 consumes it;
//! * **CAB** (non safety-critical, event): cabin-systems senders on LRMs
//!   5–7 and a consumer on LRM 4.
//!
//! Used by tests/benches to exercise cluster sizes beyond Fig. 10 and the
//! gateway service end to end.

use crate::cluster::{ClusterSpec, DasSpec};
use crate::component::ComponentSpec;
use crate::ids::{Criticality, DasId, JobId, NodeId, Position};
use crate::job::{JobBehavior, JobSpec};
use crate::transducer::SignalModel;
use decos_sim::time::SimDuration;
use decos_ttnet::{ChannelParams, MembershipParams};
use decos_vnet::{PortId, VnetConfig, VnetId};

/// Job identities.
pub mod jobs {
    use super::JobId;
    /// FCS replica 1 (LRM 0).
    pub(crate) const F1: JobId = JobId(1);
    /// FCS replica 2 (LRM 1).
    pub(crate) const F2: JobId = JobId(2);
    /// FCS replica 3 (LRM 2).
    pub(crate) const F3: JobId = JobId(3);
    /// FCS voter (LRM 3).
    pub(crate) const FV: JobId = JobId(4);
    /// Air-data publisher (LRM 4).
    pub const AIR: JobId = JobId(10);
    /// Air-data consumer/controller (LRM 3).
    pub const AIR_C1: JobId = JobId(11);
    /// Air-data consumer/controller (LRM 5).
    pub const AIR_C2: JobId = JobId(12);
    /// AIR→NAV hidden gateway (LRM 7).
    pub const GATEWAY: JobId = JobId(20);
    /// NAV controller consuming the gateway output (LRM 6).
    pub const NAV_C: JobId = JobId(21);
    /// Cabin event senders (LRMs 5–7).
    pub(crate) const CAB1: JobId = JobId(30);
    /// Cabin sender 2.
    pub(crate) const CAB2: JobId = JobId(31);
    /// Cabin sender 3.
    pub(crate) const CAB3: JobId = JobId(32);
    /// Cabin consumer (LRM 4).
    pub(crate) const CAB_RX: JobId = JobId(33);
}

/// Port identities.
pub mod ports {
    use super::PortId;
    /// FCS replica outputs.
    pub(crate) const F1: PortId = PortId(1);
    /// Replica 2.
    pub(crate) const F2: PortId = PortId(2);
    /// Replica 3.
    pub(crate) const F3: PortId = PortId(3);
    /// Voted output.
    pub(crate) const FV: PortId = PortId(4);
    /// Air-data value.
    pub(crate) const AIR: PortId = PortId(10);
    /// Controller outputs.
    pub(crate) const AIR_C1: PortId = PortId(11);
    /// Controller 2 output.
    pub(crate) const AIR_C2: PortId = PortId(12);
    /// Gateway republication into NAV.
    pub(crate) const GATEWAY: PortId = PortId(20);
    /// NAV controller output.
    pub(crate) const NAV_C: PortId = PortId(21);
    /// Cabin sender ports.
    pub(crate) const CAB1: PortId = PortId(30);
    /// Cabin sender 2.
    pub(crate) const CAB2: PortId = PortId(31);
    /// Cabin sender 3.
    pub(crate) const CAB3: PortId = PortId(32);
}

/// Virtual networks.
pub mod vnets {
    use super::VnetId;
    /// Flight-control state network.
    pub(crate) const FCS: VnetId = VnetId(0);
    /// Air-data state network.
    pub(crate) const AIR: VnetId = VnetId(1);
    /// Navigation state network.
    pub(crate) const NAV: VnetId = VnetId(2);
    /// Cabin event network.
    pub(crate) const CAB: VnetId = VnetId(3);
}

/// DAS identities.
pub mod dases {
    use super::DasId;
    /// Flight control (SC).
    pub(crate) const FCS: DasId = DasId(0);
    /// Air data (NSC).
    pub(crate) const AIR: DasId = DasId(1);
    /// Navigation (NSC).
    pub(crate) const NAV: DasId = DasId(2);
    /// Cabin systems (NSC).
    pub(crate) const CAB: DasId = DasId(3);
}

/// Builds the avionics cluster specification (8 LRMs, 14 jobs, 4 DASs).
pub fn avionics_spec() -> ClusterSpec {
    let fwd = |i: f64| Position { x: 2.0 + 0.4 * i, y: 0.0 };
    let aft = |i: f64| Position { x: 30.0 + 0.4 * i, y: 0.5 };
    let components = vec![
        ComponentSpec { node: NodeId(0), position: fwd(0.0), drift_ppm: 12.0 },
        ComponentSpec { node: NodeId(1), position: fwd(1.0), drift_ppm: -8.0 },
        ComponentSpec { node: NodeId(2), position: fwd(2.0), drift_ppm: 22.0 },
        ComponentSpec { node: NodeId(3), position: fwd(3.0), drift_ppm: -17.0 },
        ComponentSpec { node: NodeId(4), position: aft(0.0), drift_ppm: 5.0 },
        ComponentSpec { node: NodeId(5), position: aft(1.0), drift_ppm: -25.0 },
        ComponentSpec { node: NodeId(6), position: aft(2.0), drift_ppm: 15.0 },
        ComponentSpec { node: NodeId(7), position: aft(3.0), drift_ppm: -3.0 },
    ];
    let dases = vec![
        DasSpec {
            id: dases::FCS,
            name: "flight-control".into(),
            criticality: Criticality::SafetyCritical,
        },
        DasSpec {
            id: dases::AIR,
            name: "air-data".into(),
            criticality: Criticality::NonSafetyCritical,
        },
        DasSpec {
            id: dases::NAV,
            name: "navigation".into(),
            criticality: Criticality::NonSafetyCritical,
        },
        DasSpec {
            id: dases::CAB,
            name: "cabin".into(),
            criticality: Criticality::NonSafetyCritical,
        },
    ];
    let vnets = vec![
        VnetConfig::state(vnets::FCS, 64),
        VnetConfig::state(vnets::AIR, 64),
        VnetConfig::state(vnets::NAV, 64),
        VnetConfig::event(vnets::CAB, 128, 16, 24),
    ];

    let fcs_signal = SignalModel::Sine { amplitude: 1.0, period_s: 8.0, bias: 0.0 };
    let air_signal = SignalModel::Sawtooth { lo: 0.0, hi: 40.0, period_s: 120.0 };
    let noise = 0.02;
    let max_age = SimDuration::from_millis(20);

    let mut jobs = Vec::new();
    for (i, (id, port, host)) in
        [(jobs::F1, ports::F1, 0u16), (jobs::F2, ports::F2, 1), (jobs::F3, ports::F3, 2)]
            .into_iter()
            .enumerate()
    {
        jobs.push(JobSpec {
            id,
            name: format!("F{}", i + 1),
            das: dases::FCS,
            criticality: Criticality::SafetyCritical,
            host: NodeId(host),
            behavior: JobBehavior::TmrReplica {
                vnet: vnets::FCS,
                port,
                signal: fcs_signal,
                noise_std: noise,
            },
        });
    }
    jobs.push(JobSpec {
        id: jobs::FV,
        name: "F-voter".into(),
        das: dases::FCS,
        criticality: Criticality::SafetyCritical,
        host: NodeId(3),
        behavior: JobBehavior::TmrVoter {
            vnet_in: vnets::FCS,
            inputs: [ports::F1, ports::F2, ports::F3],
            vnet_out: vnets::FCS,
            port: ports::FV,
            epsilon: 0.25,
            max_age,
        },
    });
    jobs.push(JobSpec {
        id: jobs::AIR,
        name: "air-data".into(),
        das: dases::AIR,
        criticality: Criticality::NonSafetyCritical,
        host: NodeId(4),
        behavior: JobBehavior::SensorPublisher {
            vnet: vnets::AIR,
            port: ports::AIR,
            signal: air_signal,
            noise_std: 0.1,
        },
    });
    for (id, port, host, gain) in
        [(jobs::AIR_C1, ports::AIR_C1, 3u16, 0.5), (jobs::AIR_C2, ports::AIR_C2, 5, 1.1)]
    {
        jobs.push(JobSpec {
            id,
            name: format!("air-ctl-{host}"),
            das: dases::AIR,
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(host),
            behavior: JobBehavior::Controller {
                vnet_in: vnets::AIR,
                input_src: ports::AIR,
                vnet_out: vnets::AIR,
                port,
                setpoint: 20.0,
                gain,
                out_bounds: (-70.0, 70.0),
            },
        });
    }
    jobs.push(JobSpec {
        id: jobs::GATEWAY,
        name: "air-nav-gw".into(),
        das: dases::NAV,
        criticality: Criticality::NonSafetyCritical,
        host: NodeId(7),
        behavior: JobBehavior::Gateway {
            vnet_in: vnets::AIR,
            input_src: ports::AIR,
            vnet_out: vnets::NAV,
            port: ports::GATEWAY,
        },
    });
    jobs.push(JobSpec {
        id: jobs::NAV_C,
        name: "nav-ctl".into(),
        das: dases::NAV,
        criticality: Criticality::NonSafetyCritical,
        host: NodeId(6),
        behavior: JobBehavior::Controller {
            vnet_in: vnets::NAV,
            input_src: ports::GATEWAY,
            vnet_out: vnets::NAV,
            port: ports::NAV_C,
            setpoint: 10.0,
            gain: 0.4,
            out_bounds: (-25.0, 25.0),
        },
    });
    for (id, port, host, value) in [
        (jobs::CAB1, ports::CAB1, 5u16, 1.0),
        (jobs::CAB2, ports::CAB2, 6, 2.0),
        (jobs::CAB3, ports::CAB3, 7, 3.0),
    ] {
        jobs.push(JobSpec {
            id,
            name: format!("cab-{host}"),
            das: dases::CAB,
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(host),
            behavior: JobBehavior::EventSender { vnet: vnets::CAB, port, rate_hz: 120.0, value },
        });
    }
    jobs.push(JobSpec {
        id: jobs::CAB_RX,
        name: "cab-rx".into(),
        das: dases::CAB,
        criticality: Criticality::NonSafetyCritical,
        host: NodeId(4),
        behavior: JobBehavior::EventConsumer {
            vnet: vnets::CAB,
            sources: vec![ports::CAB1, ports::CAB2, ports::CAB3],
            service_per_round: 12,
        },
    });

    ClusterSpec {
        components,
        dases,
        vnets,
        config_defects: Vec::new(),
        jobs,
        slot_len: SimDuration::from_millis(1),
        channel: ChannelParams::default(),
        membership: MembershipParams::default(),
        lattice_granule: SimDuration::from_millis(1),
        precision_ns: 2_000,
        diag_net: crate::cluster::DiagNetSpec::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSim;
    use crate::env::NullEnvironment;

    #[test]
    fn spec_is_valid() {
        assert_eq!(avionics_spec().validate(), Ok(()));
    }

    #[test]
    fn fault_free_run_is_clean() {
        let mut sim = ClusterSim::new(avionics_spec(), 3).unwrap();
        let mut env = NullEnvironment;
        let mut errors = 0u64;
        let mut overflows = 0u64;
        sim.run_rounds(300, &mut env, &mut |_, rec| {
            errors += rec.observations.iter().filter(|o| o.is_error()).count() as u64;
            overflows += rec.overflow_deltas.len() as u64;
        });
        assert_eq!(errors, 0);
        assert_eq!(overflows, 0);
    }

    #[test]
    fn gateway_bridges_air_data_into_nav() {
        let mut sim = ClusterSim::new(avionics_spec(), 4).unwrap();
        let mut env = NullEnvironment;
        sim.run_rounds(100, &mut env, &mut |_, _| {});
        // The NAV controller actuated — it can only have gotten its input
        // through the gateway (NAV has no own sensor).
        let nav = sim.job(jobs::NAV_C);
        assert!(nav.counters().produced > 50, "NAV controller starved: {:?}", nav.counters());
        // The gateway's republished value tracks the AIR value.
        let gw = sim.job(jobs::GATEWAY);
        assert!(gw.counters().produced > 50);
    }

    #[test]
    fn two_spatial_zones() {
        let spec = avionics_spec();
        let d_within = spec.components[0].position.distance(&spec.components[3].position);
        let d_across = spec.components[0].position.distance(&spec.components[4].position);
        assert!(d_within < 2.0);
        assert!(d_across > 20.0);
    }

    #[test]
    fn gateway_lif_inherits_source_range() {
        let sim = ClusterSim::new(avionics_spec(), 1).unwrap();
        let air = sim.lif().iter().find(|l| l.port == ports::AIR).unwrap();
        let gw = sim.lif().iter().find(|l| l.port == ports::GATEWAY).unwrap();
        assert_eq!(gw.value_min, air.value_min);
        assert_eq!(gw.value_max, air.value_max);
        assert_eq!(gw.producer, jobs::GATEWAY);
    }
}
