//! The reference cluster of the paper's Fig. 10.
//!
//! Four components host three DASs of mixed criticality:
//!
//! * **DAS S** (safety-critical): a steer-by-wire-like TMR group — replicas
//!   `S1`, `S2`, `S3` on components 0, 1, 2 and a voter on component 3;
//! * **DAS A** (non safety-critical, state-based): sensor publisher `A1`
//!   (component 0) and controllers `A2` (component 3), `A3` (component 1);
//! * **DAS C** (non safety-critical, event-based): senders `C1`
//!   (component 1), `C2` (component 2) and consumer `C3` (component 3).
//!
//! Component 1 thus hosts jobs of three different DASs (`S2`, `A3`, `C1`) —
//! the integrated-architecture configuration whose correlated failure
//! signature §V-C builds on. Components 0 and 1 are mounted close together
//! (front), components 2 and 3 at the rear: the spatial layout the
//! massive-transient pattern (Fig. 8) discriminates on.

use crate::cluster::{ClusterSpec, DasSpec};
use crate::component::ComponentSpec;
use crate::ids::{Criticality, DasId, JobId, NodeId, Position};
use crate::job::{JobBehavior, JobSpec};
use crate::transducer::SignalModel;
use decos_sim::time::SimDuration;
use decos_ttnet::{ChannelParams, MembershipParams};
use decos_vnet::{PortId, VnetConfig, VnetId};

/// Job identities of the reference cluster.
pub mod jobs {
    use super::JobId;
    /// TMR replica 1 (component 0).
    pub const S1: JobId = JobId(1);
    /// TMR replica 2 (component 1).
    pub const S2: JobId = JobId(2);
    /// TMR replica 3 (component 2).
    pub(crate) const S3: JobId = JobId(3);
    /// TMR voter (component 3).
    pub(crate) const VOTER: JobId = JobId(4);
    /// DAS A sensor publisher (component 0).
    pub const A1: JobId = JobId(10);
    /// DAS A controller (component 3).
    pub const A2: JobId = JobId(11);
    /// DAS A controller (component 1).
    pub const A3: JobId = JobId(12);
    /// DAS C event sender (component 1).
    pub const C1: JobId = JobId(20);
    /// DAS C event sender (component 2).
    pub const C2: JobId = JobId(21);
    /// DAS C event consumer (component 3).
    pub const C3: JobId = JobId(22);
}

/// Port identities of the reference cluster.
pub mod ports {
    use super::PortId;
    /// Replica output ports.
    pub const S1: PortId = PortId(1);
    /// Replica 2 output.
    pub(crate) const S2: PortId = PortId(2);
    /// Replica 3 output.
    pub(crate) const S3: PortId = PortId(3);
    /// Voter output.
    pub(crate) const VOTED: PortId = PortId(4);
    /// A1 state output.
    pub const A1: PortId = PortId(10);
    /// A2 command output.
    pub(crate) const A2: PortId = PortId(11);
    /// A3 command output.
    pub(crate) const A3: PortId = PortId(12);
    /// C1 event output.
    pub(crate) const C1: PortId = PortId(20);
    /// C2 event output.
    pub(crate) const C2: PortId = PortId(21);
}

/// Virtual networks of the reference cluster.
pub mod vnets {
    use super::VnetId;
    /// Safety-critical state network of DAS S.
    pub(crate) const S: VnetId = VnetId(0);
    /// State network of DAS A.
    pub(crate) const A: VnetId = VnetId(1);
    /// Event network of DAS C.
    pub const C: VnetId = VnetId(2);
}

/// DAS identities of the reference cluster.
pub mod dases {
    use super::DasId;
    /// Safety-critical TMR DAS.
    pub(crate) const S: DasId = DasId(0);
    /// State-based control DAS.
    pub(crate) const A: DasId = DasId(1);
    /// Event-based DAS.
    pub(crate) const C: DasId = DasId(2);
}

/// The physical quantity the TMR replicas measure.
pub(crate) fn tmr_signal() -> SignalModel {
    SignalModel::Sine { amplitude: 1.0, period_s: 10.0, bias: 0.0 }
}

/// The physical quantity `A1` publishes.
pub(crate) fn das_a_signal() -> SignalModel {
    SignalModel::Sawtooth { lo: 0.0, hi: 10.0, period_s: 60.0 }
}

/// Mean emission rate of the DAS C event senders, Hz.
pub(crate) const EVENT_RATE_HZ: f64 = 250.0;

/// Builds the Fig. 10 reference cluster specification.
///
/// Slot length 1 ms, four slots per round; event queues are dimensioned
/// with ample headroom so the *fault-free* cluster never loses a message
/// (the property `cluster::tests::fault_free_run_is_clean` asserts).
pub fn reference_spec() -> ClusterSpec {
    let components = vec![
        ComponentSpec { node: NodeId(0), position: Position { x: 0.0, y: 0.0 }, drift_ppm: 15.0 },
        ComponentSpec { node: NodeId(1), position: Position { x: 0.5, y: 0.2 }, drift_ppm: -20.0 },
        ComponentSpec { node: NodeId(2), position: Position { x: 3.0, y: 1.0 }, drift_ppm: 25.0 },
        ComponentSpec { node: NodeId(3), position: Position { x: 3.5, y: 0.8 }, drift_ppm: -10.0 },
    ];

    let dases = vec![
        DasSpec {
            id: dases::S,
            name: "steer-by-wire".into(),
            criticality: Criticality::SafetyCritical,
        },
        DasSpec {
            id: dases::A,
            name: "body-control".into(),
            criticality: Criticality::NonSafetyCritical,
        },
        DasSpec {
            id: dases::C,
            name: "multimedia".into(),
            criticality: Criticality::NonSafetyCritical,
        },
    ];

    let vnets = vec![
        VnetConfig::state(vnets::S, 64),
        VnetConfig::state(vnets::A, 64),
        VnetConfig::event(vnets::C, 128, 16, 16),
    ];

    let noise = 0.02;
    let max_age = SimDuration::from_millis(10);
    let jobs = vec![
        JobSpec {
            id: jobs::S1,
            name: "S1".into(),
            das: dases::S,
            criticality: Criticality::SafetyCritical,
            host: NodeId(0),
            behavior: JobBehavior::TmrReplica {
                vnet: vnets::S,
                port: ports::S1,
                signal: tmr_signal(),
                noise_std: noise,
            },
        },
        JobSpec {
            id: jobs::S2,
            name: "S2".into(),
            das: dases::S,
            criticality: Criticality::SafetyCritical,
            host: NodeId(1),
            behavior: JobBehavior::TmrReplica {
                vnet: vnets::S,
                port: ports::S2,
                signal: tmr_signal(),
                noise_std: noise,
            },
        },
        JobSpec {
            id: jobs::S3,
            name: "S3".into(),
            das: dases::S,
            criticality: Criticality::SafetyCritical,
            host: NodeId(2),
            behavior: JobBehavior::TmrReplica {
                vnet: vnets::S,
                port: ports::S3,
                signal: tmr_signal(),
                noise_std: noise,
            },
        },
        JobSpec {
            id: jobs::VOTER,
            name: "S-voter".into(),
            das: dases::S,
            criticality: Criticality::SafetyCritical,
            host: NodeId(3),
            behavior: JobBehavior::TmrVoter {
                vnet_in: vnets::S,
                inputs: [ports::S1, ports::S2, ports::S3],
                vnet_out: vnets::S,
                port: ports::VOTED,
                epsilon: 0.25,
                max_age,
            },
        },
        JobSpec {
            id: jobs::A1,
            name: "A1".into(),
            das: dases::A,
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(0),
            behavior: JobBehavior::SensorPublisher {
                vnet: vnets::A,
                port: ports::A1,
                signal: das_a_signal(),
                noise_std: 0.05,
            },
        },
        JobSpec {
            id: jobs::A2,
            name: "A2".into(),
            das: dases::A,
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(3),
            behavior: JobBehavior::Controller {
                vnet_in: vnets::A,
                input_src: ports::A1,
                vnet_out: vnets::A,
                port: ports::A2,
                setpoint: 5.0,
                gain: 1.5,
                out_bounds: (-25.0, 25.0),
            },
        },
        JobSpec {
            id: jobs::A3,
            name: "A3".into(),
            das: dases::A,
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(1),
            behavior: JobBehavior::Controller {
                vnet_in: vnets::A,
                input_src: ports::A1,
                vnet_out: vnets::A,
                port: ports::A3,
                setpoint: 5.0,
                gain: 0.8,
                out_bounds: (-15.0, 15.0),
            },
        },
        JobSpec {
            id: jobs::C1,
            name: "C1".into(),
            das: dases::C,
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(1),
            behavior: JobBehavior::EventSender {
                vnet: vnets::C,
                port: ports::C1,
                rate_hz: EVENT_RATE_HZ,
                value: 1.0,
            },
        },
        JobSpec {
            id: jobs::C2,
            name: "C2".into(),
            das: dases::C,
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(2),
            behavior: JobBehavior::EventSender {
                vnet: vnets::C,
                port: ports::C2,
                rate_hz: EVENT_RATE_HZ,
                value: 2.0,
            },
        },
        JobSpec {
            id: jobs::C3,
            name: "C3".into(),
            das: dases::C,
            criticality: Criticality::NonSafetyCritical,
            host: NodeId(3),
            behavior: JobBehavior::EventConsumer {
                vnet: vnets::C,
                sources: vec![ports::C1, ports::C2],
                service_per_round: 8,
            },
        },
    ];

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

    #[test]
    fn spec_is_valid() {
        assert_eq!(reference_spec().validate(), Ok(()));
    }

    #[test]
    fn component_one_hosts_three_dases() {
        let spec = reference_spec();
        let dases: std::collections::BTreeSet<DasId> =
            spec.jobs.iter().filter(|j| j.host == NodeId(1)).map(|j| j.das).collect();
        assert_eq!(dases.len(), 3, "the integrated component must host three DASs");
    }

    #[test]
    fn tmr_replicas_on_distinct_components() {
        let spec = reference_spec();
        let hosts: std::collections::BTreeSet<NodeId> = spec
            .jobs
            .iter()
            .filter(|j| matches!(j.behavior, JobBehavior::TmrReplica { .. }))
            .map(|j| j.host)
            .collect();
        assert_eq!(hosts.len(), 3, "replicas must fail independently");
    }

    #[test]
    fn front_and_rear_zones_exist() {
        let spec = reference_spec();
        let d01 = spec.components[0].position.distance(&spec.components[1].position);
        let d02 = spec.components[0].position.distance(&spec.components[2].position);
        assert!(d01 < 1.0, "components 0 and 1 are mounted close together");
        assert!(d02 > 2.0, "component 2 is far from component 0");
    }
}
