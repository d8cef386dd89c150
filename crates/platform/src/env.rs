//! The environment interface — where fault manifestations enter the
//! cluster.
//!
//! The cluster simulation itself is fault-agnostic: every deviation from
//! nominal behaviour is supplied by an [`Environment`] implementation. The
//! fault-injection engine (`decos-faults`) implements this trait; the
//! [`NullEnvironment`] provides the fault-free baseline used by tests and
//! calibration runs.
//!
//! The hooks map one-to-one onto the manifestation surfaces of the
//! maintenance-oriented fault model:
//!
//! | hook | manifestation surface |
//! |---|---|
//! | [`Environment::tx_disturbance`] | component silence / timing failures / source corruption (component internal & external faults) |
//! | [`Environment::rx_disturbance`] | receiver-local omissions & bit flips (connector borderline faults, spatially local EMI) |
//! | [`Environment::pre_dispatch`] | sensor/actuator faults, job crashes (job inherent) |
//! | [`Environment::filter_outputs`] | software design faults — Bohr/Heisenbugs perturbing values, dropping or delaying sends (job inherent) |
//! | [`Environment::extra_drift_ppm`] | quartz degradation (component internal) |

use crate::ids::NodeId;
use crate::job::{JobRuntime, JobSpec};
use decos_sim::time::SimTime;
use decos_ttnet::{RxDisturbance, SlotAddress};
use decos_vnet::Message;
use serde::{Deserialize, Serialize};

/// Transmit-side disturbance for one component in one slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TxDisturbance {
    /// The component does not transmit at all (crash, restart, power loss).
    pub silence: bool,
    /// Additional send-instant offset beyond the clock state, ns.
    pub extra_offset_ns: i64,
    /// Payload bits corrupted at the source.
    pub corrupt_bits: u32,
}

impl TxDisturbance {
    /// No disturbance.
    pub const NONE: TxDisturbance =
        TxDisturbance { silence: false, extra_offset_ns: 0, corrupt_bits: 0 };
}

/// Lifecycle directive for a component, polled at round boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComponentDirective {
    /// Trigger a restart with state synchronization lasting `dur_ns`
    /// (recovery from an external transient, §III-C).
    Restart {
        /// Restart duration in nanoseconds.
        dur_ns: u64,
    },
    /// Permanent death (permanent internal hardware fault).
    Kill,
}

/// The world the cluster operates in; implemented by the fault-injection
/// engine.
pub trait Environment {
    /// Called once at the start of every slot, before any other hook.
    fn begin_slot(&mut self, _now: SimTime, _addr: SlotAddress) {}

    /// Whether the time-triggered channel may be disturbed at `now`.
    ///
    /// Returning `false` is a *promise* that, for this instant,
    /// [`tx_disturbance`](Environment::tx_disturbance) and
    /// [`rx_disturbance`](Environment::rx_disturbance) are no-ops that
    /// also consume no randomness — the cluster may then skip them and the
    /// channel resolution they feed (the fast slot body). The job hooks
    /// [`pre_dispatch`](Environment::pre_dispatch) and
    /// [`filter_outputs`](Environment::filter_outputs) are *not* covered:
    /// value-domain job faults never reach the channel, and both slot
    /// bodies run the job hooks. Lifecycle directives and drift are not
    /// covered either: [`component_directive`](Environment::component_directive)
    /// and [`extra_drift_ppm`](Environment::extra_drift_ppm) are polled at
    /// round boundaries on every path, and
    /// [`begin_slot`](Environment::begin_slot) runs on every slot. The
    /// conservative default keeps custom environments on the legacy body.
    fn cluster_disturbed(&self, _now: SimTime) -> bool {
        true
    }

    /// Lifecycle directive for a component, polled once per round.
    fn component_directive(&mut self, _now: SimTime, _node: NodeId) -> Option<ComponentDirective> {
        None
    }

    /// Transmit-side disturbance for the slot owner.
    fn tx_disturbance(&mut self, _now: SimTime, _sender: NodeId) -> TxDisturbance {
        TxDisturbance::NONE
    }

    /// Receive-side disturbance on the path `sender → receiver`.
    fn rx_disturbance(
        &mut self,
        _now: SimTime,
        _sender: NodeId,
        _receiver: NodeId,
    ) -> RxDisturbance {
        RxDisturbance::NONE
    }

    /// Hook before a job dispatch: inject sensor faults, halt/restart jobs.
    fn pre_dispatch(&mut self, _now: SimTime, _job: &mut JobRuntime) {}

    /// Hook over a job's produced messages: software design faults mutate,
    /// drop or duplicate messages here.
    fn filter_outputs(&mut self, _now: SimTime, _job: &JobSpec, _msgs: &mut Vec<Message>) {}

    /// Additional oscillator drift for a component, ppm (0 = nominal).
    fn extra_drift_ppm(&mut self, _now: SimTime, _node: NodeId) -> f64 {
        0.0
    }
}

/// The fault-free environment.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullEnvironment;

impl Environment for NullEnvironment {
    fn cluster_disturbed(&self, _now: SimTime) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_environment_disturbs_nothing() {
        let mut env = NullEnvironment;
        assert_eq!(env.tx_disturbance(SimTime::ZERO, NodeId(0)), TxDisturbance::NONE);
        assert_eq!(env.rx_disturbance(SimTime::ZERO, NodeId(0), NodeId(1)), RxDisturbance::NONE);
        assert_eq!(env.extra_drift_ppm(SimTime::ZERO, NodeId(0)), 0.0);
    }
}
