//! The DECOS component (node computer) — the FRU/FCR for hardware faults.
//!
//! A component bundles the shared physical resources of a System-on-a-Chip
//! (§II-E): the oscillator/clock, the communication controller with its
//! virtual-network endpoints, the membership service instance, and the
//! hosted jobs of both criticality classes. Because these resources are
//! shared, a component-internal hardware fault simultaneously disturbs
//! *all* jobs hosted on the component — the correlation signature the
//! diagnostic subsystem exploits (§V-C).

use crate::ids::{JobId, NodeId, Position};
use decos_sim::time::{SimDuration, SimTime};
use decos_timebase::{LocalClock, SyncMonitor, SyncStatus};
use decos_ttnet::{MembershipParams, MembershipService};
use decos_vnet::{VnetConfig, VnetEndpoint, VnetId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Static description of a component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentSpec {
    /// Network identity.
    pub node: NodeId,
    /// Mounting position (spatial fault correlation).
    pub position: Position,
    /// Systematic oscillator drift, ppm.
    pub drift_ppm: f64,
}

/// Power / lifecycle state of a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Power {
    /// Operating.
    On,
    /// Restarting after an external transient (silent until `until`); state
    /// synchronization completes the restart.
    Restarting {
        /// Instant at which the restart completes.
        until: SimTime,
    },
    /// Permanently failed (permanent internal hardware fault).
    Dead,
}

/// Runtime state of a component.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentState {
    spec: ComponentSpec,
    /// The local clock driven by the component's quartz.
    pub clock: LocalClock,
    /// Synchronization monitor fed at every resync round.
    pub sync: SyncMonitor,
    /// Virtual-network endpoints, one per network any hosted job uses.
    pub endpoints: BTreeMap<VnetId, VnetEndpoint>,
    /// This component's instance of the membership service.
    pub membership: MembershipService,
    /// Lifecycle state.
    power: Power,
    /// Jobs hosted on this component.
    hosted: Vec<JobId>,
    restarts: u64,
}

impl ComponentState {
    /// Instantiates a component.
    ///
    /// `vnets` — the configurations of the networks this component
    /// participates in; `cluster_size` — number of components in the
    /// cluster (membership vector width); `precision_ns` — the cluster
    /// precision for the sync monitor.
    pub(crate) fn new(
        spec: ComponentSpec,
        vnets: &[VnetConfig],
        hosted: Vec<JobId>,
        cluster_size: u16,
        membership_params: MembershipParams,
        precision_ns: u64,
    ) -> Self {
        let clock = LocalClock::new(spec.drift_ppm);
        let endpoints =
            vnets.iter().map(|cfg| (cfg.id, VnetEndpoint::new(*cfg))).collect::<BTreeMap<_, _>>();
        ComponentState {
            spec,
            clock,
            sync: SyncMonitor::new(precision_ns),
            endpoints,
            membership: MembershipService::new(cluster_size, membership_params),
            power: Power::On,
            hosted,
            restarts: 0,
        }
    }

    /// Network identity.
    pub(crate) fn node(&self) -> NodeId {
        self.spec.node
    }

    /// Hosted jobs.
    pub(crate) fn hosted(&self) -> &[JobId] {
        &self.hosted
    }

    /// Lifecycle state.
    pub fn power(&self) -> Power {
        self.power
    }

    /// Number of restarts performed.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Whether the component participates in the current slot (transmits,
    /// receives, dispatches jobs).
    #[inline]
    pub fn is_operational(&self, now: SimTime) -> bool {
        match self.power {
            Power::On => true,
            Power::Restarting { until } => now >= until,
            Power::Dead => false,
        }
    }

    /// Progresses a pending restart: if the restart window elapsed, performs
    /// state synchronization (clears endpoints, resyncs the clock monitor)
    /// and returns `true` once, on completion.
    #[inline]
    pub(crate) fn poll_restart(&mut self, now: SimTime) -> bool {
        if let Power::Restarting { until } = self.power {
            if now >= until {
                for ep in self.endpoints.values_mut() {
                    ep.restart();
                }
                self.clock.reset_correction();
                self.sync.resynchronize();
                self.power = Power::On;
                return true;
            }
        }
        false
    }

    /// Initiates a restart lasting `dur` (recovery from an external
    /// transient fault, §III-C).
    pub(crate) fn begin_restart(&mut self, now: SimTime, dur: SimDuration) {
        if matches!(self.power, Power::Dead) {
            return;
        }
        self.power = Power::Restarting { until: now + dur };
        self.restarts += 1;
    }

    /// Kills the component permanently (permanent internal hardware fault).
    pub(crate) fn kill(&mut self, now: SimTime) {
        self.power = Power::Dead;
        self.clock.kill(now);
    }

    /// Whether the component is permanently dead.
    pub fn is_dead(&self) -> bool {
        matches!(self.power, Power::Dead)
    }

    /// Synchronization status as of the last resync round.
    pub(crate) fn sync_status(&self) -> SyncStatus {
        self.sync.status()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_vnet::VnetConfig;

    fn comp() -> ComponentState {
        ComponentState::new(
            ComponentSpec {
                node: NodeId(2),
                position: Position { x: 1.0, y: 0.0 },
                drift_ppm: 20.0,
            },
            &[VnetConfig::state(VnetId(1), 64)],
            vec![JobId(5), JobId(6)],
            4,
            MembershipParams::default(),
            10_000,
        )
    }

    #[test]
    fn fresh_component_is_operational() {
        let c = comp();
        assert!(c.is_operational(SimTime::ZERO));
        assert_eq!(c.power(), Power::On);
        assert_eq!(c.hosted(), &[JobId(5), JobId(6)]);
        assert!(c.endpoints.contains_key(&VnetId(1)));
    }

    #[test]
    fn restart_cycle() {
        let mut c = comp();
        c.begin_restart(SimTime::from_millis(10), SimDuration::from_millis(50));
        assert!(!c.is_operational(SimTime::from_millis(30)));
        assert!(!c.poll_restart(SimTime::from_millis(30)));
        assert!(c.poll_restart(SimTime::from_millis(60)));
        assert!(c.is_operational(SimTime::from_millis(60)));
        assert_eq!(c.restarts(), 1);
        // poll after completion is idempotent
        assert!(!c.poll_restart(SimTime::from_millis(61)));
    }

    #[test]
    fn restart_clears_endpoint_state() {
        let mut c = comp();
        c.endpoints.get_mut(&VnetId(1)).unwrap().deliver_message(decos_vnet::Message {
            src: decos_vnet::PortId(1),
            seq: 1,
            sent_at: SimTime::ZERO,
            value: 1.0,
        });
        c.begin_restart(SimTime::ZERO, SimDuration::from_millis(1));
        c.poll_restart(SimTime::from_millis(2));
        assert!(c.endpoints[&VnetId(1)].read_state(decos_vnet::PortId(1)).is_none());
    }

    #[test]
    fn kill_is_permanent() {
        let mut c = comp();
        c.kill(SimTime::from_secs(1));
        assert!(c.is_dead());
        assert!(!c.is_operational(SimTime::from_secs(2)));
        c.begin_restart(SimTime::from_secs(2), SimDuration::from_millis(1));
        assert!(c.is_dead(), "restart must not resurrect a dead component");
        assert_eq!(c.restarts(), 0);
        assert!(c.clock.is_dead());
    }
}
