//! The analyzable unit: everything a campaign fixes before slot zero.
//!
//! [`ExperimentSpec`] bundles the cluster, the TDMA slot claims, the ONA
//! and trust parameters, and the fault campaign. The runner derives one
//! from a `Campaign`; the lint CLI builds one with defaults; tests mutate
//! individual fields to provoke specific diagnostics.

use decos_diagnosis::{AdvisorParams, OnaParams, TrustParams};
use decos_faults::FaultSpec;
use decos_platform::{ClusterSpec, NodeId};
use serde::{Deserialize, Serialize};

/// The TDMA slot table as a list of claims `(slot index, owner)`.
///
/// The simulation derives its schedule round-robin (one slot per component,
/// in node order), which is collision-free by construction. The analyzer
/// keeps the claim list explicit so that hand-built or tool-generated
/// tables — where double-booking and gaps *are* expressible — run through
/// the same checks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleSpec {
    /// Slot claims, `(slot index within the round, owning component)`.
    pub claims: Vec<(u16, NodeId)>,
}

impl ScheduleSpec {
    /// The round-robin table `ClusterSim` derives from a cluster spec.
    #[must_use]
    pub fn derived(cluster: &ClusterSpec) -> Self {
        ScheduleSpec {
            claims: cluster
                .components
                .iter()
                .enumerate()
                .map(|(i, c)| (i as u16, c.node))
                .collect(),
        }
    }

    /// Slots per round implied by the claims (highest index + 1).
    #[must_use]
    pub(crate) fn slots_per_round(&self) -> u16 {
        self.claims.iter().map(|(s, _)| s.saturating_add(1)).max().unwrap_or(0)
    }

    /// How many slots `node` owns per round.
    #[must_use]
    pub(crate) fn slots_of(&self, node: NodeId) -> usize {
        self.claims.iter().filter(|(_, n)| *n == node).count()
    }
}

/// A complete experiment: the closed-world input of [`crate::analyze`].
#[derive(Debug, Clone)]
pub struct ExperimentSpec<'a> {
    /// The cluster under test (possibly carrying configuration defects).
    pub cluster: &'a ClusterSpec,
    /// The TDMA slot table.
    pub schedule: ScheduleSpec,
    /// ONA pattern parameters the diagnostic engine will run with.
    pub ona: OnaParams,
    /// Trust dynamics parameters.
    pub trust: TrustParams,
    /// Maintenance-advisor conviction thresholds (the diagnosability
    /// check's notion of "enough evidence").
    pub advisor: AdvisorParams,
    /// The fault campaign (empty for a fault-free run).
    pub faults: &'a [FaultSpec],
    /// Rate acceleration factor for episodic faults.
    pub accel: f64,
    /// Horizon in TDMA rounds; `0` means "no fixed horizon" (pure lint).
    pub rounds: u64,
}

impl<'a> ExperimentSpec<'a> {
    /// A fault-free experiment with default engine parameters and the
    /// derived round-robin schedule — what `decos-lint` checks.
    #[must_use]
    pub fn new(cluster: &'a ClusterSpec) -> Self {
        ExperimentSpec {
            cluster,
            schedule: ScheduleSpec::derived(cluster),
            ona: OnaParams::default(),
            trust: TrustParams::default(),
            advisor: AdvisorParams::default(),
            faults: &[],
            accel: 1.0,
            rounds: 0,
        }
    }

    /// An experiment carrying a fault campaign over a fixed horizon.
    #[must_use]
    pub fn with_campaign(
        cluster: &'a ClusterSpec,
        faults: &'a [FaultSpec],
        accel: f64,
        rounds: u64,
    ) -> Self {
        ExperimentSpec { faults, accel, rounds, ..ExperimentSpec::new(cluster) }
    }

    /// Round length in seconds implied by the schedule and slot length.
    #[must_use]
    pub(crate) fn round_secs(&self) -> f64 {
        self.cluster.slot_len.as_secs_f64() * f64::from(self.schedule.slots_per_round())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_platform::fig10;

    #[test]
    fn derived_schedule_is_round_robin() {
        let spec = fig10::reference_spec();
        let s = ScheduleSpec::derived(&spec);
        assert_eq!(s.slots_per_round(), 4);
        for n in 0..4u16 {
            assert_eq!(s.slots_of(NodeId(n)), 1);
        }
    }

    #[test]
    fn empty_schedule_has_zero_slots() {
        let s = ScheduleSpec { claims: Vec::new() };
        assert_eq!(s.slots_per_round(), 0);
    }

    #[test]
    fn round_secs_matches_simulation() {
        let spec = fig10::reference_spec();
        let e = ExperimentSpec::new(&spec);
        assert!((e.round_secs() - 0.004).abs() < 1e-12, "4 slots of 1 ms");
    }
}
