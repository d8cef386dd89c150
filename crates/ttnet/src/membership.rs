//! Membership service — consistent diagnosis of failing nodes (core
//! service C4).
//!
//! Every component maintains a *membership vector*: its local view of which
//! components delivered correct frames in their recent slots. Because the
//! broadcast channel and the TDMA schedule are common knowledge, correct
//! components converge on the same vector within one round — giving the
//! cluster a consistent notion of "who is currently operational" that both
//! the redundancy management (TMR voting) and the diagnostic subsystem
//! build on.
//!
//! §III-E of the paper relies on this service: transient failures longer
//! than one TDMA slot are *detected by other FRUs* — here, as membership
//! departures — which bounds the detection latency of the diagnostic
//! architecture.

use crate::frame::NodeId;
use serde::{Deserialize, Serialize};

/// A membership vector over up to 64 components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct MembershipVector(u64);

impl MembershipVector {
    /// Vector with nodes `0..n` present.
    pub(crate) fn full(n: u16) -> Self {
        assert!(n <= 64, "membership vector limited to 64 nodes");
        if n == 64 {
            MembershipVector(u64::MAX)
        } else {
            MembershipVector((1u64 << n) - 1)
        }
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        debug_assert!(node.0 < 64);
        self.0 & (1 << node.0) != 0
    }

    /// Adds a member.
    pub(crate) fn insert(&mut self, node: NodeId) {
        debug_assert!(node.0 < 64);
        self.0 |= 1 << node.0;
    }

    /// Removes a member.
    pub(crate) fn remove(&mut self, node: NodeId) {
        debug_assert!(node.0 < 64);
        self.0 &= !(1 << node.0);
    }
}

/// Per-node bookkeeping of the membership service.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct NodeTrack {
    consecutive_failures: u32,
    consecutive_successes: u32,
}

/// Parameters of the membership protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipParams {
    /// Consecutive failed slots after which a member is expelled.
    pub fail_threshold: u32,
    /// Consecutive correct slots after which an expelled node rejoins.
    pub rejoin_threshold: u32,
}

impl Default for MembershipParams {
    fn default() -> Self {
        // Expel after a single missed slot (single-slot detection per
        // §III-E), readmit after two clean slots.
        MembershipParams { fail_threshold: 1, rejoin_threshold: 2 }
    }
}

/// A membership change, reported for diagnostic consumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MembershipChange {
    /// Node expelled from the membership.
    Departed(NodeId),
    /// Node readmitted.
    Rejoined(NodeId),
}

/// The membership service as run by one observer component.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MembershipService {
    params: MembershipParams,
    view: MembershipVector,
    tracks: Vec<NodeTrack>,
    /// Total departures observed (flicker indicator: a node departing and
    /// rejoining repeatedly is a symptom of an intermittent fault).
    departures: u64,
    rejoins: u64,
}

impl MembershipService {
    /// Creates a service observing `n` nodes, all initially present.
    pub fn new(n: u16, params: MembershipParams) -> Self {
        MembershipService {
            params,
            view: MembershipVector::full(n),
            tracks: vec![NodeTrack::default(); n as usize],
            departures: 0,
            rejoins: 0,
        }
    }

    /// The current membership view.
    pub fn view(&self) -> MembershipVector {
        self.view
    }

    /// Total departures observed since start.
    pub fn departures(&self) -> u64 {
        self.departures
    }

    /// Total rejoins observed since start.
    pub fn rejoins(&self) -> u64 {
        self.rejoins
    }

    /// Feeds the outcome of one slot owned by `owner`: `correct` is whether
    /// this observer received a correct frame. Returns a change if the view
    /// was updated.
    pub fn observe_slot(&mut self, owner: NodeId, correct: bool) -> Option<MembershipChange> {
        let t = &mut self.tracks[owner.0 as usize];
        if correct {
            t.consecutive_failures = 0;
            t.consecutive_successes = t.consecutive_successes.saturating_add(1);
            if !self.view.contains(owner) && t.consecutive_successes >= self.params.rejoin_threshold
            {
                self.view.insert(owner);
                self.rejoins += 1;
                return Some(MembershipChange::Rejoined(owner));
            }
        } else {
            t.consecutive_successes = 0;
            t.consecutive_failures = t.consecutive_failures.saturating_add(1);
            if self.view.contains(owner) && t.consecutive_failures >= self.params.fail_threshold {
                self.view.remove(owner);
                self.departures += 1;
                return Some(MembershipChange::Departed(owner));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_basics() {
        let mut v = MembershipVector::full(4);
        assert!(v.contains(NodeId(3)));
        assert!(!v.contains(NodeId(4)));
        v.remove(NodeId(2));
        assert!(!v.contains(NodeId(2)));
        v.insert(NodeId(2));
        assert!(v.contains(NodeId(2)));
        assert!(MembershipVector::full(64).contains(NodeId(63)));
        assert!(!MembershipVector::default().contains(NodeId(0)));
    }

    #[test]
    fn departure_after_threshold() {
        let mut s =
            MembershipService::new(3, MembershipParams { fail_threshold: 2, rejoin_threshold: 2 });
        assert_eq!(s.observe_slot(NodeId(1), false), None);
        assert_eq!(s.observe_slot(NodeId(1), false), Some(MembershipChange::Departed(NodeId(1))));
        assert!(!s.view().contains(NodeId(1)));
        assert_eq!(s.departures(), 1);
        // Further failures do not re-report.
        assert_eq!(s.observe_slot(NodeId(1), false), None);
    }

    #[test]
    fn default_params_expel_after_single_slot() {
        let mut s = MembershipService::new(2, MembershipParams::default());
        assert_eq!(s.observe_slot(NodeId(0), false), Some(MembershipChange::Departed(NodeId(0))));
    }

    #[test]
    fn rejoin_after_clean_slots() {
        let mut s = MembershipService::new(2, MembershipParams::default());
        s.observe_slot(NodeId(0), false);
        assert!(!s.view().contains(NodeId(0)));
        assert_eq!(s.observe_slot(NodeId(0), true), None);
        assert_eq!(s.observe_slot(NodeId(0), true), Some(MembershipChange::Rejoined(NodeId(0))));
        assert!(s.view().contains(NodeId(0)));
        assert_eq!(s.rejoins(), 1);
    }

    #[test]
    fn interleaved_failures_reset_rejoin_progress() {
        let mut s =
            MembershipService::new(2, MembershipParams { fail_threshold: 1, rejoin_threshold: 3 });
        s.observe_slot(NodeId(0), false);
        s.observe_slot(NodeId(0), true);
        s.observe_slot(NodeId(0), true);
        s.observe_slot(NodeId(0), false); // resets success run
        s.observe_slot(NodeId(0), true);
        s.observe_slot(NodeId(0), true);
        assert!(!s.view().contains(NodeId(0)));
        assert_eq!(s.observe_slot(NodeId(0), true), Some(MembershipChange::Rejoined(NodeId(0))));
    }

    #[test]
    fn flicker_counts_accumulate() {
        let mut s =
            MembershipService::new(2, MembershipParams { fail_threshold: 1, rejoin_threshold: 1 });
        for _ in 0..5 {
            s.observe_slot(NodeId(1), false);
            s.observe_slot(NodeId(1), true);
        }
        assert_eq!(s.departures(), 5);
        assert_eq!(s.rejoins(), 5);
    }

    #[test]
    fn healthy_traffic_never_changes_view() {
        let mut s = MembershipService::new(8, MembershipParams::default());
        for round in 0..100 {
            for n in 0..8u16 {
                assert_eq!(s.observe_slot(NodeId(n), true), None, "round {round}");
            }
        }
        assert_eq!(s.view(), MembershipVector::full(8));
    }
}
