//! TDMA media-access schedule.
//!
//! The time-triggered core network divides time into *rounds*; each round is
//! a fixed sequence of *slots*, each statically assigned to one sending
//! component. The schedule is global a-priori knowledge: every correct
//! component knows, for every instant, who is allowed to transmit — the
//! foundation of both temporal fault isolation (bus guardians) and the
//! detection of transient failures longer than one slot (§III-E:
//! "transient failures longer than the length of a slot of the TDMA round
//! can be detected by other FRUs").

use crate::frame::NodeId;
use decos_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Position of a slot within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotIndex(pub u16);

/// A fully resolved position on the global TDMA timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotAddress {
    /// Round number since time zero.
    pub round: u64,
    /// Slot within the round.
    pub slot: SlotIndex,
}

/// The static TDMA schedule of a cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TdmaSchedule {
    slot_len: SimDuration,
    /// Sender of each slot, in round order. A component may own several
    /// slots per round.
    owners: Vec<NodeId>,
}

impl TdmaSchedule {
    /// Builds a schedule from per-slot owners and a common slot length.
    pub fn new(owners: Vec<NodeId>, slot_len: SimDuration) -> Self {
        assert!(!owners.is_empty(), "schedule needs at least one slot");
        assert!(slot_len > SimDuration::ZERO, "slot length must be positive");
        TdmaSchedule { slot_len, owners }
    }

    /// Round-robin schedule: one slot per node, nodes `0..n`.
    pub fn round_robin(n: u16, slot_len: SimDuration) -> Self {
        assert!(n > 0);
        TdmaSchedule::new((0..n).map(NodeId).collect(), slot_len)
    }

    /// Slot length.
    pub fn slot_len(&self) -> SimDuration {
        self.slot_len
    }

    /// Number of slots per round.
    pub fn slots_per_round(&self) -> u16 {
        self.owners.len() as u16
    }

    /// Round duration.
    pub fn round_len(&self) -> SimDuration {
        self.slot_len * self.owners.len() as u64
    }

    /// Owner of a slot.
    pub fn owner(&self, slot: SlotIndex) -> NodeId {
        self.owners[slot.0 as usize]
    }

    /// All slots owned by `node` within one round, in slot order.
    ///
    /// Allocation-free: the hot path queries slot ownership every round, so
    /// this must not build a `Vec` per call.
    pub fn slots_of(&self, node: NodeId) -> impl Iterator<Item = SlotIndex> + '_ {
        self.owners
            .iter()
            .enumerate()
            .filter(move |(_, &o)| o == node)
            .map(|(i, _)| SlotIndex(i as u16))
    }

    /// Distinct senders in the schedule, in first-appearance order.
    ///
    /// Allocation-free; quadratic in the slot count, which is bounded by
    /// `u16` and in practice a handful of slots per round.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.owners
            .iter()
            .enumerate()
            .filter(|&(i, o)| !self.owners[..i].contains(o))
            .map(|(_, &o)| o)
    }

    /// Precomputes the flat per-round dispatch table.
    ///
    /// Built once per campaign; the hot loop then walks `plan.slots()`
    /// with pure array indexing instead of re-resolving `owner()` /
    /// `slot_at()` / `start_of()` arithmetic every slot.
    pub fn round_plan(&self) -> RoundPlan {
        let slot_len_ns = self.slot_len.as_nanos();
        let slots = self
            .owners
            .iter()
            .enumerate()
            .map(|(i, &owner)| PlannedSlot {
                slot: SlotIndex(i as u16),
                owner,
                start_offset_ns: i as u64 * slot_len_ns,
                deadline_offset_ns: (i as u64 + 1) * slot_len_ns,
            })
            .collect();
        RoundPlan { slots, round_len_ns: self.round_len().as_nanos() }
    }

    /// The slot address active at instant `t`.
    pub fn slot_at(&self, t: SimTime) -> SlotAddress {
        let round_ns = self.round_len().as_nanos();
        let round = t.as_nanos() / round_ns;
        let within = t.as_nanos() % round_ns;
        SlotAddress { round, slot: SlotIndex((within / self.slot_len.as_nanos()) as u16) }
    }

    /// Nominal start instant of a slot address.
    pub fn start_of(&self, addr: SlotAddress) -> SimTime {
        debug_assert!((addr.slot.0 as usize) < self.owners.len());
        SimTime::from_nanos(
            addr.round * self.round_len().as_nanos()
                + addr.slot.0 as u64 * self.slot_len.as_nanos(),
        )
    }

    /// The slot address following `addr`.
    pub(crate) fn next(&self, addr: SlotAddress) -> SlotAddress {
        if (addr.slot.0 as usize) + 1 < self.owners.len() {
            SlotAddress { round: addr.round, slot: SlotIndex(addr.slot.0 + 1) }
        } else {
            SlotAddress { round: addr.round + 1, slot: SlotIndex(0) }
        }
    }

    /// Iterator over slot addresses starting at `from`, inclusive.
    pub fn iter_from(&self, from: SlotAddress) -> impl Iterator<Item = SlotAddress> + '_ {
        let mut cur = from;
        core::iter::from_fn(move || {
            let out = cur;
            cur = self.next(cur);
            Some(out)
        })
    }
}

/// One entry of a [`RoundPlan`]: everything the dispatch loop needs about
/// a slot, resolved ahead of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedSlot {
    /// Position within the round.
    pub slot: SlotIndex,
    /// Statically assigned sender.
    pub owner: NodeId,
    /// Nominal start, as an offset from the round start in ns.
    pub start_offset_ns: u64,
    /// Nominal end of the slot (receive deadline), as an offset from the
    /// round start in ns.
    pub deadline_offset_ns: u64,
}

/// Flat per-round dispatch table precomputed from a [`TdmaSchedule`].
///
/// The schedule is static for the lifetime of a cluster, so every quantity
/// the per-slot loop needs — owner, start instant, deadline — is a pure
/// function of `(round, slot)`. Resolving them once up front turns the hot
/// loop's schedule queries into indexed loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    slots: Vec<PlannedSlot>,
    round_len_ns: u64,
}

impl RoundPlan {
    /// The planned slots of one round, in transmission order.
    pub fn slots(&self) -> &[PlannedSlot] {
        &self.slots
    }

    /// Nominal start instant of round `round`.
    pub fn round_start(&self, round: u64) -> SimTime {
        SimTime::from_nanos(round * self.round_len_ns)
    }

    /// Nominal start instant of slot `k` of round `round`.
    pub fn start_of(&self, round: u64, k: usize) -> SimTime {
        SimTime::from_nanos(round * self.round_len_ns + self.slots[k].start_offset_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> TdmaSchedule {
        // 4 slots: N0, N1, N2, N0 (N0 owns two slots), 1 ms each.
        TdmaSchedule::new(
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0)],
            SimDuration::from_millis(1),
        )
    }

    #[test]
    fn geometry() {
        let s = sched();
        assert_eq!(s.slots_per_round(), 4);
        assert_eq!(s.round_len(), SimDuration::from_millis(4));
        assert_eq!(s.owner(SlotIndex(1)), NodeId(1));
        assert_eq!(s.slots_of(NodeId(0)).collect::<Vec<_>>(), vec![SlotIndex(0), SlotIndex(3)]);
        assert_eq!(s.nodes().collect::<Vec<_>>(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn round_plan_matches_schedule_arithmetic() {
        let s = sched();
        let plan = s.round_plan();
        assert_eq!(plan.slots().len(), 4);
        assert_eq!(plan.round_len_ns, s.round_len().as_nanos());
        for round in [0u64, 1, 7] {
            for (k, p) in plan.slots().iter().enumerate() {
                let addr = SlotAddress { round, slot: SlotIndex(k as u16) };
                assert_eq!(p.slot, addr.slot);
                assert_eq!(p.owner, s.owner(addr.slot));
                assert_eq!(plan.start_of(round, k), s.start_of(addr));
                assert_eq!(
                    p.deadline_offset_ns - p.start_offset_ns,
                    s.slot_len().as_nanos(),
                    "deadline is the end of the slot"
                );
            }
            assert_eq!(
                plan.round_start(round),
                s.start_of(SlotAddress { round, slot: SlotIndex(0) })
            );
        }
    }

    #[test]
    fn slot_lookup_and_start_roundtrip() {
        let s = sched();
        let t = SimTime::from_micros(5_500); // 5.5 ms → round 1, slot 1
        let addr = s.slot_at(t);
        assert_eq!(addr, SlotAddress { round: 1, slot: SlotIndex(1) });
        assert_eq!(s.start_of(addr), SimTime::from_millis(5));
        // Slot boundaries belong to the starting slot.
        let b = s.slot_at(SimTime::from_millis(4));
        assert_eq!(b, SlotAddress { round: 1, slot: SlotIndex(0) });
    }

    #[test]
    fn next_wraps_rounds() {
        let s = sched();
        let last = SlotAddress { round: 7, slot: SlotIndex(3) };
        assert_eq!(s.next(last), SlotAddress { round: 8, slot: SlotIndex(0) });
        let mid = SlotAddress { round: 7, slot: SlotIndex(1) };
        assert_eq!(s.next(mid), SlotAddress { round: 7, slot: SlotIndex(2) });
    }

    #[test]
    fn iterator_walks_the_timeline() {
        let s = sched();
        let addrs: Vec<SlotAddress> =
            s.iter_from(SlotAddress { round: 0, slot: SlotIndex(2) }).take(4).collect();
        assert_eq!(
            addrs,
            vec![
                SlotAddress { round: 0, slot: SlotIndex(2) },
                SlotAddress { round: 0, slot: SlotIndex(3) },
                SlotAddress { round: 1, slot: SlotIndex(0) },
                SlotAddress { round: 1, slot: SlotIndex(1) },
            ]
        );
    }

    #[test]
    fn round_robin_builder() {
        let s = TdmaSchedule::round_robin(5, SimDuration::from_micros(500));
        assert_eq!(s.slots_per_round(), 5);
        assert_eq!(s.nodes().count(), 5);
        assert_eq!(s.round_len(), SimDuration::from_micros(2500));
    }

    #[test]
    #[should_panic]
    fn empty_schedule_rejected() {
        TdmaSchedule::new(vec![], SimDuration::from_millis(1));
    }
}
