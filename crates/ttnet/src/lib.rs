//! # decos-ttnet — time-triggered core network (core services C1–C4)
//!
//! Executable model of the physical core network the DECOS integrated
//! architecture is built on:
//!
//! * [`crc`] — CRC-32 frame protection;
//! * [`frame`] — frames, node identities and per-slot receiver judgments;
//! * [`schedule`] — the global TDMA schedule (predictable transport, C1);
//! * [`guardian`] — bus guardians (strong fault isolation, C3);
//! * [`bus`] — the broadcast channel resolution given transmit- and
//!   receive-side disturbances;
//! * [`membership`] — consistent diagnosis of failing nodes (C4).
//!
//! Clock synchronization (C2) lives in `decos-timebase`; this crate consumes
//! its send-instant offsets. All protocol logic is pure — orchestration by
//! the discrete-event engine happens in `decos-platform` — so each service
//! is independently testable and cheap to benchmark.

pub mod bus;
pub mod crc;
pub mod frame;
pub mod guardian;
pub mod membership;
pub mod schedule;

pub use bus::{
    BroadcastBus, ChannelParams, ResolveScratch, RxDisturbance, SlotVerdict, TxAttempt, TxSignal,
};
pub use frame::{Frame, NodeId, SlotObservation};
pub use guardian::GuardianMode;
pub use membership::{MembershipChange, MembershipParams, MembershipService, MembershipVector};
pub use schedule::{PlannedSlot, RoundPlan, SlotAddress, SlotIndex, TdmaSchedule};
