//! # decos-timebase — global time base of the DECOS core architecture
//!
//! Implements the temporal substrate the integrated diagnostic architecture
//! relies on:
//!
//! * [`clock`] — local clocks with drift, degradation and correction
//!   ([`LocalClock`]); quartz faults manifest here;
//! * [`sync`] — fault-tolerant-average clock synchronization (core service
//!   C2), precision bounds and per-node sync-loss monitoring;
//! * [`sparse`] — the sparse time base / action lattice ([`ActionLattice`])
//!   on which the diagnostic distributed state is established (§V-A).

pub mod clock;
pub mod sparse;
pub mod sync;

pub use clock::LocalClock;
pub use sparse::{ActionLattice, LatticePoint, SparseOrder};
pub use sync::{
    fta_round, fta_round_in_place, fta_round_sorted, precision_bound_ns, SyncMonitor, SyncRound,
    SyncStatus,
};
