//! Crash-safe event-sourced campaign store.
//!
//! Long-horizon fleet histories — the NFF ratios, wearout replacement
//! waves and FRU-return Paretos the paper's economics stand on — outlive
//! any single process. This crate makes them a durable artifact: an
//! append-only journal of per-round deltas ([`codec::RoundDelta`]) framed
//! as CRC-checked binary records ([`frame`]), plus periodic full snapshots
//! (opaque JSON documents written atomically), under a small manifest that
//! pins the experiment the store belongs to.
//!
//! Recovery is robust by construction: [`Store::open`] scan-validates the
//! journal, truncates at the first torn or CRC-failing record, and
//! quarantines the severed tail to a sidecar file instead of deleting it.
//! A committed (synced) record is never lost; an uncommitted (torn) one is
//! never resurrected.
//!
//! The persistence layer is itself a fault-injection target, extending the
//! "subject the diagnostic path to its own fault model" philosophy to
//! storage: all I/O goes through the [`io::StoreIo`] trait, and
//! [`io::FaultIo`] simulates short writes, crash-at-offset, bit flips and
//! ENOSPC so crash-matrix tests can kill the writer at every byte boundary.

pub mod atomic;
pub mod codec;
pub mod frame;
pub mod io;
pub mod store;

pub use atomic::write_atomic;
pub use codec::{CodecError, RoundDelta, ROUND_DELTA_KIND, VEHICLE_KIND};
pub use frame::{scan, ScanOutcome, ScanRecord, TornReason};
pub use io::{FaultIo, FaultPlan, FsIo, StoreIo};
pub use store::{
    fnv1a, fnv1a_extend, Manifest, Store, StoreError, StoreStats, JOURNAL_FILE, QUARANTINE_DIR,
    SNAP_DIR, STORE_SCHEMA,
};
