//! # decos-sim — deterministic simulation substrate
//!
//! Foundation crate of the DECOS integrated-diagnostic-architecture
//! reproduction. Provides:
//!
//! * [`time`] — nanosecond-granular simulated time ([`SimTime`],
//!   [`SimDuration`]);
//! * [`rng`] — named, seeded random streams ([`SeedSource`]) so every
//!   experiment is reproducible from one `u64` seed;
//! * [`stats`] — allocation-free streaming statistics used by both the
//!   workload generators and the diagnostic trend detectors;
//! * [`telemetry`] — preallocated, registry-keyed counters and gauges
//!   for the slot pipeline (off by default; see DESIGN.md §11);
//! * [`flightrec`] — a bounded, zero-alloc-in-steady-state flight
//!   recorder of causal fault-lifecycle events, plus the per-fault
//!   latency fold behind the `detect_latency`/`convict_latency` metrics
//!   (DESIGN.md §11).
//!
//! There is no event queue here: the core network is time-triggered, so a
//! run advances through the TDMA slot loop of `decos_platform::ClusterSim`.
//! A run is deliberately single-threaded: its determinism outweighs
//! intra-run parallelism. Fleet-scale experiments parallelise *across*
//! runs (see `decos::fleet`), which is embarrassingly parallel.

pub mod flightrec;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use flightrec::{
    FaultLifecycle, FaultRecord, FlightRecorder, FlightRecording, TraceEvent, TraceEventKind,
};
pub use rng::{SampleExt, SeedSource};
pub use telemetry::{Counter, CounterSet, Gauge, GaugeSet, TelemetrySnapshot};
pub use time::{SimDuration, SimTime};
