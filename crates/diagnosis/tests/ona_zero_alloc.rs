//! Regression: the ONA round close allocates nothing once warmed up, also
//! while the job-inherent classifier runs every round.
//!
//! This binary installs a counting `#[global_allocator]` and holds exactly
//! one test, so no concurrent harness thread can pollute the counter. Each
//! campaign puts a value-domain fault on one fig10 job, so the job-level
//! patterns gather symptomatic jobs and classify them every round (stuck,
//! drift and software verdicts). Only `OnaBank::evaluate_round_into` is
//! measured: the simulation, the detectors and the state ingestion (whose
//! per-job value series grows until its cap) run outside the count.

use decos_diagnosis::{DistributedState, OnaBank, OnaParams, PatternMatch, SymptomDetectors};
use decos_faults::campaign::{sensor_campaign, software_campaign};
use decos_faults::{FaultEnvironment, FaultKind, FaultSpec};
use decos_platform::{fig10, ClusterSim};
use decos_sim::{SeedSource, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `faults` for `warmup + measured` rounds and returns the
/// allocations made inside the ONA round close over the measured rounds,
/// plus the pattern names matched there.
fn ona_allocations(faults: Vec<FaultSpec>, warmup: u64, measured: u64) -> (u64, Vec<&'static str>) {
    let spec = fig10::reference_spec();
    let mut env = FaultEnvironment::for_cluster(faults, &spec, 10.0, SeedSource::new(21));
    let mut sim = ClusterSim::new(spec, 77).unwrap();
    let spr = sim.schedule().slots_per_round();
    let mut det = SymptomDetectors::new(&sim);
    let mut ds = DistributedState::new(512, SimDuration::from_millis(400));
    let mut bank = OnaBank::new(&sim, OnaParams::default());
    let mut batch = Vec::new();
    let mut out: Vec<PatternMatch> = Vec::with_capacity(64);
    let mut allocations = 0;
    let mut patterns = Vec::new();
    for r in 0..warmup + measured {
        for _ in 0..spr {
            let rec = sim.step_slot(&mut env);
            det.detect(&sim, &rec, &mut batch);
        }
        let now = sim.now();
        ds.ingest_round(now, std::mem::take(&mut batch));
        let before = ALLOCATIONS.load(Relaxed);
        bank.evaluate_round_into(now, &ds, &mut out);
        let after = ALLOCATIONS.load(Relaxed);
        if r >= warmup {
            allocations += after - before;
            patterns.extend(out.iter().map(|m| m.pattern));
        }
    }
    patterns.sort_unstable();
    patterns.dedup();
    (allocations, patterns)
}

#[test]
fn job_inherent_round_close_allocates_nothing() {
    let cases = [
        ("stuck", sensor_campaign(fig10::jobs::A1, FaultKind::SensorStuck { value: 99.0 })),
        ("drift", sensor_campaign(fig10::jobs::S1, FaultKind::SensorDrift { per_hour: 5000.0 })),
        ("software", software_campaign(fig10::jobs::A1, false)),
    ];
    for (name, faults) in cases {
        let (allocations, patterns) = ona_allocations(faults, 300, 200);
        assert!(
            patterns.iter().any(|p| p.starts_with("transducer-") || *p == "software-design"),
            "{name}: the job-inherent classifier must run in the measured rounds, got {patterns:?}"
        );
        assert_eq!(
            allocations, 0,
            "{name}: the warmed-up ONA round close must not allocate ({patterns:?})"
        );
    }
}
