//! Regression: the steady-state slot pipeline performs no heap allocation.
//!
//! This binary installs a counting `#[global_allocator]` and holds exactly
//! one test, so no concurrent harness thread can pollute the counter. A
//! fault-free campaign over the Fig. 10 cluster is warmed up past every
//! lazily-grown structure (scratch buffers, symptom-history horizon,
//! judgement-window maps), then a measured stretch of rounds must leave the
//! allocation counter untouched — the full pipeline (simulation step,
//! integrated diagnostic engine, OBD baseline, metrics recorder) runs on
//! reused buffers alone. The same stretch is then repeated with the flight
//! recorder armed: its ring is allocated once at enable time, so recording
//! must not allocate either.

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

#[test]
fn fault_free_steady_state_allocates_nothing() {
    use decos::prelude::*;
    use decos_platform::{NullEnvironment, SlotRecord};

    let mut sim = ClusterSim::new(fig10::reference_spec(), 42).unwrap();
    let mut env = NullEnvironment;
    let mut engine = DiagnosticEngine::new(&sim, EngineParams::default());
    let mut obd = ObdDiagnosis::new(&sim, ObdParams::default());
    let mut metrics = SlotMetrics::new();
    let spr = sim.schedule().slots_per_round();
    let mut rec = SlotRecord::empty();
    // Black-box accumulator over schedule queries, so the iterator chains
    // below can't be optimized away.
    let mut query_acc = 0u64;

    let mut run_rounds = |rounds: u64,
                          sim: &mut ClusterSim,
                          engine: &mut DiagnosticEngine,
                          obd: &mut ObdDiagnosis,
                          metrics: &mut SlotMetrics,
                          rec: &mut SlotRecord| {
        for _ in 0..rounds {
            for s in 0..spr {
                sim.step_slot_into(&mut env, rec);
                engine.on_slot(sim, rec);
                obd.on_slot(sim, rec);
                metrics.on_slot(sim, rec);
                // Schedule queries ride along in every measured stretch:
                // the precomputed slot table answers per-node slot lists
                // and the sender set without building intermediate Vecs.
                let sched = sim.schedule();
                query_acc = query_acc.wrapping_add(
                    sched.slots_of(rec.owner).map(|sl| sl.0 as u64).sum::<u64>()
                        + sched.nodes().map(|n| n.0 as u64).sum::<u64>(),
                );
                if s == spr - 1 {
                    engine.on_round_end(sim, rec);
                    obd.on_round_end(sim, rec);
                    metrics.on_round_end(sim, rec);
                }
            }
        }
    };

    // Warm-up: past the 512-round symptom-history horizon (so eviction and
    // buffer recycling are active) and through several 50-round judgement
    // windows (so the α-count maps are fully populated).
    run_rounds(600, &mut sim, &mut engine, &mut obd, &mut metrics, &mut rec);

    let before = ALLOCATIONS.load(Relaxed);
    run_rounds(256, &mut sim, &mut engine, &mut obd, &mut metrics, &mut rec);
    let after = ALLOCATIONS.load(Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state fault-free pipeline must not allocate (got {} allocations over 256 rounds)",
        after - before
    );
    assert_eq!(metrics.rounds, 856);
    assert!(metrics.messages_sent > 0, "the cluster must actually be carrying traffic");

    // The flight recorder holds it too: the ring is allocated once at
    // enable time, events are written in place, and a fault-free run emits
    // nothing (symptom/ONA/trust events are edge- or delta-triggered, all
    // zero without injected faults).
    engine.enable_flightrec(decos::sim::flightrec::DEFAULT_CAPACITY);
    run_rounds(64, &mut sim, &mut engine, &mut obd, &mut metrics, &mut rec);

    let before = ALLOCATIONS.load(Relaxed);
    run_rounds(256, &mut sim, &mut engine, &mut obd, &mut metrics, &mut rec);
    let after = ALLOCATIONS.load(Relaxed);

    assert_eq!(
        after - before,
        0,
        "flight-recorder-armed steady state must not allocate (got {} allocations)",
        after - before
    );
    assert!(engine.flightrec().enabled(), "recorder stays armed through the measured stretch");
    assert_eq!(engine.flightrec().recorded(), 0, "a fault-free run writes no trace events");
    assert!(query_acc > 0, "schedule queries must have produced sender/slot sums");
}
