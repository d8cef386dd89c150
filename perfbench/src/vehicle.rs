//! The traced runner: one campaign, or one fleet vehicle, run through the
//! layers' public calls in the order `decos::runner::run_campaign_opts`
//! and `decos::fleet` make them (telemetry and flight recorder off), with
//! each call timed from here. Its outcomes are checked bit for bit against
//! the library's own entry points, so it cannot drift from them unnoticed.

use crate::layers::{now_ns, Trace, VehicleSpan};
use decos::diagnosis::{score_case, DiagnosticReport, ObdReport};
use decos::faults::campaign::sample_mixed_fault;
use decos::faults::FaultEnvironment;
use decos::fleet::{FleetConfig, VehicleOutcome};
use decos::platform::{Environment, SlotRecord};
use decos::prelude::*;
use decos::sim::rng::{splitmix64, SeedSource};
use std::time::Instant;

/// What a traced campaign produced: the parts of a `CampaignOutcome` the
/// checks compare.
pub struct TracedOutcome {
    pub report: DiagnosticReport,
    pub obd: ObdReport,
    pub episodes: usize,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs campaign `c` through the layers' public calls, timing each layer
/// into `t`. `on_round` runs after the engine and the baseline closed each
/// round, inside the round's sink, like the library's per-slot observer;
/// its time is excluded from the platform's self-time.
pub fn traced_campaign(
    c: &Campaign,
    params: EngineParams,
    t: &mut Trace,
    mut on_round: impl FnMut(&ClusterSim, &DiagnosticEngine, u64, &mut Trace),
) -> Result<TracedOutcome, String> {
    let t0 = Instant::now();
    let analysis = c.analyze(&params);
    t.analyzer_ns += ns_since(t0);
    t.analyzer_calls += 1;
    if analysis.has_errors() {
        return Err(format!("campaign rejected by the analyzer:\n{analysis}"));
    }

    let t0 = Instant::now();
    let mut sim = ClusterSim::new(c.spec.clone(), c.seed).map_err(|e| format!("{e:?}"))?;
    t.platform_new_ns += ns_since(t0);

    let t0 = Instant::now();
    let mut env = FaultEnvironment::for_cluster(
        c.faults.clone(),
        &c.spec,
        c.accel,
        SeedSource::new(c.seed).child(1),
    );
    t.faults_ns += ns_since(t0);

    let t0 = Instant::now();
    let mut engine = DiagnosticEngine::try_new(&sim, params).map_err(|e| format!("{e:?}"))?;
    let mut diag_seed = c.seed ^ 0xD1A6_0000_0000_0000;
    engine.reseed_diag(splitmix64(&mut diag_seed));
    t.diag_new_ns += ns_since(t0);

    let t0 = Instant::now();
    let mut obd = ObdDiagnosis::new(&sim, ObdParams::default());
    t.baseline_ns += ns_since(t0);

    let spr = sim.schedule().slots_per_round();
    let mut rec = SlotRecord::empty();
    for round in 0..c.rounds {
        // The same window the cluster probes before batching the round.
        let plan = sim.round_plan();
        let quiescent = env.window_quiescent(plan.round_start(round), plan.round_start(round + 1));
        t.quiescent_rounds += u64::from(quiescent);
        let mut sink_ns = 0u64;
        let step = Instant::now();
        sim.step_round_with(&mut env, &mut rec, &mut |sim, env, rec| {
            let a = Instant::now();
            engine.inject_disturbance(env.diag_disturbance());
            let b = Instant::now();
            engine.on_slot(sim, rec);
            let closes = rec.addr.slot.0 == spr - 1;
            let c_ = Instant::now();
            let diag = (c_ - b).as_nanos() as u64;
            if closes {
                t.diag_close_ns += diag;
                t.diag_close_calls += 1;
            } else {
                t.diag_slot_ns += diag;
                t.diag_slot_calls += 1;
            }
            obd.on_slot(sim, rec);
            if closes {
                engine.on_round_end(sim, rec);
                obd.on_round_end(sim, rec);
            }
            t.baseline_slot_ns += ns_since(c_);
            t.baseline_slot_calls += 1;
            if closes {
                on_round(sim, &engine, rec.addr.round, t);
            }
            sink_ns += ns_since(a);
        });
        t.step_self_ns += ns_since(step).saturating_sub(sink_ns);
    }
    t.rounds += c.rounds;
    t.slots += c.rounds * u64::from(spr);

    let end = sim.now();
    let t0 = Instant::now();
    let report = engine.report();
    t.diag_report_ns += ns_since(t0);
    let t0 = Instant::now();
    let obd = obd.report(end);
    t.baseline_ns += ns_since(t0);

    let stats = engine.dissemination_stats();
    t.symptoms += stats.offered;
    t.ona_matches += engine.ona_matches();
    t.activations += env.log().windows.len() as u64;
    t.units += 1;
    Ok(TracedOutcome { report, obd, episodes: env.log().windows.len() })
}

/// Runs vehicle `index` of a fleet the way `decos::fleet` does (sampled
/// mixed fault, no base faults) and scores it. The fold itself is the
/// caller's, so the caller adds its time to the span.
pub fn traced_vehicle(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    index: u64,
    params: EngineParams,
    t: &mut Trace,
) -> Result<VehicleOutcome, String> {
    let seeds = SeedSource::new(cfg.seed);
    let t0 = Instant::now();
    let (vspec, faults) = sample_mixed_fault(spec, seeds, index);
    t.faults_ns += ns_since(t0);
    let (truth_fru, truth_class) = (faults[0].target, faults[0].class());
    let campaign = Campaign {
        spec: vspec,
        faults,
        accel: cfg.accel,
        rounds: cfg.rounds,
        seed: seeds.child(index).master(),
    };
    let out = traced_campaign(&campaign, params, t, |_, _, _, _| {})?;

    let t0 = Instant::now();
    let decos_actions = out.report.actions();
    let decos_class = out.report.verdict_of(truth_fru).and_then(|v| v.class);
    t.diag_report_ns += ns_since(t0);
    let t0 = Instant::now();
    let obd_actions: Vec<(FruRef, MaintenanceAction)> = out
        .obd
        .replacements
        .iter()
        .map(|n| (FruRef::Component(*n), MaintenanceAction::ReplaceComponent))
        .collect();
    t.baseline_ns += ns_since(t0);

    let t0 = Instant::now();
    let outcome = VehicleOutcome {
        truth_class,
        truth_fru,
        decos_class,
        decos: score_case(truth_fru, truth_class, &decos_actions),
        obd: score_case(truth_fru, truth_class, &obd_actions),
        delivery_quality: out.report.delivery_quality,
        degraded: out.report.degraded,
        failovers: out.report.failovers,
        crashed_rounds: out.report.crashed_rounds,
    };
    t.fold_ns += ns_since(t0);
    Ok(outcome)
}

/// Runs one vehicle under a fresh per-vehicle trace, catching a panic as
/// a failed vehicle. Returns its outcome and its span; the per-vehicle
/// trace merges into `t`. The caller folds the outcome and adds the fold's
/// time with [`add_fold`].
pub fn run_traced_vehicle(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    index: u64,
    params: EngineParams,
    parent: &str,
    thread: usize,
    t: &mut Trace,
) -> (Result<VehicleOutcome, String>, VehicleSpan) {
    let start = now_ns();
    let wall = Instant::now();
    let mut vt = Trace::default();
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        traced_vehicle(spec, cfg, index, params, &mut vt)
    }))
    .unwrap_or_else(|p| Err(format!("vehicle {index} panicked: {}", crate::panic_text(p))));
    let dur = ns_since(wall);
    vt.vehicle_ns.push(dur);
    let span = VehicleSpan {
        parent: parent.to_string(),
        vehicle: index,
        thread,
        start_ns: start,
        dur_ns: dur,
        self_ns: vt.layer_ns(),
    };
    t.merge(vt);
    (res, span)
}

/// Folds one vehicle into `acc`, charges the fold to the fleet layer and
/// returns its time.
pub fn add_fold(
    acc: &mut FleetAccumulator,
    index: u64,
    outcome: VehicleOutcome,
    t: &mut Trace,
) -> u64 {
    let t0 = Instant::now();
    acc.record(index, outcome, None);
    let ns = ns_since(t0);
    t.fold_ns += ns;
    t.fold_calls += 1;
    ns
}
