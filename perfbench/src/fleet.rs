//! The `fleet-short` and `fleet-long` workloads: fig10 mixed-fault fleets
//! through `run_fleet_configured`, pinned to [`SHARDS`] executor shards.
//!
//! A run's population is a fixed set of sub-fleets, each seeded from the
//! workload seed, so the quality figures are deterministic per seed. The
//! timed loop cycles through the sub-fleets until `--seconds` have passed
//! (and each ran once), and the rates are the population's: every
//! sub-fleet once, at the median of its run times. Every repeat of a
//! sub-fleet must reproduce its first outcome, and sub-fleet 0 must also
//! reproduce it on one shard.
//! A host calibration (see `calib`) runs between fleets, and every time
//! the run measures is corrected by the median slowdown they read.

use crate::calib;
use crate::layers::Trace;
use crate::vehicle::{add_fold, run_traced_vehicle};
use crate::{median, panic_text, print_rate, Args, RunResult, SHARDS};
use decos::analyzer::{analyze, ExperimentSpec};
use decos::diagnosis::{ActionScore, ConfusionMatrix};
use decos::fleet::{FleetOutcome, FleetRetention, FLEET_BLOCK};
use decos::fleet_exec::run_sharded;
use decos::prelude::*;
use decos::sim::rng::SeedSource;
use std::collections::BTreeMap;
use std::time::Instant;

/// Shape of a fleet workload.
pub struct FleetShape {
    pub name: &'static str,
    /// Sub-fleets in the population.
    pub subfleets: u64,
    /// Vehicles per sub-fleet.
    pub vehicles: u64,
    /// TDMA rounds per vehicle.
    pub rounds: u64,
    /// Untraced runs per sub-fleet behind the trace-overhead baseline.
    pub overhead_reps: usize,
}

/// 40-round vehicles: fixed per-vehicle setup and the fold weigh most.
pub const FLEET_SHORT: FleetShape =
    FleetShape { name: "fleet-short", subfleets: 8, vehicles: 1024, rounds: 40, overhead_reps: 3 };

/// 4000-round vehicles (the `FleetConfig` default horizon): the slot
/// pipeline does the work and diagnosis has time to convict. Twelve
/// sub-fleets fill a 30-second run once each: their costs differ by about
/// 12%, so the population's rate needs many of them.
pub const FLEET_LONG: FleetShape =
    FleetShape { name: "fleet-long", subfleets: 12, vehicles: 128, rounds: 4000, overhead_reps: 1 };

const ACCEL: f64 = 10.0;
/// Empty-fleet runs timed before each timed fleet run, behind the
/// `setup_s` median.
const SETUP_REPS: usize = 5;

/// The deterministic aggregates of a fleet run, compared bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDigest {
    pub confusion: ConfusionMatrix,
    pub decos: ActionScore,
    pub obd: ActionScore,
    pub class_counts: BTreeMap<String, u64>,
    pub class_correct: BTreeMap<String, u64>,
    pub quality_bits: u64,
    pub degraded: u64,
}

impl FleetDigest {
    /// Digests a finished fleet after checking its internal consistency.
    pub fn of(out: &FleetOutcome, vehicles: u64) -> Result<FleetDigest, String> {
        let q = out.mean_delivery_quality;
        let checks = [
            (out.decos.cases == vehicles, "integrated cases"),
            (out.obd.cases == vehicles, "baseline cases"),
            (out.confusion.total() == vehicles, "confusion total"),
            (out.class_counts.values().sum::<u64>() == vehicles, "class counts"),
            (
                out.class_correct.values().sum::<u64>() == out.decos.correct_actions,
                "per-class correct actions",
            ),
            (out.decos.nff_removals <= out.decos.removals, "NFF removals"),
            ((0.0..=1.0).contains(&q), "mean delivery quality"),
            (out.degraded_vehicles <= vehicles, "degraded vehicles"),
        ];
        if let Some((_, what)) = checks.iter().find(|(ok, _)| !ok) {
            return Err(format!("fleet of {vehicles}: inconsistent {what}"));
        }
        Ok(FleetDigest {
            confusion: out.confusion.clone(),
            decos: out.decos,
            obd: out.obd,
            class_counts: out.class_counts.clone(),
            class_correct: out.class_correct.clone(),
            quality_bits: q.to_bits(),
            degraded: out.degraded_vehicles,
        })
    }
}

/// TDMA slots per round of `spec`, for converting rounds into slots.
pub fn slots_per_round(spec: &ClusterSpec) -> Result<f64, String> {
    ClusterSim::new(spec.clone(), 0)
        .map(|sim| f64::from(sim.schedule().slots_per_round()))
        .map_err(|e| format!("cluster does not build: {e:?}"))
}

/// Sub-fleet `k` of a workload seeded with `seed`.
pub fn subfleet(shape: &FleetShape, seed: u64, k: u64) -> FleetConfig {
    FleetConfig {
        vehicles: shape.vehicles,
        rounds: shape.rounds,
        accel: ACCEL,
        seed: SeedSource::new(seed).child(k).master(),
    }
}

/// One uninstrumented fleet through the library, a panic or error turned
/// into an `Err`.
pub fn plain_fleet(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    shards: usize,
) -> Result<FleetDigest, String> {
    let opts = FleetOptions { shards: Some(shards), ..FleetOptions::default() };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_fleet_configured(spec, cfg, EngineParams::default(), &opts)
    }))
    .map_err(|p| format!("fleet seed {} panicked: {}", cfg.seed, panic_text(p)))?
    .map_err(|e| format!("fleet seed {} failed: {e}", cfg.seed))
    .and_then(|out| FleetDigest::of(&out, cfg.vehicles))
}

/// Host time before the first vehicle can start: spec construction plus
/// the library's fleet pre-flight, timed as a zero-vehicle fleet.
pub fn setup_seconds(shape: &FleetShape, seed: u64, r: &mut RunResult) -> f64 {
    let t0 = Instant::now();
    let spec = fig10::reference_spec();
    let cfg = FleetConfig { vehicles: 0, ..subfleet(shape, seed, 0) };
    if let Err(e) =
        run_fleet_configured(&spec, cfg, EngineParams::default(), &FleetOptions::default())
    {
        r.problems.push(format!("empty fleet failed its pre-flight: {e}"));
    }
    t0.elapsed().as_secs_f64()
}

/// Runs a fleet workload; see the module docs.
pub fn run(shape: &FleetShape, args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let spec = fig10::reference_spec();
    if args.trace {
        run_traced(shape, &spec, args.seed, &mut r);
        return r;
    }
    let mut setup = Vec::new();
    let spr = match slots_per_round(&spec) {
        Ok(n) => n,
        Err(e) => {
            r.problems.push(e);
            return r;
        }
    };
    let mut first: Vec<Option<FleetDigest>> = vec![None; shape.subfleets as usize];
    // Raw walls of each sub-fleet's runs.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); shape.subfleets as usize];
    let mut slowdowns = vec![calib::slowdown()];
    let mut repeated = false;
    let started = Instant::now();
    let mut i = 0u64;
    while i < shape.subfleets || started.elapsed() < args.seconds {
        let k = i % shape.subfleets;
        let cfg = subfleet(shape, args.seed, k);
        for _ in 0..SETUP_REPS {
            setup.push(setup_seconds(shape, args.seed, &mut r));
        }
        let t0 = Instant::now();
        let res = plain_fleet(&spec, cfg, SHARDS);
        let wall = t0.elapsed().as_secs_f64();
        slowdowns.push(calib::slowdown());
        r.attempted += cfg.vehicles;
        match (res, &first[k as usize]) {
            (Err(e), _) => r.fail(cfg.vehicles, e),
            (Ok(d), Some(f)) if d != *f => {
                r.fail(cfg.vehicles, format!("sub-fleet {k} repeat differs from its first run"))
            }
            (Ok(d), seen) => {
                repeated |= seen.is_some();
                first[k as usize] = Some(d);
                walls[k as usize].push(wall);
            }
        }
        i += 1;
    }
    let timed = started.elapsed().as_secs_f64();

    // Output checks outside the timed window: a same-shard repeat (when
    // the window was too short for one) and the one-shard run.
    let cfg0 = subfleet(shape, args.seed, 0);
    let mut checks = vec![(1, "one-shard")];
    if !repeated {
        checks.push((SHARDS, "repeat"));
    }
    for (shards, what) in checks {
        r.attempted += cfg0.vehicles;
        match (plain_fleet(&spec, cfg0, shards), &first[0]) {
            (Ok(d), Some(f)) if d == *f => {}
            (Ok(_), _) => r.fail(cfg0.vehicles, format!("{what} run of sub-fleet 0 differs")),
            (Err(e), _) => r.fail(cfg0.vehicles, e),
        }
    }

    let digests: Vec<&FleetDigest> = first.iter().flatten().collect();
    let vehicles: u64 = digests.iter().map(|d| d.decos.cases).sum();
    let mut decos = ActionScore::default();
    let mut obd = ActionScore::default();
    for d in &digests {
        decos.merge(&d.decos);
        obd.merge(&d.obd);
    }
    let correct_rate = decos.correct_actions as f64 / vehicles.max(1) as f64;
    // The population's rate: every sub-fleet once, at the median of its
    // walls. Summing over the sub-fleets averages out how their costs
    // differ, which a median over runs would leave to the seed.
    let ran: Vec<&Vec<f64>> = walls.iter().filter(|w| !w.is_empty()).collect();
    let population_wall: f64 = ran.iter().map(|w| median(w)).sum();
    let raw_vps = (ran.len() as u64 * shape.vehicles) as f64 / population_wall;
    let slow = median(&slowdowns);
    let vps = raw_vps * slow;
    let rps = vps * shape.rounds as f64;
    let veh_rate: Vec<f64> =
        ran.iter().flat_map(|w| w.iter().map(|t| slow * shape.vehicles as f64 / t)).collect();
    let setup: Vec<f64> = setup.iter().map(|t| t / slow).collect();
    println!(
        "{}: {} sub-fleets x {} vehicles x {} rounds, {} timed fleet runs in {:.2} s",
        shape.name,
        shape.subfleets,
        shape.vehicles,
        shape.rounds,
        veh_rate.len(),
        timed
    );
    print_rate("host slowdown", "x", &slowdowns);
    println!("  raw vehicles_per_sec {raw_vps:.5e} vehicles/s");
    println!("  corrected to the reference host speed:");
    print_rate("fleet run vehicles/s", "vehicles/s", &veh_rate);
    print_rate("setup_s", "s", &setup);
    println!("  population rates (each sub-fleet at its median wall):");
    println!("  vehicles_per_sec {vps:.5e} vehicles/s");
    println!("  slots_per_sec {:.5e} slots/s", rps * spr);
    println!("  rounds_per_sec {rps:.5e} rounds/s");
    println!("  peak_rss_mb {:.3} MB", crate::peak_rss_mb());
    println!(
        "  nff_ratio {:.6} ({} of {} removals), obd nff_ratio {:.6}, correct_action_rate {:.6} \
         ({} of {} vehicles)",
        decos.nff_ratio(),
        decos.nff_removals,
        decos.removals,
        obd.nff_ratio(),
        correct_rate,
        decos.correct_actions,
        vehicles
    );
    r.metric("vehicles_per_sec", "vehicles/s", vps);
    r.metric("slots_per_sec", "slots/s", rps * spr);
    r.metric("rounds_per_sec", "rounds/s", rps);
    r.metric("setup_s", "s", median(&setup));
    r.metric("peak_rss_mb", "MB", crate::peak_rss_mb());
    r.metric("correct_action_rate", "ratio", correct_rate);
    r
}

/// One fleet through the traced runner on [`SHARDS`] shards: the
/// library's pre-flight, then `run_sharded` over per-shard
/// `FleetAccumulator`s with every vehicle's layer calls timed.
pub fn traced_fleet(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    k: u64,
    t: &mut Trace,
) -> Result<FleetDigest, String> {
    let params = EngineParams::default();
    let t0 = Instant::now();
    let ta = Instant::now();
    let mut base = ExperimentSpec::with_campaign(spec, &[], cfg.accel, cfg.rounds);
    base.ona = params.ona;
    base.trust = params.trust;
    base.advisor = params.advisor;
    let report = analyze(&base);
    let preflight = ta.elapsed().as_nanos() as u64;
    t.analyzer_ns += preflight;
    t.analyzer_calls += 1;
    if report.has_errors() {
        return Err(format!("fleet pre-flight rejected:\n{report}"));
    }
    let parent = format!("fleet-{k}");
    let shard_ids = std::sync::atomic::AtomicUsize::new(0);
    let te = Instant::now();
    let parts = run_sharded(
        cfg.vehicles,
        FLEET_BLOCK,
        SHARDS,
        || {
            let id = shard_ids.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            (
                id,
                FleetAccumulator::new(cfg.vehicles, FleetRetention::Auto),
                Trace::default(),
                Vec::new(),
            )
        },
        |(id, acc, st, errors): &mut (usize, FleetAccumulator, Trace, Vec<String>), range| {
            let tb = Instant::now();
            for v in range {
                let (res, mut span) = run_traced_vehicle(spec, cfg, v, params, &parent, *id, st);
                match res {
                    Ok(outcome) => {
                        let ns = add_fold(acc, v, outcome, st);
                        span.self_ns[5] += ns;
                        span.dur_ns += ns;
                    }
                    Err(e) => errors.push(e),
                }
                st.spans.push(span);
            }
            st.busy_ns += tb.elapsed().as_nanos() as u64;
        },
    );
    let exec_wall = te.elapsed().as_nanos() as u64;
    let shards = parts.len() as u64;
    let mut accs = Vec::with_capacity(parts.len());
    let mut errors = Vec::new();
    let mut ft = Trace::default();
    for (_, part, st, errs) in parts {
        ft.merge(st);
        errors.extend(errs);
        accs.push(part);
    }
    let tf = Instant::now();
    let mut accs = accs.into_iter();
    let mut acc = accs.next().expect("run_sharded returns at least one shard");
    for part in accs {
        acc.merge(part);
    }
    let out = acc.finish();
    ft.finish_ns += tf.elapsed().as_nanos() as u64;
    ft.finishes += 1;
    let wall = t0.elapsed().as_nanos() as u64;
    // Capacity is shards x wall. The executor's share is what the shards
    // did not spend inside their blocks, less the serial pre-flight and
    // fold-back that the layers already count once.
    ft.exec_capacity_ns = shards * exec_wall;
    ft.capacity_ns = shards * wall;
    ft.exec_ns = ft.capacity_ns.saturating_sub(ft.busy_ns + preflight + ft.finish_ns);
    t.merge(ft);
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    FleetDigest::of(&out, cfg.vehicles)
}

fn run_traced(shape: &FleetShape, spec: &ClusterSpec, seed: u64, r: &mut RunResult) {
    let mut untraced_ns = 0f64;
    let mut traced_ns = 0f64;
    let mut trace = Trace::default();
    for k in 0..shape.subfleets {
        let cfg = subfleet(shape, seed, k);
        let mut walls = Vec::new();
        let mut reference = None;
        for _ in 0..shape.overhead_reps {
            let t0 = Instant::now();
            let res = plain_fleet(spec, cfg, SHARDS);
            walls.push(t0.elapsed().as_nanos() as f64);
            r.attempted += cfg.vehicles;
            match (res, &reference) {
                (Err(e), _) => r.fail(cfg.vehicles, e),
                (Ok(d), Some(f)) if d != *f => {
                    r.fail(cfg.vehicles, format!("sub-fleet {k} repeat differs from its first run"))
                }
                (Ok(d), _) => reference = Some(d),
            }
        }
        untraced_ns += median(&walls);
        let t0 = Instant::now();
        let res = traced_fleet(spec, cfg, k, &mut trace);
        traced_ns += t0.elapsed().as_nanos() as f64;
        r.attempted += cfg.vehicles;
        match (res, &reference) {
            (Ok(d), Some(f)) if d == *f => {}
            (Ok(_), _) => {
                r.fail(cfg.vehicles, format!("traced sub-fleet {k} differs from the library's"))
            }
            (Err(e), _) => r.fail(cfg.vehicles, e),
        }
    }
    let overhead = traced_ns / untraced_ns - 1.0;
    println!(
        "{} traced: {} sub-fleets x {} vehicles, traced wall {:.3} s, untraced median wall {:.3} s, \
         overhead {:.2}%",
        shape.name,
        shape.subfleets,
        shape.vehicles,
        traced_ns / 1e9,
        untraced_ns / 1e9,
        100.0 * overhead
    );
    trace.print_waterfall();
    trace.check(r);
    trace.push_metrics(overhead, r);
    let path = crate::out_dir().join(format!("trace-{}-{seed}.jsonl", shape.name));
    match trace.write_spans(&path) {
        Ok(()) => {
            println!("spans: {} vehicle spans written to {}", trace.spans.len(), path.display())
        }
        Err(e) => r.problems.push(format!("cannot write spans to {}: {e}", path.display())),
    }
}
