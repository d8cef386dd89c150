//! Regenerates the paper's figures as data: one subcommand per experiment.
//!
//! ```sh
//! cargo run --release -p decos-bench --bin repro -- all
//! cargo run --release -p decos-bench --bin repro -- e5-bathtub --json
//! cargo run --release -p decos-bench --bin repro -- e9-actions --effort 0.2
//! ```
//!
//! Flight recorder (DESIGN.md §11):
//!
//! ```sh
//! # Record a fault-lifecycle dump of the reference connector campaign.
//! cargo run --release -p decos-bench --bin repro -- --flightrec flightrec.jsonl
//! # Render a dump as a fault timeline + latency table.
//! cargo run --release -p decos-bench --bin repro -- trace-report flightrec.jsonl
//! ```
//!
//! Fleet scale (DESIGN.md §16):
//!
//! ```sh
//! # Stream the million-vehicle fleet through the sharded executor.
//! cargo run --release -p decos-bench --bin repro -- fleet --vehicles 1_000_000
//! # Pin the shard count (default: available parallelism).
//! cargo run --release -p decos-bench --bin repro -- fleet --vehicles 50_000 --shards 2
//! ```
//!
//! Numeric flags parse strictly: `--vehicles 24x` is a usage error
//! (exit 2), never a silent fallback to the default workload, and `_`
//! digit separators are accepted (`1_000_000`).
//!
//! Crash-safe persistence (DESIGN.md §15):
//!
//! ```sh
//! # Journal the reference campaign / the fig10 fleet as it runs.
//! cargo run --release -p decos-bench --bin repro -- campaign --store /tmp/c1
//! cargo run --release -p decos-bench --bin repro -- fleet --store /tmp/f1 --vehicles 24
//! # Continue after a crash (or extend the horizon) — bit-identical resume.
//! cargo run --release -p decos-bench --bin repro -- resume /tmp/c1 --rounds 4000
//! # Inspect a store without mutating it.
//! cargo run --release -p decos-bench --bin repro -- store-stat /tmp/c1
//! ```
//!
//! Exit codes are one-per-failure-class (`decos_bench::exitcode`,
//! README §"Exit codes"): 0 ok, 1 failure, 2 usage, 3 spec rejected,
//! 4 store corrupt, 5 determinism mismatch.

use std::time::Instant;

use decos_bench::experiments as exp;
use decos_bench::{cliflags, exitcode, flightdump, fmt_nff, storecli, Effort};

/// Rounds per vehicle of the default `repro fleet` workload. Not scaled
/// by effort: effort scales the vehicle count only, so vehicles/sec
/// measures the same per-vehicle workload at every effort.
const FLEET_ROUNDS: u64 = 40;

/// Vehicles of the default `repro fleet` workload at effort 1.0 (10⁶).
const FLEET_VEHICLES: u64 = 1_000_000;

const IDS: &[&str] = &[
    "e1-architecture",
    "e2-taxonomy",
    "e3-component",
    "e4-job",
    "e5-bathtub",
    "e6-patterns",
    "e7-trust",
    "e8-judgment",
    "e9-actions",
    "e10-assumptions",
    "e11-alpha",
    "e12-ablation",
    "e13-service-loop",
    "e14-diag-degradation",
];

fn run_one(id: &str, effort: Effort, json: bool) {
    macro_rules! emit {
        ($result:expr) => {{
            let r = $result;
            if json {
                println!("{}", serde_json::to_string_pretty(&r).expect("serializable"));
            } else {
                println!("{}", r.render());
            }
        }};
    }
    match id {
        "e1-architecture" => emit!(exp::e1_architecture()),
        "e2-taxonomy" => emit!(exp::e2_taxonomy(effort)),
        "e3-component" => emit!(exp::e3_component(effort)),
        "e4-job" => emit!(exp::e4_job(effort)),
        "e5-bathtub" => emit!(exp::e5_bathtub(effort)),
        "e6-patterns" => emit!(exp::e6_patterns(effort)),
        "e7-trust" => emit!(exp::e7_trust(effort)),
        "e8-judgment" => emit!(exp::e8_judgment(effort)),
        "e9-actions" => emit!(exp::e9_actions(effort)),
        "e10-assumptions" => emit!(exp::e10_assumptions(effort)),
        "e11-alpha" => emit!(exp::e11_alpha(effort)),
        "e12-ablation" => emit!(exp::e12_ablation(effort)),
        "e13-service-loop" => emit!(exp::e13_service_loop(effort)),
        "e14-diag-degradation" => emit!(exp::e14_diag_degradation(effort)),
        other => {
            eprintln!("unknown experiment '{other}'; available: {IDS:?} or 'all'");
            std::process::exit(exitcode::USAGE);
        }
    }
}

/// Records a flight-recorder dump of the reference connector campaign and
/// always writes it — the on-anomaly policy applies to experiment sweeps,
/// not to an explicit dump request.
fn run_flightrec(path: &str, effort: Effort) {
    use decos::prelude::*;
    let rounds = effort.scale(2_000);
    let c = Campaign::reference(
        decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
        10.0,
        rounds,
        2026,
    );
    let opts = RunOptions { telemetry: true, flightrec: true, ..Default::default() };
    let out = decos::runner::run_campaign_opts(&c, EngineParams::default(), opts, |_, _, _| {})
        .unwrap_or_else(|e| {
            eprintln!("flightrec campaign failed: {e}");
            std::process::exit(exitcode::FAILURE);
        });
    let trace = out.trace.as_ref().expect("flightrec on");
    flightdump::write_flightrec(trace, path).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(exitcode::FAILURE);
    });
    println!(
        "{path}: {} events ({} overwritten), anomalous={}",
        trace.events.len(),
        trace.dropped,
        flightdump::is_anomalous(&out)
    );
}

/// Renders a `decos-flightrec/1` dump as a fault timeline + latency table.
fn run_trace_report(path: &str) {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(exitcode::FAILURE);
    });
    let events = flightdump::read_flightrec(&body).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(exitcode::FAILURE);
    });
    print!("{}", flightdump::render_trace_report(&events));
}

/// Strict numeric flag lookup ([`cliflags::numeric_flag`]): a present
/// flag with a missing or malformed value is a usage error (exit 2),
/// never a silent fallback to the default workload.
fn numeric_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    cliflags::numeric_flag(args, name).unwrap_or_else(|msg| {
        eprintln!("usage error: {msg}");
        std::process::exit(exitcode::USAGE);
    })
}

/// `repro fleet` without `--store`: one timed streaming run of the
/// sharded fleet executor on the fig10 reference spec (DESIGN.md §16).
/// Defaults to effort × 10⁶ vehicles, [`FLEET_ROUNDS`] rounds each.
/// Telemetry is on so the summary can print the fingerprint hash.
fn run_fleet_scale(o: &storecli::StoreCliOpts, effort: Effort) {
    use decos::prelude::*;
    let cfg = FleetConfig {
        vehicles: o.vehicles.unwrap_or_else(|| effort.scale(FLEET_VEHICLES)),
        rounds: o.rounds.unwrap_or(FLEET_ROUNDS),
        accel: o.accel.unwrap_or(10.0),
        seed: o.seed.unwrap_or(2026),
    };
    let opts = FleetOptions { telemetry: true, shards: o.shards, ..FleetOptions::default() };
    let t0 = Instant::now();
    match run_fleet_configured(&fig10::reference_spec(), cfg, EngineParams::default(), &opts) {
        Ok(out) => {
            let wall_secs = t0.elapsed().as_secs_f64();
            let snap = out.telemetry.as_ref().expect("telemetry on");
            let slots = snap.counter("slots_simulated").unwrap_or(0);
            println!(
                "fleet vehicles={} rounds={} seed={} shards={}: {:.2}s wall, \
                 {:.0} vehicles/sec, {:.0} slots/sec",
                cfg.vehicles,
                cfg.rounds,
                cfg.seed,
                o.shards.map_or_else(|| "auto".to_string(), |s| s.to_string()),
                wall_secs,
                cfg.vehicles as f64 / wall_secs,
                slots as f64 / wall_secs,
            );
            println!(
                "  nff={} degraded={} retained={}/{} (stride {}) fingerprint_hash={:016x}",
                fmt_nff(&out.decos),
                out.degraded_vehicles,
                out.vehicles.len(),
                out.vehicles.total(),
                out.vehicles.stride(),
                decos::store::fnv1a(snap.counter_fingerprint().as_bytes())
            );
        }
        Err(e) => {
            eprintln!("fleet failed: {e}");
            std::process::exit(exitcode::FAILURE);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let flag_value = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let effort = numeric_flag(&args, "--effort").map_or(Effort(1.0), Effort);
    let flightrec = flag_value("--flightrec").cloned();
    let store_dir = flag_value("--store").cloned();
    let resume_dir = flag_value("--resume").cloned();
    let store_opts = storecli::StoreCliOpts {
        rounds: numeric_flag(&args, "--rounds"),
        vehicles: numeric_flag(&args, "--vehicles"),
        seed: numeric_flag(&args, "--seed"),
        accel: numeric_flag(&args, "--accel"),
        snapshot_every: numeric_flag(&args, "--snapshot-every"),
        sync_every: numeric_flag(&args, "--sync-every"),
        chunk: numeric_flag(&args, "--chunk"),
        shards: numeric_flag(&args, "--shards"),
    };
    const VALUE_FLAGS: &[&str] = &[
        "--effort",
        "--flightrec",
        "--store",
        "--resume",
        "--rounds",
        "--vehicles",
        "--seed",
        "--accel",
        "--snapshot-every",
        "--sync-every",
        "--chunk",
        "--shards",
    ];
    let ids: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flags and flag values (--effort 0.2, --flightrec out.jsonl).
            !a.starts_with("--")
                && args.get(i.wrapping_sub(1)).is_none_or(|p| !VALUE_FLAGS.contains(&p.as_str()))
        })
        .map(|(_, s)| s.as_str())
        .collect();
    // Subcommands with their own argument shapes come first.
    match ids.first() {
        Some(&"campaign") | Some(&"fleet") if store_dir.is_some() => {
            let dir = store_dir.as_deref().expect("guarded above");
            let code = if ids[0] == "campaign" {
                storecli::cmd_campaign(dir, &store_opts)
            } else {
                storecli::cmd_fleet(dir, &store_opts)
            };
            std::process::exit(code);
        }
        Some(&"fleet") => {
            // Storeless fleet = the streaming scale workload (§16).
            run_fleet_scale(&store_opts, effort);
            return;
        }
        Some(&"campaign") => {
            eprintln!("usage: repro campaign --store <dir> [--rounds N] [--seed N] ...");
            std::process::exit(exitcode::USAGE);
        }
        Some(&"resume") => {
            let Some(dir) = ids.get(1) else {
                eprintln!("usage: repro resume <store-dir> [--rounds N] [--vehicles N]");
                std::process::exit(exitcode::USAGE);
            };
            std::process::exit(storecli::cmd_resume(dir, &store_opts));
        }
        Some(&"store-stat") => {
            let Some(dir) = ids.get(1) else {
                eprintln!("usage: repro store-stat <store-dir>");
                std::process::exit(exitcode::USAGE);
            };
            std::process::exit(storecli::cmd_store_stat(dir));
        }
        _ => {}
    }
    if let Some(dir) = &resume_dir {
        // `--resume <dir>` is shorthand for the resume subcommand.
        std::process::exit(storecli::cmd_resume(dir, &store_opts));
    }
    if ids.first() == Some(&"trace-report") {
        let Some(path) = ids.get(1) else {
            eprintln!("usage: repro trace-report <flightrec.jsonl>");
            std::process::exit(exitcode::USAGE);
        };
        run_trace_report(path);
        return;
    }
    if let Some(path) = &flightrec {
        run_flightrec(path, effort);
    }
    if ids.is_empty() {
        if flightrec.is_some() {
            return;
        }
        eprintln!("usage: repro <experiment|all> [--json] [--effort <f>] [--flightrec <path>]");
        eprintln!("       repro trace-report <flightrec.jsonl>");
        eprintln!("       repro fleet [--vehicles N] [--rounds N] [--shards N]");
        eprintln!("       repro campaign|fleet --store <dir> [--rounds N] [--vehicles N] ...");
        eprintln!("       repro resume <dir> | repro store-stat <dir>");
        eprintln!("experiments: {IDS:?}");
        std::process::exit(exitcode::USAGE);
    }
    for id in ids {
        if id == "all" {
            for e in IDS {
                println!("================================================================");
                run_one(e, effort, json);
            }
        } else {
            run_one(id, effort, json);
        }
    }
}
