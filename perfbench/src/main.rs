//! End-to-end and per-layer benchmark of the decos reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-short|fleet-long|store> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times repeated uninstrumented runs through the library's
//! public entry points and prints the end-to-end metrics as medians, with
//! every time corrected to a reference host speed (see `calib`).
//! `--trace 1` runs the workload once uninstrumented and once through a
//! traced runner built from the layers' public calls, checks that both
//! produce bit-identical outcomes, and prints the per-layer breakdown,
//! whose self-times plus an `unattributed` residual add up to the traced
//! capacity (threads x wall). Every run checks its outputs; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md` for the workloads,
//! the metric definitions and the predictions they are judged by.

mod calib;
mod fleet;
mod layers;
mod store;
mod vehicle;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Seed kept out of every tuning run: re-check a claimed gain on it after
/// the change is written (`--seed 8191`).
pub const HELD_OUT_SEED: u64 = 8191;

/// Executor shards (and batch threads) every workload pins.
pub const SHARDS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: decos-perfbench --workload <fleet-short|fleet-long|store> --seed <n> \
         --seconds <s> --trace <0|1>\n(held-out seed for re-checking gains: {HELD_OUT_SEED})"
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must lie in (0, 120], got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one benchmark run produced.
#[derive(Default)]
pub struct RunResult {
    /// Operations attempted (vehicles, or journaled campaign rounds).
    pub attempted: u64,
    /// Attempted operations that failed, panicked or disagreed with a
    /// reference.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub problems: Vec<String>,
    /// Metrics for the final JSON line, in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a failed check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }
}

/// Median of a sample (the mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a sample; NaN for an empty one.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Prints `name = median unit` with the sample's spread, for the human
/// part of the report.
pub fn print_rate(name: &str, unit: &str, samples: &[f64]) {
    let q = |p: f64| format!("{:.5e}", quantile(samples, p));
    println!(
        "  {name:<24} {} {unit} (median of {}; q1 {}, q3 {}, min {}, max {})",
        q(0.5),
        samples.len(),
        q(0.25),
        q(0.75),
        q(0.0),
        q(1.0),
    );
}

/// Peak resident set of this process so far, MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Output root for store directories and trace files: `perfbench/out`
/// next to this package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Text of a caught panic payload.
pub fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

fn json_line(correct: bool, r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "decos-perfbench workload={} seed={} seconds={} trace={} shards={} cores={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        SHARDS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut result = match args.workload.as_str() {
        "fleet-short" => fleet::run(&fleet::FLEET_SHORT, &args),
        "fleet-long" => fleet::run(&fleet::FLEET_LONG, &args),
        "store" => store::run(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // JSON has no NaN: a metric that could not be measured reads -1 and
    // fails the run.
    for m in result.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        result.problems.push(format!("metric {} is not finite ({})", m.name, m.value));
        m.value = -1.0;
    }
    for p in &result.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = result.failed == 0 && result.problems.is_empty() && result.attempted > 0;
    println!(
        "failed_share = {:.6} ({} of {} operations)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    println!("{}", json_line(correct, &result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
