//! Per-layer accounting of a traced run.
//!
//! Every layer's self-time is measured from the benchmark's own code around
//! the calls into that layer's public functions. The workload states the
//! traced capacity (threads x wall, in thread-nanoseconds); whatever the
//! layers do not cover is reported as the `unattributed` residual, so the
//! breakdown adds up to the capacity by construction and the residual's
//! size shows how much of the run the trace explains.

use crate::{quantile, RunResult};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (span timestamps).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The layers a traced run attributes time to, named after the modules.
pub const LAYERS: [&str; 9] = [
    "analyzer",
    "faults",
    "platform",
    "diagnosis",
    "baseline",
    "fleet",
    "fleet_exec",
    "store",
    "store_run",
];

/// One simulated fleet vehicle: the root span of its layer calls, which
/// are kept aggregated per layer.
#[derive(Debug, Clone, Default)]
pub struct VehicleSpan {
    /// The fleet that caused this span (`fleet-<k>`, `stored-fleet`,
    /// `resumed-fleet`).
    pub parent: String,
    /// Vehicle index within its fleet.
    pub vehicle: u64,
    /// Executor shard or batch thread that ran it.
    pub thread: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Self-time per entry of [`LAYERS`] spent inside this vehicle.
    pub self_ns: [u64; 9],
}

/// Counters and self-times of a traced run (or of one part of it; parts
/// are [`Trace::merge`]d).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Simulated units: fleet vehicles plus stored campaign runs.
    pub units: u64,
    pub analyzer_calls: u64,
    pub analyzer_ns: u64,
    pub faults_ns: u64,
    pub activations: u64,
    pub platform_new_ns: u64,
    pub step_self_ns: u64,
    pub slots: u64,
    pub rounds: u64,
    pub quiescent_rounds: u64,
    pub diag_new_ns: u64,
    pub diag_slot_ns: u64,
    pub diag_slot_calls: u64,
    pub diag_close_ns: u64,
    pub diag_close_calls: u64,
    pub diag_report_ns: u64,
    pub symptoms: u64,
    pub ona_matches: u64,
    /// `ObdDiagnosis` construction and report.
    pub baseline_ns: u64,
    /// `ObdDiagnosis` per-slot calls (`on_slot` plus `on_round_end`).
    pub baseline_slot_ns: u64,
    pub baseline_slot_calls: u64,
    pub fold_ns: u64,
    pub fold_calls: u64,
    pub finish_ns: u64,
    pub finishes: u64,
    /// Executor dispatch and idle thread-time.
    pub exec_ns: u64,
    /// Thread-time the executor's workers spent inside their work.
    pub busy_ns: u64,
    /// Thread-time the executor offered (threads x executor wall).
    pub exec_capacity_ns: u64,
    /// Host time per fleet vehicle (campaign runs excluded).
    pub vehicle_ns: Vec<u64>,
    /// Store I/O, through the timing `StoreIo` wrapper.
    pub store_ns: u64,
    pub append_ns: Vec<u64>,
    pub sync_ns: Vec<u64>,
    /// Store-run glue (deltas, verification, records, snapshots) net of
    /// store I/O.
    pub store_run_ns: u64,
    pub journaled_rounds: u64,
    pub journal_syncs: u64,
    pub journal_bytes: u64,
    pub recovery_ns: u64,
    pub verified_rounds: u64,
    pub verify_ns: u64,
    /// Thread-time the run offered: the denominator of every share.
    pub capacity_ns: u64,
    pub spans: Vec<VehicleSpan>,
}

impl Trace {
    /// Adds another part's counters and spans.
    pub fn merge(&mut self, o: Trace) {
        let Trace {
            units,
            analyzer_calls,
            analyzer_ns,
            faults_ns,
            activations,
            platform_new_ns,
            step_self_ns,
            slots,
            rounds,
            quiescent_rounds,
            diag_new_ns,
            diag_slot_ns,
            diag_slot_calls,
            diag_close_ns,
            diag_close_calls,
            diag_report_ns,
            symptoms,
            ona_matches,
            baseline_ns,
            baseline_slot_ns,
            baseline_slot_calls,
            fold_ns,
            fold_calls,
            finish_ns,
            finishes,
            exec_ns,
            busy_ns,
            exec_capacity_ns,
            vehicle_ns,
            store_ns,
            append_ns,
            sync_ns,
            store_run_ns,
            journaled_rounds,
            journal_syncs,
            journal_bytes,
            recovery_ns,
            verified_rounds,
            verify_ns,
            capacity_ns,
            spans,
        } = o;
        self.units += units;
        self.analyzer_calls += analyzer_calls;
        self.analyzer_ns += analyzer_ns;
        self.faults_ns += faults_ns;
        self.activations += activations;
        self.platform_new_ns += platform_new_ns;
        self.step_self_ns += step_self_ns;
        self.slots += slots;
        self.rounds += rounds;
        self.quiescent_rounds += quiescent_rounds;
        self.diag_new_ns += diag_new_ns;
        self.diag_slot_ns += diag_slot_ns;
        self.diag_slot_calls += diag_slot_calls;
        self.diag_close_ns += diag_close_ns;
        self.diag_close_calls += diag_close_calls;
        self.diag_report_ns += diag_report_ns;
        self.symptoms += symptoms;
        self.ona_matches += ona_matches;
        self.baseline_ns += baseline_ns;
        self.baseline_slot_ns += baseline_slot_ns;
        self.baseline_slot_calls += baseline_slot_calls;
        self.fold_ns += fold_ns;
        self.fold_calls += fold_calls;
        self.finish_ns += finish_ns;
        self.finishes += finishes;
        self.exec_ns += exec_ns;
        self.busy_ns += busy_ns;
        self.exec_capacity_ns += exec_capacity_ns;
        self.vehicle_ns.extend(vehicle_ns);
        self.store_ns += store_ns;
        self.append_ns.extend(append_ns);
        self.sync_ns.extend(sync_ns);
        self.store_run_ns += store_run_ns;
        self.journaled_rounds += journaled_rounds;
        self.journal_syncs += journal_syncs;
        self.journal_bytes += journal_bytes;
        self.recovery_ns += recovery_ns;
        self.verified_rounds += verified_rounds;
        self.verify_ns += verify_ns;
        self.capacity_ns += capacity_ns;
        self.spans.extend(spans);
    }

    /// Self-time per entry of [`LAYERS`].
    pub fn layer_ns(&self) -> [u64; 9] {
        [
            self.analyzer_ns,
            self.faults_ns,
            self.platform_new_ns + self.step_self_ns,
            self.diag_new_ns + self.diag_slot_ns + self.diag_close_ns + self.diag_report_ns,
            self.baseline_ns + self.baseline_slot_ns,
            self.fold_ns + self.finish_ns,
            self.exec_ns,
            self.store_ns,
            self.store_run_ns,
        ]
    }

    /// Capacity the layers do not cover (negative when they over-cover it,
    /// which would mean double counting).
    pub fn unattributed_ns(&self) -> i128 {
        self.capacity_ns as i128 - self.layer_ns().iter().map(|&n| n as i128).sum::<i128>()
    }

    fn share(&self, ns: i128) -> f64 {
        ns as f64 / self.capacity_ns.max(1) as f64
    }

    /// Prints the waterfall: each layer's self-time and share of the
    /// capacity, then the residual and the total.
    pub fn print_waterfall(&self) {
        println!("traced capacity {:.3} thread-ms", self.capacity_ns as f64 / 1e6);
        for (name, ns) in LAYERS.iter().zip(self.layer_ns()) {
            println!(
                "  {name:<14} {:>12.3} ms  {:>6.2}%",
                ns as f64 / 1e6,
                100.0 * self.share(ns as i128)
            );
        }
        let un = self.unattributed_ns();
        println!(
            "  {:<14} {:>12.3} ms  {:>6.2}%",
            "unattributed",
            un as f64 / 1e6,
            100.0 * self.share(un)
        );
        println!("  {:<14} {:>12.3} ms  100.00%", "total", self.capacity_ns as f64 / 1e6);
    }

    /// Checks the reconciliation: a negative residual means a layer was
    /// counted twice.
    pub fn check(&self, r: &mut RunResult) {
        if self.capacity_ns == 0 {
            r.problems.push("traced run measured no capacity".to_string());
        } else if self.share(self.unattributed_ns()) < -0.01 {
            r.problems.push(format!(
                "layer self-times exceed the traced capacity by {:.2}%",
                -100.0 * self.share(self.unattributed_ns())
            ));
        }
    }

    /// Pushes the per-layer metrics every workload reports.
    pub fn push_metrics(&self, overhead_share: f64, r: &mut RunResult) {
        let units = self.units.max(1) as f64;
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        let vehicle_ms: Vec<f64> = self.vehicle_ns.iter().map(|&n| n as f64 / 1e6).collect();
        r.metric("analyzer.calls_per_vehicle", "count", self.analyzer_calls as f64 / units);
        r.metric("analyzer.ns_per_vehicle", "ns", self.analyzer_ns as f64 / units);
        r.metric("faults.setup_ns_per_vehicle", "ns", self.faults_ns as f64 / units);
        r.metric("faults.activations_per_vehicle", "count", self.activations as f64 / units);
        r.metric("platform.new_ns_per_vehicle", "ns", self.platform_new_ns as f64 / units);
        r.metric("platform.step_self_ns_per_slot", "ns", per(self.step_self_ns, self.slots));
        r.metric(
            "platform.quiescent_round_share",
            "ratio",
            per(self.quiescent_rounds, self.rounds),
        );
        r.metric("diagnosis.new_ns_per_vehicle", "ns", self.diag_new_ns as f64 / units);
        r.metric("diagnosis.slot_ns", "ns", per(self.diag_slot_ns, self.diag_slot_calls));
        r.metric("diagnosis.round_close_ns", "ns", per(self.diag_close_ns, self.diag_close_calls));
        r.metric("diagnosis.symptoms_per_round", "count", per(self.symptoms, self.rounds));
        r.metric("diagnosis.ona_matches_per_round", "count", per(self.ona_matches, self.rounds));
        r.metric("diagnosis.report_ns_per_vehicle", "ns", self.diag_report_ns as f64 / units);
        r.metric("baseline.slot_ns", "ns", per(self.baseline_slot_ns, self.baseline_slot_calls));
        r.metric("fleet.fold_ns_per_vehicle", "ns", per(self.fold_ns, self.fold_calls));
        r.metric("fleet.finish_ns", "ns", per(self.finish_ns, self.finishes));
        r.metric("fleet.vehicle_ms_p50", "ms", quantile(&vehicle_ms, 0.5));
        r.metric("fleet.vehicle_ms_p99", "ms", quantile(&vehicle_ms, 0.99));
        r.metric(
            "fleet_exec.shard_idle_share",
            "ratio",
            1.0 - self.busy_ns as f64 / self.exec_capacity_ns.max(1) as f64,
        );
        r.metric("store.syncs_per_round", "count", per(self.journal_syncs, self.journaled_rounds));
        r.metric("store.bytes_per_round", "B", per(self.journal_bytes, self.journaled_rounds));
        r.metric("unattributed_share", "ratio", self.share(self.unattributed_ns()));
        r.metric("trace_overhead_share", "ratio", overhead_share);
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let layers: Vec<String> =
                LAYERS.iter().zip(s.self_ns).map(|(n, ns)| format!("\"{n}\": {ns}")).collect();
            let _ = writeln!(
                out,
                "{{\"span\": \"vehicle\", \"parent\": \"{}\", \"vehicle\": {}, \"thread\": {}, \
                 \"start_ns\": {}, \"dur_ns\": {}, \"self_ns\": {{{}}}}}",
                s.parent,
                s.vehicle,
                s.thread,
                s.start_ns,
                s.dur_ns,
                layers.join(", ")
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
