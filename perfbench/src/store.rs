//! The `store` workload: decos-store under the default `StorePolicy`
//! (fsync every campaign round, a snapshot every 256 rounds or vehicles,
//! fleet batches of 8), in four steps per repeat:
//!
//! 1. journal the reference connector campaign with `run_campaign_stored`;
//! 2. resume it to twice its horizon (recovery scan, replay-verify of every
//!    committed round, then appends);
//! 3. journal a fig10 fleet with `run_fleet_stored`;
//! 4. resume that fleet to twice its size.
//!
//! Every repeat works in fresh store directories under `perfbench/out`,
//! removed afterwards. A host calibration (see `calib`) runs before each
//! step and after the last, and every time the run measures is corrected
//! by the median processor slowdown they read; the two campaign steps,
//! which fsync every round, by the median disk slowdown too. The traced
//! run wraps `FsIo` in [`TimedIo`] and
//! replays the four steps through a runner built from public calls, whose
//! store directories must match the library's byte for byte.

use crate::calib;
use crate::fleet::{plain_fleet, slots_per_round, FleetDigest};
use crate::layers::{Trace, VehicleSpan};
use crate::vehicle::{add_fold, run_traced_vehicle, traced_campaign, TracedOutcome};
use crate::{median, panic_text, print_rate, Args, RunResult, SHARDS};
use decos::analyzer::{analyze, ExperimentSpec};
use decos::diagnosis::DisseminationStats;
use decos::fleet::{FleetRetention, VehicleOutcome};
use decos::prelude::*;
use decos::store::{
    fnv1a, fnv1a_extend, FsIo, RoundDelta, StoreIo, ROUND_DELTA_KIND, VEHICLE_KIND,
};
use decos::store_run::{
    snap_name, CampaignSnapshot, FleetSnapshot, VehicleRecord, CAMPAIGN_SNAP_SCHEMA,
    FLEET_SNAP_SCHEMA, VEHICLE_RECORD_SCHEMA,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Campaign rounds journaled in step 1 (step 2 resumes to twice this).
const CAMPAIGN_ROUNDS: u64 = 2000;
/// Vehicles journaled in step 3 (step 4 resumes to twice this).
const FLEET_VEHICLES: u64 = 2048;
/// Rounds per stored-fleet vehicle.
const FLEET_ROUNDS: u64 = 40;
const ACCEL: f64 = 10.0;
/// Repeats the timed loop makes at least.
const MIN_REPEATS: usize = 3;

fn campaign(rounds: u64, seed: u64) -> Campaign {
    Campaign::reference(
        decos::faults::campaign::connector_campaign(NodeId(2), 800.0),
        ACCEL,
        rounds,
        seed,
    )
}

fn fleet_cfg(vehicles: u64, seed: u64) -> FleetConfig {
    FleetConfig { vehicles, rounds: FLEET_ROUNDS, accel: ACCEL, seed }
}

/// Store I/O times, per call for appends and syncs.
#[derive(Debug, Clone, Default)]
pub struct IoTimes {
    pub total_ns: u64,
    pub append_ns: Vec<u64>,
    pub sync_ns: Vec<u64>,
}

/// `FsIo` with every call timed, plugged in through the public `StoreIo`
/// trait.
pub struct TimedIo {
    inner: FsIo,
    pub times: IoTimes,
}

impl TimedIo {
    pub fn new(root: &Path) -> io::Result<Self> {
        Ok(TimedIo { inner: FsIo::new(root)?, times: IoTimes::default() })
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut FsIo) -> R) -> (R, u64) {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        self.times.total_ns += ns;
        (r, ns)
    }
}

impl StoreIo for TimedIo {
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>> {
        self.timed(|io| io.read(path)).0
    }
    fn append(&mut self, path: &str, bytes: &[u8]) -> io::Result<usize> {
        let (r, ns) = self.timed(|io| io.append(path, bytes));
        self.times.append_ns.push(ns);
        r
    }
    fn sync(&mut self, path: &str) -> io::Result<()> {
        let (r, ns) = self.timed(|io| io.sync(path));
        self.times.sync_ns.push(ns);
        r
    }
    fn truncate(&mut self, path: &str, len: u64) -> io::Result<()> {
        self.timed(|io| io.truncate(path, len)).0
    }
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> io::Result<()> {
        self.timed(|io| io.write_atomic(path, bytes)).0
    }
    fn exists(&mut self, path: &str) -> bool {
        self.timed(|io| io.exists(path)).0
    }
    fn len(&mut self, path: &str) -> io::Result<u64> {
        self.timed(|io| io.len(path)).0
    }
    fn list(&mut self, dir: &str) -> io::Result<Vec<String>> {
        self.timed(|io| io.list(dir)).0
    }
}

/// A fresh directory under `perfbench/out`, removed on drop.
pub struct TempStoreDir(PathBuf);

impl TempStoreDir {
    pub fn new(what: &str) -> io::Result<TempStoreDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = crate::out_dir().join(format!("store-{}-{n}-{what}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(TempStoreDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempStoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a over every file below `root` (relative path, then contents),
/// in sorted order: equal hashes mean byte-identical stores.
fn hash_dir(root: &Path) -> io::Result<u64> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let p = entry?.path();
            if p.is_dir() {
                walk(&p, files)?;
            } else {
                files.push(p);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut h = fnv1a(b"perfbench-store-dir");
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
        h = fnv1a_extend(h, rel.as_bytes());
        h = fnv1a_extend(h, &std::fs::read(&f)?);
    }
    Ok(h)
}

/// The deterministic results of one repeat, compared across repeats and
/// against the traced runner.
#[derive(Debug, Clone, PartialEq)]
struct StoreDigest {
    campaign_dir: u64,
    fleet_dir: u64,
    /// (records, bytes) of the campaign journal after the resume.
    campaign_journal: (u64, u64),
    /// (records, bytes) of the fleet journal after the resume.
    fleet_journal: (u64, u64),
    fleet: FleetDigest,
}

/// Times and results of one uninstrumented repeat. Times are raw host
/// seconds per step, in step order: journal, resume, fleet, fleet resume.
struct Repeat {
    /// Each step's `open_or_create`.
    open_s: [f64; 4],
    /// Each step's run.
    run_s: [f64; 4],
    /// (processor, disk) slowdowns (see `calib`) read before each step
    /// and after the last, 1 when not calibrated.
    cal: Vec<(f64, f64)>,
    resumed: CampaignOutcome,
    half_fleet: FleetDigest,
    digest: StoreDigest,
}

impl Repeat {
    /// Raw seconds of the steps' opens and runs.
    fn raw_s(&self) -> f64 {
        self.open_s.iter().chain(&self.run_s).sum()
    }
}

/// Per-step slowdowns from a run's calibrations: the campaign steps
/// fsync every round, so the disk's slowdown counts for them; the fleet
/// steps fsync once per batch of vehicles, so the disk does not set their
/// pace.
fn step_slowdowns(reps: &[Repeat]) -> [f64; 4] {
    let (cpu, io): (Vec<f64>, Vec<f64>) = reps.iter().flat_map(|p| p.cal.iter().copied()).unzip();
    let (cpu, io) = (median(&cpu), median(&io));
    let campaign = (cpu * io).sqrt();
    [campaign, campaign, cpu, cpu]
}

/// `times`, each divided by its step's slowdown.
fn corrected(times: [f64; 4], slow: [f64; 4]) -> [f64; 4] {
    std::array::from_fn(|i| times[i] / slow[i])
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Runs the four steps through the library on plain `FsIo`, with a host
/// calibration before each step and after the last when `calibrate`.
fn plain_repeat(seed: u64, calibrate: bool) -> Result<Repeat, String> {
    let params = EngineParams::default();
    let policy = StorePolicy::default();
    let opts = RunOptions::default();
    let spec = fig10::reference_spec();
    let fopts = FleetOptions::default();
    let (c1, c2) = (campaign(CAMPAIGN_ROUNDS, seed), campaign(2 * CAMPAIGN_ROUNDS, seed));
    let (f1, f2) = (fleet_cfg(FLEET_VEHICLES, seed), fleet_cfg(2 * FLEET_VEHICLES, seed));
    let a = TempStoreDir::new("campaign").map_err(err("campaign dir"))?;
    let b = TempStoreDir::new("fleet").map_err(err("fleet dir"))?;
    let open_fs = |d: &TempStoreDir| FsIo::new(d.path()).map_err(err("store root"));
    let secs = |t0: Instant| t0.elapsed().as_secs_f64();
    let mut cal: Vec<(f64, f64)> = Vec::with_capacity(5);
    let mut mark = || -> Result<(), String> {
        cal.push(if calibrate {
            (
                calib::slowdown(),
                calib::io_slowdown(&crate::out_dir()).map_err(err("I/O calibration"))?,
            )
        } else {
            (1.0, 1.0)
        });
        Ok(())
    };
    let (mut open_s, mut run_s) = ([0.0; 4], [0.0; 4]);

    mark()?;
    let t0 = Instant::now();
    let mut cs = CampaignStore::open_or_create(open_fs(&a)?, &c1, &params, &policy)
        .map_err(err("create campaign store"))?;
    open_s[0] = secs(t0);
    let t0 = Instant::now();
    run_campaign_stored(&c1, params, opts, &policy, &mut cs).map_err(err("journal campaign"))?;
    run_s[0] = secs(t0);
    drop(cs);

    mark()?;
    let t0 = Instant::now();
    let mut cs = CampaignStore::open_or_create(open_fs(&a)?, &c2, &params, &policy)
        .map_err(err("recover campaign store"))?;
    open_s[1] = secs(t0);
    let t0 = Instant::now();
    let (resumed, rs) =
        run_campaign_stored(&c2, params, opts, &policy, &mut cs).map_err(err("resume campaign"))?;
    run_s[1] = secs(t0);
    drop(cs);
    if (rs.verified, rs.appended) != (CAMPAIGN_ROUNDS, CAMPAIGN_ROUNDS) {
        return Err(format!(
            "campaign resume verified {} and appended {} rounds",
            rs.verified, rs.appended
        ));
    }

    mark()?;
    let t0 = Instant::now();
    let mut fs = FleetStore::open_or_create(open_fs(&b)?, &spec, &f1, &params, &fopts, &policy)
        .map_err(err("create fleet store"))?;
    open_s[2] = secs(t0);
    let t0 = Instant::now();
    let (half, _) = run_fleet_stored(&spec, f1, params, &fopts, &policy, &mut fs)
        .map_err(err("journal fleet"))?;
    run_s[2] = secs(t0);
    drop(fs);

    mark()?;
    let t0 = Instant::now();
    let mut fs = FleetStore::open_or_create(open_fs(&b)?, &spec, &f2, &params, &fopts, &policy)
        .map_err(err("recover fleet store"))?;
    open_s[3] = secs(t0);
    let t0 = Instant::now();
    let (whole, ws) = run_fleet_stored(&spec, f2, params, &fopts, &policy, &mut fs)
        .map_err(err("resume fleet"))?;
    run_s[3] = secs(t0);
    drop(fs);
    mark()?;
    if (ws.verified, ws.appended) != (FLEET_VEHICLES, FLEET_VEHICLES) {
        return Err(format!(
            "fleet resume reused {} and simulated {} vehicles",
            ws.verified, ws.appended
        ));
    }
    let digest = StoreDigest {
        campaign_dir: hash_dir(a.path()).map_err(err("hash campaign store"))?,
        fleet_dir: hash_dir(b.path()).map_err(err("hash fleet store"))?,
        campaign_journal: (rs.journal_records, rs.journal_bytes),
        fleet_journal: (ws.journal_records, ws.journal_bytes),
        fleet: FleetDigest::of(&whole, f2.vehicles)?,
    };
    Ok(Repeat {
        open_s,
        run_s,
        cal,
        resumed,
        half_fleet: FleetDigest::of(&half, f1.vehicles)?,
        digest,
    })
}

/// Operations one repeat attempts: journaled and verified campaign rounds
/// plus simulated fleet vehicles.
const OPS_PER_REPEAT: u64 = 3 * CAMPAIGN_ROUNDS + 2 * FLEET_VEHICLES;

/// Straight-run references for one seed: the resumed campaign must match
/// an unstored run of the full horizon, its journal a straight stored
/// run's, and the fleets the unstored executor's.
struct References {
    campaign: CampaignOutcome,
    campaign_journal: (u64, u64),
    half_fleet: FleetDigest,
    fleet: FleetDigest,
}

fn references(seed: u64) -> Result<References, String> {
    let spec = fig10::reference_spec();
    let c2 = campaign(2 * CAMPAIGN_ROUNDS, seed);
    let campaign = run_campaign(&c2).map_err(err("unstored campaign"))?;
    let dir = TempStoreDir::new("straight").map_err(err("straight dir"))?;
    let policy = StorePolicy::default();
    let mut cs = CampaignStore::open_or_create(
        FsIo::new(dir.path()).map_err(err("store root"))?,
        &c2,
        &EngineParams::default(),
        &policy,
    )
    .map_err(err("create straight store"))?;
    let (_, st) =
        run_campaign_stored(&c2, EngineParams::default(), RunOptions::default(), &policy, &mut cs)
            .map_err(err("straight stored campaign"))?;
    Ok(References {
        campaign,
        campaign_journal: (st.journal_records, st.journal_bytes),
        half_fleet: plain_fleet(&spec, fleet_cfg(FLEET_VEHICLES, seed), SHARDS)?,
        fleet: plain_fleet(&spec, fleet_cfg(2 * FLEET_VEHICLES, seed), SHARDS)?,
    })
}

fn same_campaign(
    a: &CampaignOutcome,
    report: &DiagnosticReport,
    obd: &ObdReport,
    episodes: usize,
) -> bool {
    a.report == *report && a.obd == *obd && a.episodes == episodes
}

/// Checks a repeat against the references and the first repeat.
fn check_repeat(
    rep: &Repeat,
    refs: &References,
    first: Option<&StoreDigest>,
) -> Result<(), String> {
    if !same_campaign(&refs.campaign, &rep.resumed.report, &rep.resumed.obd, rep.resumed.episodes) {
        return Err("resumed campaign differs from the straight unstored run".into());
    }
    if rep.digest.campaign_journal != refs.campaign_journal {
        return Err(format!(
            "resumed journal (records, bytes) {:?} differs from the straight run's {:?}",
            rep.digest.campaign_journal, refs.campaign_journal
        ));
    }
    if rep.half_fleet != refs.half_fleet || rep.digest.fleet != refs.fleet {
        return Err("stored fleet differs from the unstored executor's".into());
    }
    if first.is_some_and(|f| *f != rep.digest) {
        return Err("repeat's store contents differ from the first repeat's".into());
    }
    Ok(())
}

/// Runs the store workload; see the module docs.
pub fn run(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let refs = match references(args.seed) {
        Ok(refs) => refs,
        Err(e) => {
            r.attempted += OPS_PER_REPEAT;
            r.fail(OPS_PER_REPEAT, e);
            return r;
        }
    };
    if args.trace {
        run_traced(args.seed, &refs, &mut r);
        return r;
    }
    let mut reps: Vec<Repeat> = Vec::new();
    let started = Instant::now();
    let mut first: Option<StoreDigest> = None;
    while reps.len() < MIN_REPEATS || started.elapsed() < args.seconds {
        r.attempted += OPS_PER_REPEAT;
        let res = std::panic::catch_unwind(|| plain_repeat(args.seed, true))
            .unwrap_or_else(|p| Err(format!("store repeat panicked: {}", panic_text(p))))
            .and_then(|rep| check_repeat(&rep, &refs, first.as_ref()).map(|()| rep));
        match res {
            Ok(rep) => {
                first.get_or_insert_with(|| rep.digest.clone());
                reps.push(rep);
            }
            Err(e) => {
                r.fail(OPS_PER_REPEAT, e);
                if r.failed >= MIN_REPEATS as u64 * OPS_PER_REPEAT {
                    break;
                }
            }
        }
    }
    let timed = started.elapsed().as_secs_f64();
    let col = |f: &dyn Fn(&Repeat) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let spr = match slots_per_round(&fig10::reference_spec()) {
        Ok(n) => n,
        Err(e) => {
            r.problems.push(e);
            return r;
        }
    };
    // Campaign: N journaled, 2N replayed on resume; fleet: 2 x V vehicles.
    let slots = spr * (3 * CAMPAIGN_ROUNDS + 2 * FLEET_VEHICLES * FLEET_ROUNDS) as f64;
    let slow = step_slowdowns(&reps);
    let raw_slot_rate = col(&|p| slots / p.run_s.iter().sum::<f64>());
    let raw_rounds = col(&|p| CAMPAIGN_ROUNDS as f64 / p.run_s[0]);
    let vehicles = col(&|p| {
        let run = corrected(p.run_s, slow);
        (2 * FLEET_VEHICLES) as f64 / (run[2] + run[3])
    });
    let slot_rate = col(&|p| slots / corrected(p.run_s, slow).iter().sum::<f64>());
    let rounds = col(&|p| CAMPAIGN_ROUNDS as f64 / corrected(p.run_s, slow)[0]);
    let resume = col(&|p| (2 * CAMPAIGN_ROUNDS) as f64 / corrected(p.run_s, slow)[1]);
    let setup = col(&|p| corrected(p.open_s, slow).iter().sum());
    let score = refs.fleet.decos;
    let correct_rate = score.correct_actions as f64 / (2 * FLEET_VEHICLES) as f64;
    println!(
        "store: campaign {CAMPAIGN_ROUNDS} rounds resumed to {}, fleet {FLEET_VEHICLES} x \
         {FLEET_ROUNDS}-round vehicles resumed to {}, {} repeats in {:.2} s",
        2 * CAMPAIGN_ROUNDS,
        2 * FLEET_VEHICLES,
        reps.len(),
        timed
    );
    println!(
        "  slowdown: processor {:.4}x, campaign steps (processor and disk) {:.4}x",
        slow[2], slow[0]
    );
    print_rate("raw slots_per_sec", "slots/s", &raw_slot_rate);
    print_rate("raw rounds_per_sec", "rounds/s", &raw_rounds);
    println!("  corrected to the reference host speed:");
    print_rate("vehicles_per_sec", "vehicles/s", &vehicles);
    print_rate("slots_per_sec", "slots/s", &slot_rate);
    print_rate("rounds_per_sec", "rounds/s", &rounds);
    print_rate("resume_rounds_per_sec", "rounds/s", &resume);
    print_rate("setup_s", "s", &setup);
    println!("  peak_rss_mb {:.3} MB", crate::peak_rss_mb());
    println!(
        "  nff_ratio {:.6} ({} of {} removals), correct_action_rate {:.6}",
        score.nff_ratio(),
        score.nff_removals,
        score.removals,
        correct_rate
    );
    r.metric("vehicles_per_sec", "vehicles/s", median(&vehicles));
    r.metric("slots_per_sec", "slots/s", median(&slot_rate));
    r.metric("rounds_per_sec", "rounds/s", median(&rounds));
    r.metric("setup_s", "s", median(&setup));
    r.metric("peak_rss_mb", "MB", crate::peak_rss_mb());
    r.metric("correct_action_rate", "ratio", correct_rate);
    r
}

// ---------------------------------------------------------------------------
// The traced runner
// ---------------------------------------------------------------------------

/// The engine's cumulative counters, from which round deltas are formed
/// exactly as `decos::store_run` forms them.
#[derive(Clone, Copy, Default)]
struct Cumulative {
    stats: DisseminationStats,
    ona_matches: u64,
    frozen_rounds: u64,
    crashed_rounds: u64,
    failovers: u32,
}

impl Cumulative {
    fn capture(e: &DiagnosticEngine) -> Self {
        Cumulative {
            stats: e.dissemination_stats(),
            ona_matches: e.ona_matches(),
            frozen_rounds: e.frozen_rounds(),
            crashed_rounds: e.crashed_rounds(),
            failovers: e.failovers(),
        }
    }

    fn delta(&self, round: u64, prev: &Cumulative, e: &DiagnosticEngine) -> RoundDelta {
        RoundDelta {
            round,
            offered: self.stats.offered - prev.stats.offered,
            delivered: self.stats.delivered - prev.stats.delivered,
            dropped: self.stats.dropped - prev.stats.dropped,
            corrupted: self.stats.corrupted - prev.stats.corrupted,
            rejected: self.stats.rejected - prev.stats.rejected,
            delayed: self.stats.delayed - prev.stats.delayed,
            forged_suspected: self.stats.forged_suspected - prev.stats.forged_suspected,
            ona_matches: self.ona_matches - prev.ona_matches,
            frozen_rounds: self.frozen_rounds - prev.frozen_rounds,
            crashed_rounds: self.crashed_rounds - prev.crashed_rounds,
            failovers: self.failovers - prev.failovers,
            quality_bits: e.delivery_quality().to_bits(),
            disturbance: e.disturbance(),
        }
    }
}

/// Charges the time since `t0` to the store-run glue, net of the store
/// I/O the wrapper timed since `io0`.
fn charge(t: &mut Trace, t0: Instant, io: &IoTimes, io0: u64) {
    let io_ns = io.total_ns - io0;
    t.store_ns += io_ns;
    t.store_run_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(io_ns);
}

/// A store opened on [`TimedIo`], whichever kind.
trait TimedStore {
    fn io_times(&mut self) -> &mut IoTimes;
}

impl TimedStore for CampaignStore<TimedIo> {
    fn io_times(&mut self) -> &mut IoTimes {
        &mut self.store_mut().io_mut().times
    }
}

impl TimedStore for FleetStore<TimedIo> {
    fn io_times(&mut self) -> &mut IoTimes {
        &mut self.store_mut().io_mut().times
    }
}

/// Opens a store through `open`, charging the call to the store layers;
/// recovery of an existing journal also counts as `store.recovery_ms`.
fn traced_open<S: TimedStore>(
    t: &mut Trace,
    recovery: bool,
    open: impl FnOnce() -> Result<S, String>,
) -> Result<S, String> {
    let t0 = Instant::now();
    let mut s = open()?;
    let ns = t0.elapsed().as_nanos() as u64;
    let io_ns = s.io_times().total_ns;
    t.store_ns += io_ns;
    t.store_run_ns += ns.saturating_sub(io_ns);
    t.capacity_ns += ns;
    if recovery {
        t.recovery_ns += ns;
    }
    Ok(s)
}

/// Moves a store's per-call append and sync times into the trace, once
/// the store is done with.
fn close<S: TimedStore>(mut s: S, t: &mut Trace) {
    let io = std::mem::take(s.io_times());
    t.append_ns.extend(io.append_ns);
    t.sync_ns.extend(io.sync_ns);
}

/// `run_campaign_stored` rebuilt from public calls, with the store glue
/// and the wrapped I/O timed.
fn traced_campaign_stored(
    c: &Campaign,
    cs: &mut CampaignStore<TimedIo>,
    t: &mut Trace,
) -> Result<TracedOutcome, String> {
    let policy = StorePolicy::default();
    let params = EngineParams::default();
    // What `CampaignStore` holds privately, read back before the clock
    // starts: the committed deltas and the journal fingerprint.
    let committed = cs.committed_rounds();
    let stored: Vec<RoundDelta> = cs.deltas().to_vec();
    let mut fingerprint = cs
        .store()
        .records()
        .iter()
        .fold(fnv1a(b"decos-store-campaign"), |h, rec| fnv1a_extend(h, &rec.payload));
    let appended_bytes0 = cs.store().stats().appended_bytes;
    let wall = Instant::now();
    let store = cs.store_mut();
    let mut prev = Cumulative::default();
    let mut failure: Option<String> = None;
    let (mut verified, mut appended, mut syncs) = (0u64, 0u64, 0u64);
    let out = traced_campaign(c, params, t, |_, engine, round, t| {
        if failure.is_some() {
            return;
        }
        let t0 = Instant::now();
        let io0 = store.io_mut().times.total_ns;
        let cur = Cumulative::capture(engine);
        let delta = cur.delta(round, &prev, engine);
        prev = cur;
        if round < committed {
            if stored[round as usize] != delta {
                failure = Some(format!("replay of round {round} differs from the journal"));
            }
            verified += 1;
            charge(t, t0, &store.io_mut().times, io0);
            if round + 1 == committed {
                t.verify_ns += wall.elapsed().as_nanos() as u64;
            }
            return;
        }
        let payload = delta.encode();
        let mut step = || -> Result<(), String> {
            store.append(ROUND_DELTA_KIND, round, round, &payload).map_err(err("append"))?;
            fingerprint = fnv1a_extend(fingerprint, &payload);
            appended += 1;
            if policy.sync_every > 0 && (round + 1) % policy.sync_every == 0 {
                store.sync().map_err(err("sync"))?;
                syncs += 1;
            }
            if policy.snapshot_every > 0 && (round + 1) % policy.snapshot_every == 0 {
                let snap = CampaignSnapshot {
                    schema: CAMPAIGN_SNAP_SCHEMA.to_string(),
                    round,
                    journal_fingerprint: fingerprint,
                    delivery_quality: engine.delivery_quality(),
                    dissemination: engine.dissemination_stats(),
                    report: engine.report(),
                };
                let body = serde_json::to_string_pretty(&snap).map_err(err("snapshot"))?;
                store.write_snapshot(&snap_name(round), &body).map_err(err("snapshot"))?;
            }
            Ok(())
        };
        if let Err(e) = step() {
            failure = Some(e);
        }
        charge(t, t0, &store.io_mut().times, io0);
    })?;
    if let Some(e) = failure {
        return Err(e);
    }
    let t0 = Instant::now();
    let io0 = store.io_mut().times.total_ns;
    store.sync().map_err(err("final sync"))?;
    syncs += 1;
    if c.rounds > store.manifest().rounds {
        let mut m = store.manifest().clone();
        m.rounds = c.rounds;
        store.update_manifest(m).map_err(err("manifest"))?;
    }
    charge(t, t0, &store.io_mut().times, io0);
    t.verified_rounds += verified;
    t.journaled_rounds += appended;
    t.journal_syncs += syncs;
    t.journal_bytes += store.stats().appended_bytes - appended_bytes0;
    t.capacity_ns += wall.elapsed().as_nanos() as u64;
    Ok(out)
}

/// A simulated vehicle of a stored-fleet batch: index, outcome, span.
type BatchVehicle = (u64, Result<VehicleOutcome, String>, VehicleSpan);

/// Simulates one batch of vehicles on [`SHARDS`] threads in contiguous
/// chunks, as the vendored rayon map under `run_fleet_stored` does.
fn traced_batch(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    batch: &[u64],
    parent: &str,
    t: &mut Trace,
) -> Vec<BatchVehicle> {
    let workers = SHARDS.min(batch.len()).max(1);
    let (base, extra) = (batch.len() / workers, batch.len() % workers);
    let mut chunks = Vec::with_capacity(workers);
    let mut rest = batch;
    for w in 0..workers {
        let (head, tail) = rest.split_at(base + usize::from(w < extra));
        chunks.push(head);
        rest = tail;
    }
    let t0 = Instant::now();
    let parts: Vec<(Trace, Vec<_>)> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(w, chunk)| {
                s.spawn(move || {
                    let mut wt = Trace::default();
                    let tb = Instant::now();
                    let out: Vec<_> = chunk
                        .iter()
                        .map(|&v| {
                            let (res, span) = run_traced_vehicle(
                                spec,
                                cfg,
                                v,
                                EngineParams::default(),
                                parent,
                                w,
                                &mut wt,
                            );
                            (v, res, span)
                        })
                        .collect();
                    wt.busy_ns += tb.elapsed().as_nanos() as u64;
                    (wt, out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
    });
    let wall = t0.elapsed().as_nanos() as u64;
    let capacity = workers as u64 * wall;
    let mut results = Vec::with_capacity(batch.len());
    for (wt, out) in parts {
        t.merge(wt);
        results.extend(out);
    }
    t.exec_capacity_ns += capacity;
    t.capacity_ns += capacity;
    t.exec_ns += capacity.saturating_sub(results.iter().map(|r| r.2.dur_ns).sum::<u64>());
    results
}

/// `run_fleet_stored` rebuilt from public calls: simulate missing
/// vehicles in batches, journal each batch and sync, fold behind the
/// ascending-index watermark, snapshot on the policy's cadence.
fn traced_fleet_stored(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    fs: &mut FleetStore<TimedIo>,
    label: &str,
    t: &mut Trace,
) -> Result<FleetDigest, String> {
    let policy = StorePolicy::default();
    let params = EngineParams::default();
    // What `FleetStore` holds privately, read back before the clock starts.
    let mut committed: BTreeMap<u64, VehicleRecord> = BTreeMap::new();
    let mut fingerprint = fnv1a(b"decos-store-fleet");
    for rec in fs.store().records() {
        let vr: VehicleRecord = std::str::from_utf8(&rec.payload)
            .map_err(err("vehicle record"))
            .and_then(|s| serde_json::from_str(s).map_err(err("vehicle record")))?;
        fingerprint = fnv1a_extend(fingerprint, &rec.payload);
        committed.insert(vr.vehicle, vr);
    }
    let serial_start = Instant::now();

    let ta = Instant::now();
    let mut base = ExperimentSpec::with_campaign(spec, &[], cfg.accel, cfg.rounds);
    base.ona = params.ona;
    base.trust = params.trust;
    base.advisor = params.advisor;
    let report = analyze(&base);
    t.analyzer_ns += ta.elapsed().as_nanos() as u64;
    t.analyzer_calls += 1;
    if report.has_errors() {
        return Err(format!("fleet pre-flight rejected:\n{report}"));
    }
    let store = fs.store_mut();
    let missing: Vec<u64> = (0..cfg.vehicles).filter(|v| !committed.contains_key(v)).collect();
    let mut acc = FleetAccumulator::new(cfg.vehicles, FleetRetention::Auto);
    let mut next = 0u64;
    let mut pending: BTreeMap<u64, VehicleOutcome> = BTreeMap::new();
    let mut appended = 0u64;
    let mut drain =
        |acc: &mut FleetAccumulator, pending: &mut BTreeMap<u64, VehicleOutcome>, t: &mut Trace| {
            while next < cfg.vehicles {
                let outcome = match pending.remove(&next) {
                    Some(o) => o,
                    None => match committed.get(&next) {
                        Some(vr) => vr.outcome.clone(),
                        None => break,
                    },
                };
                add_fold(acc, next, outcome, t);
                next += 1;
            }
        };
    let mut batch_ns = 0u64;
    for batch in missing.chunks(policy.chunk.max(1)) {
        let tb = Instant::now();
        let results = traced_batch(spec, cfg, batch, label, t);
        batch_ns += tb.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let io0 = store.io_mut().times.total_ns;
        let fold0 = t.fold_ns;
        let mut done_batch = Vec::with_capacity(results.len());
        for (v, res, span) in results {
            let outcome = res?;
            let vr = VehicleRecord {
                schema: VEHICLE_RECORD_SCHEMA.to_string(),
                vehicle: v,
                outcome: outcome.clone(),
                counters: None,
            };
            let payload = serde_json::to_string(&vr).map_err(err("vehicle record"))?;
            store.append(VEHICLE_KIND, v, v, payload.as_bytes()).map_err(err("append"))?;
            fingerprint = fnv1a_extend(fingerprint, payload.as_bytes());
            appended += 1;
            done_batch.push((v, outcome));
            t.spans.push(span);
        }
        store.sync().map_err(err("sync"))?;
        pending.extend(done_batch);
        drain(&mut acc, &mut pending, t);
        let done = committed.len() as u64 + appended;
        if policy.snapshot_every > 0 && appended > 0 && done.is_multiple_of(policy.snapshot_every) {
            let snap = FleetSnapshot {
                schema: FLEET_SNAP_SCHEMA.to_string(),
                vehicles_done: done,
                journal_fingerprint: fingerprint,
            };
            let body = serde_json::to_string_pretty(&snap).map_err(err("snapshot"))?;
            store.write_snapshot(&snap_name(done), &body).map_err(err("snapshot"))?;
        }
        let fold_ns = t.fold_ns - fold0;
        let io_ns = store.io_mut().times.total_ns - io0;
        t.store_ns += io_ns;
        t.store_run_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(io_ns + fold_ns);
    }
    let t0 = Instant::now();
    let io0 = store.io_mut().times.total_ns;
    let fold0 = t.fold_ns;
    drain(&mut acc, &mut pending, t);
    if next < cfg.vehicles {
        return Err(format!("vehicle {next} neither committed nor simulated"));
    }
    if cfg.vehicles > store.manifest().vehicles {
        let mut m = store.manifest().clone();
        m.vehicles = cfg.vehicles;
        store.update_manifest(m).map_err(err("manifest"))?;
    }
    let io_ns = store.io_mut().times.total_ns - io0;
    t.store_ns += io_ns;
    t.store_run_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(io_ns + t.fold_ns - fold0);
    let tf = Instant::now();
    let out = acc.finish();
    t.finish_ns += tf.elapsed().as_nanos() as u64;
    t.finishes += 1;
    // The batches added their own (threads x wall) capacity; the serial
    // remainder of this call counts once.
    t.capacity_ns += (serial_start.elapsed().as_nanos() as u64).saturating_sub(batch_ns);
    FleetDigest::of(&out, cfg.vehicles)
}

/// The four steps through the traced runner on [`TimedIo`]; returns the
/// resumed campaign's outcome, the final fleet digest, both store
/// directories (kept until compared) and the traced wall time.
fn traced_repeat(
    seed: u64,
    t: &mut Trace,
) -> Result<(TracedOutcome, FleetDigest, TempStoreDir, TempStoreDir, f64), String> {
    let params = EngineParams::default();
    let policy = StorePolicy::default();
    let spec = fig10::reference_spec();
    let fopts = FleetOptions::default();
    let (c1, c2) = (campaign(CAMPAIGN_ROUNDS, seed), campaign(2 * CAMPAIGN_ROUNDS, seed));
    let (f1, f2) = (fleet_cfg(FLEET_VEHICLES, seed), fleet_cfg(2 * FLEET_VEHICLES, seed));
    let a = TempStoreDir::new("traced-campaign").map_err(err("campaign dir"))?;
    let b = TempStoreDir::new("traced-fleet").map_err(err("fleet dir"))?;
    let timed_io = |d: &TempStoreDir| TimedIo::new(d.path()).map_err(err("store root"));
    let wall = Instant::now();
    let mut cs = traced_open(t, false, || {
        CampaignStore::open_or_create(timed_io(&a)?, &c1, &params, &policy)
            .map_err(err("create campaign store"))
    })?;
    traced_campaign_stored(&c1, &mut cs, t)?;
    close(cs, t);
    let mut cs = traced_open(t, true, || {
        CampaignStore::open_or_create(timed_io(&a)?, &c2, &params, &policy)
            .map_err(err("recover campaign store"))
    })?;
    let resumed = traced_campaign_stored(&c2, &mut cs, t)?;
    close(cs, t);
    let mut fs = traced_open(t, false, || {
        FleetStore::open_or_create(timed_io(&b)?, &spec, &f1, &params, &fopts, &policy)
            .map_err(err("create fleet store"))
    })?;
    traced_fleet_stored(&spec, f1, &mut fs, "stored-fleet", t)?;
    close(fs, t);
    let mut fs = traced_open(t, false, || {
        FleetStore::open_or_create(timed_io(&b)?, &spec, &f2, &params, &fopts, &policy)
            .map_err(err("recover fleet store"))
    })?;
    let fleet = traced_fleet_stored(&spec, f2, &mut fs, "resumed-fleet", t)?;
    close(fs, t);
    Ok((resumed, fleet, a, b, wall.elapsed().as_secs_f64()))
}

fn run_traced(seed: u64, refs: &References, r: &mut RunResult) {
    r.attempted += 2 * OPS_PER_REPEAT;
    let plain = match std::panic::catch_unwind(|| plain_repeat(seed, false))
        .unwrap_or_else(|p| Err(format!("store repeat panicked: {}", panic_text(p))))
        .and_then(|rep| check_repeat(&rep, refs, None).map(|()| rep))
    {
        Ok(rep) => rep,
        Err(e) => return r.fail(2 * OPS_PER_REPEAT, e),
    };
    let mut t = Trace::default();
    let (resumed, fleet, a, b, traced_s) = match traced_repeat(seed, &mut t) {
        Ok(x) => x,
        Err(e) => return r.fail(OPS_PER_REPEAT, e),
    };
    let dirs = (hash_dir(a.path()), hash_dir(b.path()));
    let checks = [
        (
            same_campaign(&plain.resumed, &resumed.report, &resumed.obd, resumed.episodes),
            "traced resumed campaign differs from the library's",
        ),
        (fleet == plain.digest.fleet, "traced stored fleet differs from the library's"),
        (
            matches!(dirs, (Ok(x), Ok(y)) if (x, y) == (plain.digest.campaign_dir, plain.digest.fleet_dir)),
            "traced store directories differ from the library's",
        ),
    ];
    for (ok, what) in checks {
        if !ok {
            r.fail(OPS_PER_REPEAT, what.to_string());
        }
    }
    let plain_s = plain.raw_s();
    let overhead = traced_s / plain_s - 1.0;
    let q =
        |xs: &[u64], p: f64| crate::quantile(&xs.iter().map(|&n| n as f64).collect::<Vec<_>>(), p);
    println!(
        "store traced: wall {traced_s:.3} s against untraced {plain_s:.3} s, overhead {:.2}%",
        100.0 * overhead
    );
    println!(
        "  store.append_ns_p50 {:.0} ns, store.append_ns_p99 {:.0} ns, store.sync_ns_p50 {:.0} ns, \
         store.sync_ns_p99 {:.0} ns ({} appends, {} syncs)",
        q(&t.append_ns, 0.5),
        q(&t.append_ns, 0.99),
        q(&t.sync_ns, 0.5),
        q(&t.sync_ns, 0.99),
        t.append_ns.len(),
        t.sync_ns.len()
    );
    println!(
        "  store.recovery_ms {:.3} ms, store_run.verify_ns_per_round {:.0} ns over {} verified rounds",
        t.recovery_ns as f64 / 1e6,
        t.verify_ns as f64 / t.verified_rounds.max(1) as f64,
        t.verified_rounds
    );
    t.print_waterfall();
    t.check(r);
    t.push_metrics(overhead, r);
    let path = crate::out_dir().join(format!("trace-store-{seed}.jsonl"));
    match t.write_spans(&path) {
        Ok(()) => println!("spans: {} vehicle spans written to {}", t.spans.len(), path.display()),
        Err(e) => r.problems.push(format!("cannot write spans to {}: {e}", path.display())),
    }
}
