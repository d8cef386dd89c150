//! Crash-safe persistent campaigns: the glue between the runners and
//! [`decos_store`].
//!
//! # Resume semantics
//!
//! The simulation is deterministic per seed, so the store does **not**
//! serialize live engine state. A campaign resume re-simulates the
//! committed prefix from round zero and *verifies* every recomputed
//! per-round delta byte-for-byte against the journal — any spec drift,
//! seed drift or nondeterminism surfaces as
//! [`StoreRunError::Determinism`] instead of silently forking history —
//! then switches to appending. The determinism contract follows: running
//! `2N` rounds straight and running `N` rounds, crashing, recovering and
//! running `N` more produce byte-identical journals and identical
//! counter fingerprints.
//!
//! A fleet resume is cheaper: vehicles are independent, so committed
//! vehicle records are *skipped* outright (their outcomes are read back
//! from the journal) and only missing vehicles are simulated. Both kinds
//! fold into the same [`FleetAccumulator`] the in-memory executor uses,
//! whose quality mean does not depend on the order vehicles arrive in —
//! so the resumed aggregate (including its one order-sensitive float sum)
//! is bit-identical to the uninterrupted run's.
//!
//! Missing vehicles are simulated on worker threads and committed on the
//! calling thread, which owns the [`Store`]: results reach it in index
//! order, and each [`StorePolicy::chunk`] batch is appended, fsynced,
//! folded and (on the snapshot cadence) snapshotted while the workers go
//! on with the next vehicles, at most four batches ahead of the
//! committer. A crash loses at most the batch not yet committed;
//! vehicles simulated ahead of it were never journaled and are simulated
//! again on resume.
//!
//! A stored fleet keeps one copy of its journal in memory: [`Store`] keeps
//! the records recovery read at open and does not mirror appends, and
//! [`FleetStore::open_or_create`] decodes each committed
//! [`VehicleRecord`] only long enough to verify it and fold it into the
//! accumulator. Memory is 16 B per vehicle in the accumulator and at most
//! five batches of outcomes in flight. On a resume add the recovered
//! journal: [`Store::open`] holds the file and its scanned records at once
//! (about twice the journal), and the handle keeps the scanned records.
//!
//! # What guards the journal
//!
//! The manifest pins an FNV-1a hash of the canonical experiment encoding
//! (cluster, faults, engine parameters, accel, seed — *not* the horizon,
//! so a resume may extend it). A mismatch is rejected up front with the
//! analyzer's DA090 ([`DiagCode::StoreSpecMismatch`]) before any
//! simulation or journal mutation: when the store opens, and again when a
//! run starts, so a handle only ever runs the experiment it was opened
//! for.

use crate::fleet::{
    preflight, run_vehicle, FleetAccumulator, FleetConfig, FleetOptions, FleetOutcome,
    FleetRetention, VehicleOutcome,
};
use crate::fleet_exec;
use crate::runner::{run_campaign_opts, Campaign, CampaignError, CampaignOutcome, RunOptions};
use decos_analyzer::{AnalysisReport, DiagCode, Diagnostic, Severity};
use decos_diagnosis::{DiagnosticEngine, DiagnosticReport, DisseminationStats, EngineParams};
use decos_platform::ClusterSpec;
use decos_sim::rng::SeedSource;
use decos_sim::telemetry::{Counter, CounterSet, CounterValue, GaugeSet, TelemetrySnapshot};
use decos_store::{
    fnv1a, fnv1a_extend, Manifest, RoundDelta, Store, StoreError, StoreIo, ROUND_DELTA_KIND,
    STORE_SCHEMA, VEHICLE_KIND,
};
use serde::{Deserialize, Serialize};

/// Manifest `kind` for single-campaign stores.
pub const CAMPAIGN_KIND: &str = "campaign";
/// Manifest `kind` for fleet stores.
pub const FLEET_KIND: &str = "fleet";
/// Schema tag of campaign snapshot documents.
pub const CAMPAIGN_SNAP_SCHEMA: &str = "decos-store-campaign-snap/1";
/// Schema tag of fleet snapshot documents.
pub const FLEET_SNAP_SCHEMA: &str = "decos-store-fleet-snap/1";
/// Schema tag of journaled fleet vehicle records.
pub const VEHICLE_RECORD_SCHEMA: &str = "decos-store-vehicle/1";

/// Cadence and batching knobs for stored runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorePolicy {
    /// Campaign: write a full snapshot every this many rounds. Fleet:
    /// every this many vehicles. `0` disables snapshots.
    pub snapshot_every: u64,
    /// Campaign: fsync the journal every this many rounds (1 = every
    /// round is a commit point; larger trades durability window for
    /// throughput).
    pub sync_every: u64,
    /// Fleet: vehicles per journal commit (one fsync each) — a crash
    /// loses at most the batch not yet committed.
    pub chunk: usize,
}

/// How far, in [`StorePolicy::chunk`] batches, the stored fleet's workers
/// may simulate past the oldest vehicle the committer has not taken yet:
/// enough that the next batch is ready when a commit's fsync returns.
const COMMIT_WINDOW_CHUNKS: u64 = 4;

impl Default for StorePolicy {
    fn default() -> Self {
        StorePolicy { snapshot_every: 256, sync_every: 1, chunk: 8 }
    }
}

/// Why a stored run failed.
#[derive(Debug)]
pub enum StoreRunError {
    /// The underlying campaign refused to run (spec error or analyzer
    /// rejection — including the DA090 spec-hash mismatch).
    Campaign(CampaignError),
    /// The store itself failed (I/O or structural corruption).
    Store(StoreError),
    /// Replay verification failed: the journal's recorded round differs
    /// from the re-simulated one — the store was written by a different
    /// experiment than its manifest claims, or determinism broke.
    Determinism {
        /// First diverging round.
        round: u64,
        /// What diverged.
        detail: String,
    },
}

impl core::fmt::Display for StoreRunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreRunError::Campaign(e) => write!(f, "{e}"),
            StoreRunError::Store(e) => write!(f, "{e}"),
            StoreRunError::Determinism { round, detail } => {
                write!(f, "resume determinism mismatch at round {round}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreRunError {}

impl From<CampaignError> for StoreRunError {
    fn from(e: CampaignError) -> Self {
        StoreRunError::Campaign(e)
    }
}

impl From<StoreError> for StoreRunError {
    fn from(e: StoreError) -> Self {
        StoreRunError::Store(e)
    }
}

/// What a stored run did, for reporting. The journal and store counts are
/// reported here (the store CLI prints them in its stats line), not in the
/// outcome's telemetry: the snapshot's journal and store counters read 0
/// in run snapshots by design, so that fingerprints stay the same across a
/// resume, which legitimately does different I/O than a straight run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreRunStats {
    /// Rounds (campaign) or vehicles (fleet) already committed when the
    /// store opened.
    pub committed_before: u64,
    /// Campaign: rounds replay-verified against the journal this run.
    /// Fleet: committed vehicles folded from the journal instead of
    /// simulated.
    pub verified: u64,
    /// Rounds/vehicles appended this run.
    pub appended: u64,
    /// Total committed journal records after the run.
    pub journal_records: u64,
    /// Total committed journal bytes after the run.
    pub journal_bytes: u64,
    /// Journal fsyncs this run.
    pub fsyncs: u64,
    /// Snapshots written this run.
    pub snapshots_written: u64,
    /// Torn-tail bytes quarantined by recovery at open.
    pub quarantined_bytes: u64,
}

impl StoreRunStats {
    /// A run's starting point: `committed_before`, and what recovery
    /// quarantined when `store` opened.
    fn opened<IO: StoreIo>(committed_before: u64, store: &Store<IO>) -> Self {
        StoreRunStats {
            committed_before,
            quarantined_bytes: store.stats().quarantined_bytes,
            ..StoreRunStats::default()
        }
    }

    /// Fills in the journal totals `store` holds after the run.
    fn closed<IO: StoreIo>(mut self, store: &Store<IO>) -> Self {
        let s = store.stats();
        self.journal_records = s.recovered_records + s.appended_records;
        self.journal_bytes = store.journal_len();
        self.fsyncs = s.fsyncs;
        self.snapshots_written = s.snapshots_written;
        self
    }
}

/// Canonical campaign spec hash: cluster, faults, engine parameters,
/// accel and seed — everything that shapes the per-round record stream
/// except the horizon, which a resume may extend.
#[must_use]
pub(crate) fn campaign_spec_hash(c: &Campaign, params: &EngineParams) -> u64 {
    let mut s = serde_json::to_string(&c.spec).expect("cluster spec serializes");
    s.push('|');
    s.push_str(&serde_json::to_string(&c.faults).expect("fault specs serialize"));
    s.push('|');
    // `EngineParams` is plain data without a serde impl; its Debug form
    // is stable and total, which is all a fingerprint needs.
    s.push_str(&format!("{:?}", params));
    s.push_str(&format!("|accel={:?}|seed={}", c.accel, c.seed));
    fnv1a(s.as_bytes())
}

/// Canonical fleet spec hash. The per-vehicle horizon *is* included
/// (vehicle outcomes depend on it); the vehicle count is not, so a
/// resume may grow the fleet. Telemetry collection is included because
/// it decides whether journaled vehicle records carry counters.
#[must_use]
pub(crate) fn fleet_spec_hash(
    spec: &ClusterSpec,
    cfg: &FleetConfig,
    params: &EngineParams,
    opts: &FleetOptions,
) -> u64 {
    let mut s = serde_json::to_string(spec).expect("cluster spec serializes");
    s.push('|');
    s.push_str(&serde_json::to_string(&opts.base_faults).expect("fault specs serialize"));
    s.push('|');
    s.push_str(&format!("{:?}", params));
    s.push_str(&format!(
        "|accel={:?}|seed={}|rounds={}|telemetry={}",
        cfg.accel, cfg.seed, cfg.rounds, opts.telemetry
    ));
    fnv1a(s.as_bytes())
}

/// A DA090 rejection: the store belongs to another experiment than the
/// one this run asks for.
fn store_mismatch(message: String, suggestion: &str) -> StoreRunError {
    let mut report = AnalysisReport::new();
    report.push(
        Diagnostic::new(DiagCode::StoreSpecMismatch, Severity::Error, message).suggest(suggestion),
    );
    report.finish();
    StoreRunError::Campaign(CampaignError::Rejected(report))
}

/// Refuses a store of another `kind` as corrupt, and one written by
/// another experiment than `hash` with DA090.
fn check_experiment(m: &Manifest, kind: &str, hash: u64) -> Result<(), StoreRunError> {
    if m.kind != kind {
        return Err(
            StoreError::Corrupt(format!("store kind {:?} is not a {kind} store", m.kind)).into()
        );
    }
    if m.spec_hash != hash {
        return Err(store_mismatch(
            format!(
                "store was written by experiment {:016x}, this run is {hash:016x}: \
                 cluster, faults, engine parameters, accel or seed differ",
                m.spec_hash
            ),
            "point --store/--resume at a fresh directory, or rerun the stored experiment",
        ));
    }
    Ok(())
}

/// Opens (running recovery) or creates the store `manifest` describes,
/// then checks that it belongs to that experiment.
fn open_checked<IO: StoreIo>(io: IO, manifest: Manifest) -> Result<Store<IO>, StoreRunError> {
    let (kind, hash) = (manifest.kind.clone(), manifest.spec_hash);
    let store = Store::open_or_create(io, manifest)?;
    check_experiment(store.manifest(), &kind, hash)?;
    Ok(store)
}

// ---------------------------------------------------------------------------
// Campaign stores
// ---------------------------------------------------------------------------

/// Periodic full capture of the diagnostic state, written atomically
/// alongside the journal. Replay does not *need* it (resume re-simulates
/// and verifies), so it serves the maintenance workflow: `store-stat` and
/// external tooling read the newest snapshot without replaying anything.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSnapshot {
    /// [`CAMPAIGN_SNAP_SCHEMA`].
    pub schema: String,
    /// Round after which the snapshot was taken.
    pub round: u64,
    /// Streaming FNV-1a over every journaled delta payload up to and
    /// including this round — ties the snapshot to its journal prefix.
    pub journal_fingerprint: u64,
    /// Cumulative mean delivery quality.
    pub delivery_quality: f64,
    /// Cumulative dissemination statistics.
    pub dissemination: DisseminationStats,
    /// Full per-FRU trust/verdict state — the distributed diagnostic
    /// state as the maintenance advisor sees it.
    pub report: DiagnosticReport,
}

/// An open campaign store: committed per-round deltas plus the journal
/// underneath.
pub struct CampaignStore<IO: StoreIo> {
    store: Store<IO>,
    deltas: Vec<RoundDelta>,
    /// Streaming hash over committed delta payloads (snapshot anchor).
    fingerprint: u64,
}

impl<IO: StoreIo> CampaignStore<IO> {
    /// Opens (running recovery) or creates the store for `c`, rejecting a
    /// spec-hash mismatch with DA090 before touching the journal.
    pub fn open_or_create(
        io: IO,
        c: &Campaign,
        params: &EngineParams,
        policy: &StorePolicy,
    ) -> Result<Self, StoreRunError> {
        let manifest = Manifest {
            schema: STORE_SCHEMA.to_string(),
            kind: CAMPAIGN_KIND.to_string(),
            workload: format!(
                "campaign over {} components, {} faults",
                c.spec.components.len(),
                c.faults.len()
            ),
            spec_hash: campaign_spec_hash(c, params),
            seed: c.seed,
            accel: c.accel,
            rounds: c.rounds,
            vehicles: 1,
            snapshot_every: policy.snapshot_every,
        };
        let store = open_checked(io, manifest)?;
        let mut deltas = Vec::with_capacity(store.records().len());
        let mut fingerprint = fnv1a(b"decos-store-campaign");
        for (i, rec) in store.records().iter().enumerate() {
            if rec.kind != ROUND_DELTA_KIND || rec.round != i as u64 || rec.seq != i as u64 {
                return Err(StoreError::Corrupt(format!(
                    "journal record {i} is (kind {}, round {}, seq {}); expected a round-delta \
                     for round {i} — committed history has a gap",
                    rec.kind, rec.round, rec.seq
                ))
                .into());
            }
            let delta = RoundDelta::decode(&rec.payload)
                .map_err(|e| StoreError::Corrupt(format!("journal record {i}: {e}")))?;
            fingerprint = fnv1a_extend(fingerprint, &rec.payload);
            deltas.push(delta);
        }
        Ok(CampaignStore { store, deltas, fingerprint })
    }

    /// Rounds committed in the journal.
    #[must_use]
    pub fn committed_rounds(&self) -> u64 {
        self.deltas.len() as u64
    }

    /// The committed per-round deltas, oldest first.
    #[must_use]
    pub fn deltas(&self) -> &[RoundDelta] {
        &self.deltas
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &Store<IO> {
        &self.store
    }

    /// The underlying store, mutably (tests, store-stat).
    pub fn store_mut(&mut self) -> &mut Store<IO> {
        &mut self.store
    }
}

/// Tracks the engine's cumulative statistics so round deltas can be
/// formed without the engine exposing per-round internals.
#[derive(Debug, Clone, Copy, Default)]
struct Cumulative {
    stats: DisseminationStats,
    ona_matches: u64,
    frozen_rounds: u64,
    crashed_rounds: u64,
    failovers: u32,
}

impl Cumulative {
    fn capture(engine: &DiagnosticEngine) -> Self {
        Cumulative {
            stats: engine.dissemination_stats(),
            ona_matches: engine.ona_matches(),
            frozen_rounds: engine.frozen_rounds(),
            crashed_rounds: engine.crashed_rounds(),
            failovers: engine.failovers(),
        }
    }

    fn delta(&self, round: u64, prev: &Cumulative, engine: &DiagnosticEngine) -> RoundDelta {
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
            quality_bits: engine.delivery_quality().to_bits(),
            disturbance: engine.disturbance(),
        }
    }
}

/// Runs (or resumes) a campaign against its store. See the module docs
/// for the replay-verify resume semantics.
pub fn run_campaign_stored<IO: StoreIo>(
    c: &Campaign,
    params: EngineParams,
    opts: RunOptions,
    policy: &StorePolicy,
    cs: &mut CampaignStore<IO>,
) -> Result<(CampaignOutcome, StoreRunStats), StoreRunError> {
    check_experiment(cs.store.manifest(), CAMPAIGN_KIND, campaign_spec_hash(c, &params))?;
    let committed = cs.committed_rounds();
    let mut stats = StoreRunStats::opened(committed, &cs.store);
    // Latched first error: the runner's observer callback cannot return
    // early, so failures park here and surface after the run.
    let mut failure: Option<StoreRunError> = None;
    let mut prev = Cumulative::default();
    let out = run_campaign_opts(c, params, opts, |sim, engine, rec| {
        let spr = sim.schedule().slots_per_round();
        if rec.addr.slot.0 != spr - 1 || failure.is_some() {
            return;
        }
        let round = rec.addr.round;
        let cur = Cumulative::capture(engine);
        let delta = cur.delta(round, &prev, engine);
        prev = cur;
        if round < committed {
            // Replay of committed history: verify, never rewrite.
            let stored = &cs.deltas[round as usize];
            if *stored != delta {
                failure = Some(StoreRunError::Determinism {
                    round,
                    detail: format!("journal has {stored:?}, replay produced {delta:?}"),
                });
                return;
            }
            stats.verified += 1;
            return;
        }
        let payload = delta.encode();
        if let Err(e) = cs.store.append(ROUND_DELTA_KIND, round, round, &payload) {
            failure = Some(e.into());
            return;
        }
        cs.fingerprint = fnv1a_extend(cs.fingerprint, &payload);
        cs.deltas.push(delta);
        stats.appended += 1;
        if policy.sync_every > 0 && (round + 1) % policy.sync_every == 0 {
            if let Err(e) = cs.store.sync() {
                failure = Some(e.into());
                return;
            }
        }
        if policy.snapshot_every > 0 && (round + 1) % policy.snapshot_every == 0 {
            let snap = CampaignSnapshot {
                schema: CAMPAIGN_SNAP_SCHEMA.to_string(),
                round,
                journal_fingerprint: cs.fingerprint,
                delivery_quality: engine.delivery_quality(),
                dissemination: engine.dissemination_stats(),
                report: engine.report(),
            };
            if let Err(e) = write_snap(&mut cs.store, round, &snap) {
                failure = Some(e.into());
            }
        }
    });
    // A latched store/determinism failure is the root cause; prefer it over
    // the runner's follow-on error.
    if let Some(e) = failure {
        return Err(e);
    }
    let outcome = out?;
    // Final commit point, then record the (possibly grown) horizon in the
    // manifest.
    cs.store.sync()?;
    if c.rounds > cs.store.manifest().rounds {
        let mut m = cs.store.manifest().clone();
        m.rounds = c.rounds;
        cs.store.update_manifest(m)?;
    }
    Ok((outcome, stats.closed(&cs.store)))
}

/// Snapshot file name for a round, zero-padded so lexicographic order is
/// chronological.
#[must_use]
pub fn snap_name(round: u64) -> String {
    format!("snap-{round:012}.json")
}

/// Writes `snap` as the snapshot document for `round` (campaign) or
/// vehicle count (fleet).
fn write_snap<IO: StoreIo>(
    store: &mut Store<IO>,
    round: u64,
    snap: &impl Serialize,
) -> Result<(), StoreError> {
    let body = serde_json::to_string_pretty(snap)
        .map_err(|e| StoreError::Corrupt(format!("snapshot serialization: {e}")))?;
    store.write_snapshot(&snap_name(round), &body)
}

// ---------------------------------------------------------------------------
// Fleet stores
// ---------------------------------------------------------------------------

/// One journaled vehicle: the scored outcome plus (when telemetry was on)
/// the vehicle's full counter registry, so a resumed fleet aggregates
/// bit-identical telemetry without re-simulating.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VehicleRecord {
    /// [`VEHICLE_RECORD_SCHEMA`].
    pub schema: String,
    /// Vehicle index within the fleet.
    pub vehicle: u64,
    /// The scored outcome.
    pub outcome: VehicleOutcome,
    /// Counter registry values at vehicle end (`None` when telemetry was
    /// off).
    pub counters: Option<Vec<CounterValue>>,
}

/// Light periodic marker for fleet stores: lets `store-stat` report
/// progress without decoding every record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// [`FLEET_SNAP_SCHEMA`].
    pub schema: String,
    /// Vehicles committed when the snapshot was written.
    pub vehicles_done: u64,
    /// Streaming FNV-1a over every journaled vehicle payload so far.
    pub journal_fingerprint: u64,
}

/// An open fleet store: the journal, with the committed vehicles below the
/// fleet size it was opened for already folded.
pub struct FleetStore<IO: StoreIo> {
    store: Store<IO>,
    /// The fleet size the handle was opened for.
    vehicles: u64,
    /// The committed vehicles below `vehicles`, folded at open; the one
    /// run the handle allows takes it.
    acc: Option<FleetAccumulator>,
    fingerprint: u64,
}

impl<IO: StoreIo> FleetStore<IO> {
    /// Opens (running recovery) or creates the store for this fleet
    /// experiment, rejecting a spec-hash mismatch with DA090. Each
    /// recovered record is verified against its frame header, added to the
    /// journal fingerprint and, if its vehicle is below `cfg.vehicles`,
    /// folded; the decoded record is not kept.
    pub fn open_or_create(
        io: IO,
        spec: &ClusterSpec,
        cfg: &FleetConfig,
        params: &EngineParams,
        opts: &FleetOptions,
        policy: &StorePolicy,
    ) -> Result<Self, StoreRunError> {
        let manifest = Manifest {
            schema: STORE_SCHEMA.to_string(),
            kind: FLEET_KIND.to_string(),
            workload: format!(
                "fleet of {} vehicles x {} rounds over {} components",
                cfg.vehicles,
                cfg.rounds,
                spec.components.len()
            ),
            spec_hash: fleet_spec_hash(spec, cfg, params, opts),
            seed: cfg.seed,
            accel: cfg.accel,
            rounds: cfg.rounds,
            vehicles: cfg.vehicles,
            snapshot_every: policy.snapshot_every,
        };
        let store = open_checked(io, manifest)?;
        let mut acc = FleetAccumulator::new(cfg.vehicles, FleetRetention::Auto);
        let mut fingerprint = fnv1a(b"decos-store-fleet");
        for rec in store.records() {
            // The scan keeps headers strictly ascending, so with seq equal
            // to round no vehicle is committed twice.
            if rec.kind != VEHICLE_KIND || rec.seq != rec.round {
                return Err(StoreError::Corrupt(format!(
                    "fleet journal carries a kind-{} record with seq {} at vehicle {}",
                    rec.kind, rec.seq, rec.round
                ))
                .into());
            }
            let text = core::str::from_utf8(&rec.payload)
                .map_err(|_| StoreError::Corrupt("vehicle record is not UTF-8".into()))?;
            let vr: VehicleRecord = serde_json::from_str(text)
                .map_err(|e| StoreError::Corrupt(format!("vehicle record unparseable: {e}")))?;
            if vr.schema != VEHICLE_RECORD_SCHEMA || vr.vehicle != rec.round {
                return Err(StoreError::Corrupt(format!(
                    "vehicle record {} disagrees with its frame header",
                    rec.round
                ))
                .into());
            }
            fingerprint = fnv1a_extend(fingerprint, &rec.payload);
            if vr.vehicle < cfg.vehicles {
                let telemetry = vr.counters.as_deref().map(snapshot_from_counters);
                acc.record(vr.vehicle, vr.outcome, telemetry);
            }
        }
        Ok(FleetStore { store, vehicles: cfg.vehicles, acc: Some(acc), fingerprint })
    }

    /// Vehicles committed in the journal at open.
    #[must_use]
    pub fn committed_vehicles(&self) -> u64 {
        self.store.stats().recovered_records
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &Store<IO> {
        &self.store
    }

    /// The underlying store, mutably (tests, store-stat).
    pub fn store_mut(&mut self) -> &mut Store<IO> {
        &mut self.store
    }
}

/// Rebuilds a vehicle's telemetry snapshot from journaled counter values:
/// counters verbatim, gauges zeroed (the fleet aggregator re-derives every
/// gauge).
fn snapshot_from_counters(counters: &[CounterValue]) -> TelemetrySnapshot {
    let mut set = CounterSet::new();
    for c in Counter::ALL {
        if let Some(v) = counters.iter().find(|cv| cv.name == c.name()) {
            set.set(c, v.value);
        }
    }
    TelemetrySnapshot::assemble(&set, &GaugeSet::new())
}

/// Runs (or resumes) a fleet against its store. The run starts from the
/// committed vehicles [`FleetStore::open_or_create`] folded; missing
/// vehicles stream through one `fleet_exec::for_each_ordered` call
/// ([`FleetOptions::shards`] workers, one per core by default) that hands
/// them back in index order to the calling thread. There every
/// [`StorePolicy::chunk`] vehicles are journaled in ascending index
/// order, committed with one fsync and only then folded, while the
/// workers simulate up to four batches ahead; so the journal never
/// depends on the shard count. A rejected vehicle fails the run with the
/// same error [`crate::fleet::run_fleet_configured`] returns, and nothing
/// of its batch is journaled. A handle runs once, and only the experiment
/// it was opened for: another spec hash or fleet size, or a second run, is
/// refused with DA090 before anything is simulated.
pub fn run_fleet_stored<IO: StoreIo>(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    params: EngineParams,
    opts: &FleetOptions,
    policy: &StorePolicy,
    fs: &mut FleetStore<IO>,
) -> Result<(FleetOutcome, StoreRunStats), StoreRunError> {
    check_experiment(fs.store.manifest(), FLEET_KIND, fleet_spec_hash(spec, &cfg, &params, opts))?;
    let Some(mut acc) = fs.acc.take_if(|_| fs.vehicles == cfg.vehicles) else {
        return Err(store_mismatch(
            format!(
                "the store handle was opened for one run of {} vehicles; this run asks for {} \
                 vehicles, or the handle already ran",
                fs.vehicles, cfg.vehicles
            ),
            "reopen the store with the run's fleet configuration",
        ));
    };
    // Same pre-flight as the unstored fleet, before any vehicle is
    // simulated or journaled.
    preflight(spec, cfg, params, opts)?;
    let mut stats = StoreRunStats::opened(fs.committed_vehicles(), &fs.store);
    let seeds = SeedSource::new(cfg.seed);
    // Journaled and freshly simulated vehicles fold into the same
    // accumulator the in-memory executor uses; its quality mean does not
    // depend on the order they arrive in. The recovered headers ascend, so
    // one merge against them finds every index below the fleet size that
    // was not folded at open.
    let mut committed = fs.store.records().iter().map(|r| r.round).peekable();
    let missing: Vec<u64> =
        (0..cfg.vehicles).filter(|&v| committed.next_if_eq(&v).is_none()).collect();
    stats.verified = cfg.vehicles - missing.len() as u64;
    let chunk = policy.chunk.max(1);
    let shards = opts.shard_count();
    let window = COMMIT_WINDOW_CHUNKS * chunk as u64;
    let n = missing.len() as u64;
    let mut batch = Vec::with_capacity(chunk);
    fleet_exec::for_each_ordered(
        n,
        shards,
        window,
        |i| {
            let v = missing[i as usize];
            run_vehicle(spec, cfg, seeds, v, params, opts).map(|r| (v, r))
        },
        |i, result| {
            // A rejected vehicle fails the run before its batch is
            // journaled. Results come in index order, so the first
            // rejection is the lowest.
            batch.push(result?);
            if batch.len() < chunk && i + 1 < n {
                return Ok(());
            }
            // Journal in index order within the batch; out-of-order
            // *across* batches cannot happen because `missing` is sorted
            // and batches are committed in sequence — but a resumed store
            // whose committed set is a non-prefix subset (crash mid-batch
            // plus manual edits) could demand interleaved indices.
            // `Store::append` enforces monotonicity, so such a store is
            // rejected rather than silently reordered.
            for (v, (outcome, telemetry)) in &batch {
                let vr = VehicleRecord {
                    schema: VEHICLE_RECORD_SCHEMA.to_string(),
                    vehicle: *v,
                    outcome: outcome.clone(),
                    counters: telemetry.as_ref().map(|t| t.counters.clone()),
                };
                let payload = serde_json::to_string(&vr)
                    .map_err(|e| StoreError::Corrupt(format!("vehicle serialization: {e}")))?;
                fs.store.append(VEHICLE_KIND, *v, *v, payload.as_bytes())?;
                fs.fingerprint = fnv1a_extend(fs.fingerprint, payload.as_bytes());
                stats.appended += 1;
            }
            fs.store.sync()?;
            // Fold only after the batch is journaled and synced: the
            // accumulator must never get ahead of the crash-consistent
            // prefix it claims to summarize.
            for (v, (outcome, telemetry)) in batch.drain(..) {
                acc.record(v, outcome, telemetry);
            }
            let done = stats.committed_before + stats.appended;
            if policy.snapshot_every > 0 && done % policy.snapshot_every == 0 {
                let snap = FleetSnapshot {
                    schema: FLEET_SNAP_SCHEMA.to_string(),
                    vehicles_done: done,
                    journal_fingerprint: fs.fingerprint,
                };
                write_snap(&mut fs.store, done, &snap)?;
            }
            Ok::<(), StoreRunError>(())
        },
    )?;
    if cfg.vehicles > fs.store.manifest().vehicles {
        let mut m = fs.store.manifest().clone();
        m.vehicles = cfg.vehicles;
        fs.store.update_manifest(m)?;
    }
    Ok((acc.finish(), stats.closed(&fs.store)))
}
