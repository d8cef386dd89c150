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
//! is bit-identical to the uninterrupted run's. Memory is 16 B per vehicle
//! in the accumulator, plus, on a resume, every committed
//! [`VehicleRecord`], which [`FleetStore::open_or_create`] reads into
//! memory.
//!
//! # What guards the journal
//!
//! The manifest pins an FNV-1a hash of the canonical experiment encoding
//! (cluster, faults, engine parameters, accel, seed — *not* the horizon,
//! so a resume may extend it). A mismatch is rejected up front with the
//! analyzer's DA090 ([`DiagCode::StoreSpecMismatch`]) before any
//! simulation or journal mutation.

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
use std::collections::BTreeMap;

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
    /// Fleet: vehicles simulated per parallel batch between journal
    /// commits — a crash loses at most one batch.
    pub chunk: usize,
}

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
    /// Rounds replay-verified against the journal this run.
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

fn spec_mismatch_rejection(expected: u64, found: u64) -> CampaignError {
    let mut report = AnalysisReport::new();
    report.push(
        Diagnostic::new(
            DiagCode::StoreSpecMismatch,
            Severity::Error,
            format!(
                "store was written by experiment {found:016x}, this run is {expected:016x}: \
                 cluster, faults, engine parameters, accel or seed differ"
            ),
        )
        .suggest("point --store/--resume at a fresh directory, or rerun the stored experiment"),
    );
    report.finish();
    CampaignError::Rejected(report)
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
        let hash = campaign_spec_hash(c, params);
        let manifest = Manifest {
            schema: STORE_SCHEMA.to_string(),
            kind: CAMPAIGN_KIND.to_string(),
            workload: format!(
                "campaign over {} components, {} faults",
                c.spec.components.len(),
                c.faults.len()
            ),
            spec_hash: hash,
            seed: c.seed,
            accel: c.accel,
            rounds: c.rounds,
            vehicles: 1,
            snapshot_every: policy.snapshot_every,
        };
        let store = Store::open_or_create(io, manifest)?;
        if store.manifest().kind != CAMPAIGN_KIND {
            return Err(StoreError::Corrupt(format!(
                "store kind {:?} is not a campaign store",
                store.manifest().kind
            ))
            .into());
        }
        if store.manifest().spec_hash != hash {
            return Err(spec_mismatch_rejection(hash, store.manifest().spec_hash).into());
        }
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
    let committed = cs.committed_rounds();
    let mut stats = StoreRunStats {
        committed_before: committed,
        quarantined_bytes: cs.store.stats().quarantined_bytes,
        ..StoreRunStats::default()
    };
    // Latched first error: the runner's observer callback cannot return
    // early, so failures park here and surface after the run.
    let mut failure: Option<StoreRunError> = None;
    let mut prev = Cumulative::default();
    {
        let cs = &mut *cs;
        let stats = &mut stats;
        let failure = &mut failure;
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
                    *failure = Some(StoreRunError::Determinism {
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
                *failure = Some(e.into());
                return;
            }
            cs.fingerprint = fnv1a_extend(cs.fingerprint, &payload);
            cs.deltas.push(delta);
            stats.appended += 1;
            if policy.sync_every > 0 && (round + 1) % policy.sync_every == 0 {
                if let Err(e) = cs.store.sync() {
                    *failure = Some(e.into());
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
                let body = match serde_json::to_string_pretty(&snap) {
                    Ok(b) => b,
                    Err(e) => {
                        *failure = Some(
                            StoreError::Corrupt(format!("snapshot serialization: {e}")).into(),
                        );
                        return;
                    }
                };
                if let Err(e) = cs.store.write_snapshot(&snap_name(round), &body) {
                    *failure = Some(e.into());
                }
            }
        });
        match out {
            Ok(outcome) => {
                if let Some(e) = failure.take() {
                    return Err(e);
                }
                // Final commit point, then record the (possibly grown)
                // horizon in the manifest.
                cs.store.sync()?;
                if c.rounds > cs.store.manifest().rounds {
                    let mut m = cs.store.manifest().clone();
                    m.rounds = c.rounds;
                    cs.store.update_manifest(m)?;
                }
                stats.journal_records = cs.store.records().len() as u64;
                stats.journal_bytes = cs.store.journal_len();
                stats.fsyncs = cs.store.stats().fsyncs;
                stats.snapshots_written = cs.store.stats().snapshots_written;
                Ok((outcome, *stats))
            }
            Err(e) => {
                // A latched store/determinism failure is the root cause;
                // prefer it over the runner's follow-on error.
                match failure.take() {
                    Some(first) => Err(first),
                    None => Err(e.into()),
                }
            }
        }
    }
}

/// Snapshot file name for a round, zero-padded so lexicographic order is
/// chronological.
#[must_use]
pub fn snap_name(round: u64) -> String {
    format!("snap-{round:012}.json")
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

/// An open fleet store: journaled vehicle records by index.
pub struct FleetStore<IO: StoreIo> {
    store: Store<IO>,
    committed: BTreeMap<u64, VehicleRecord>,
    fingerprint: u64,
}

impl<IO: StoreIo> FleetStore<IO> {
    /// Opens (running recovery) or creates the store for this fleet
    /// experiment, rejecting a spec-hash mismatch with DA090.
    pub fn open_or_create(
        io: IO,
        spec: &ClusterSpec,
        cfg: &FleetConfig,
        params: &EngineParams,
        opts: &FleetOptions,
        policy: &StorePolicy,
    ) -> Result<Self, StoreRunError> {
        let hash = fleet_spec_hash(spec, cfg, params, opts);
        let manifest = Manifest {
            schema: STORE_SCHEMA.to_string(),
            kind: FLEET_KIND.to_string(),
            workload: format!(
                "fleet of {} vehicles x {} rounds over {} components",
                cfg.vehicles,
                cfg.rounds,
                spec.components.len()
            ),
            spec_hash: hash,
            seed: cfg.seed,
            accel: cfg.accel,
            rounds: cfg.rounds,
            vehicles: cfg.vehicles,
            snapshot_every: policy.snapshot_every,
        };
        let store = Store::open_or_create(io, manifest)?;
        if store.manifest().kind != FLEET_KIND {
            return Err(StoreError::Corrupt(format!(
                "store kind {:?} is not a fleet store",
                store.manifest().kind
            ))
            .into());
        }
        if store.manifest().spec_hash != hash {
            return Err(spec_mismatch_rejection(hash, store.manifest().spec_hash).into());
        }
        let mut committed = BTreeMap::new();
        let mut fingerprint = fnv1a(b"decos-store-fleet");
        for rec in store.records() {
            if rec.kind != VEHICLE_KIND {
                return Err(StoreError::Corrupt(format!(
                    "fleet journal carries a kind-{} record",
                    rec.kind
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
            committed.insert(vr.vehicle, vr);
        }
        Ok(FleetStore { store, committed, fingerprint })
    }

    /// Vehicles committed in the journal.
    #[must_use]
    pub fn committed_vehicles(&self) -> u64 {
        self.committed.len() as u64
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

/// Runs (or resumes) a fleet against its store. Committed vehicles are
/// read back from the journal and skipped; missing vehicles are simulated
/// in batches of [`StorePolicy::chunk`] on the [`fleet_exec`] executor
/// ([`FleetOptions::shards`] shards, one per core by default). Each batch
/// is journaled in ascending index order and committed with one fsync
/// before it is folded, so the journal never depends on the shard count.
/// A rejected vehicle fails the run with the same error
/// [`crate::fleet::run_fleet_configured`] returns, and its batch is not
/// journaled.
pub fn run_fleet_stored<IO: StoreIo>(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    params: EngineParams,
    opts: &FleetOptions,
    policy: &StorePolicy,
    fs: &mut FleetStore<IO>,
) -> Result<(FleetOutcome, StoreRunStats), StoreRunError> {
    // Same pre-flight as the unstored fleet, before any vehicle is
    // simulated or journaled.
    preflight(spec, cfg, params, opts)?;
    let mut stats = StoreRunStats {
        committed_before: fs.committed_vehicles(),
        quarantined_bytes: fs.store.stats().quarantined_bytes,
        ..StoreRunStats::default()
    };
    let seeds = SeedSource::new(cfg.seed);
    let missing: Vec<u64> = (0..cfg.vehicles).filter(|v| !fs.committed.contains_key(v)).collect();
    let chunk = policy.chunk.max(1);
    let shards = opts.shard_count();
    // Journaled and freshly simulated vehicles fold into the same
    // accumulator the in-memory executor uses; its quality mean does not
    // depend on the order they arrive in. Every index below the fleet
    // size is either committed or missing, so all of them are folded.
    let mut acc = FleetAccumulator::new(cfg.vehicles, FleetRetention::Auto);
    for (&v, vr) in fs.committed.range(..cfg.vehicles) {
        // Reused straight from the journal — the compute a resume saves.
        acc.record(v, vr.outcome.clone(), vr.counters.as_deref().map(snapshot_from_counters));
        stats.verified += 1;
    }
    for batch in missing.chunks(chunk) {
        let results = fleet_exec::map_ordered(batch.len() as u64, shards, |i| {
            let v = batch[i as usize];
            run_vehicle(spec, cfg, seeds, v, params, opts).map(|r| (v, r))
        });
        // A rejected vehicle fails the run before its batch is journaled.
        // Results come in index order, so the first rejection is the
        // lowest.
        let results: Vec<_> = results.into_iter().collect::<Result<_, _>>()?;
        // Journal in index order within the batch; out-of-order *across*
        // batches cannot happen because `missing` is sorted and batches
        // are committed in sequence — but a resumed store whose committed
        // set is a non-prefix subset (crash mid-batch plus manual edits)
        // could demand interleaved indices. `Store::append` enforces
        // monotonicity, so such a store is rejected rather than silently
        // reordered.
        for (v, (outcome, telemetry)) in &results {
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
        for (v, (outcome, telemetry)) in results {
            acc.record(v, outcome, telemetry);
        }
        let done = fs.committed.len() as u64 + stats.appended;
        if policy.snapshot_every > 0 && stats.appended > 0 && done % policy.snapshot_every == 0 {
            let snap = FleetSnapshot {
                schema: FLEET_SNAP_SCHEMA.to_string(),
                vehicles_done: done,
                journal_fingerprint: fs.fingerprint,
            };
            let body = serde_json::to_string_pretty(&snap)
                .map_err(|e| StoreError::Corrupt(format!("snapshot serialization: {e}")))?;
            fs.store.write_snapshot(&snap_name(done), &body)?;
        }
    }
    if cfg.vehicles > fs.store.manifest().vehicles {
        let mut m = fs.store.manifest().clone();
        m.vehicles = cfg.vehicles;
        fs.store.update_manifest(m)?;
    }
    stats.journal_records = fs.store.records().len() as u64;
    stats.journal_bytes = fs.store.journal_len();
    stats.fsyncs = fs.store.stats().fsyncs;
    stats.snapshots_written = fs.store.stats().snapshots_written;
    Ok((acc.finish(), stats))
}
