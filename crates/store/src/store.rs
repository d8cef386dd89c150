//! The store: a manifest, an append-only journal, snapshots, and a
//! quarantine sidecar — all behind [`crate::StoreIo`].
//!
//! Directory layout under the store root:
//!
//! ```text
//! MANIFEST.json            what experiment this store belongs to
//! journal.log              CRC-framed records (see crate::frame)
//! snapshots/snap-*.json    periodic full state captures (atomic writes)
//! quarantine/tail-*.bin    severed torn/corrupt journal tails
//! ```
//!
//! Opening a store *is* recovery: the journal is scan-validated, the valid
//! prefix becomes the committed history, and any invalid tail is moved to
//! `quarantine/` (never deleted — a torn record is evidence) before the
//! journal is truncated back to the committed length.

use crate::frame::{self, ScanRecord};
use crate::io::StoreIo;
use serde::{Deserialize, Serialize};
use std::io;

/// Store format identifier pinned in the manifest.
pub const STORE_SCHEMA: &str = "decos-store/1";
/// Manifest file name under the store root.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST.json";
/// Journal file name under the store root.
pub const JOURNAL_FILE: &str = "journal.log";
/// Snapshot directory under the store root.
pub const SNAP_DIR: &str = "snapshots";
/// Quarantine directory under the store root.
pub const QUARANTINE_DIR: &str = "quarantine";

/// FNV-1a 64-bit — the workspace's canonical cheap content hash; used for
/// the manifest's experiment-spec hash and snapshot fingerprints.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Streaming FNV-1a: folds `bytes` into an existing hash state, so callers
/// can fingerprint a record sequence incrementally.
#[must_use]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What experiment a store belongs to. Written atomically at creation and
/// whenever the horizon grows; a resume whose spec hash disagrees is
/// rejected before any simulation (analyzer code DA090).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Store format: [`STORE_SCHEMA`].
    pub schema: String,
    /// `"campaign"` or `"fleet"`.
    pub kind: String,
    /// Human-readable workload descriptor (not part of the hash).
    pub workload: String,
    /// FNV-1a hash of the canonical experiment encoding — cluster, faults,
    /// engine parameters, accel, seed. Horizon-independent so a resume may
    /// extend the run.
    pub spec_hash: u64,
    /// Master seed.
    pub seed: u64,
    /// Rate acceleration factor.
    pub accel: f64,
    /// Campaign: total rounds last targeted. Fleet: rounds per vehicle.
    pub rounds: u64,
    /// Fleet: vehicles last targeted. Campaign: 1.
    pub vehicles: u64,
    /// Snapshot cadence in rounds (campaign) or vehicles (fleet).
    pub snapshot_every: u64,
}

/// Why a store refused to open or write.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying I/O failed (including simulated crashes/ENOSPC).
    Io(io::Error),
    /// The store is structurally unusable: missing/unreadable manifest,
    /// wrong schema, or a journal that contradicts itself in ways tail
    /// truncation cannot repair (a gap in committed history).
    Corrupt(String),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Counters a store accumulates over one process lifetime. Recovery
/// fields describe what `open` found; append fields what this session
/// wrote. These feed the telemetry registry's `store_*`/`journal_*`
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StoreStats {
    /// Committed records recovered at open.
    pub recovered_records: u64,
    /// Committed journal bytes recovered at open.
    pub recovered_bytes: u64,
    /// Torn-tail bytes moved to quarantine at open.
    pub quarantined_bytes: u64,
    /// Why the tail was torn, if it was.
    pub torn: Option<String>,
    /// Records appended this session.
    pub appended_records: u64,
    /// Journal bytes appended this session.
    pub appended_bytes: u64,
    /// Journal fsyncs this session.
    pub fsyncs: u64,
    /// Snapshots written this session.
    pub snapshots_written: u64,
}

/// An open store: the records recovered at open in memory, the journal on
/// "disk" via the [`StoreIo`] implementation.
#[derive(Debug)]
pub struct Store<IO: StoreIo> {
    io: IO,
    manifest: Manifest,
    records: Vec<ScanRecord>,
    /// `(round, seq)` of the newest committed record, recovered or
    /// appended: the header the next append must exceed.
    last: Option<(u64, u64)>,
    journal_len: u64,
    stats: StoreStats,
}

impl<IO: StoreIo> Store<IO> {
    /// Initializes a fresh store. Refuses to clobber an existing one.
    pub fn create(mut io: IO, manifest: Manifest) -> Result<Self, StoreError> {
        if io.exists(MANIFEST_FILE) {
            return Err(StoreError::Corrupt("store already initialized here".into()));
        }
        write_manifest(&mut io, &manifest)?;
        Ok(Store {
            io,
            manifest,
            records: Vec::new(),
            last: None,
            journal_len: 0,
            stats: StoreStats::default(),
        })
    }

    /// Opens an existing store, running recovery: scan-validate the
    /// journal, quarantine any torn tail, truncate to the committed
    /// prefix. The caller validates the manifest's spec hash against the
    /// experiment it intends to run.
    pub fn open(mut io: IO) -> Result<Self, StoreError> {
        let manifest = read_manifest(&mut io)?;
        let bytes = if io.exists(JOURNAL_FILE) { io.read(JOURNAL_FILE)? } else { Vec::new() };
        let scan = frame::scan(&bytes);
        let mut stats = StoreStats {
            recovered_records: scan.records.len() as u64,
            recovered_bytes: scan.valid_len,
            ..StoreStats::default()
        };
        if let Some(reason) = scan.torn {
            let tail = &bytes[scan.valid_len as usize..];
            stats.quarantined_bytes = tail.len() as u64;
            stats.torn = Some(reason.to_string());
            // Quarantine before truncating: if the process dies between
            // the two, the next open re-runs the same recovery and the
            // sidecar write is idempotent (same name, same bytes).
            io.write_atomic(&format!("{QUARANTINE_DIR}/tail-{}.bin", scan.valid_len), tail)?;
            io.truncate(JOURNAL_FILE, scan.valid_len)?;
        }
        let last = scan.records.last().map(|r| (r.round, r.seq));
        Ok(Store { io, manifest, records: scan.records, last, journal_len: scan.valid_len, stats })
    }

    /// Opens if a manifest exists, otherwise creates with `manifest`.
    pub fn open_or_create(mut io: IO, manifest: Manifest) -> Result<Self, StoreError> {
        if io.exists(MANIFEST_FILE) {
            Store::open(io)
        } else {
            Store::create(io, manifest)
        }
    }

    /// Read-only inspection: recovery analysis without mutating anything —
    /// what `store-stat` uses. Returns the store plus the scan verdict;
    /// torn tails are reported, not quarantined.
    pub fn inspect(mut io: IO) -> Result<(Manifest, frame::ScanOutcome, u64), StoreError> {
        let manifest = read_manifest(&mut io)?;
        let bytes = if io.exists(JOURNAL_FILE) { io.read(JOURNAL_FILE)? } else { Vec::new() };
        let total = bytes.len() as u64;
        Ok((manifest, frame::scan(&bytes), total))
    }

    /// The manifest as opened.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Rewrites the manifest atomically (horizon extension on resume).
    pub fn update_manifest(&mut self, manifest: Manifest) -> Result<(), StoreError> {
        write_manifest(&mut self.io, &manifest)?;
        self.manifest = manifest;
        Ok(())
    }

    /// The committed records recovery read at open, oldest first. Records
    /// appended through this handle are not kept in memory: reopen the
    /// store to read them back; [`StoreStats`] counts both.
    #[must_use]
    pub fn records(&self) -> &[ScanRecord] {
        &self.records
    }

    /// Session statistics.
    #[must_use]
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Committed journal length in bytes.
    #[must_use]
    pub fn journal_len(&self) -> u64 {
        self.journal_len
    }

    /// Appends one framed record, retrying short writes to completion.
    /// On error the journal may carry a torn record — exactly what the
    /// next open's recovery truncates.
    pub fn append(
        &mut self,
        kind: u8,
        round: u64,
        seq: u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        if let Some((last_round, last_seq)) = self.last {
            if (round, seq) <= (last_round, last_seq) {
                return Err(StoreError::Corrupt(format!(
                    "append out of order: ({round}, {seq}) after ({last_round}, {last_seq})"
                )));
            }
        }
        let mut buf = Vec::with_capacity(frame::framed_len(payload.len()));
        frame::encode_record(kind, round, seq, payload, &mut buf);
        let mut off = 0usize;
        while off < buf.len() {
            let n = self.io.append(JOURNAL_FILE, &buf[off..])?;
            if n == 0 {
                return Err(StoreError::Io(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "journal append made no progress",
                )));
            }
            off += n;
        }
        self.last = Some((round, seq));
        self.journal_len += buf.len() as u64;
        self.stats.appended_records += 1;
        self.stats.appended_bytes += buf.len() as u64;
        Ok(())
    }

    /// Fsyncs the journal — the commit point for everything appended so
    /// far.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.io.sync(JOURNAL_FILE)?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Writes a named snapshot document atomically.
    pub fn write_snapshot(&mut self, name: &str, body: &str) -> Result<(), StoreError> {
        self.io.write_atomic(&format!("{SNAP_DIR}/{name}"), body.as_bytes())?;
        self.stats.snapshots_written += 1;
        Ok(())
    }

    /// Reads a named snapshot document.
    pub fn read_snapshot(&mut self, name: &str) -> Result<String, StoreError> {
        let bytes = self.io.read(&format!("{SNAP_DIR}/{name}"))?;
        String::from_utf8(bytes)
            .map_err(|_| StoreError::Corrupt(format!("snapshot {name} is not UTF-8")))
    }

    /// Sorted snapshot names. Zero-padded round numbers in the names make
    /// lexicographic order chronological.
    pub fn snapshot_names(&mut self) -> Result<Vec<String>, StoreError> {
        Ok(self.io.list(SNAP_DIR)?)
    }

    /// Sorted quarantine sidecar names.
    pub fn quarantine_names(&mut self) -> Result<Vec<String>, StoreError> {
        Ok(self.io.list(QUARANTINE_DIR)?)
    }

    /// Direct handle to the I/O layer (tests).
    pub fn io_mut(&mut self) -> &mut IO {
        &mut self.io
    }
}

fn read_manifest<IO: StoreIo>(io: &mut IO) -> Result<Manifest, StoreError> {
    if !io.exists(MANIFEST_FILE) {
        return Err(StoreError::Corrupt("no MANIFEST.json — not a store".into()));
    }
    let bytes = io.read(MANIFEST_FILE)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| StoreError::Corrupt("MANIFEST.json is not UTF-8".into()))?;
    let manifest: Manifest = serde_json::from_str(&text)
        .map_err(|e| StoreError::Corrupt(format!("MANIFEST.json unparseable: {e}")))?;
    if manifest.schema != STORE_SCHEMA {
        return Err(StoreError::Corrupt(format!(
            "schema {:?} is not {STORE_SCHEMA:?}",
            manifest.schema
        )));
    }
    Ok(manifest)
}

fn write_manifest<IO: StoreIo>(io: &mut IO, manifest: &Manifest) -> Result<(), StoreError> {
    let body = serde_json::to_string_pretty(manifest)
        .map_err(|e| StoreError::Corrupt(format!("manifest serialization failed: {e}")))?;
    io.write_atomic(MANIFEST_FILE, body.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultIo, FaultPlan};

    fn manifest() -> Manifest {
        Manifest {
            schema: STORE_SCHEMA.to_string(),
            kind: "campaign".to_string(),
            workload: "test".to_string(),
            spec_hash: 42,
            seed: 7,
            accel: 1.0,
            rounds: 100,
            vehicles: 1,
            snapshot_every: 10,
        }
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let io = FaultIo::pristine();
        let mut s = Store::create(io.clone(), manifest()).unwrap();
        for r in 0..5u64 {
            s.append(1, r, r, &r.to_le_bytes()).unwrap();
        }
        s.sync().unwrap();
        s.write_snapshot("snap-000000000004.json", "{\"round\":4}").unwrap();

        let mut back = Store::open(io).unwrap();
        assert_eq!(back.manifest(), &manifest());
        assert_eq!(back.records().len(), 5);
        assert_eq!(back.stats().recovered_records, 5);
        assert_eq!(back.stats().torn, None);
        assert_eq!(back.snapshot_names().unwrap(), vec!["snap-000000000004.json".to_string()]);
        assert_eq!(back.read_snapshot("snap-000000000004.json").unwrap(), "{\"round\":4}");
    }

    #[test]
    fn torn_tail_is_quarantined_not_deleted() {
        let io = FaultIo::pristine();
        let mut s = Store::create(io.clone(), manifest()).unwrap();
        for r in 0..3u64 {
            s.append(1, r, r, b"payload").unwrap();
        }
        let committed = s.journal_len();
        // Tear the journal mid-record, as a crash would.
        let mut bytes = io.file(JOURNAL_FILE).unwrap();
        let torn_tail = bytes.split_off(committed as usize - 5);
        let mut cut = bytes;
        cut.extend_from_slice(&torn_tail[..2]);
        io.put(JOURNAL_FILE, cut);

        let mut back = Store::open(io.clone()).unwrap();
        assert_eq!(back.records().len(), 2, "two committed records survive");
        assert!(back.stats().quarantined_bytes > 0);
        assert!(back.stats().torn.is_some());
        let q = back.quarantine_names().unwrap();
        assert_eq!(q.len(), 1, "severed tail lands in quarantine: {q:?}");
        // The journal itself is truncated to the committed prefix and
        // appends continue from record 2.
        back.append(1, 2, 2, b"payload").unwrap();
        let reopened = Store::open(io).unwrap();
        assert_eq!(reopened.records().len(), 3);
        assert_eq!(reopened.stats().torn, None);
    }

    #[test]
    fn short_writes_are_retried_to_completion() {
        let io = FaultIo::with_plan(FaultPlan { short_write_cap: Some(3), ..Default::default() });
        let mut s = Store::create(io.clone(), manifest()).unwrap();
        s.append(1, 0, 0, b"a-long-enough-payload").unwrap();
        let back = Store::open(io).unwrap();
        assert_eq!(back.records().len(), 1);
        assert_eq!(back.records()[0].payload, b"a-long-enough-payload");
    }

    #[test]
    fn enospc_surfaces_as_io_error_and_recovery_cleans_up() {
        let io =
            FaultIo::with_plan(FaultPlan { enospc_after_bytes: Some(400), ..Default::default() });
        let mut s = Store::create(io.clone(), manifest()).unwrap();
        let mut failed = None;
        for r in 0..50u64 {
            if let Err(e) = s.append(1, r, r, &[0u8; 32]) {
                failed = Some((r, e));
                break;
            }
        }
        let (at, err) = failed.expect("the byte budget must eventually trip");
        assert!(matches!(err, StoreError::Io(ref e) if e.kind() == io::ErrorKind::StorageFull));
        io.restart();
        let back = Store::open(io).unwrap();
        assert_eq!(back.records().len() as u64, at, "all pre-ENOSPC records survive");
    }

    #[test]
    fn bit_flip_on_read_truncates_at_the_flipped_record() {
        let io = FaultIo::pristine();
        let mut s = Store::create(io.clone(), manifest()).unwrap();
        for r in 0..4u64 {
            s.append(1, r, r, &[r as u8; 16]).unwrap();
        }
        let record_len = s.journal_len() / 4;
        drop(s);
        // Flip a payload bit inside record 2 (silent media corruption).
        let files = io.files();
        let flipped = FaultIo::from_files(
            files,
            FaultPlan {
                flip_on_read: Some((
                    JOURNAL_FILE.to_string(),
                    2 * record_len + frame::HEADER_LEN as u64 + 3,
                    0x10,
                )),
                ..Default::default()
            },
        );
        let back = Store::open(flipped).unwrap();
        assert_eq!(back.records().len(), 2, "records before the flip survive");
        assert_eq!(back.stats().torn.as_deref(), Some("crc mismatch"));
    }

    #[test]
    fn open_refuses_non_store_and_wrong_schema() {
        assert!(matches!(Store::open(FaultIo::pristine()), Err(StoreError::Corrupt(_))));
        let io = FaultIo::pristine();
        let mut m = manifest();
        m.schema = "something-else/9".to_string();
        io.put(MANIFEST_FILE, serde_json::to_string(&m).unwrap().into_bytes());
        assert!(matches!(Store::open(io), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn create_refuses_to_clobber() {
        let io = FaultIo::pristine();
        let _ = Store::create(io.clone(), manifest()).unwrap();
        assert!(matches!(Store::create(io, manifest()), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn append_rejects_out_of_order_rounds() {
        let io = FaultIo::pristine();
        let mut s = Store::create(io, manifest()).unwrap();
        s.append(1, 5, 5, b"x").unwrap();
        assert!(matches!(s.append(1, 5, 5, b"y"), Err(StoreError::Corrupt(_))));
        assert!(matches!(s.append(1, 4, 4, b"y"), Err(StoreError::Corrupt(_))));
        s.append(1, 6, 6, b"z").unwrap();
    }

    #[test]
    fn appends_are_journaled_not_mirrored_and_order_survives_reopen() {
        let io = FaultIo::pristine();
        let mut s = Store::create(io.clone(), manifest()).unwrap();
        s.append(1, 0, 0, b"a").unwrap();
        s.append(1, 1, 1, b"b").unwrap();
        assert!(s.records().is_empty(), "a fresh store recovered nothing");
        assert_eq!(s.stats().appended_records, 2);

        let mut back = Store::open(io.clone()).unwrap();
        assert!(matches!(back.append(1, 1, 1, b"x"), Err(StoreError::Corrupt(_))));
        back.append(1, 2, 2, b"c").unwrap();
        assert_eq!(back.records().len(), 2, "only what recovery read");
        assert_eq!(back.stats().recovered_records + back.stats().appended_records, 3);
        assert_eq!(Store::open(io).unwrap().records().len(), 3);
    }
}
