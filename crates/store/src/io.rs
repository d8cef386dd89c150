//! Store I/O behind a trait, so the persistence layer is itself a
//! fault-injection target.
//!
//! [`FsIo`] is the real thing: files under a root directory, append
//! handles cached so fsync reaches the descriptor that wrote. [`FaultIo`]
//! is the adversary: an in-memory filesystem scripted by a [`FaultPlan`]
//! to tear writes at a byte budget, cap append sizes (short writes),
//! return ENOSPC, or flip a bit on read — everything a crash-matrix test
//! needs to prove recovery never loses a committed record nor resurrects
//! an uncommitted one.
//!
//! Paths are relative, `/`-separated, resolved against the store root.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::rc::Rc;

/// The I/O surface a [`crate::Store`] runs on.
///
/// `append` may write fewer bytes than offered (a short write); callers
/// loop. `write_atomic` is all-or-nothing with respect to readers.
pub trait StoreIo {
    /// Reads the whole file.
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>>;
    /// Appends to the file (creating it), returning how many bytes were
    /// actually written — possibly fewer than offered.
    fn append(&mut self, path: &str, bytes: &[u8]) -> io::Result<usize>;
    /// Flushes the file's written data to durable storage.
    fn sync(&mut self, path: &str) -> io::Result<()>;
    /// Truncates the file to `len` bytes and syncs.
    fn truncate(&mut self, path: &str, len: u64) -> io::Result<()>;
    /// Replaces the file's content atomically (write-temp-then-rename on
    /// the real filesystem), creating parent directories as needed.
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> io::Result<()>;
    /// Whether the file exists.
    fn exists(&mut self, path: &str) -> bool;
    /// Current length of the file in bytes.
    fn len(&mut self, path: &str) -> io::Result<u64>;
    /// Sorted file names (not paths) directly under `dir`; empty if the
    /// directory does not exist.
    fn list(&mut self, dir: &str) -> io::Result<Vec<String>>;
}

/// Real-filesystem [`StoreIo`] rooted at a directory.
#[derive(Debug)]
pub struct FsIo {
    root: PathBuf,
    /// Cached append handles: fsync must reach the fd that wrote, and
    /// reopening per append would defeat the kernel's write batching.
    appenders: HashMap<String, File>,
}

impl FsIo {
    /// Opens (creating) a store root.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FsIo { root, appenders: HashMap::new() })
    }

    fn resolve(&self, path: &str) -> PathBuf {
        let mut p = self.root.clone();
        p.extend(path.split('/'));
        p
    }
}

impl StoreIo for FsIo {
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>> {
        fs::read(self.resolve(path))
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> io::Result<usize> {
        if !self.appenders.contains_key(path) {
            let full = self.resolve(path);
            if let Some(dir) = full.parent() {
                fs::create_dir_all(dir)?;
            }
            let f = OpenOptions::new().append(true).create(true).open(full)?;
            self.appenders.insert(path.to_string(), f);
        }
        let f = self.appenders.get_mut(path).expect("inserted above");
        f.write_all(bytes)?;
        Ok(bytes.len())
    }

    fn sync(&mut self, path: &str) -> io::Result<()> {
        match self.appenders.get_mut(path) {
            Some(f) => f.sync_all(),
            None => {
                let full = self.resolve(path);
                if full.exists() {
                    File::open(full)?.sync_all()
                } else {
                    Ok(())
                }
            }
        }
    }

    fn truncate(&mut self, path: &str, len: u64) -> io::Result<()> {
        // Drop the cached appender first: O_APPEND handles keep their own
        // position, and a stale one would write past the truncation point.
        self.appenders.remove(path);
        let f = OpenOptions::new().write(true).open(self.resolve(path))?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let full = self.resolve(path);
        if let Some(dir) = full.parent() {
            fs::create_dir_all(dir)?;
        }
        crate::atomic::write_atomic(&full, bytes)
    }

    fn exists(&mut self, path: &str) -> bool {
        self.resolve(path).exists()
    }

    fn len(&mut self, path: &str) -> io::Result<u64> {
        Ok(fs::metadata(self.resolve(path))?.len())
    }

    fn list(&mut self, dir: &str) -> io::Result<Vec<String>> {
        let full = self.resolve(dir);
        if !full.is_dir() {
            return Ok(Vec::new());
        }
        let mut names: Vec<String> = fs::read_dir(full)?
            .filter_map(Result::ok)
            .filter(|e| e.path().is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        Ok(names)
    }
}

/// Scripted misbehaviour for [`FaultIo`]. All byte budgets count the
/// bytes *persisted by appends* since construction.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// After this many appended bytes, the "process dies": the append that
    /// crosses the budget persists only the bytes up to it (a torn write)
    /// and every subsequent operation fails. This is the crash-matrix
    /// knob: sweeping it across a record's framed length cuts the journal
    /// at every byte boundary.
    pub crash_after_bytes: Option<u64>,
    /// Appends persist at most this many bytes per call (short writes);
    /// the caller's retry loop must cope.
    pub short_write_cap: Option<usize>,
    /// After this many appended bytes, appends fail with
    /// [`io::ErrorKind::StorageFull`] without persisting anything.
    pub enospc_after_bytes: Option<u64>,
    /// `(path, byte offset, xor mask)`: reads of `path` return the byte at
    /// `offset` flipped — silent media corruption.
    pub flip_on_read: Option<(String, u64, u8)>,
    /// The next atomic write dies *before* its rename: nothing is
    /// persisted and the process is dead afterwards — a crash between
    /// writing the temp file and committing it.
    pub crash_on_atomic: bool,
}

#[derive(Debug, Default)]
struct FaultState {
    files: BTreeMap<String, Vec<u8>>,
    plan: FaultPlan,
    appended: u64,
    crashed: bool,
}

/// In-memory fault-injecting [`StoreIo`]. Cloning shares the underlying
/// state, so a test can keep a handle to inspect (or corrupt) the "disk"
/// while the store owns another.
#[derive(Debug, Clone, Default)]
pub struct FaultIo {
    inner: Rc<RefCell<FaultState>>,
}

impl FaultIo {
    /// A pristine in-memory filesystem with no scripted faults.
    #[must_use]
    pub fn pristine() -> Self {
        FaultIo::default()
    }

    /// An in-memory filesystem misbehaving per `plan`.
    #[must_use]
    pub fn with_plan(plan: FaultPlan) -> Self {
        let io = FaultIo::default();
        io.inner.borrow_mut().plan = plan;
        io
    }

    /// Seeds the filesystem from `(path, bytes)` pairs.
    #[must_use]
    pub fn from_files(files: impl IntoIterator<Item = (String, Vec<u8>)>, plan: FaultPlan) -> Self {
        let io = FaultIo::with_plan(plan);
        io.inner.borrow_mut().files = files.into_iter().collect();
        io
    }

    /// Snapshot of every file — the bytes a post-crash process would find.
    #[must_use]
    pub fn files(&self) -> BTreeMap<String, Vec<u8>> {
        self.inner.borrow().files.clone()
    }

    /// Raw bytes of one file, if present.
    #[must_use]
    pub fn file(&self, path: &str) -> Option<Vec<u8>> {
        self.inner.borrow().files.get(path).cloned()
    }

    /// Overwrites one file directly (test-side tampering).
    pub fn put(&self, path: &str, bytes: Vec<u8>) {
        self.inner.borrow_mut().files.insert(path.to_string(), bytes);
    }

    /// Whether the scripted crash has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.inner.borrow().crashed
    }

    /// Clears the crash flag and budgets — "restart the process" on the
    /// same surviving disk image.
    pub fn restart(&self) {
        let mut s = self.inner.borrow_mut();
        s.crashed = false;
        s.plan = FaultPlan::default();
    }

    fn dead() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "simulated crash: process is dead")
    }
}

impl StoreIo for FaultIo {
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>> {
        let s = self.inner.borrow();
        if s.crashed {
            return Err(Self::dead());
        }
        let mut bytes = s
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))?;
        if let Some((p, off, mask)) = &s.plan.flip_on_read {
            if p == path {
                if let Some(b) = bytes.get_mut(*off as usize) {
                    *b ^= mask;
                }
            }
        }
        Ok(bytes)
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> io::Result<usize> {
        let mut s = self.inner.borrow_mut();
        if s.crashed {
            return Err(Self::dead());
        }
        if let Some(budget) = s.plan.enospc_after_bytes {
            if s.appended + bytes.len() as u64 > budget {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "simulated ENOSPC"));
            }
        }
        let mut n = bytes.len();
        let mut dies = false;
        if let Some(budget) = s.plan.crash_after_bytes {
            let room = budget.saturating_sub(s.appended);
            if (room as usize) < n {
                n = room as usize;
                dies = true;
            }
        }
        if let Some(cap) = s.plan.short_write_cap {
            n = n.min(cap);
        }
        s.files.entry(path.to_string()).or_default().extend_from_slice(&bytes[..n]);
        s.appended += n as u64;
        if dies {
            s.crashed = true;
            return Err(Self::dead());
        }
        Ok(n)
    }

    fn sync(&mut self, path: &str) -> io::Result<()> {
        let _ = path;
        if self.inner.borrow().crashed {
            return Err(Self::dead());
        }
        Ok(())
    }

    fn truncate(&mut self, path: &str, len: u64) -> io::Result<()> {
        let mut s = self.inner.borrow_mut();
        if s.crashed {
            return Err(Self::dead());
        }
        match s.files.get_mut(path) {
            Some(f) => {
                f.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, path.to_string())),
        }
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.inner.borrow_mut();
        if s.crashed {
            return Err(Self::dead());
        }
        // Atomic writes are all-or-nothing: a scripted crash here means
        // the rename never happened and the old content survives
        // untouched. The append byte budgets deliberately do not apply —
        // they frame the *journal's* torn-write matrix.
        if s.plan.crash_on_atomic {
            s.crashed = true;
            return Err(Self::dead());
        }
        s.files.insert(path.to_string(), bytes.to_vec());
        Ok(())
    }

    fn exists(&mut self, path: &str) -> bool {
        self.inner.borrow().files.contains_key(path)
    }

    fn len(&mut self, path: &str) -> io::Result<u64> {
        let s = self.inner.borrow();
        s.files
            .get(path)
            .map(|f| f.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))
    }

    fn list(&mut self, dir: &str) -> io::Result<Vec<String>> {
        let s = self.inner.borrow();
        let prefix = format!("{dir}/");
        let mut names: Vec<String> = s
            .files
            .keys()
            .filter_map(|k| k.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(String::from)
            .collect();
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_io_short_writes_are_capped() {
        let mut io =
            FaultIo::with_plan(FaultPlan { short_write_cap: Some(3), ..Default::default() });
        assert_eq!(io.append("j", b"abcdef").unwrap(), 3);
        assert_eq!(io.file("j").unwrap(), b"abc");
        assert_eq!(io.append("j", b"def").unwrap(), 3);
        assert_eq!(io.file("j").unwrap(), b"abcdef");
    }

    #[test]
    fn fault_io_crash_tears_the_write_and_kills_the_process() {
        let mut io =
            FaultIo::with_plan(FaultPlan { crash_after_bytes: Some(4), ..Default::default() });
        assert!(io.append("j", b"abcdef").is_err());
        assert!(io.crashed());
        assert_eq!(io.file("j").unwrap(), b"abcd", "prefix up to the budget persists");
        assert!(io.append("j", b"x").is_err(), "dead processes do not write");
        io.restart();
        assert_eq!(io.append("j", b"x").unwrap(), 1);
    }

    #[test]
    fn fault_io_enospc_persists_nothing() {
        let mut io =
            FaultIo::with_plan(FaultPlan { enospc_after_bytes: Some(2), ..Default::default() });
        assert_eq!(io.append("j", b"ab").unwrap(), 2);
        let e = io.append("j", b"c").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert_eq!(io.file("j").unwrap(), b"ab");
    }

    #[test]
    fn fault_io_flips_a_bit_on_read() {
        let io = FaultIo::with_plan(FaultPlan {
            flip_on_read: Some(("j".into(), 1, 0x01)),
            ..Default::default()
        });
        io.put("j", vec![0xAA, 0xBB, 0xCC]);
        let mut h = io.clone();
        assert_eq!(h.read("j").unwrap(), vec![0xAA, 0xBA, 0xCC]);
        assert_eq!(io.file("j").unwrap(), vec![0xAA, 0xBB, 0xCC], "media itself unchanged");
    }

    #[test]
    fn fs_io_appends_lists_and_truncates() {
        let root = std::env::temp_dir().join("decos_store_fsio_test");
        let _ = fs::remove_dir_all(&root);
        let mut io = FsIo::new(&root).unwrap();
        assert_eq!(io.append("journal.log", b"hello").unwrap(), 5);
        io.sync("journal.log").unwrap();
        assert_eq!(io.read("journal.log").unwrap(), b"hello");
        io.write_atomic("snapshots/snap-1.json", b"{}").unwrap();
        assert_eq!(io.list("snapshots").unwrap(), vec!["snap-1.json".to_string()]);
        io.truncate("journal.log", 2).unwrap();
        assert_eq!(io.read("journal.log").unwrap(), b"he");
        assert_eq!(io.append("journal.log", b"y").unwrap(), 1);
        assert_eq!(io.read("journal.log").unwrap(), b"hey", "append lands after truncation point");
        fs::remove_dir_all(&root).unwrap();
    }
}
