//! Atomic file replacement: write-to-temp, fsync, rename.
//!
//! Every artifact emitter in the workspace (flight-recorder dumps, store
//! manifests and snapshots) routes through [`write_atomic`] so a crash
//! mid-dump can never leave a truncated or half-written file where a
//! reader expects a complete one. The rename is the commit point: readers
//! either see the old content or the new, never a prefix.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` atomically: the content lands in a `.tmp`
/// sibling first, is flushed and fsynced, and only then renamed over the
/// destination. On any error the destination is untouched (a stale `.tmp`
/// may remain; it is overwritten by the next attempt).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync is best-effort: some
    // platforms refuse to open directories for writing, and the rename is
    // already atomic with respect to readers.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The temporary sibling used by [`write_atomic`]: same directory (renames
/// across filesystems are not atomic), `.tmp` appended to the full file
/// name so `x.json` and `x` never collide on the same temp name.
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_replaces() {
        let dir = std::env::temp_dir().join("decos_store_atomic_test");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("artifact.json");
        write_atomic(&target, b"first").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"first");
        write_atomic(&target, b"second-longer").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"second-longer");
        assert!(
            !dir.join("artifact.json.tmp").exists(),
            "temp file must not survive a successful write"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
