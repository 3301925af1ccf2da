//! The file system `housing_served` logs to: the engine's own
//! [`StdVfs`] in a directory of the benchmark's checkout, with every
//! fsync left out.
//!
//! Every open, write, rename, truncate and remove is the real system
//! call through the page cache, so the program's file path is
//! measured. Only the wait for the disk is not: under the default
//! `SyncPolicy::OnCheckpoint` each checkpoint fsyncs, and on a shared
//! disk that wait measures other tenants' I/O, not the program.

use fivm_durability::{StdVfs, Vfs, VfsFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// [`StdVfs`] without fsync, counting the bytes written to WAL
/// segments. Clones share the count.
#[derive(Clone, Default)]
pub struct NoSyncVfs {
    wal_written: Arc<AtomicU64>,
}

impl NoSyncVfs {
    /// Bytes ever written to WAL segments (`.seg` files), rewrites
    /// included.
    pub fn wal_written(&self) -> u64 {
        self.wal_written.load(Ordering::Relaxed)
    }

    fn wrap(&self, path: &Path, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        let wal = path.extension().is_some_and(|e| e == "seg");
        Box::new(NoSyncFile {
            inner,
            wal_written: wal.then(|| self.wal_written.clone()),
        })
    }
}

struct NoSyncFile {
    inner: Box<dyn VfsFile>,
    wal_written: Option<Arc<AtomicU64>>,
}

impl VfsFile for NoSyncFile {
    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write_at(off, buf)?;
        if let Some(w) = &self.wal_written {
            w.fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(n)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Vfs for NoSyncVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, StdVfs.create_new(path)?))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, StdVfs.create(path)?))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        StdVfs.file_len(path)
    }
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        StdVfs.set_len(path, len)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        StdVfs.read_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(dir)
    }
    fn is_file(&self, path: &Path) -> bool {
        StdVfs.is_file(path)
    }
}

/// The last path, in name order, of the files in `dir` whose names end
/// in `suffix` (WAL segments are named by sequence number).
pub fn newest(dir: &Path, suffix: &str) -> Option<PathBuf> {
    let mut files: Vec<PathBuf> = StdVfs.read_dir(dir).ok()?;
    files.retain(|p| p.to_string_lossy().ends_with(suffix));
    files.into_iter().max()
}

/// Total bytes of the files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    StdVfs
        .read_dir(dir)
        .unwrap_or_default()
        .iter()
        .filter_map(|p| StdVfs.file_len(p).ok())
        .sum()
}

/// A fresh, empty directory for one run's log, removed when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    /// `name` under `parent`, emptied first.
    pub fn new(parent: &Path, name: &str) -> io::Result<Self> {
        let dir = parent.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_reach_the_file_system_and_wal_bytes_are_counted() {
        let parent = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let name = format!("filevfs-test-{}", std::process::id());
        let run = RunDir::new(&parent, &name).unwrap();
        let dir = &run.0;
        let vfs = NoSyncVfs::default();
        let a = dir.join("wal-000002.seg");
        let mut f = vfs.create_new(&a).unwrap();
        assert!(vfs.create_new(&a).is_err());
        f.write_at(2, b"xy").unwrap();
        f.sync_all().unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), b"\0\0xy");
        let mut g = vfs.create(&dir.join("ckpt.man")).unwrap();
        g.write_at(0, b"manifest").unwrap();
        assert_eq!(vfs.wal_written(), 2);
        vfs.create_new(&dir.join("wal-000010.seg")).unwrap();
        assert_eq!(newest(dir, ".seg"), Some(dir.join("wal-000010.seg")));
        assert_eq!(newest(dir, ".vw"), None);
        assert_eq!(dir_bytes(dir), 4 + 8);
        let path = dir.clone();
        drop(run);
        assert!(!path.exists());
    }
}
