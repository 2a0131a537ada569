//! Disk-spill tier for the parallel frontier (its open work is the ROADMAP
//! item "Every stop typed: frame the spill files and inject the faults").
//!
//! When [`ExploreOptions::mem_limit`](crate::ExploreOptions::mem_limit) is
//! combined with [`ExploreOptions::spill_dir`](crate::ExploreOptions::spill_dir),
//! the explorer no longer gives up with `BoundExceeded` when stored states
//! outgrow the budget: cold data moves to per-run files under the spill
//! directory and streams back on demand. Three kinds of data spill, each to
//! its own append-only file:
//!
//! - **arena segments** (`arena-<shard>.bin`): full, immutable key segments
//!   of a shard's [`StateArena`](crate::state::StateArena), written as raw
//!   little-endian `u16`s and re-read one segment at a time through a
//!   single-segment cache on hash-collision key compares;
//! - **expansion buckets** (`buckets.bin`): per-(block, shard) successor
//!   records harvested during the expand sweep, serialized entry-by-entry
//!   (see the parallel module's bucket codec) and re-read by the one intern
//!   worker that owns the shard;
//! - **frontier blocks** (`frontier.bin`): the packed keys of a sealed
//!   next-level block, re-read when the block is expanded.
//!
//! Everything here is plain seek-and-read file I/O behind [`SpillFile`]; a
//! [`SpillDir`] owns the per-run directory (`genoc-spill-<pid>-<seq>`) and
//! removes it on drop. Spilled bytes never affect verdicts: the data is
//! byte-identical to its resident form, only its residence changes.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use genoc_core::error::{Error, Result};

/// Maps an I/O failure into the model's error type with context.
fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Spill(format!("{what} {}: {e}", path.display()))
}

/// A per-run spill directory; removed (best-effort) on drop.
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Creates a unique run directory under `root` (which is created too if
    /// missing).
    ///
    /// # Errors
    ///
    /// [`Error::Spill`] when the directory cannot be created.
    pub fn create(root: &Path) -> Result<SpillDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "genoc-spill-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = root.join(name);
        std::fs::create_dir_all(&path).map_err(|e| io_err("create spill dir", &path, e))?;
        Ok(SpillDir { path })
    }

    /// Creates (truncating) a named spill file inside the run directory.
    ///
    /// # Errors
    ///
    /// [`Error::Spill`] when the file cannot be created.
    pub fn file(&self, name: &str) -> Result<SpillFile> {
        SpillFile::create(self.path.join(name))
    }

    /// The run directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// An append-only spill file with offset-addressed reads.
///
/// Writers append and remember the returned byte offsets; readers (possibly
/// a different handle on the same path, see [`SpillFile::open_read`]) seek
/// to an offset and read a known-length chunk back. There is no framing:
/// callers own the (offset, length) bookkeeping.
pub struct SpillFile {
    path: PathBuf,
    file: File,
    len: u64,
}

impl SpillFile {
    /// Creates (truncating) a read+write spill file at `path`.
    ///
    /// # Errors
    ///
    /// [`Error::Spill`] when the file cannot be created.
    pub fn create(path: PathBuf) -> Result<SpillFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create spill file", &path, e))?;
        Ok(SpillFile { path, file, len: 0 })
    }

    /// Opens an independent read-only handle on an existing spill file, so
    /// concurrent readers keep their own cursors.
    ///
    /// # Errors
    ///
    /// [`Error::Spill`] when the file cannot be opened.
    pub fn open_read(path: &Path) -> Result<SpillFile> {
        let file = File::open(path).map_err(|e| io_err("open spill file", path, e))?;
        Ok(SpillFile {
            path: path.to_path_buf(),
            file,
            len: 0,
        })
    }

    /// Total bytes appended through this handle.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing was appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends raw bytes; returns the byte offset they start at.
    ///
    /// # Errors
    ///
    /// [`Error::Spill`] on seek/write failure.
    pub fn append_bytes(&mut self, bytes: &[u8]) -> Result<u64> {
        let offset = self.len;
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.write_all(bytes))
            .map_err(|e| io_err("write", &self.path, e))?;
        self.len += bytes.len() as u64;
        Ok(offset)
    }

    /// Reads `len` bytes starting at `offset` into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// [`Error::Spill`] on seek/read failure (including short reads).
    pub fn read_bytes(&mut self, offset: u64, len: usize, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        out.resize(len, 0);
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.read_exact(out))
            .map_err(|e| io_err("read", &self.path, e))
    }

    /// Appends a `u16` slice (little-endian); returns its byte offset.
    ///
    /// # Errors
    ///
    /// As [`SpillFile::append_bytes`].
    pub fn append_u16s(&mut self, data: &[u16]) -> Result<u64> {
        let mut bytes = Vec::with_capacity(data.len() * 2);
        for &v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.append_bytes(&bytes)
    }

    /// Reads `count` little-endian `u16`s from `offset` into `out`
    /// (cleared first).
    ///
    /// # Errors
    ///
    /// As [`SpillFile::read_bytes`].
    pub fn read_u16s(&mut self, offset: u64, count: usize, out: &mut Vec<u16>) -> Result<()> {
        let mut bytes = Vec::new();
        self.read_bytes(offset, count * 2, &mut bytes)?;
        out.clear();
        out.extend(
            bytes
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]])),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bytes_and_u16s_at_recorded_offsets() {
        let dir = SpillDir::create(&std::env::temp_dir()).unwrap();
        let mut file = dir.file("test.bin").unwrap();
        let a = file.append_u16s(&[1, 2, 3]).unwrap();
        let b = file.append_bytes(&[0xde, 0xad]).unwrap();
        let c = file.append_u16s(&[u16::MAX, 0]).unwrap();
        assert_eq!((a, b, c), (0, 6, 8));
        assert_eq!(file.len(), 12);
        let mut u16s = Vec::new();
        file.read_u16s(c, 2, &mut u16s).unwrap();
        assert_eq!(u16s, [u16::MAX, 0]);
        file.read_u16s(a, 3, &mut u16s).unwrap();
        assert_eq!(u16s, [1, 2, 3]);
        let mut bytes = Vec::new();
        file.read_bytes(b, 2, &mut bytes).unwrap();
        assert_eq!(bytes, [0xde, 0xad]);
        // An independent reader sees the same data.
        let mut reader = SpillFile::open_read(&dir.path().join("test.bin")).unwrap();
        reader.read_u16s(a, 3, &mut u16s).unwrap();
        assert_eq!(u16s, [1, 2, 3]);
    }

    #[test]
    fn run_directory_is_removed_on_drop() {
        let dir = SpillDir::create(&std::env::temp_dir()).unwrap();
        let path = dir.path().to_path_buf();
        dir.file("x.bin").unwrap();
        assert!(path.exists());
        drop(dir);
        assert!(!path.exists(), "spill dir must be cleaned up");
    }
}
