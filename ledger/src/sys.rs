//! What the harness reads from the host: process CPU time, peak resident
//! memory, core count, and a per-run scratch directory that is removed when
//! the run ends, however it ends.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime` fields
/// (`USER_HZ`, fixed at 100 on every Linux ABI this benchmark runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, all threads
/// (exited ones included), as `/proc/self/stat` reports them. The figure is
/// quantised to 10 ms, so callers sum it over many reps rather than trust a
/// single difference.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 2 (`comm`) may contain spaces; everything after its closing
    // parenthesis is space-separated, with `utime` and `stime` at 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / USER_HZ
}

/// A `kB` field of `/proc/self/status`, in bytes; 0 where it cannot be read.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Resident set size of this process now, in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// Restarts the kernel's peak-RSS watermark of this process at its current
/// resident size, so that the next [`peak_rss_bytes`] reads the peak since
/// now. Where the kernel refuses (`/proc/self/clear_refs` not writable), the
/// watermark simply keeps running and later readings are the process's
/// all-time peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Where build outputs live, and therefore where the benchmark may write:
/// `CARGO_TARGET_DIR` when the caller set one, else the package's own
/// `target/`. Both are ignored by git and inside the checkout.
pub fn scratch_root() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    }
}

/// A directory under [`scratch_root`] for one run's WAL and spill files,
/// removed on drop — which a failed check or a panic unwinding through
/// `main` reaches as surely as a clean exit does.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `ledger-tmp-<pid>-<n>` under the scratch root, `n` counting
    /// the directories this process has made.
    pub fn create() -> std::io::Result<TempDir> {
        static MADE: AtomicU64 = AtomicU64::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_root().join(format!("ledger-tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Errors are ignored: Drop must not panic, and a leftover directory
        // sits under an ignored build directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_host_answers() {
        assert!(peak_rss_bytes() >= rss_bytes() && rss_bytes() > 0);
        assert!(nproc() >= 1);
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.02 {
            x = std::hint::black_box(x + 1);
        }
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop() {
        let (a, b) = (TempDir::create().unwrap(), TempDir::create().unwrap());
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        std::fs::write(kept.join("wal"), b"x").unwrap();
        drop(a);
        assert!(!kept.exists() && b.path().exists());
    }
}
