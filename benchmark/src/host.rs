//! What the numbers depend on besides the code: the host fingerprint
//! stored with every result, and the peak resident memory of a
//! workload's process.

use std::path::Path;

use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub nproc: usize,
    pub osrelease: String,
    pub schedstat: bool,
    /// FNV-1a of `BENCHMARK.json`.
    pub benchmark_json: String,
    /// The checkout's commit, when it is a git checkout.
    pub git_commit: Option<String>,
}

impl Fingerprint {
    pub fn of_this_host() -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            osrelease: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            schedstat: Path::new("/proc/schedstat").exists(),
            benchmark_json: crate::spec::fingerprint_hash(),
            git_commit: git_commit(Path::new(".git")),
        }
    }

    /// Whether results from `self` and `other` measure the same thing on
    /// the same kind of host. The commit is left out: comparing two
    /// commits is the point.
    pub fn comparable(&self, other: &Fingerprint) -> bool {
        self.nproc == other.nproc
            && self.osrelease == other.osrelease
            && self.schedstat == other.schedstat
            && self.benchmark_json == other.benchmark_json
    }
}

/// `HEAD`'s commit, read from the git directory without running git.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set (`VmHWM`) of this process, in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
