//! Host fingerprint and process memory.  Results are comparable only when
//! their host fingerprints match.

use std::path::Path;

/// What a result depends on besides the code: core count, CPU model,
/// kernel, and the executor width the run used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub parallelism: usize,
    pub cpu: String,
    pub kernel: String,
    pub pm_threads: usize,
}

impl Fingerprint {
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Self {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            pm_threads: rayon::current_num_threads(),
        }
    }

    /// `key value` lines, the form result files store.
    pub fn lines(&self) -> Vec<(&'static str, String)> {
        vec![
            ("host.parallelism", self.parallelism.to_string()),
            ("host.cpu", self.cpu.clone()),
            ("host.kernel", self.kernel.clone()),
            ("host.pm_threads", self.pm_threads.to_string()),
        ]
    }
}

/// The commit the checkout was built from: the git HEAD when the tree is a
/// git repository, otherwise `none`.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "none".into())
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
