//! Facts about the host and the build, recorded with every result.

use std::path::Path;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    bolted_sim::max_workers()
}

/// A window over which [`PeakWindow::anon_mib`] reports peak memory.
pub struct PeakWindow {
    file_kib: f64,
}

impl PeakWindow {
    /// Resets this process's peak resident set size to its current size
    /// (`5` to `/proc/self/clear_refs`) and notes the file-backed part.
    /// Where the kernel refuses, the peak stays the lifetime peak.
    pub fn start() -> PeakWindow {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        PeakWindow {
            file_kib: status_kib("RssFile:").unwrap_or(0.0),
        }
    }

    /// Peak resident memory of the program's own data since `start`, in
    /// MiB: the peak resident set (`VmHWM`) less the file-backed pages
    /// (`RssFile`: the binary and shared libraries, whose residency
    /// follows the page cache, not the workload). The larger of the
    /// file-backed sizes at start and now is subtracted, so pages the
    /// page cache evicts during the window do not count as the
    /// program's. 0 where `/proc` does not say.
    pub fn anon_mib(&self) -> f64 {
        match (status_kib("VmHWM:"), status_kib("RssFile:")) {
            (Some(peak), Some(file)) => (peak - file.max(self.file_kib)).max(0.0) / 1024.0,
            _ => 0.0,
        }
    }
}

/// A `kB` field of `/proc/self/status`.
fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `none` outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| packed_ref(git, r).unwrap_or_else(|| "unknown".into())),
        None => head.to_string(),
    }
}

fn packed_ref(git: &Path, name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, r) = l.split_once(' ')?;
        (r == name).then(|| sha.to_string())
    })
}

/// The rustflags this binary was compiled with.
pub fn rustflags() -> &'static str {
    env!("PERFBENCH_RUSTFLAGS")
}

/// Whether the build targeted the host CPU (`-C target-cpu=native`).
pub fn native_build() -> bool {
    rustflags().contains("target-cpu=native")
}
