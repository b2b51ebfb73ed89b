//! The environment record that travels with every result, and the
//! process's peak memory.

use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Environment {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Worker threads the program's rayon calls use (`RAYON_NUM_THREADS`
    /// or `nproc`).
    pub rayon_threads: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
    /// Source commit: `PERFBENCH_COMMIT`, else the checkout's `.git`, else
    /// `unknown`.
    pub commit: String,
}

impl Environment {
    /// Captures the record for this process.
    pub fn capture() -> Self {
        Self {
            nproc: nproc(),
            rayon_threads: rayon::current_num_threads(),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: std::env::var("PERFBENCH_COMMIT")
                .ok()
                .filter(|c| !c.trim().is_empty())
                .or_else(|| git_head(Path::new(".git")))
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One-line `key=value` form.
    pub fn summary(&self) -> String {
        format!(
            "nproc={} rayon_threads={} profile={} commit={} rustc=\"{}\"",
            self.nproc, self.rayon_threads, self.profile, self.commit, self.rustc
        )
    }

    /// JSON object form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rayon_threads\": {}, \"rustc\": {}, \"profile\": {}, \
             \"commit\": {}}}",
            self.nproc,
            self.rayon_threads,
            crate::json_string(self.rustc),
            crate::json_string(self.profile),
            crate::json_string(&self.commit)
        )
    }
}

/// Cores available to this process; every thread and connection count the
/// benchmark chooses is sized from this and never exceeds it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names in a `.git` directory, read without running git.
fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// Cumulative `(steal, total)` CPU ticks of the machine from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time the hypervisor gave to others between two
/// [`cpu_ticks`] readings: wall times measured while it is high read slow.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_detached_and_a_packed_head() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("HEAD"), "abc123\n").unwrap();
        assert_eq!(git_head(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("packed-refs"), "# pack\ndef456 refs/heads/main\n").unwrap();
        assert_eq!(git_head(&dir).as_deref(), Some("def456"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn steal_share_is_the_steal_fraction_of_elapsed_ticks() {
        assert_eq!(steal_share(Some((10, 1000)), Some((30, 1400))), 0.05);
        assert_eq!(steal_share(None, Some((30, 1400))), 0.0);
        assert_eq!(steal_share(Some((10, 1000)), Some((10, 1000))), 0.0);
        assert!(cpu_ticks().is_some());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
