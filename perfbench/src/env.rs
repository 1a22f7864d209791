//! The run environment recorded next to every result: core count, the
//! filesystem behind the journal, and the process's peak memory.

use std::path::Path;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let kind = fields.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 when unavailable.
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
