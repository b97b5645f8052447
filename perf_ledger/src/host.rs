//! What the numbers depend on besides the program: the host, and this
//! process's own memory and processor use, read from `/proc`.

use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100 on
/// every Linux ABI the toolchain targets; reading it would need libc.
const USER_HZ: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system time of this process, all threads, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Filesystem type holding `path`, from the longest matching mount point.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, kind)| kind.to_string())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every output starts with, as `key=value` pairs. The commit is
/// `unknown` in a checkout that is not a git repository.
pub fn header(work_dir: &Path, broker_shards: usize, seed: u64, clients: usize) -> String {
    format!(
        "nproc={} broker_shards={broker_shards} work_fs={} rustc=\"{}\" commit={} seed={seed} clients={clients}",
        nproc(),
        fs_type(work_dir),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}
