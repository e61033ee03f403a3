//! Host provenance stamped on every record.

use calu_obs::JsonValue;
use std::process::Command;

/// Reads a whole small text file, trimmed; `None` when it is absent.
fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Size of a CPU cache level as the kernel reports it, in bytes.
fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let lvl: u32 = read_trimmed(&format!("{dir}/level"))?.parse().ok()?;
        let kind = read_trimmed(&format!("{dir}/type"))?;
        if lvl != level || kind == "Instruction" {
            return None;
        }
        let size = read_trimmed(&format!("{dir}/size"))?;
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size.as_str(), 1),
            },
        };
        digits.parse::<u64>().ok().map(|v| v * scale)
    })
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Cumulative CPU time of the whole machine from `/proc/stat`: (steal,
/// total) in clock ticks. Steal is time the hypervisor gave this
/// machine's CPUs to other guests.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Panics
/// If `/proc/self/status` has no `VmHWM` line (the benchmark runs on Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Provenance of a run: core count, CPU model, L2 and L3 sizes, compiler
/// and commit, plus whether the workload's largest matrix fits in L3 —
/// when it does, no figure of the run speaks for memory bandwidth.
pub fn provenance(largest_matrix_bytes: u64) -> JsonValue {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let (l2, l3) = (cache_bytes(2), cache_bytes(3));
    // Only ask git inside a checkout of its own: a bare source tree would
    // otherwise report the commit of whatever repository encloses it.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let mb = |b: Option<u64>| {
        b.map_or(JsonValue::Null, |v| JsonValue::from(v as f64 / (1 << 20) as f64))
    };
    JsonValue::obj()
        .set("nproc", nproc)
        .set("cpu_model", cpu)
        .set("l2_mb", mb(l2))
        .set("l3_mb", mb(l3))
        .set("rustc", command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()))
        .set("git_commit", commit)
        .set("largest_matrix_mb", largest_matrix_bytes as f64 / (1 << 20) as f64)
        .set("fits_in_l3", JsonValue::Bool(l3.is_some_and(|l3| largest_matrix_bytes <= l3)))
}
