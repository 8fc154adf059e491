//! The host fingerprint every record carries, and the process's peak
//! resident set.

use fhs_obs::json::json_string;

/// CPU model, `nproc`, compiler, build profile and pool workers, as one
/// JSON object.
pub fn fingerprint(workers: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cpu\":{},\"nproc\":{nproc},\"rustc\":{},\"profile\":{},\"pool_workers\":{workers}}}",
        json_string(&cpu),
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(env!("PERFBENCH_PROFILE")),
    )
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
