//! Host facts printed in every report. Numbers are only comparable
//! between reports whose facts match.

use qubo_search::FlipKernel;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the unified or data cache at `level` for CPU 0, as the kernel
/// reports it (e.g. `1024K`).
fn cache_size(level: &str) -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl = read(&format!("{dir}/level"))?;
            let kind = read(&format!("{dir}/type"))?;
            (lvl.trim() == level && kind.trim() != "Instruction")
                .then(|| read(&format!("{dir}/size")))
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One line per fact, `key: value`.
#[must_use]
pub fn facts() -> Vec<(String, String)> {
    let rustflags = env!("ABSBENCH_RUSTFLAGS");
    vec![
        ("cpu".into(), cpu_model()),
        ("nproc".into(), nproc().to_string()),
        ("l2".into(), cache_size("2")),
        ("l3".into(), cache_size("3")),
        ("flip_kernel".into(), format!("{:?}", FlipKernel::detect())),
        (
            "target_cpu_native".into(),
            rustflags.contains("target-cpu=native").to_string(),
        ),
        ("rustflags".into(), rustflags.to_string()),
    ]
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = read(&path)?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
