//! Facts about the machine a report came from, and the process's own
//! peak memory. Everything is read from the kernel's `/proc` and `/sys`
//! views; a missing entry reads as "unknown" rather than failing the run.

use std::fs;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The cache hierarchy of CPU 0, e.g. `L1d 48K, L1i 32K, L2 2048K, L3 ...`.
pub fn caches() -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |dir: &str, f: &str| fs::read_to_string(format!("{base}/{dir}/{f}")).ok();
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("index{i}");
        let (Some(level), Some(kind), Some(size)) =
            (read(&dir, "level"), read(&dir, "type"), read(&dir, "size"))
        else {
            continue;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{suffix} {}", level.trim(), size.trim()));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
