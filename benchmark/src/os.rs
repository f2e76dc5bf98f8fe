//! What the benchmark reads about its own process from `/proc`: CPU time,
//! resident memory, and the kernel's listen-queue overflow counter. Every
//! reader returns `None` where the file or field is missing (off Linux).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// User and system CPU seconds of the whole process, threads that have
/// already exited included, at 10 ms resolution.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the fixed fields start after ")".
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}

/// User + system CPU seconds, 0 where `/proc` is missing.
pub fn cpu_total_seconds() -> f64 {
    cpu_seconds().map_or(0.0, |(u, s)| u + s)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of the process so far, in KB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    status_kb("VmHWM:")
}

/// Current resident set size, in KB (`VmRSS`).
pub fn rss_kb() -> Option<u64> {
    status_kb("VmRSS:")
}

/// `TcpExt ListenOverflows`: connections the kernel dropped because a
/// listener's accept queue was full, host-wide since boot.
pub fn listen_overflows() -> Option<u64> {
    let netstat = fs::read_to_string("/proc/net/netstat").ok()?;
    let mut lines = netstat.lines().filter(|l| l.starts_with("TcpExt:"));
    let names = lines.next()?;
    let values = lines.next()?;
    let at = names.split_whitespace().position(|n| n == "ListenOverflows")?;
    values.split_whitespace().nth(at)?.parse().ok()
}

/// Seconds the hypervisor ran someone else while a processor of this machine
/// had work to do (`steal`, the eighth field of the `cpu` line of
/// `/proc/stat`), all processors together, since boot. 0 on bare metal.
pub fn stolen_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|f| f.parse::<f64>().ok()).map_or(0.0, |t| t / USER_HZ)
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
