//! CPU time and memory of this process, a thread, or a child, from `/proc`.

use std::time::Duration;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/*/stat`. Fixed at 100
/// on every Linux ABI this benchmark runs on (std has no `sysconf`).
const TICKS_PER_SECOND: u64 = 100;

fn cpu_from_stat(path: &str) -> Option<Duration> {
    let stat = std::fs::read_to_string(path).ok()?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ');
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis(
        (utime + stime) * 1_000 / TICKS_PER_SECOND,
    ))
}

/// User + system CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    cpu_from_stat("/proc/self/stat").unwrap_or_default()
}

/// User + system CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_from_stat("/proc/thread-self/stat").unwrap_or_default()
}

fn status_mb(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("self", "VmHWM:").unwrap_or(0.0)
}

/// Current resident set of process `pid` (`VmRSS`), in MB; `None` once it
/// is gone.
pub fn rss_mb_of(pid: u32) -> Option<f64> {
    status_mb(&pid.to_string(), "VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = thread_cpu();
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(120) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = thread_cpu() - before;
        assert!(spent >= Duration::from_millis(50), "only {spent:?} charged");
        assert!(process_cpu() >= spent);
        assert!(peak_rss_mb() > 0.5);
        assert!(rss_mb_of(std::process::id()).is_some());
    }
}
