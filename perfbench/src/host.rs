//! What the host and the process looked like while a run measured:
//! the fingerprint printed with every result, steal time and peak memory
//! from `/proc`, and the CPU-time clocks the timed phases read.

use agentgrid_telemetry::json::{self, Value};
use std::time::Duration;

/// Clock ticks per second of `/proc/stat` times.
/// Linux reports them in USER_HZ, which is 100 on every mainstream
/// architecture.
const USER_HZ: f64 = 100.0;

/// CPU model, core count, toolchain, build profile and revision.
pub fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    json::obj(vec![
        ("cpu", json::s(cpu)),
        ("available_parallelism", json::num(parallelism as f64)),
        ("rustc", json::s(env!("PERFBENCH_RUSTC"))),
        (
            "profile",
            json::s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_revision", json::s(git_revision())),
    ])
}

/// `git rev-parse HEAD` of the working directory, or `none` outside a
/// git checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// Steal ticks accumulated by all CPUs since boot (the eighth time
/// column of the `cpu` line of `/proc/stat`); 0 where unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Steal time between two [`steal_ticks`] readings.
pub fn steal_seconds(before: u64, after: u64) -> f64 {
    after.saturating_sub(before) as f64 / USER_HZ
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// From the C library std already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User plus system CPU time of this whole process, every thread it
/// ever ran included, with nanosecond resolution.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has run for, with nanosecond resolution.
///
/// The benchmark's timed phases read this clock, not the wall clock. On
/// a shared virtual machine the wall clock also counts the time the
/// thread waited while the hypervisor ran other tenants (steal, which
/// Linux keeps out of CPU time) or the kernel ran other processes; on a
/// core of its own a single-threaded phase reads the same on both.
/// One reading costs a system call, about 0.4 µs on the host the
/// README's figures come from.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_not_with_sleep() {
        let (t0, p0) = (thread_cpu(), process_cpu());
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu() - t0;
        let mut x = 0u64;
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let worked = thread_cpu() - t0 - slept;
        assert!(slept < Duration::from_millis(10), "{slept:?}");
        assert!(worked > Duration::from_millis(10), "{worked:?}");
        assert!(process_cpu() - p0 >= worked);
    }
}
