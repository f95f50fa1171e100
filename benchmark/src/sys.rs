//! What the harness asks of the operating system: CPU time, peak memory,
//! core count, and an environment a developer's shell cannot tilt.

use std::path::{Path, PathBuf};
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU time of this process so far, threads that have already
/// exited included.
pub fn cpu_time() -> Duration {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout 64-bit
    // Linux uses, and getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let t = |tv: &Timeval| Duration::new(tv.tv_sec as u64, tv.tv_usec as u32 * 1000);
    t(&ru.ru_utime) + t(&ru.ru_stime)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `N` of the workload table: client connections, service slots, and the
/// thread count of the parallel workload (which never drops below 2).
pub fn parallelism() -> usize {
    nproc().min(4)
}

/// Directory for everything a run writes (trace files, spill runs): inside
/// the checkout the benchmark is started from (its root), never `/tmp`.
pub fn results_dir() -> PathBuf {
    PathBuf::from("benchmark/results")
}

/// Clear every `HYBRID_*` knob the crates read, and point the spill
/// directory (`std::env::temp_dir`) below `results`. Call it before any
/// thread is spawned.
pub fn pin_environment(results: &Path) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("HYBRID_") {
            std::env::remove_var(&key);
        }
    }
    let tmp = results.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create the results directory");
    let tmp = std::fs::canonicalize(&tmp).expect("resolve the results directory");
    std::env::set_var("TMPDIR", tmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_time();
        let mut x = 1u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_time() > before);
        assert!(peak_rss_mb() > 1.0);
        assert!(parallelism() >= 1 && parallelism() <= 4);
    }
}
