//! Process CPU time, wall time and peak memory of the benchmark's own
//! process.
//!
//! CPU time comes from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`: it covers
//! every thread of the process — including the threaded engine's node
//! threads after they were joined — at nanosecond resolution.
//! `/proc/self/stat` reports the same total, but in `CLK_TCK` ticks of
//! 10 ms: a 1.2 s pass then reads the same to the digit on most runs.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux process clocks and /proc; it needs 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Name of the CPU clock, for the host-shape header.
pub const CPU_CLOCK_NAME: &str = "CLOCK_PROCESS_CPUTIME_ID";

/// User + system CPU nanoseconds this process has consumed, all threads.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, enforced by the cfg gate above) and the
    // clock id is a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU and wall nanoseconds of one timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Elapsed {
    /// Process CPU time, all threads.
    pub cpu_ns: u64,
    /// Wall-clock time.
    pub wall_ns: u64,
}

impl std::ops::AddAssign for Elapsed {
    fn add_assign(&mut self, rhs: Elapsed) {
        self.cpu_ns += rhs.cpu_ns;
        self.wall_ns += rhs.wall_ns;
    }
}

/// Started at the beginning of a timed region.
pub struct Stopwatch {
    cpu0: u64,
    wall0: Instant,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu0: process_cpu_ns(),
            wall0: Instant::now(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            cpu_ns: process_cpu_ns() - self.cpu0,
            wall_ns: self.wall0.elapsed().as_nanos() as u64,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
