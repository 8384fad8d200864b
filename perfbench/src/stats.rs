//! Order statistics and the small helpers every tier shares.

use han_metrics::stats::percentile;
use han_sim::rng::mix_seed;
use std::sync::OnceLock;
use std::time::Instant;

/// Quantile `q` in `[0, 1]` of `samples`, interpolating linearly
/// between the closest ranks. Panics on an empty slice: every caller
/// measures at least one sample first.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q * 100.0)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds since the first call: the run's common time base.
pub fn clock() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A seed derived from `(seed, stream, index)`, so every input of a run
/// is a pure function of the workload seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix_seed(mix_seed(seed, stream), index)
}

/// The C library's CPU clocks, which std already links on Linux. The
/// kernel accounts them from the time a thread ran, so time the
/// hypervisor gave to other guests (steal) is not in them.
mod sys {
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("the benchmark reads the CPU clocks of 64-bit Linux");

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    #[repr(C)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage`: the two times, then fourteen `long` counters.
    #[repr(C)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub counters: [i64; 14],
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    pub const RUSAGE_CHILDREN: i32 = -1;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

fn cpu_clock_s(clock: i32) -> Result<f64, String> {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    if unsafe { sys::clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!("clock_gettime({clock}) failed"));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU time, s, the calling thread has run.
pub fn thread_cpu_s() -> Result<f64, String> {
    cpu_clock_s(sys::CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time, s, of this process (every thread, live or exited) and of
/// its reaped children.
pub fn process_cpu_s() -> Result<f64, String> {
    let own = cpu_clock_s(sys::CLOCK_PROCESS_CPUTIME_ID)?;
    let mut usage = sys::Rusage {
        ru_utime: sys::Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: sys::Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        counters: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the call.
    if unsafe { sys::getrusage(sys::RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err("getrusage(RUSAGE_CHILDREN) failed".into());
    }
    let seconds = |t: &sys::Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(own + seconds(&usage.ru_utime) + seconds(&usage.ru_stime))
}

/// `f`'s result and the CPU time `cpu` counted while it ran.
pub fn cpu_timed<T>(
    cpu: fn() -> Result<f64, String>,
    f: impl FnOnce() -> T,
) -> Result<(T, f64), String> {
    let start = cpu()?;
    let out = f();
    Ok((out, cpu()? - start))
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`), 0 where
/// procfs is absent.
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process, kB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM")
}

/// Current resident set (`VmRSS`) of this process, kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_exclude_sleep() {
        let busy = |seconds: f64| {
            let start = std::time::Instant::now();
            let mut x = 0u64;
            while start.elapsed().as_secs_f64() < seconds {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        };
        let (_, thread) = cpu_timed(thread_cpu_s, || busy(0.05)).expect("procfs");
        assert!(thread > 0.0 && thread < 0.5, "thread CPU {thread}");
        let (_, slept) = cpu_timed(thread_cpu_s, || {
            std::thread::sleep(std::time::Duration::from_millis(50))
        })
        .expect("procfs");
        assert!(slept < 0.02, "a sleeping thread used {slept} s of CPU");
        let (_, process) = cpu_timed(process_cpu_s, || busy(0.1)).expect("procfs");
        assert!(process > 0.0 && process < 0.5, "process CPU {process}");
    }
}
