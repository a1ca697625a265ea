//! Process measurements (CPU time, peak resident memory) and the summary
//! statistics every reported metric goes through.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread of
/// the process, in nanoseconds resolution.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed by this process so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Hands memory freed by the last repeat back to the OS. Each repeat of a
/// workload starts new threads, which glibc spreads over new malloc
/// arenas; without a trim, peak RSS keeps growing with the number of
/// repeats, so it would measure the run's length rather than the workload.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only returns free heap pages to the kernel; it
    // has no preconditions and touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Online processors, as the benchmark saw them.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Median, quartiles and tail of one metric's samples.
#[derive(Debug, Clone)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile that still has at least ten samples beyond
    /// it; the upper quartile when that percentile would not be above the
    /// median (fewer than 21 samples).
    pub tail: f64,
    /// The percentile `tail` stands for (75 when it is the upper quartile).
    pub tail_pct: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), so the benchmark's own figures match the
/// ones computed from its output.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are not NaN"));
    let n = v.len();
    // CPython's integer arithmetic for quartile `i` of 4, including its
    // clamping of the index to 1..n-1.
    let quantile = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    // Below 21 samples the sample with ten beyond it is not above the
    // median. The tail then falls back to the upper quartile: the maximum of
    // so few samples is one moment of the host: over ten identical runs of
    // ten 3.4 s checks on a shared 2-core host, its interquartile range was
    // 18-27% of its median.
    let (tail, tail_pct) = if n > 20 {
        let rank = n - 11;
        (v[rank], 100.0 * (rank + 1) as f64 / n as f64)
    } else {
        (quantile(3), 75.0)
    };
    Summary {
        samples: n,
        median,
        q1: quantile(1),
        q3: quantile(3),
        tail,
        tail_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.tail, s.tail_pct), (8.25, 75.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn process_cpu_advances() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > a, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
