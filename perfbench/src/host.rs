//! Process counters (CPU time from `getrusage`, RSS from `/proc`) and
//! the host facts printed with every result.

use std::os::raw::{c_int, c_long};

/// Process CPU time, all threads, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// User plus kernel seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// `self - earlier`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time of the calling thread so far, in µs. The scheduler keeps
/// it per thread, so time the thread spent preempted, or its vCPU
/// spent stolen by the hypervisor, is not in it.
pub fn thread_cpu_us() -> Result<f64, String> {
    let mut tp = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `tp` is a live, writable `struct timespec` of the layout
    // the C library expects on 64-bit Linux; clock_gettime writes only it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut tp) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(tp.sec as f64 * 1e6 + tp.nsec as f64 / 1e3)
}

const RUSAGE_SELF: c_int = 0;

/// CPU time of this process so far, every thread included, exited
/// ones too. Linux derives the total from the scheduler's ns-precise
/// run time, so short intervals are not quantised to clock ticks.
pub fn cpu_times() -> Result<CpuTimes, String> {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the C library expects on 64-bit Linux; getrusage writes only it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(CpuTimes {
        user_s: secs(&usage.utime),
        sys_s: secs(&usage.stime),
    })
}

/// Host-wide CPU time from the first line of `/proc/stat`, in clock
/// ticks: the part the hypervisor gave to other guests (steal) and the
/// total.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks: user, nice, system, idle, iowait, irq, softirq, steal.
    pub total: u64,
}

impl HostTicks {
    /// Reads the counters now.
    pub fn now() -> Result<HostTicks, String> {
        let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|t| t.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if ticks.len() < 8 {
            return Err("/proc/stat: no aggregate cpu line".into());
        }
        Ok(HostTicks {
            steal: ticks[7],
            total: ticks[..8].iter().sum(),
        })
    }

    /// Share of the host's CPU time stolen between `earlier` and `self`.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// Resets this process's RSS high-water mark to its current RSS
/// (Linux 4.0 and later), so that [`peak_rss_mb`] covers what follows.
/// It touches only this process's own counter.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// High-water resident set size of this process since it started or
/// since the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The facts a reader needs to interpret a result, as one JSON object.
pub fn facts(serving: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let transport = if serving {
        "timed in process; the daemon replay crosses loopback TCP (127.0.0.1), not a real link"
    } else {
        "in-process, no network"
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}, \
         \"git_commit\": {}, \"transport\": {}}}",
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(env!("PERFBENCH_GIT")),
        json_str(transport),
    )
}
