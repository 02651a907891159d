//! Process-level probes the benchmark reads about itself: CPU time from
//! `/proc`, peak resident memory, and a `ppoll(2)` wrapper so one
//! generator thread can wait on several sockets *and* a due time without
//! polling in a loop.

use std::io;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// Clock ticks per second of `/proc/*/stat` CPU fields (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU time used so far by the whole process (all threads), in ms, from
/// `utime + stime` of `/proc/self/stat`.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 1000.0 / CLOCK_TICKS_PER_S
}

/// CPU time used so far by the calling thread, in ms, from the scheduler's
/// nanosecond run-time counter (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e6)
}

/// Peak resident set size of the process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Online processors, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// Blocks until one of `streams` is readable (or hung up) or `timeout`
/// passes. Returns, per stream, whether it needs a read. The wait is a
/// single `ppoll(2)` with a nanosecond timeout, so a due time is met to
/// within scheduler latency, unlike `SO_RCVTIMEO`, which rounds up to
/// whole jiffies.
pub fn wait_readable(streams: &[&TcpStream], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout records; `ts` outlives the call; a null
    // signal mask leaves the mask unchanged. The kernel writes only the
    // `revents` fields.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(err);
    }
    Ok(fds
        .iter()
        .map(|f| f.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .collect())
}
