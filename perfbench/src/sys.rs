//! The few operating-system facts the benchmark reads from outside the
//! program: CPU time per process and per thread, peak resident memory,
//! precise readiness waits, and the kernel's UDP drop counter.
//!
//! `std` links the C library on Linux, so the calls are declared here
//! directly instead of through a crate.

use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restrict the calling thread (and threads it spawns afterwards) to
/// `cpus`. Returns false, changing nothing, if the kernel refuses.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;
const POLLIN: i16 = 1;
const PR_SET_TIMERSLACK: i32 = 29;

fn rusage(who: i32) -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a live, writable `struct rusage` of the kernel's
    // layout, and `who` is one of the two values getrusage accepts here.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    r
}

fn cpu_ns(r: &Rusage) -> u64 {
    let us = (r.utime.sec + r.stime.sec) * 1_000_000 + r.utime.usec + r.stime.usec;
    us.max(0) as u64 * 1_000
}

/// User + system CPU time of the whole process, ns.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(&rusage(RUSAGE_SELF))
}

/// User + system CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(&rusage(RUSAGE_THREAD))
}

/// Peak resident set size of the process (the kernel's high-water mark,
/// `VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF).maxrss_kb as f64 / 1024.0
}

/// Let the calling thread's timed waits wake within a microsecond of
/// their deadline instead of the default 50 µs slack.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches only
    // the calling thread's scheduling attributes.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Block until one of `socks` is readable or `timeout` passes, with
/// nanosecond resolution (epoll's millisecond timeout would oversleep a
/// schedule spaced tens of microseconds apart).
pub fn wait_readable(socks: &[UdpSocket], timeout: Duration) {
    let mut fds: Vec<PollFd> = socks
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` holds `fds.len()` initialised pollfd records that
    // outlive the call, `ts` is a valid timespec, and a null signal mask
    // leaves the mask unchanged.
    unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
}

/// Datagrams the kernel dropped on the UDP socket bound to local `port`,
/// from `/proc/net/udp`, or `None` when the table cannot be read.
pub fn udp_drops(port: u16) -> Option<u64> {
    let table = std::fs::read_to_string("/proc/net/udp").ok()?;
    let want = format!(":{port:04X}");
    table.lines().skip(1).find_map(|line| {
        let cols: Vec<&str> = line.split_whitespace().collect();
        (cols.get(1)?.ends_with(&want)).then(|| cols.last()?.parse().ok())?
    })
}
