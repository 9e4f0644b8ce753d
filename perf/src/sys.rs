//! What the benchmark asks of the operating system: one CPU to run on, process
//! CPU time, peak resident memory, and the signs of a disturbed host (core
//! count, load average).

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Confines the calling thread, and every thread it starts from now on, to the
/// first CPU it is allowed on; returns that CPU, or `None` if the kernel refused
/// (the run then goes on unpinned, and says so).
///
/// The engine hands every call from the driver thread to a scheduler thread to
/// two shard workers and back. On the sandbox's two virtual CPUs each of those
/// wake-ups crosses to a halted vCPU, which the hypervisor has to resume: that
/// cost more than the work handed over (`point_hot` ran 200–250 k keys/s on two
/// CPUs and 420 k on one) and changed with the host's state from one run to
/// the next (middle-half spread of ten runs 19–23 % on two CPUs, 7–8 % on one,
/// measured interleaved). On one CPU a wake-up is a context switch inside the
/// guest, so the timings are the program's.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of the size passed; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed; pid 0 is the caller.
    (unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}

/// CPU time (user + system) consumed by every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields on
    // every 64-bit Linux target this benchmark builds for) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// 1-minute load average, or -1 when the host does not expose it.
pub fn load_average_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|n| n.parse().ok()))
        .unwrap_or(-1.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
