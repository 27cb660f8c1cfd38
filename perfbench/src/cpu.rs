//! CPU time of this process (user + system, every thread, including
//! threads that have exited), from `getrusage(RUSAGE_SELF)`.
//!
//! On a shared host, wall time also counts the time other processes held
//! the cores; CPU time counts only the work this process did, so it is the
//! steadier measure of that work. The host's speed still drifts, by tens of
//! percent over minutes; [`Calibrator`] measures it so that the end-to-end
//! CPU times can be stated at a fixed reference speed.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Seconds of CPU this process has used so far, in user and in system
/// mode.
pub fn user_sys_seconds() -> (f64, f64) {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // declared above, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    (secs(&usage.ru_utime), secs(&usage.ru_stime))
}

/// Seconds of CPU this process has used so far.
pub fn cpu_seconds() -> f64 {
    let (user, sys) = user_sys_seconds();
    user + sys
}

/// Wall and CPU seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Times {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds, every thread.
    pub cpu_s: f64,
    /// Of those, seconds in system mode.
    pub sys_s: f64,
}

impl std::ops::AddAssign for Times {
    fn add_assign(&mut self, other: Times) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.sys_s += other.sys_s;
    }
}

/// A started wall and CPU stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    wall: std::time::Instant,
    user: f64,
    sys: f64,
}

impl Clock {
    /// Start both clocks.
    pub fn start() -> Clock {
        let (user, sys) = user_sys_seconds();
        Clock {
            wall: std::time::Instant::now(),
            user,
            sys,
        }
    }

    /// Time since [`Clock::start`].
    pub fn read(&self) -> Times {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let (user, sys) = user_sys_seconds();
        Times {
            wall_s,
            cpu_s: (user - self.user) + (sys - self.sys),
            sys_s: sys - self.sys,
        }
    }
}

/// `cpu_set_t`: a mask of 1024 CPUs.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread, and so every thread it starts afterwards, to
/// the first CPU it may run on; returns that CPU, or `None` if the kernel
/// refused.
///
/// The simulator runs each rank as a thread that hands every operation to
/// an engine thread. Spread over two vCPUs of a shared host, each handoff
/// became a cross-CPU wake-up: a `pipeline_s64` pass then used 40–60% more
/// CPU time, in about the same wall time, and varied three times as much
/// from run to run as on one CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet { bits: [0; 16] };
    // SAFETY: `allowed` is a writable `cpu_set_t` of `size` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&i| allowed.bits[i / 64] >> (i % 64) & 1 == 1)?;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t` of `size` bytes naming a CPU
    // the thread may already run on; pid 0 is the calling thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// Elements sorted by one calibration sample.
const CALIB_LEN: usize = 200_000;

/// Calibration samples taken per [`Calibrator::measure`].
const CALIB_SAMPLES: usize = 4;

/// CPU seconds one calibration sample takes on the reference host, a
/// two-vCPU KVM guest on a 2.1 GHz Intel Xeon.
pub const CALIB_REF_S: f64 = 0.005;

/// Measures the host's current speed with a fixed kernel the repository's
/// code cannot change: copy a fixed array of pseudo-random `u64`s into a
/// reused buffer and sort it. It allocates nothing, so the heap state the
/// workloads leave behind does not affect it. On the reference host its
/// time tracked the generator's pass time across minutes far better than a
/// pointer chase or a byte hash did.
pub struct Calibrator {
    src: Vec<u64>,
    dst: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let src = (0..CALIB_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator {
            src,
            dst: Vec::with_capacity(CALIB_LEN),
        }
    }
}

impl Calibrator {
    /// Median CPU seconds of one sample, over a few samples.
    pub fn measure(&mut self) -> f64 {
        let samples: Vec<f64> = (0..CALIB_SAMPLES)
            .map(|_| {
                let before = cpu_seconds();
                self.dst.clear();
                self.dst.extend_from_slice(&self.src);
                self.dst.sort_unstable();
                std::hint::black_box(self.dst[CALIB_LEN / 2]);
                cpu_seconds() - before
            })
            .collect();
        crate::stats::median(&samples)
    }
}

/// The parts of [`at_reference_speed`]: median user seconds, the factor
/// that scales them to the reference host's speed, and median system
/// seconds.
pub fn reference_parts(times: &[Times], calib_s: &[f64]) -> (f64, f64, f64) {
    use crate::stats::median;
    let user: Vec<f64> = times.iter().map(|t| t.cpu_s - t.sys_s).collect();
    let sys: Vec<f64> = times.iter().map(|t| t.sys_s).collect();
    let calib = median(calib_s);
    let scale = if calib > 0.0 {
        CALIB_REF_S / calib
    } else {
        1.0
    };
    (median(&user), scale, median(&sys))
}

/// Median CPU seconds of `times` stated at the reference host's speed,
/// given the calibration measurements taken alongside them. Only user time
/// is scaled: the kernel's share (thread handoffs, in the simulator) did
/// not follow the calibration kernel's speed, so it is taken as measured.
/// When the scale is not 1, the two parts are weighted differently, so
/// work moved between user and system time changes the result by more or
/// less than it changes raw CPU time.
pub fn at_reference_speed(times: &[Times], calib_s: &[f64]) -> f64 {
    let (user, scale, sys) = reference_parts(times, calib_s);
    user * scale + sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = cpu_seconds() - before;
        assert!(used > 0.0 && used < 10.0, "{used}");
    }

    #[test]
    fn calibration_sample_is_positive_and_scales_to_reference() {
        let c = Calibrator::default().measure();
        assert!(c > 0.0 && c < 10.0, "{c}");
        let t = |cpu_s, sys_s| Times {
            wall_s: cpu_s,
            cpu_s,
            sys_s,
        };
        let times = [t(2.5, 0.5), t(4.5, 0.5), t(3.5, 0.5)];
        let v = at_reference_speed(&times, &[2.0 * CALIB_REF_S]);
        assert!((v - (1.5 + 0.5)).abs() < 1e-12, "{v}");
        assert_eq!(at_reference_speed(&[t(2.0, 1.0)], &[]), 2.0);
    }
}
