//! Host-speed calibration.
//!
//! The reference host shares its cores with other tenants, and its
//! speed swings by up to 1.8× over minutes while steal time stays under
//! 1%. Wall-clock throughput swings with it, far beyond any bound a
//! change could be judged by. So every timed pass runs with one monitor
//! thread pinned to each CPU the process may use. Every 20 ms a monitor
//! runs a fixed kernel and times it in thread CPU time, and the pass's
//! times are scaled to the kernel's speed on the reference host: a pass
//! during which the kernel ran twice as slowly as its reference counts
//! as having taken half its wall time.
//!
//! The monitors do not see time the workload loses to other processes
//! on the same machine or to a hypervisor that deschedules it, since
//! CPU time leaves both out. Run the benchmark on an otherwise idle
//! machine.
//!
//! The kernel lives here, not in the simulator, so a change to the
//! simulator cannot move it. It does the kinds of work the simulator's
//! hot paths do: branchy scalar code with `exp`/`ln` over a table that
//! fits in L1 and over one that does not, and clones of a small nested
//! rack-like structure followed by a power-like sum, as the SGCT
//! baselines do on every candidate.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// CPU seconds [`Kernel::run`] takes on the reference host at full
/// speed.
pub const REFERENCE_KERNEL_S: f64 = 0.0025;

/// Pause between two kernel runs of a monitor.
const PERIOD: Duration = Duration::from_millis(20);

/// One core of the rack-like structure the kernel clones.
#[derive(Clone)]
struct Core {
    freq: f64,
    util: f64,
    batch: bool,
    history: [f64; 4],
}

/// The kernel's inputs, built once per monitor so that a kernel run
/// allocates only what it clones.
struct Kernel {
    small: Vec<f64>,
    large: Vec<f64>,
    rack: Vec<Vec<Core>>,
}

impl Kernel {
    fn new() -> Kernel {
        let rack = (0..4)
            .map(|s| {
                (0..8)
                    .map(|c| Core {
                        freq: 0.5 + 0.05 * c as f64,
                        util: 0.1 * s as f64,
                        batch: c % 3 == 1,
                        history: [0.25; 4],
                    })
                    .collect()
            })
            .collect();
        Kernel {
            small: vec![0.0; 1 << 12],
            large: vec![0.0; 1 << 18],
            rack,
        }
    }

    /// Xorshift-driven branches with `exp`/`ln`, and reads and writes
    /// at random places of `table` (a power-of-two length).
    fn scalar(table: &mut [f64], steps: usize) -> f64 {
        let mask = table.len() - 1;
        let mut s = 0x1234_5678_u64;
        let mut acc = 0.0;
        for i in 0..steps {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            let idx = (s as usize) & mask;
            table[idx] = table[idx] * 0.5 + if u < 0.3 { u.exp() } else { (1.0 + u).ln() };
            acc += table[(i * 31) & mask];
        }
        acc
    }

    /// Clone the rack, change one core and sum a cubic power model.
    fn clones(&self, reps: usize) -> f64 {
        let mut acc = 0.0;
        for i in 0..reps {
            let mut probe = self.rack.clone();
            let k = i % 32;
            probe[k / 8][k % 8].freq = (i % 100) as f64 * 0.01;
            for core in probe.iter().flatten() {
                acc += core.freq.powi(3) * core.util
                    + if core.batch {
                        core.history[0]
                    } else {
                        core.freq
                    };
            }
            black_box(&probe);
        }
        acc
    }

    /// One kernel run, in about equal parts of each kind of work.
    fn run(&mut self) -> f64 {
        Kernel::scalar(&mut self.small, 40_000)
            + Kernel::scalar(&mut self.large, 30_000)
            + self.clones(4_000)
    }

    /// CPU seconds of one kernel run on the calling thread.
    fn cpu_s(&mut self) -> f64 {
        let start = thread_cpu_s();
        black_box(self.run());
        thread_cpu_s() - start
    }
}

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// A `cpu_set_t`: 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// CPU seconds the calling thread has run so far.
    pub fn thread_cpu_s() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the whole call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the thread CPU clock is always readable on Linux");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }

    /// The CPUs the calling thread may run on; empty if unknown.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable cpu_set_t of the given size.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Keep the calling thread on `cpu`. If that fails the thread runs
    /// unpinned and measures whichever CPU it gets.
    pub fn pin_to(cpu: usize) {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a valid cpu_set_t of the given size.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Wall seconds since the first call: no thread CPU clock here.
    pub fn thread_cpu_s() -> f64 {
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_secs_f64()
    }

    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_to(_cpu: usize) {}
}

use sys::thread_cpu_s;

/// How much slower than the reference host the kernel ran, from the
/// CPU seconds of several runs. A pass's wall time integrates the
/// inverse of the host's speed, so the estimate is the harmonic mean of
/// the kernel times over [`REFERENCE_KERNEL_S`].
fn slowdown(kernel_s: &[f64]) -> f64 {
    let inverse_sum: f64 = kernel_s.iter().map(|t| 1.0 / t).sum();
    kernel_s.len() as f64 / inverse_sum / REFERENCE_KERNEL_S
}

/// Kernel CPU times of one monitor, sampled every [`PERIOD`] until
/// `stop` is set (at least one sample).
fn sample_until(stop: &AtomicBool, cpu: Option<usize>) -> Vec<f64> {
    if let Some(cpu) = cpu {
        sys::pin_to(cpu);
    }
    let mut kernel = Kernel::new();
    let mut samples = Vec::new();
    loop {
        samples.push(kernel.cpu_s());
        if stop.load(Ordering::Relaxed) {
            return samples;
        }
        std::thread::sleep(PERIOD);
    }
}

/// Run `f` with one monitor pinned to each CPU the process may use, and
/// return `f`'s result with how much slower than the reference host
/// this host ran meanwhile: the [`slowdown`] of the slowest CPU. The
/// workload's threads each own a fixed share of the work, so its wall
/// time follows its slowest CPU.
///
/// CPU time leaves out the time a monitor waits for its CPU while a
/// workload thread holds it, so a monitor measures how fast its CPU
/// runs, not how busy it is. The monitors take about a tenth of each
/// CPU. Without CPU affinity (other platforms), one unpinned monitor
/// runs instead.
pub fn monitored<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let cpus: Vec<Option<usize>> = match sys::allowed_cpus() {
        cpus if cpus.is_empty() => vec![None],
        cpus => cpus.into_iter().map(Some).collect(),
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let monitors: Vec<_> = cpus
            .iter()
            .map(|&cpu| {
                let stop = &stop;
                s.spawn(move || sample_until(stop, cpu))
            })
            .collect();
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let slowest = monitors
            .into_iter()
            .map(|m| slowdown(&m.join().expect("the speed kernel cannot panic")))
            .fold(0.0, f64::max);
        (out, slowest)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.run().to_bits(), b.run().to_bits());
    }

    #[test]
    fn monitored_returns_the_result_and_a_slowdown() {
        let (out, s) = monitored(|| 7);
        assert_eq!(out, 7);
        assert!(s > 0.0 && s.is_finite());
    }

    #[test]
    fn slowdown_is_the_harmonic_mean() {
        let r = REFERENCE_KERNEL_S;
        assert!((slowdown(&[r, r]) - 1.0).abs() < 1e-12);
        // Twice as slow for half the samples: 4/3, not the mean 1.5.
        assert!((slowdown(&[r, 2.0 * r]) - 4.0 / 3.0).abs() < 1e-12);
    }
}
