//! Process, thread and host counters, read from the kernel.
//!
//! CPU time comes from the POSIX CPU-time clocks rather than the tick
//! counters in `/proc/self/stat`: those resolve only one scheduler tick
//! (10 ms), which is coarser than a whole set-up phase. Thread names,
//! context switches and resident memory come from `/proc/self`, and the
//! hypervisor's steal share from `/proc/stat`.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time of the whole process (user + system, every thread that ever
/// ran, joined ones included), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).expect("the process CPU clock exists")
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID).expect("the thread CPU clock exists")
}

/// The calling thread's id.
fn own_tid() -> Option<i32> {
    fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// CPU time of thread `tid` of this process, in nanoseconds; `None` once
/// the thread has exited. Linux encodes a thread's CPU clock as
/// `(!tid << 3) | CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED`.
fn task_cpu_ns(tid: i32) -> Option<u64> {
    read_clock(((!tid) << 3) | 6)
}

/// Binds the calling thread to `cpu`.
fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 1024-bit `cpu_set_t` and the size passed
    // is its size in bytes; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// A fixed piece of work — integer hashing, `exp` and reads from a
/// 16 KB table, the ingredients of a Gibbs site update — whose CPU time
/// tracks how fast the host runs right now.
fn reference_kernel(table: &[u32]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    let mask = table.len() - 1;
    let mut k = 0usize;
    for _ in 0..REFERENCE_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        k = (x as usize ^ table[k] as usize) & mask;
        acc += ((x >> 11) as f64 * 1e-16).exp();
    }
    std::hint::black_box(acc);
    x
}

const REFERENCE_ROUNDS: u64 = 100_000;

/// Bytes of the calibration table.
const REFERENCE_TABLE_BYTES: u64 = 16 << 10;

/// Median CPU time of one [`reference_kernel`] call on the host the
/// benchmark was tuned on (2-vCPU Intel Xeon VM at 2.1 GHz). Calibrated
/// CPU time is CPU time at that speed.
pub const REFERENCE_NS: f64 = 1.2e6;

/// How often each calibration thread times the reference kernel.
const CALIBRATION_PERIOD: Duration = Duration::from_millis(100);

struct CalibrationState {
    stop: AtomicBool,
    /// `(when, cpu, kernel CPU ns)` from every calibration thread.
    samples: Mutex<Vec<(Instant, usize, u64)>>,
    tids: Mutex<Vec<i32>>,
}

/// Tracks the host's speed while a run measures: one thread per CPU,
/// bound to it, times [`reference_kernel`] every 100 ms, and a window's
/// slowdown weights each CPU's by how busy that CPU was. This host's
/// speed drifts by a fifth within seconds (noisy neighbours on the
/// physical cores), which CPU time alone would report as the program
/// getting slower.
pub struct Calibrator {
    state: Arc<CalibrationState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// A point in time with the process's CPU counters.
pub struct Mark {
    at: Instant,
    process_ns: u64,
    calibration_ns: u64,
    /// Busy ticks per CPU from `/proc/stat`.
    busy: Vec<u64>,
}

/// Busy (non-idle, non-steal) ticks of each CPU.
fn busy_ticks() -> Vec<u64> {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .map(|l| {
            let f: Vec<u64> = l
                .split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect();
            // user nice system idle iowait irq softirq steal
            f.iter().take(3).sum::<u64>()
                + f.get(5).copied().unwrap_or(0)
                + f.get(6).copied().unwrap_or(0)
        })
        .collect()
}

impl Calibrator {
    pub fn start() -> Self {
        let state = Arc::new(CalibrationState {
            stop: AtomicBool::new(false),
            samples: Mutex::new(Vec::new()),
            tids: Mutex::new(Vec::new()),
        });
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut x = 1u32;
        let table: Arc<Vec<u32>> = Arc::new(
            (0..REFERENCE_TABLE_BYTES / 4)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    x
                })
                .collect(),
        );
        let threads = (0..cpus)
            .map(|cpu| {
                let state = Arc::clone(&state);
                let table = Arc::clone(&table);
                std::thread::Builder::new()
                    .name(format!("perfbench-cal{cpu}"))
                    .spawn(move || {
                        pin_to(cpu);
                        if let Some(tid) = own_tid() {
                            state.tids.lock().expect("calibration lock").push(tid);
                        }
                        // The first call runs cold; it is not a sample.
                        std::hint::black_box(reference_kernel(&table));
                        while !state.stop.load(Ordering::Relaxed) {
                            std::thread::sleep(CALIBRATION_PERIOD);
                            let t0 = thread_cpu_ns();
                            std::hint::black_box(reference_kernel(&table));
                            let ns = thread_cpu_ns() - t0;
                            state.samples.lock().expect("calibration lock").push((
                                Instant::now(),
                                cpu,
                                ns,
                            ));
                        }
                    })
                    .expect("calibration thread spawns")
            })
            .collect();
        // Set-up is measured right after start: wait until every CPU has
        // samples to calibrate it with.
        while state.samples.lock().expect("calibration lock").len() < 5 * cpus {
            std::thread::sleep(CALIBRATION_PERIOD / 2);
        }
        Calibrator { state, threads }
    }

    pub fn mark(&self) -> Mark {
        let tids = self.state.tids.lock().expect("calibration lock").clone();
        let calibration_ns = tids.iter().filter_map(|&t| task_cpu_ns(t)).sum();
        Mark {
            at: Instant::now(),
            process_ns: process_cpu_ns(),
            calibration_ns,
            busy: busy_ticks(),
        }
    }

    /// Host slowdown over `[from, to]`: per CPU, the median
    /// reference-kernel time against [`REFERENCE_NS`] from the samples
    /// taken in the window (at least the five nearest to it), weighted
    /// by that CPU's busy ticks in the window plus ten.
    pub fn slowdown(&self, from: &Mark, to: &Mark) -> f64 {
        let samples = self.state.samples.lock().expect("calibration lock");
        let cpus = samples.iter().map(|s| s.1 + 1).max().unwrap_or(0);
        let (mut weighted, mut weight) = (0.0, 0.0);
        for cpu in 0..cpus {
            let mine: Vec<(Instant, u64)> = samples
                .iter()
                .filter(|s| s.1 == cpu)
                .map(|s| (s.0, s.2))
                .collect();
            let mut inside: Vec<f64> = mine
                .iter()
                .filter(|(t, _)| *t >= from.at && *t <= to.at)
                .map(|&(_, ns)| ns as f64)
                .collect();
            if inside.len() < 5 {
                let mid = from.at + (to.at - from.at) / 2;
                let mut near: Vec<(Duration, f64)> = mine
                    .iter()
                    .map(|&(t, ns)| (if t > mid { t - mid } else { mid - t }, ns as f64))
                    .collect();
                near.sort_by_key(|(d, _)| *d);
                inside = near.into_iter().take(5).map(|(_, ns)| ns).collect();
            }
            if inside.is_empty() {
                continue;
            }
            // Ten ticks (100 ms) of weight on every CPU: a window of a
            // few ticks averages the CPUs instead of following whichever
            // one its 10 ms ticks happened to land on.
            let busy = to
                .busy
                .get(cpu)
                .zip(from.busy.get(cpu))
                .map_or(0, |(b, a)| b.saturating_sub(*a));
            let w = (busy + 10) as f64;
            weighted += w * crate::stats::median(&inside) / REFERENCE_NS;
            weight += w;
        }
        if weight == 0.0 {
            1.0
        } else {
            weighted / weight
        }
    }

    /// Process CPU seconds between two marks, less the calibration
    /// threads' own, scaled to the reference speed; and the raw figure.
    pub fn cpu_s(&self, from: &Mark, to: &Mark) -> (f64, f64) {
        let raw = to.process_ns.saturating_sub(from.process_ns);
        let own = to.calibration_ns.saturating_sub(from.calibration_ns);
        let raw_s = raw.saturating_sub(own) as f64 / 1e9;
        (raw_s / self.slowdown(from, to), raw_s)
    }

    pub fn stop(self) {
        self.state.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("calibration thread panicked");
        }
    }
}

/// One thread of this process at one instant.
#[derive(Debug, Clone)]
pub struct Task {
    pub tid: i32,
    pub name: String,
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Every live thread of this process.
pub fn tasks() -> Vec<Task> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let base = entry.path();
        let name = fs::read_to_string(base.join("comm"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        let status = fs::read_to_string(base.join("status")).unwrap_or_default();
        let ctx_switches = status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        if let Some(cpu_ns) = task_cpu_ns(tid) {
            out.push(Task {
                tid,
                name,
                cpu_ns,
                ctx_switches,
            });
        }
    }
    out
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub fn memory_kb(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_field(&status, &format!("{field}:")).expect("memory field present")
}

/// Aggregate CPU ticks of the host: `(steal, total)`.
pub fn host_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().sum())
}

/// Share of host CPU time the hypervisor stole between two
/// [`host_ticks`] readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}
