//! Small shared pieces: the phase result every workload fills in, order
//! statistics, and process memory.

use std::time::{Duration, Instant};

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one phase of the run contributes to the result line.
#[derive(Default)]
pub struct PhaseOut {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl PhaseOut {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one checked operation; a failed check is also reported on
    /// stderr so a nonzero exit says what went wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    pub fn absorb(&mut self, other: PhaseOut) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }
}

/// Median of `v` (mean of the middle pair for even lengths); `NaN` when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The times of every rep of each unit of a phase's work (a text, a
/// profile's sub-cube), each with the [`Reference::mark`] it ran at. A
/// phase's time for one pass over its work is the sum over units of each
/// unit's median rep at nominal host speed.
pub struct UnitTimes(Vec<Vec<(f64, usize)>>);

impl UnitTimes {
    pub fn new(units: usize) -> UnitTimes {
        UnitTimes(vec![Vec::new(); units])
    }

    pub fn record(&mut self, unit: usize, seconds: f64, mark: usize) {
        self.0[unit].push((seconds, mark));
    }

    /// Sum of the units' median times at nominal host speed; `NaN` if a
    /// unit never ran.
    pub fn total(&self, host: &Reference) -> f64 {
        self.0
            .iter()
            .map(|reps| {
                let nominal: Vec<f64> = reps.iter().map(|&(s, m)| s / host.scale_at(m)).collect();
                median(&nominal)
            })
            .sum()
    }
}

/// Iterations of the reference computation: about 20 ms on one core of
/// a 2023 Xeon virtual machine.
const REFERENCE_ITERS: u64 = 4_000_000;

/// Time of one [`Reference`] rep that the host-time metrics are scaled
/// to: its median on the machine the bounds were set on.
const REFERENCE_NOMINAL_S: f64 = 0.020;

/// Reference reps around a phase rep that gauge the host's speed for it:
/// about a round of the untraced run on either side. Bracketing a rep by
/// only its two neighbours followed the host as well but carried more of
/// the reference's own jitter.
const REFERENCE_WINDOW: usize = 6;

/// A fixed computation of the benchmark's own, timed between the phases'
/// reps, that gauges how fast the host runs this process at the time.
///
/// On a shared virtual machine the host's other guests change the speed
/// of the same instructions: the same work took up to 1.6× its fastest
/// time in process CPU time, steal left out, in stretches from seconds to
/// whole runs, and the median of one 44-second run moved by a quarter
/// from run to run. The reference slows with the host, and the program's
/// code cannot change it. So every phase rep runs between reference reps,
/// and its time is divided by their median around it over
/// [`REFERENCE_NOMINAL_S`] (its rate multiplied): the value on a host
/// running at nominal speed. On the same host that took the run-to-run
/// spread (IQR / median over seeds) of `sim_minsns_s` from 0.17 to 0.06
/// and of `serve_sat_rps` from 0.12 to 0.06.
pub struct Reference {
    workers: usize,
    clock: Clock,
    times: Vec<f64>,
}

impl Reference {
    /// A reference that runs on `workers` threads at once, as the phases
    /// do, so that it gauges every core they use.
    pub fn new(workers: usize) -> Reference {
        Reference {
            workers,
            clock: Clock::for_workers(workers),
            times: Vec::new(),
        }
    }

    pub fn rep(&mut self) {
        let workers = self.workers;
        let (_, s) = self.clock.time(|| {
            std::thread::scope(|s| {
                for w in 1..workers {
                    s.spawn(move || reference_kernel(w as u64));
                }
                reference_kernel(0)
            })
        });
        self.times.push(s);
    }

    /// The mark of a phase rep run now: the number of reference reps so
    /// far. The rep is bracketed by reference reps `mark - 1` and `mark`.
    pub fn mark(&self) -> usize {
        self.times.len()
    }

    /// The host's slowness around a phase rep at `mark`: the median of
    /// the [`REFERENCE_WINDOW`] reference reps nearest it (half before,
    /// half after, fewer at the ends of the run) over
    /// [`REFERENCE_NOMINAL_S`]. A measured rate is multiplied by it and a
    /// measured time divided by it to give its value at nominal speed.
    pub fn scale_at(&self, mark: usize) -> f64 {
        let half = REFERENCE_WINDOW / 2;
        let lo = mark.saturating_sub(half).min(self.times.len());
        let hi = (mark + half).min(self.times.len());
        median(&self.times[lo..hi]) / REFERENCE_NOMINAL_S
    }
}

/// The reference computation: a xorshift stream folded with a
/// data-dependent branch, in registers only.
fn reference_kernel(seed: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15 ^ seed;
    let mut acc = 0u64;
    for i in 0..REFERENCE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else {
            acc ^= x.rotate_left((i & 31) as u32);
        }
    }
    std::hint::black_box(acc)
}

/// Sorts a sample in place and returns it, for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Virtual CPUs this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Time the host stole from all of this machine's virtual CPUs, in
/// seconds (the `steal` column of `/proc/stat`).
fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let steal: f64 = s.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
            Some(steal / CLOCK_TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// A wall clock that takes out the time the host stole.
///
/// On a shared virtual machine the host runs other guests on the same
/// cores, and the share it takes changes from minute to minute: raw wall
/// time of the same work swung by a third between back-to-back runs. The
/// guest kernel counts that time as steal. A phase that keeps every
/// virtual CPU busy loses the mean steal per virtual CPU of wall time to
/// it; one that leaves some idle loses more, so subtracting the mean never
/// credits a run with time it did not lose.
pub struct HostClock {
    start: Instant,
    steal: f64,
}

impl HostClock {
    pub fn start() -> HostClock {
        HostClock {
            steal: steal_seconds(),
            start: Instant::now(),
        }
    }

    /// Seconds since [`HostClock::start`] less the mean steal per virtual
    /// CPU, never less than half the wall time.
    pub fn seconds(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        let stolen = (steal_seconds() - self.steal).max(0.0) / cores() as f64;
        (wall - stolen).max(wall / 2.0)
    }
}

/// How the time of one rep is read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// CPU time of the whole process, for reps that run on one thread.
    /// The kernel accounts steal apart (paravirtual steal accounting), so
    /// this leaves out both the host's steal and preemption by other
    /// processes: it is the time the work itself took.
    Cpu,
    /// Wall time, for reps spread over several threads, where time a
    /// thread waits on another must count.
    Wall,
}

impl Clock {
    /// The clock for a rep run by `workers` threads.
    pub fn for_workers(workers: usize) -> Clock {
        if workers == 1 {
            Clock::Cpu
        } else {
            Clock::Wall
        }
    }

    /// Runs `f` and returns its result with the seconds it took.
    pub fn time<R>(self, f: impl FnOnce() -> R) -> (R, f64) {
        match self {
            Clock::Cpu => {
                let start = cpu_seconds();
                let r = f();
                (r, cpu_seconds() - start)
            }
            Clock::Wall => {
                let (r, d) = timed(f);
                (r, d.as_secs_f64())
            }
        }
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time all threads of this process have used, in seconds (the
/// layout of `Timespec` is that of 64-bit Linux).
fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout), and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The kernel's user-visible clock tick (`USER_HZ`), fixed at 100 on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Little-endian byte image of instruction words (the service's payload
/// encoding).
pub fn words_to_le(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        let host = Reference {
            workers: 1,
            clock: Clock::Cpu,
            times: [1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 7.0, 8.0]
                .map(|t| t * REFERENCE_NOMINAL_S)
                .to_vec(),
        };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Mark 0 sees reps 0..3; the window widens to six, then slides.
        assert!(close(host.scale_at(0), 2.0));
        assert!(close(host.scale_at(3), 3.5));
        assert!(close(host.scale_at(8), 7.0));
        assert!(close(host.scale_at(9), 7.5));
        let mut units = UnitTimes::new(2);
        units.record(0, 6.0, 0);
        units.record(0, 2.0, 0);
        assert!(units.total(&host).is_nan(), "unit 1 never ran");
        units.record(1, 14.0, 8);
        units.record(0, 18.0, 0);
        assert!(close(units.total(&host), 5.0));
    }

    /// Process CPU time counts a thread's work. (Other tests run in the
    /// same process, so it cannot be checked to leave out a sleep here.)
    #[test]
    fn cpu_clock_counts_work() {
        let (_, spun) = Clock::Cpu.time(|| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(50) {}
        });
        assert!(spun > 0.025, "{spun}");
    }
}
