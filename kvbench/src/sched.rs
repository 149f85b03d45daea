//! The steady open-loop schedule: operation `i` is due `i / rate` seconds
//! after the start, evenly spaced, with no bursts.
//!
//! Due instants are computed from the index in integer nanoseconds, so
//! the spacing never drifts however long the run. The generator that
//! follows the schedule records when each send actually happened; the
//! achieved offered rate and the generator's lateness come from those
//! records, not from the target.

use std::time::{Duration, Instant};

/// Restricts the calling thread (and the threads it spawns later) to
/// CPU `cpu`. Returns whether the kernel agreed.
#[cfg(target_os = "linux")]
pub fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(
            pid: std::ffi::c_int,
            size: usize,
            mask: *const u64,
        ) -> std::ffi::c_int;
    }
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte array, the size passed with it;
    // pid 0 names the calling thread, and the kernel only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Threads cannot be pinned on this platform.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

/// An evenly spaced arrival schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate: u64,
}

impl Schedule {
    /// `rate` operations per second, the first due at `start`.
    pub fn new(start: Instant, rate: u64) -> Self {
        assert!(rate > 0, "a schedule needs a positive rate");
        Schedule { start, rate }
    }

    /// Nanoseconds after the start at which operation `i` is due.
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as u128 * 1_000_000_000 / self.rate as u128) as u64
    }

    /// The instant operation `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_nanos(self.due_ns(i))
    }

    /// Waits until operation `i` is due, yielding the core between
    /// clock reads. It never sleeps: on a virtual machine a sleeping core
    /// may halt, and waking it costs more than the gap between sends.
    pub fn wait_for(&self, i: usize) -> Instant {
        let due = self.due(i);
        loop {
            let now = Instant::now();
            if now >= due {
                return now;
            }
            std::thread::yield_now();
        }
    }
}

/// Offered rate actually achieved: sends per second between the first
/// and the last send, given each send's offset from the schedule start
/// in nanoseconds.
pub fn achieved_rate(send_ns: &[u64]) -> Option<f64> {
    let (first, last) = (*send_ns.first()?, *send_ns.last()?);
    if send_ns.len() < 2 || last <= first {
        return None;
    }
    Some((send_ns.len() - 1) as f64 * 1e9 / (last - first) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evenly_spaced_without_drift() {
        let s = Schedule::new(Instant::now(), 50_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 20_000);
        assert_eq!(s.due_ns(50_000), 1_000_000_000);
        // A rate that does not divide a second still lands exactly on
        // whole seconds.
        let t = Schedule::new(Instant::now(), 30_000);
        assert_eq!(t.due_ns(30_000 * 7), 7_000_000_000);
        assert_eq!(t.due_ns(1), 33_333);
    }

    #[test]
    fn achieved_rate_of_the_schedule_is_the_target() {
        let s = Schedule::new(Instant::now(), 50_000);
        let sends: Vec<u64> = (0..10_001).map(|i| s.due_ns(i)).collect();
        let r = achieved_rate(&sends).unwrap();
        assert!((r / 50_000.0 - 1.0).abs() < 1e-9, "{r}");
        assert_eq!(achieved_rate(&[5]), None);
    }

    #[test]
    fn a_followed_schedule_stays_within_one_percent() {
        let s = Schedule::new(Instant::now(), 20_000);
        let start = s.due(0);
        let sends: Vec<u64> = (0..2_000)
            .map(|i| s.wait_for(i).duration_since(start).as_nanos() as u64)
            .collect();
        let r = achieved_rate(&sends).unwrap();
        assert!((r / 20_000.0 - 1.0).abs() < 0.01, "{r}");
    }
}
