//! Speed correction for wall-clock times.
//!
//! The machines this benchmark runs on are shared. Measured over 15 minutes
//! on the box it was written on, the median ResNet-18 compile of a 5 s window
//! ranged over 68 % of its own median (interquartile range 7 %): neighbours
//! take cache and memory bandwidth for minutes at a time, and no statistic of
//! one 12 s window can tell that apart from a slower compiler. A fixed kernel
//! timed alongside can. The kernel below does what the compiler does — small
//! allocations, hash-map traffic, string formatting, a sort — and nothing of
//! the compiler's own, and it slows down when the compiler does: the same
//! compile divided by the kernel's time ranged over 16 % (interquartile range
//! 1.4 %). An arithmetic-only kernel does not track it (range 52 %).
//!
//! So every reported time is divided by the machine's slowdown at that
//! moment: the median time of the kernel samples around it over
//! [`NOMINAL_US`], which is what the kernel takes on that box when it is
//! quiet. A corrected time reads like a real one on a quiet machine, and is
//! what the op would have taken had the kernel taken its nominal time.
//! Counts, memory and design quality are not touched, and the trace file
//! keeps the times as measured.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one kernel run takes on a quiet machine of the kind the first numbers
/// were taken on. Fixing it keeps corrected times in real units.
pub const NOMINAL_US: f64 = 65.0;

/// A sample is taken before an op once this long has passed since the last:
/// before every sweep, before every fifth or so 1 ms compile.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// The slowdown at a moment is the median of this many samples before and
/// after it (single samples catch interrupts and cold caches).
const HALF_WINDOW: usize = 10;

/// One run of the calibration kernel, in microseconds. Deterministic: fixed
/// inputs, fixed hasher keys.
pub fn kernel_us() -> f64 {
    let start = Instant::now();
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = black_box(88_172_645_463_325_252_u64);
    for i in 0..600_u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % 257).or_default().push(i);
    }
    let mut total = 0_u64;
    for (key, values) in &map {
        let boxed = Box::new(values.iter().sum::<u64>() + key);
        total = total.wrapping_add(*boxed);
    }
    let mut keys: Vec<String> = map.keys().map(|key| format!("k{key}")).collect();
    keys.sort();
    black_box((total, keys));
    start.elapsed().as_secs_f64() * 1e6
}

/// Whether a sample is due, `since_last` after the previous one (if any).
fn due(since_last: Option<Duration>) -> bool {
    since_last.is_none_or(|elapsed| elapsed >= SAMPLE_EVERY)
}

/// Kernel samples in the order taken.
#[derive(Debug, Default)]
pub struct Calibrator {
    samples_us: Vec<f64>,
    last: Option<Instant>,
}

impl Calibrator {
    /// Takes a sample if one is due. Called before each op, clock stopped.
    pub fn sample_if_due(&mut self) {
        if due(self.last.map(|last| last.elapsed())) {
            self.burst(1);
        }
    }

    /// Takes `n` samples back to back (around a set-up). A sample is the
    /// second of two kernel runs: the first refills the caches the op before
    /// it emptied, so that what ran before does not set the kernel's time.
    /// Warm, the kernel follows the machine as well as cold (compile / kernel
    /// over 10 minutes: interquartile range 2.4 % against 2.3 %).
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            kernel_us();
            self.samples_us.push(kernel_us());
        }
        self.last = Some(Instant::now());
    }

    /// How many samples have been taken: a position in time.
    pub fn mark(&self) -> usize {
        self.samples_us.len()
    }

    /// The machine's slowdown over the samples `from..to`: their median over
    /// the nominal time. 1 when there are none.
    pub fn slowdown_between(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.samples_us.len());
        let samples = &self.samples_us[from.min(to)..to];
        if samples.is_empty() {
            1.0
        } else {
            crate::stats::median(samples) / NOMINAL_US
        }
    }

    /// The slowdown over the latest samples: what the traced pass, which
    /// folds each op into its metrics as it goes, corrects that op with.
    pub fn recent_slowdown(&self) -> f64 {
        let to = self.samples_us.len();
        self.slowdown_between(to.saturating_sub(2 * HALF_WINDOW + 1), to)
    }

    /// The slowdown around each mark `0..=mark()`: entry `m` is taken over
    /// the `HALF_WINDOW` samples before and after position `m`.
    pub fn slowdowns(&self) -> Vec<f64> {
        (0..=self.samples_us.len())
            .map(|m| self.slowdown_between(m.saturating_sub(HALF_WINDOW), m + HALF_WINDOW))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_local_median_over_nominal() {
        let mut cal = Calibrator::default();
        assert_eq!(cal.slowdown_between(0, 5), 1.0);
        assert_eq!(cal.slowdowns(), vec![1.0]);
        // 30 quiet samples, then 30 on a machine running 1.5x slower, with
        // one interrupt in the quiet stretch.
        cal.samples_us = [vec![NOMINAL_US; 30], vec![1.5 * NOMINAL_US; 30]].concat();
        cal.samples_us[7] = 20.0 * NOMINAL_US;
        let slowdowns = cal.slowdowns();
        assert_eq!(slowdowns.len(), 61);
        assert_eq!(slowdowns[0], 1.0);
        assert_eq!(slowdowns[8], 1.0);
        assert_eq!(slowdowns[60], 1.5);
        assert_eq!(slowdowns[45], 1.5);
        assert_eq!(cal.slowdown_between(30, 60), 1.5);
        assert_eq!(cal.recent_slowdown(), 1.5);
        assert_eq!(cal.mark(), 60);
    }

    #[test]
    fn sampling_is_paced() {
        assert!(due(None));
        assert!(!due(Some(Duration::from_millis(1))));
        assert!(due(Some(SAMPLE_EVERY)));
        let mut cal = Calibrator::default();
        cal.sample_if_due();
        assert_eq!(cal.mark(), 1);
        cal.burst(3);
        assert_eq!(cal.mark(), 4);
        assert!(cal.samples_us.iter().all(|&us| us > 0.0));
    }
}
