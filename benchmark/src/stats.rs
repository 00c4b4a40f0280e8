//! Seeded randomness and order statistics for the benchmark.
//!
//! Everything here is plain arithmetic on the benchmark's own data; no
//! product type appears. The generator is splitmix64, so a `--seed` fixes
//! every arrival time and every payload byte without a `rand` dependency.

use std::time::Duration;

/// splitmix64: tiny, seedable, and good enough to drive arrival times.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1): never 0, so `ln` is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Due times of a Poisson arrival process: exponential gaps at `rate_per_s`
/// until `window` is used up. The same seed gives the same schedule.
pub fn poisson_schedule(rng: &mut SplitMix64, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    let mut due = Vec::with_capacity((rate_per_s * window.as_secs_f64() * 1.05) as usize + 16);
    let mut t = 0.0f64;
    let end = window.as_secs_f64();
    loop {
        t += -rng.next_unit().ln() / rate_per_s;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p` percent of the samples at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of 50, 90, 99, 99.9 that still has at least ten samples
/// beyond it; a tail estimated from fewer is one outlier's opinion.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| has_ten_beyond(samples, *p))
        .unwrap_or(50.0)
}

/// True if at least ten of `samples` lie beyond their `p`th percentile.
fn has_ten_beyond(samples: usize, p: f64) -> bool {
    // 100 - 99.9 is not exactly 0.1 in binary; forgive the last bit.
    samples as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9
}

/// A tail percentile that holds still from run to run: cut the run into
/// `slice`-long intervals of `when`, take the `p`th percentile of the
/// values in each interval that has at least ten samples beyond it, and
/// return the median of those with how many intervals counted.
///
/// One 20 s window holds only a few tail events (a wave whose leader is
/// skipped adds two rounds to every transaction waiting on it), so the
/// whole-window p99 jumps between "one such event" and "two" from seed to
/// seed; the typical interval's p99 does not. The whole-window tail is
/// still printed beside it.
pub fn sliced_percentile(points: &[(f64, f64)], slice: f64, p: f64) -> Option<(f64, usize)> {
    let mut slices: Vec<Vec<f64>> = Vec::new();
    for &(when, value) in points {
        let index = (when.max(0.0) / slice) as usize;
        if slices.len() <= index {
            slices.resize_with(index + 1, Vec::new);
        }
        slices[index].push(value);
    }
    let per_slice: Vec<f64> = slices
        .iter_mut()
        .filter(|values| has_ten_beyond(values.len(), p))
        .map(|values| {
            values.sort_by(f64::total_cmp);
            percentile(values, p).expect("non-empty slice")
        })
        .collect();
    Some((median(&per_slice)?, per_slice.len()))
}

/// Median of an unsorted slice (nearest rank). `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// How late a send left, timed from when it was *due*: a generator that
/// stalls makes every later request late, and the latency clock of each
/// request already runs from its due time, so lateness is never hidden.
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Nearest rank never interpolates: the value is always a sample.
        assert_eq!(percentile(&[1.0, 10.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 10.0], 51.0), Some(10.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn poisson_schedule_repeats_from_the_seed_and_hits_the_rate() {
        let window = Duration::from_secs(10);
        let a = poisson_schedule(&mut SplitMix64::new(7), 2_000.0, window);
        let b = poisson_schedule(&mut SplitMix64::new(7), 2_000.0, window);
        let c = poisson_schedule(&mut SplitMix64::new(8), 2_000.0, window);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.iter().all(|d| *d < window));
        // 20 000 expected arrivals, standard deviation ~141.
        assert!((19_000..21_000).contains(&a.len()), "{} arrivals", a.len());
        // Exponential gaps: the mean gap is 1/rate and about 1/e of them
        // exceed it, which a fixed-interval schedule would fail.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let long = gaps.iter().filter(|g| **g > 1.0 / 2_000.0).count() as f64;
        let share = long / gaps.len() as f64;
        assert!((0.33..0.41).contains(&share), "share of long gaps {share}");
    }

    #[test]
    fn lateness_runs_from_due_not_from_the_previous_send() {
        let ms = Duration::from_millis;
        // A 30 ms stall before the first of three sends due 10 ms apart:
        // all three are late, by 30, 20 and 10 ms, although the second and
        // third left right after their predecessor.
        assert_eq!(lateness(ms(100), ms(130)), ms(30));
        assert_eq!(lateness(ms(110), ms(130)), ms(20));
        assert_eq!(lateness(ms(120), ms(130)), ms(10));
        // Never negative: the generator does not send early.
        assert_eq!(lateness(ms(140), ms(130)), ms(0));
    }

    #[test]
    fn sliced_percentile_shrugs_off_one_bad_interval() {
        // Ten 1 s intervals of 2 000 samples: latencies 1..=2000 ms, except
        // that interval 3 had a stall (+5 000 ms on everything).
        let mut points = Vec::new();
        for interval in 0..10 {
            for i in 1..=2_000 {
                let stall = if interval == 3 { 5_000.0 } else { 0.0 };
                points.push((interval as f64 + i as f64 / 2_001.0, i as f64 + stall));
            }
        }
        assert_eq!(sliced_percentile(&points, 1.0, 99.0), Some((1_980.0, 10)));
        // The whole-window p99 is all stall.
        let mut all: Vec<f64> = points.iter().map(|p| p.1).collect();
        all.sort_by(f64::total_cmp);
        assert!(percentile(&all, 99.0).unwrap() > 6_000.0);
        // Intervals too thin to have ten samples beyond p99 do not vote.
        let thin: Vec<(f64, f64)> = (0..999).map(|i| (0.5, i as f64)).collect();
        assert_eq!(sliced_percentile(&thin, 1.0, 99.0), None);
        assert_eq!(sliced_percentile(&thin, 1.0, 90.0), Some((899.0, 1)));
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
