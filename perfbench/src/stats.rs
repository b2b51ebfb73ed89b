//! The benchmark's own arithmetic: percentiles, goodput, latency from due
//! time and the seeded input generator.  Everything here is pure so the
//! unit tests below pin it.

use std::time::Instant;

/// Median of a sample; `0.0` for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n` values.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Percentiles considered for a tail, highest first.
const TAIL_PERCENTILES: [(f64, &str); 6] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.90, "p90"),
    (0.75, "p75"),
    (0.50, "p50"),
];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile (nearest rank) that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(label, value)`.  A sample of
/// fewer than 20 leaves no percentile (not even the median) with that
/// support; it reports its median, labelled `median`, since a maximum of a
/// few samples would mostly measure noise.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for (q, label) in TAIL_PERCENTILES {
        if n == 0 {
            break;
        }
        let index = rank_index(n, q);
        if n - 1 - index >= TAIL_MIN_BEYOND {
            return (label, sorted[index]);
        }
    }
    ("median", median(values))
}

/// Milliseconds from when a request was due to when its response was
/// complete.  Timing from the due time (not the send time) charges a late
/// generator's wait to the request, as an open-loop client experiences it.
pub fn latency_from_due_ms(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Whether `[start, end]` overlaps none of `intervals`: a request that
/// never shared the server with any of them.
pub fn clear_of(intervals: &[(Instant, Instant)], start: Instant, end: Instant) -> bool {
    intervals.iter().all(|&(s, e)| e < start || end < s)
}

/// The latency a failed or refused request is charged in tail statistics:
/// far beyond any limit, so it always counts as a miss.
pub const FAILED_LATENCY_MS: f64 = 1e9;

/// Requests answered `200` within `limit_ms`, per second of `schedule_s`.
/// `None` marks a request that failed or was refused; it never counts.
pub fn goodput(outcomes: &[Option<f64>], limit_ms: f64, schedule_s: f64) -> f64 {
    if schedule_s <= 0.0 {
        return 0.0;
    }
    let good = outcomes
        .iter()
        .filter(|o| o.is_some_and(|ms| ms <= limit_ms))
        .count();
    good as f64 / schedule_s
}

/// SplitMix64: a small, seedable generator so a `--seed` fully determines
/// every generated input, independent of any library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent seed for stream `index` of a workload seeded with
/// `seed` (sweep seeds, request seeds), so successive items never share
/// content-cache entries.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Arrival offsets in seconds of an open-loop Poisson schedule at `rate`
/// per second over `seconds`, conditioned on exactly `round(rate·seconds)`
/// arrivals: given its count, a Poisson process places arrivals as sorted
/// uniform draws.  Fixing the count keeps the offered load identical across
/// seeds, so seed-to-seed spread reflects the system, not the schedule.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, seconds: f64) -> Vec<f64> {
    let count = (rate * seconds).round() as usize;
    let mut offsets: Vec<f64> = (0..count).map(|_| rng.next_f64() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 (rank 990) leaves 10 beyond, p99.9 leaves 1.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), ("p99", 990.0));
        // 100 samples: p90 (rank 90) leaves exactly 10 beyond; p95 leaves 5.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), ("p90", 90.0));
        // 40 samples: p75 (rank 30) leaves 10.
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&values), ("p75", 30.0));
        // 20 samples: p50 (rank 10) leaves 10.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values), ("p50", 10.0));
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_median() {
        assert_eq!(tail(&[5.0, 1.0, 9.0, 2.0]), ("median", 3.5));
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&values), ("median", 10.0));
        assert_eq!(tail(&[]), ("median", 0.0));
    }

    #[test]
    fn tail_is_order_independent() {
        let mut values: Vec<f64> = (1..=200).map(f64::from).collect();
        let sorted = tail(&values);
        values.reverse();
        assert_eq!(tail(&values), sorted);
    }

    #[test]
    fn goodput_counts_only_answers_within_the_limit() {
        let outcomes = [Some(10.0), Some(200.0), Some(200.5), None, Some(0.1)];
        // 10, 200 (inclusive) and 0.1 are good; 200.5 is late; None failed.
        assert!((goodput(&outcomes, 200.0, 2.0) - 1.5).abs() < 1e-12);
        assert_eq!(goodput(&outcomes, 200.0, 0.0), 0.0);
        assert_eq!(goodput(&[None, None], 200.0, 1.0), 0.0);
    }

    #[test]
    fn latency_is_timed_from_the_due_time_not_the_send_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30); // the generator ran late
        let done = sent + Duration::from_millis(5);
        let latency = latency_from_due_ms(due, done);
        assert!((latency - 35.0).abs() < 1e-6, "got {latency}");
        // A response stamped before its due time (clock skew) reads zero.
        assert_eq!(latency_from_due_ms(done, due), 0.0);
    }

    #[test]
    fn clear_of_rejects_any_overlap() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let busy = [(at(10), at(20)), (at(40), at(50))];
        assert!(clear_of(&busy, at(0), at(9)));
        assert!(clear_of(&busy, at(21), at(39)));
        assert!(!clear_of(&busy, at(5), at(10)));
        assert!(!clear_of(&busy, at(15), at(16)));
        assert!(!clear_of(&busy, at(19), at(41)));
        assert!(clear_of(&[], at(0), at(100)));
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_another_seed_does_not() {
        let a = poisson_schedule(&mut SplitMix64::new(7), 100.0, 10.0);
        let b = poisson_schedule(&mut SplitMix64::new(7), 100.0, 10.0);
        let c = poisson_schedule(&mut SplitMix64::new(8), 100.0, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert_eq!(c.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
    }

    #[test]
    fn schedule_gaps_look_exponential() {
        let offsets = poisson_schedule(&mut SplitMix64::new(1), 100.0, 100.0);
        let gaps: Vec<f64> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
        // Exponential gaps: about e^-1 of them exceed the mean.
        let over = gaps.iter().filter(|&&g| g > mean).count() as f64 / gaps.len() as f64;
        assert!(
            (over - (-1.0f64).exp()).abs() < 0.03,
            "share over mean {over}"
        );
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        assert_eq!(seeds.len(), 64);
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(5);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
