//! Sample statistics and open-loop timing arithmetic.

use std::time::{Duration, Instant};

/// Exact nearest-rank percentile (`q` in `0..=1`) of an unsorted
/// sample; `0.0` for an empty one.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Smallest value (nearest rank 0); `0.0` for an empty sample.
pub fn min(samples: &[f64]) -> f64 {
    percentile(samples, 0.0)
}

/// Largest value; `0.0` for an empty sample.
pub fn max(samples: &[f64]) -> f64 {
    percentile(samples, 1.0)
}

/// The smallest percentile `q` over every run of `len` consecutive
/// samples (over them all when there are fewer): the figure of the
/// best stretch of the sequence. `0.0` for an empty one.
pub fn best_window(samples: &[f64], len: usize, q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples
        .windows(len.clamp(1, samples.len()))
        .map(|w| percentile(w, q))
        .fold(f64::INFINITY, f64::min)
}

/// The highest rate over every run of `len` consecutive completions:
/// `done` holds `(time s, amount)` in time order, and a run's rate is
/// the amount its last `len` completions brought over the time since
/// the completion before them. Over all of them when there are fewer;
/// `0.0` with fewer than two.
pub fn best_rate(done: &[(f64, f64)], len: usize) -> f64 {
    let len = len.clamp(1, done.len().saturating_sub(1).max(1));
    done.windows(len + 1)
        .map(|w| {
            let amount: f64 = w[1..].iter().map(|&(_, a)| a).sum();
            amount / (w[len].0 - w[0].0).max(1e-9)
        })
        .fold(0.0, f64::max)
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// When request `k` of an open-loop schedule is due: `start + k / rate`.
pub fn due_time(start: Instant, k: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(k as f64 / rate)
}

/// How late the generator sent a request: `sent - due`, or zero when it
/// sent on time.
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Open-loop latency of a request: from when it was *due*, not from
/// when it was sent, so a stalled generator's delay counts against the
/// requests that queued behind the stall.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
    }

    #[test]
    fn median_and_min_take_nearest_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(min(&[4.0, 1.0, 3.0]), 1.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[4.0, 1.0, 3.0]), 4.0);
        assert_eq!(max(&[]), 0.0);
    }

    #[test]
    fn best_window_finds_the_fastest_stretch() {
        // Slow, fast, slow: a median window of 20 fits the fast part.
        let mut s = vec![3.0; 20];
        s.extend([1.0; 20]);
        s.extend([3.0; 20]);
        assert_eq!(best_window(&s, 20, 0.5), 1.0);
        // A window longer than the sequence takes it all.
        assert_eq!(best_window(&s, 100, 0.9), 3.0);
        // Rising values: the first window is best, its median its 10th.
        let rising: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(best_window(&rising, 20, 0.5), 10.0);
        assert_eq!(best_window(&[], 20, 0.5), 0.0);
    }

    #[test]
    fn best_rate_finds_the_fastest_stretch() {
        // One unit every second, then every quarter second, then every
        // second: the best stretch of four completions runs at 4/s.
        let mut t = 0.0;
        let mut done = vec![(t, 1.0)];
        for step in [1.0, 1.0, 0.25, 0.25, 0.25, 0.25, 1.0, 1.0] {
            t += step;
            done.push((t, 1.0));
        }
        assert_eq!(best_rate(&done, 4), 4.0);
        // Amounts count: two units per completion double the rate.
        let doubled: Vec<(f64, f64)> = done.iter().map(|&(t, _)| (t, 2.0)).collect();
        assert_eq!(best_rate(&doubled, 4), 8.0);
        // Fewer completions than a stretch: over them all.
        assert_eq!(best_rate(&done[..3], 10), 1.0);
        assert_eq!(best_rate(&done[..1], 10), 0.0);
        assert_eq!(best_rate(&[], 10), 0.0);
    }

    #[test]
    fn mean_averages() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn due_times_follow_the_rate() {
        let start = Instant::now();
        assert_eq!(due_time(start, 0, 300.0), start);
        assert_eq!(due_time(start, 300, 300.0), start + Duration::from_secs(1));
        assert_eq!(
            due_time(start, 10, 40.0),
            start + Duration::from_millis(250)
        );
    }

    #[test]
    fn latency_counts_from_due_and_lateness_never_goes_negative() {
        let due = Instant::now();
        // On time: sent at due, done 2 ms later.
        let done = due + Duration::from_millis(2);
        assert_eq!(lateness(due, due), Duration::ZERO);
        assert_eq!(latency_from_due(due, done), Duration::from_millis(2));
        // The generator stalled 5 ms: the stall counts in the latency.
        let sent = due + Duration::from_millis(5);
        let done = sent + Duration::from_millis(2);
        assert_eq!(lateness(due, sent), Duration::from_millis(5));
        assert_eq!(latency_from_due(due, done), Duration::from_millis(7));
        // Sleep granularity can wake a thread marginally early.
        assert_eq!(
            lateness(due + Duration::from_micros(10), due),
            Duration::ZERO
        );
        assert_eq!(ms(Duration::from_micros(1500)), 1.5);
    }
}
