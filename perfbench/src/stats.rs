//! The benchmark's own statistics: percentiles that carry their sample
//! count, medians, and open-loop lateness accounting.
//!
//! A tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a p90 needs 100 samples and a
//! p99 needs 1000. A run that falls short fails instead of printing a
//! tail made of one or two outliers.

use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the value was taken from.
    pub n: usize,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`.
///
/// # Errors
///
/// When fewer than [`MIN_BEYOND`] samples lie beyond the reported rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// Median of `samples` (mean of the middle pair for even counts), or 0
/// for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A fixed-rate send schedule. Request `i` is due at `start + i *
/// period`, whether or not earlier requests have returned, so a slow
/// response delays the requests behind it and that delay is charged to
/// their latency instead of silently thinning the load.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

impl OpenLoop {
    /// A schedule of `rate_per_s` requests per second starting at `start`.
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "rate must be positive");
        OpenLoop {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period * u32::try_from(i).expect("request index fits u32")
    }
}

/// One open-loop request: when it was due, sent and answered.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Scheduled send time.
    pub due: Instant,
    /// Actual send time (never before `due`).
    pub sent: Instant,
    /// Response fully read.
    pub done: Instant,
}

impl Timed {
    /// Latency from when the request was due, in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }

    /// How late the send was, in microseconds.
    pub fn late_us(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_sample_count_and_enforces_ten_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&hundred, 0.90).unwrap();
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.n, 100);
        assert_eq!(p90.beyond, 10);
        // 99 samples leave only 9 beyond the p90 rank.
        let err = percentile(&hundred[..99], 0.90).unwrap_err();
        assert!(err.contains("99 samples leave 9"), "{err}");
        // p99 needs a thousand.
        assert!(percentile(&hundred, 0.99).is_err());
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&thousand, 0.99).unwrap();
        assert_eq!((p99.value, p99.n, p99.beyond), (990.0, 1000, 10));
        let p50 = percentile(&thousand, 0.5).unwrap();
        assert_eq!(p50.value, 500.0);
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_and_ratio_edge_cases() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn open_loop_charges_a_slow_response_to_the_requests_behind_it() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let sched = OpenLoop::new(t0, 100.0); // due every 10 ms
        assert_eq!(sched.due(0), t0);
        assert_eq!(sched.due(3), t0 + ms(30));
        // Request 0 takes 25 ms, so requests 1 and 2 go out late, right
        // after it returns; request 3 is on time again.
        let samples = [
            Timed {
                due: sched.due(0),
                sent: t0,
                done: t0 + ms(25),
            },
            Timed {
                due: sched.due(1),
                sent: t0 + ms(25),
                done: t0 + ms(26),
            },
            Timed {
                due: sched.due(2),
                sent: t0 + ms(26),
                done: t0 + ms(27),
            },
            Timed {
                due: sched.due(3),
                sent: t0 + ms(30),
                done: t0 + ms(31),
            },
        ];
        let late: Vec<f64> = samples.iter().map(Timed::late_us).collect();
        let lat: Vec<f64> = samples.iter().map(Timed::latency_us).collect();
        assert_eq!(late, vec![0.0, 15_000.0, 6_000.0, 0.0]);
        // Latency runs from the due time: 1 ms of service plus the wait.
        assert_eq!(lat, vec![25_000.0, 16_000.0, 7_000.0, 1_000.0]);
    }
}
