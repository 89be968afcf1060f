//! Latency samples with failure accounting, and the percentile rule.
//!
//! A failed, shed or timed-out operation stays in the sample set as a
//! value slower than every success, so failures push percentiles up
//! instead of disappearing from them. A percentile is reported only when
//! enough samples lie beyond it to pin it down: the median needs one
//! sample, a tail percentile needs [`MIN_BEYOND`] samples past its rank.

/// Samples that must lie beyond a tail percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Successful operation values plus a count of failed operations.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ok: Vec<f64>,
    failed: u64,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one successful operation's value.
    pub fn push(&mut self, value: f64) {
        self.ok.push(value);
    }

    /// Records one failed operation (slower than every success).
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ok.extend_from_slice(&other.ok);
        self.failed += other.failed;
    }

    pub fn attempted(&self) -> u64 {
        self.ok.len() as u64 + self.failed
    }

    pub fn succeeded(&self) -> u64 {
        self.ok.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Nearest-rank `p`-quantile over every attempted operation, failures
    /// sorted last as `+∞`. `None` when fewer than `min_beyond` samples
    /// lie beyond the rank (or there are no samples at all).
    pub fn quantile(&self, p: f64, min_beyond: usize) -> Option<f64> {
        let n = self.attempted() as usize;
        if n == 0 {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < min_beyond {
            return None;
        }
        if rank > self.ok.len() {
            return Some(f64::INFINITY);
        }
        let mut sorted = self.ok.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }

    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5, 0)
    }

    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.9, MIN_BEYOND)
    }

    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99, MIN_BEYOND)
    }

    pub fn max(&self) -> f64 {
        self.ok.iter().copied().fold(0.0, f64::max)
    }
}

/// Median of plain values (setup repetitions); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.p50().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u32>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v as f64);
        }
        s
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = samples([5, 1, 4, 2, 3]);
        assert_eq!(s.p50(), Some(3.0));
        assert_eq!(s.quantile(0.2, 0), Some(1.0));
        assert_eq!(s.quantile(1.0, 0), Some(5.0));
        assert_eq!(samples([7]).p50(), Some(7.0));
        assert_eq!(Samples::new().p50(), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_its_rank() {
        // n = 1000: rank 990, exactly 10 beyond.
        let s = samples(1..=1000);
        assert_eq!(s.p99(), Some(990.0));
        // n = 999: rank ceil(989.01) = 990, only 9 beyond.
        assert_eq!(samples(1..=999).p99(), None);
        assert_eq!(samples(1..=100).p99(), None);
    }

    #[test]
    fn failures_count_as_slower_than_every_success() {
        let mut s = samples(1..=990);
        for _ in 0..10 {
            s.fail();
        }
        assert_eq!(s.attempted(), 1000);
        assert_eq!(s.failed(), 10);
        // Rank 990 is still the slowest success...
        assert_eq!(s.p99(), Some(990.0));
        // ...one more failure moves it onto a failure.
        s.fail();
        assert_eq!(s.p99(), Some(f64::INFINITY));
        // Failures shift the median too, and never lower it.
        let mut t = samples([1, 2, 3]);
        t.fail();
        t.fail();
        assert_eq!(t.p50(), Some(3.0));
        t.fail();
        t.fail();
        // 3 successes, 4 failures: the median rank (4) is a failure.
        assert_eq!(t.p50(), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_plain_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
