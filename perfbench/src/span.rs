//! Host-time spans recorded around calls into the simulator, and the
//! order statistics the report is built from.

use std::time::Instant;

/// Host time spent inside one layer boundary: every call the benchmark
/// wraps with [`Span::time`] adds its duration. A sampled span also keeps
/// each call's duration for percentiles.
#[derive(Debug, Default)]
pub struct Span {
    total_ns: u64,
    calls: u64,
    samples: Option<Vec<u64>>,
}

impl Span {
    /// A span that keeps every call's duration.
    pub fn sampled() -> Span {
        Span {
            samples: Some(Vec::new()),
            ..Span::default()
        }
    }

    /// Runs `f`, adding its host time to the span.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.total_ns += ns;
        self.calls += 1;
        if let Some(s) = self.samples.as_mut() {
            s.push(ns);
        }
        out
    }

    /// Adds every call of `other` to this span.
    pub fn merge(&mut self, other: Span) {
        self.total_ns += other.total_ns;
        self.calls += other.calls;
        if let (Some(mine), Some(theirs)) = (self.samples.as_mut(), other.samples) {
            mine.extend(theirs);
        }
    }

    /// Total host time, in seconds.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// The `q` quantile of the per-call durations, in microseconds
    /// (0 for an unsampled or empty span).
    pub fn quantile_us(&self, q: f64) -> f64 {
        let Some(samples) = self.samples.as_ref().filter(|s| !s.is_empty()) else {
            return 0.0;
        };
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        sorted[rank(sorted.len(), q)] as f64 / 1e3
    }
}

/// Nearest-rank index of the `q` quantile among `n` sorted samples: the
/// 0.9 quantile of 300 samples is index 269, leaving 30 beyond it.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q` quantile (nearest rank) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

/// The median of `values` (the mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_the_stated_tail() {
        assert_eq!(rank(300, 0.9), 269);
        assert_eq!(rank(120, 0.9), 107);
        assert_eq!(rank(300, 0.5), 149);
        assert_eq!(rank(1, 0.99), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn sampled_span_counts_calls() {
        let mut s = Span::sampled();
        for _ in 0..10 {
            s.time(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(s.calls, 10);
        assert!(s.quantile_us(0.5) >= 0.0);
        assert_eq!(Span::default().quantile_us(0.5), 0.0);
    }
}
