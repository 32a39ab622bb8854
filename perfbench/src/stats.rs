//! Sample statistics: nearest-rank percentiles under the ten-beyond
//! rule, and per-op normalisation of counter deltas.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise the tail is too thin to mean anything.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of an ascending-sorted sample set, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    let idx = rank - 1;
    let beyond = sorted.len() - 1 - idx;
    (beyond >= MIN_BEYOND).then(|| sorted[idx])
}

/// Median and p99 of one latency population, in microseconds, with the
/// sample count they rest on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
}

impl Latency {
    /// Summarise nanosecond samples (sorted in place).
    pub fn of_ns(samples: &mut [u64]) -> Latency {
        samples.sort_unstable();
        let us = |v: Option<u64>| v.map(|ns| ns as f64 / 1_000.0);
        Latency {
            samples: samples.len(),
            p50_us: us(percentile(samples, 0.50)),
            p99_us: us(percentile(samples, 0.99)),
        }
    }
}

/// Median of a small set of measurements (e.g. repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `delta / ops`, the per-op cost of a counter over a timed phase (or
/// any part-of-whole ratio); 0 when `ops` is 0.
pub fn per_op(delta: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        delta as f64 / ops as f64
    }
}

/// `delta` per thousand ops: rare events (refusals, retries) read as
/// small whole-ish numbers instead of tiny fractions.
pub fn per_kop(delta: u64, ops: u64) -> f64 {
    per_op(delta, ops) * 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        // p99 of 100 samples is the 99th; one sample beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<u64> = (1..=1_000).collect();
        // 990th value, exactly ten beyond.
        assert_eq!(percentile(&v, 0.99), Some(990));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), None);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        let v: Vec<u64> = (1..=11).collect();
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&v, 1.0), None);
        let v: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&v, 0.5), Some(11));
    }

    #[test]
    fn latency_summary_sorts_and_scales() {
        let mut ns: Vec<u64> = (1..=2_000).rev().map(|i| i * 1_000).collect();
        let l = Latency::of_ns(&mut ns);
        assert_eq!(l.samples, 2_000);
        assert_eq!(l.p50_us, Some(1_000.0));
        assert_eq!(l.p99_us, Some(1_980.0));
        let l = Latency::of_ns(&mut [5_000, 7_000]);
        assert_eq!((l.p50_us, l.p99_us), (None, None));
    }

    #[test]
    fn per_op_normalisation() {
        assert_eq!(per_op(300, 100), 3.0);
        assert_eq!(per_op(7, 0), 0.0);
        assert_eq!(per_kop(252, 20_000), 12.6);
        assert_eq!(per_op(994, 1_000), 0.994);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
