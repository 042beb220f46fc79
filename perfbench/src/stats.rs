//! Order statistics for latency samples.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `sorted` by the
/// nearest-rank rule: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of an unsorted sample (nearest rank), `0` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0).unwrap_or(0.0)
}

/// The tail percentiles the report may name, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 80.0];

/// Samples a tail percentile must have strictly above it before the
/// report trusts it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail figure of one sample: which percentile, its value, and how
/// many samples lie strictly above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (one of [`TAIL_CANDIDATES`]).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
    /// Sample size.
    pub samples: usize,
}

/// Picks the highest of p99/p95/p90/p80 that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. When even p80 has fewer (a
/// sample under 50), p80 is reported anyway and `beyond` says how thin
/// it is. `None` for an empty sample.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| -> Option<Tail> {
        let value = percentile(&sorted, p)?;
        Some(Tail {
            percentile: p,
            value,
            beyond: sorted.iter().filter(|&&v| v > value).count(),
            samples: sorted.len(),
        })
    };
    TAIL_CANDIDATES
        .iter()
        .filter_map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .or_else(|| at(TAIL_CANDIDATES[TAIL_CANDIDATES.len() - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_takes_p99_once_ten_samples_lie_beyond_it() {
        // 1000 samples: p99 = 990, ten samples (991..=1000) beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
    }

    #[test]
    fn tail_steps_down_until_ten_samples_lie_beyond() {
        // 999 samples: p99 = 990 has only 9 beyond, p95 = 950 has 49.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 49));
        // 100 samples: p99 (1 beyond), p95 (5 beyond) fail; p90 has 10.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 50 samples: only p80 (= 40, 10 beyond) qualifies.
        let t = tail(&ramp(50)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 40.0, 10));
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let mut v = vec![1.0; 90];
        v.extend(vec![5.0; 10]);
        // p90 = 1.0 with ten samples strictly above it.
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 1.0, 10));
        // All equal: nothing is ever beyond; fall back to p80.
        let t = tail(&[2.0; 200]).unwrap();
        assert_eq!((t.percentile, t.beyond), (80.0, 0));
    }

    #[test]
    fn thin_samples_fall_back_to_p80_and_say_so() {
        let t = tail(&ramp(12)).unwrap();
        assert_eq!(t.percentile, 80.0);
        assert!(t.beyond < TAIL_MIN_BEYOND);
        assert_eq!(t.samples, 12);
        assert!(tail(&[]).is_none());
    }
}
