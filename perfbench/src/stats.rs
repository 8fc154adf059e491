//! Order statistics over a run's samples.

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A per-call timing: the median, the tail, and the sample count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerCall {
    /// Median call.
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it: the
    /// eleventh-largest sample (the maximum when there are fewer than 11).
    pub tail: f64,
    /// Number of calls.
    pub n: usize,
}

impl PerCall {
    /// Summarizes `samples`.
    pub fn of(mut samples: Vec<f64>) -> PerCall {
        if samples.is_empty() {
            return PerCall::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        PerCall {
            p50: median(&samples),
            tail: samples[if n >= 11 { n - 11 } else { n - 1 }],
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let s = PerCall::of((1..=100).map(f64::from).collect());
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.n, 100);
        assert_eq!(PerCall::of(vec![7.0, 5.0, 6.0]).tail, 7.0);
    }
}
