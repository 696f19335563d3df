//! Order statistics over host-time samples.

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail percentile: the highest of p50/p90/p99/p99.9/p99.99 that has at
/// least ten samples beyond it (p50 when none has), with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
    /// All samples.
    pub n: usize,
}

/// The tail of `samples`, by the rule on [`Tail`].
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |pct: f64| {
        let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
        let rank = rank.min(n);
        Tail {
            pct,
            value: v.get(rank.wrapping_sub(1)).copied().unwrap_or(0.0),
            beyond: n - rank,
            n,
        }
    };
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .map(at)
        .find(|t| t.beyond >= 10)
        .unwrap_or_else(|| at(50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 99.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0]).pct, 50.0);
    }
}
