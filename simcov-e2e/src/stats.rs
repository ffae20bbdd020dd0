//! Order statistics and regression bounds.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the run-to-run spreads this binary
//! prints match what that function gives for the same values.

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let data = sorted(values);
    let ld = data.len() as i64;
    let (n, m) = (4i64, ld + 1);
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (data[(j - 1) as usize] * (n - delta) as f64 + data[j as usize] * delta as f64) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (0 below two values or
/// at a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(med)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The `p`-th percentile (nearest rank), reported only when at least ten
/// samples lie beyond it — below that the tail is a handful of outliers,
/// not a percentile.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let beyond = v.len() - rank;
    (beyond >= 10).then(|| v[rank - 1])
}

/// Whether a metric improves upwards or downwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (latency, cost, memory).
    Lower,
}

impl Better {
    /// Parses `"higher"` / `"lower"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// How far `candidate` is worse than `base`, in the metric's own unit
/// (negative when it is better).
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    match better {
        Better::Higher => base - candidate,
        Better::Lower => candidate - base,
    }
}

/// Whether `candidate` stays within `bound` (a share of `base`) of
/// `base`. `floor` is an absolute allowance in the metric's unit for
/// metrics whose base is so small that a share of it is below what the
/// host can resolve (set-up time, resident memory).
pub fn within_bound(base: f64, candidate: f64, better: Better, bound: f64, floor: f64) -> bool {
    worsening(base, candidate, better) <= (bound * base.abs()).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v99: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v99, 90.0), None, "9 samples beyond");
        let v100: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v100, 90.0), Some(90.0));
        let v150: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail_percentile(&v150, 90.0), Some(135.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn bounds_use_the_larger_of_share_and_floor() {
        // 10% of 100 ms: 110 passes, 111 fails.
        assert!(within_bound(100.0, 110.0, Better::Lower, 0.10, 0.0));
        assert!(!within_bound(100.0, 111.0, Better::Lower, 0.10, 0.0));
        // Throughput falls.
        assert!(within_bound(50.0, 45.0, Better::Higher, 0.10, 0.0));
        assert!(!within_bound(50.0, 44.0, Better::Higher, 0.10, 0.0));
        // Improvements always pass.
        assert!(within_bound(50.0, 80.0, Better::Higher, 0.0, 0.0));
        // A 0.02 s set-up may grow by the 0.05 s floor, not just 10%.
        assert!(within_bound(0.02, 0.069, Better::Lower, 0.10, 0.05));
        assert!(!within_bound(0.02, 0.071, Better::Lower, 0.10, 0.05));
        // On a large base the share dominates the floor.
        assert!(!within_bound(300.0, 331.0, Better::Lower, 0.10, 2.0));
    }
}
