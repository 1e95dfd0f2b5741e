//! The benchmark's own statistics: medians, quartiles, the tail percentile
//! a sample can support, and the residual that checks layer times tile the
//! traced wall time.

/// Sorted copy of `xs`, ordered by `total_cmp` so NaN cannot panic.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `xs` (mean of the two middle values for an even count).
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest ranks
/// (`q` clamped to `[0, 1]`). 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`, so the spread this benchmark
/// reports is the one a reader computes from its printed values. `None`
/// below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let v = sorted(xs);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against. `None` when undefined.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest quantile, at most p99, that leaves at least
/// [`TAIL_SUPPORT`] of `n` samples beyond it; never below the median, so a
/// small sample reports its median rather than an unsupported tail.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - TAIL_SUPPORT as f64 / n as f64).clamp(0.5, 0.99)
}

/// Traced wall time not covered by any layer's self time. Near zero when
/// the layers tile the wall; negative would mean overlapping spans.
pub fn residual(wall: f64, layers: &[f64]) -> f64 {
    wall - layers.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 6]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(100_000), 0.99);
        assert!((tail_quantile(200) - 0.95).abs() < 1e-12);
        assert!((tail_quantile(40) - 0.75).abs() < 1e-12);
        assert_eq!(tail_quantile(15), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
        for n in [20, 37, 200, 999, 1000, 5000] {
            let q = tail_quantile(n);
            let beyond = n as f64 * (1.0 - q);
            assert!(beyond >= TAIL_SUPPORT as f64 - 1e-9, "n={n} q={q}");
        }
    }

    #[test]
    fn residual_is_what_layers_leave_uncovered() {
        assert!((residual(1.0, &[0.25, 0.5, 0.125]) - 0.125).abs() < 1e-12);
        assert_eq!(residual(2.0, &[]), 2.0);
        assert!(residual(1.0, &[0.75, 0.5]) < 0.0);
    }
}
