//! Percentile and ratio arithmetic.

/// The `p`-th percentile (`0 < p ≤ 100`) by nearest rank. A failed
/// request is passed as `f64::INFINITY`, so it counts as missing every
/// latency limit: enough failures make the percentile itself infinite.
/// `None` when there are no samples.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of a non-empty list (mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Upper end of the 95% Wilson score interval of a failure rate of
/// `failed` out of `attempted`. Never 0: with no failures in `n`
/// attempts it is about `3.84 / n`, the most the rate can be while
/// still being that unlikely to show no failures.
pub fn wilson_upper(failed: u64, attempted: u64) -> f64 {
    let n = attempted.max(1) as f64;
    let p = failed as f64 / n;
    let z2 = 1.96f64 * 1.96;
    let centre = p + z2 / (2.0 * n);
    let margin = 1.96 * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre + margin) / (1.0 + z2 / n)).min(1.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
