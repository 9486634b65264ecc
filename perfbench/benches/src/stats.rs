//! Order statistics over samples.

/// The `q`-quantile (`q` in `[0, 1]`) of `values` by linear interpolation
/// between closest ranks — `q = 0.5` is the median, `q = 0.95` the 95th
/// percentile. `NaN` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        // rank 0.95 * 3 = 2.85: 3 + 0.85 * (4 - 3).
        assert!((percentile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn percentile_is_nan_on_empty_and_clamps_q() {
        assert!(percentile(&[], 0.5).is_nan());
        assert!(mean(&[]).is_nan());
        assert_eq!(percentile(&[1.0, 2.0], 1.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], -1.0), 1.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
