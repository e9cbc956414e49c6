//! Order statistics, ratios and the layer-sum check the benchmark reports.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks (the "exclusive of nothing" definition: the
/// minimum is `q = 0`, the maximum `q = 1`). `None` when there are no
/// samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// `num / den`, or `0.0` when the denominator is zero (a ratio over no
/// attempts reports no outcome instead of NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether the timed parts of a call add up to its measured whole: the
/// relative gap `|Σ parts − whole| / whole` is at most `tolerance`.
pub fn parts_add_up(parts: &[f64], whole: f64, tolerance: f64) -> bool {
    let sum: f64 = parts.iter().sum();
    whole > 0.0 && ((sum - whole) / whole).abs() <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.9).unwrap() - 90.1).abs() < 1e-9);
        assert!((quantile(&hundred, 0.99).unwrap() - 99.01).abs() < 1e-9);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }

    #[test]
    fn parts_must_sum_to_the_whole_within_tolerance() {
        assert!(parts_add_up(&[0.3, 0.65], 1.0, 0.1));
        assert!(!parts_add_up(&[0.3, 0.5], 1.0, 0.1));
        assert!(!parts_add_up(&[0.7, 0.5], 1.0, 0.1));
        assert!(!parts_add_up(&[0.0], 0.0, 0.1));
    }
}
