//! Order statistics and the relative-gap rule the ledger compares sets with.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median; 0.0 for an empty slice (a layer the workload never reaches).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the value `new` is *worse* than `base`
/// (negative when it is better). Two zeros are no gap; a move away from a
/// zero base is an infinite one.
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / base.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.75), Some(4.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        // Even count: interpolates between the two middle values.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.75), Some(3.25));
        assert_eq!(percentile(&[7.0], 0.75), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert!((worse_by(2.0, 1.5, Better::Higher) - 0.25).abs() < 1e-12);
        assert!((worse_by(2.0, 3.0, Better::Higher) + 0.5).abs() < 1e-12);
        assert_eq!(worse_by(5.0, 5.0, Better::Lower), 0.0);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worse_by(0.0, 1.0, Better::Lower), f64::INFINITY);
    }
}
