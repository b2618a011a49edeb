//! Order statistics for the benchmark's samples.
//!
//! Every percentile the benchmark reports goes through [`percentile`],
//! which refuses a percentile that has fewer than [`MIN_BEYOND`]
//! samples above it: a p99 over 200 samples is the second-largest
//! sample, not a tail estimate.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq)]
pub enum PercentileError {
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewBeyond {
        /// Requested quantile in `(0, 1)`.
        q: f64,
        /// Samples available.
        samples: usize,
        /// Samples beyond the nearest-rank position.
        beyond: usize,
    },
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::TooFewBeyond { q, samples, beyond } => write!(
                f,
                "p{} over {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                q * 100.0
            ),
        }
    }
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, refused
/// unless at least [`MIN_BEYOND`] samples lie strictly after its rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, PercentileError> {
    assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond {
            q,
            samples: n,
            beyond,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair for even
/// sizes). Used for repeated measurements inside one run (set-up
/// repetitions, per-call throughput), not for reported latency
/// percentiles.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_percentiles_with_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), Ok(50.0));
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert!(matches!(
            percentile(&hundred, 0.99),
            Err(PercentileError::TooFewBeyond { beyond: 1, .. })
        ));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Ok(990.0));
        assert!(percentile(&thousand[..999], 0.99).is_err());
        assert!(percentile(&hundred[..19], 0.5).is_err());
        assert_eq!(percentile(&hundred[..20], 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
