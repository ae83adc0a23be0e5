//! Order statistics and the metric-name rules the report relies on.

use std::fmt;

/// Fewest samples a reported percentile must leave above itself: a p95 of
/// fewer than 200 samples would rest on a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PercentileError {
    /// The percentile is outside `(0, 100]`.
    OutOfRange,
    /// Fewer than [`MIN_SAMPLES_BEYOND`] samples lie above the requested
    /// rank.
    TooFewSamples {
        /// Samples available.
        samples: usize,
        /// Samples the percentile's rank leaves above it.
        beyond: usize,
    },
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PercentileError::OutOfRange => write!(f, "percentile must lie in (0, 100]"),
            PercentileError::TooFewSamples { samples, beyond } => write!(
                f,
                "{samples} samples leave only {beyond} beyond the rank \
                 (at least {MIN_SAMPLES_BEYOND} needed)"
            ),
        }
    }
}

/// Nearest-rank percentile of `samples` (any order).
///
/// The rank is `ceil(p / 100 * n)`; the value returned is the rank-th
/// smallest sample. The percentile is refused unless at least
/// [`MIN_SAMPLES_BEYOND`] samples lie above that rank, so a p95 needs 200
/// samples and a p50 needs 20.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, PercentileError> {
    if !(p > 0.0 && p <= 100.0) {
        return Err(PercentileError::OutOfRange);
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_SAMPLES_BEYOND {
        return Err(PercentileError::TooFewSamples { samples: n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle pair for an even count), or
/// NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The largest of `samples`, or NaN when empty: the rate a repeated unit
/// of work reaches when nothing else on the machine slows it down.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters, all of them in `[A-Za-z0-9_.-]`.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters in
/// `[A-Za-z0-9_/%.-]`.
pub fn is_valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        assert_eq!(percentile(&ramp(200), 95.0), Ok(190.0));
        assert_eq!(percentile(&ramp(200), 50.0), Ok(100.0));
        assert_eq!(percentile(&ramp(21), 50.0), Ok(11.0));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // 199 samples: rank ceil(189.05) = 190 leaves 9 beyond.
        assert_eq!(
            percentile(&ramp(199), 95.0),
            Err(PercentileError::TooFewSamples {
                samples: 199,
                beyond: 9
            })
        );
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&ramp(1000), 100.0).is_err());
        assert_eq!(
            percentile(&ramp(1000), 0.0),
            Err(PercentileError::OutOfRange)
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn best_is_the_largest_sample() {
        assert_eq!(best(&ramp(100)), 100.0);
        assert_eq!(best(&[5.0]), 5.0);
        assert!(best(&[]).is_nan());
    }

    #[test]
    fn metric_names_accept_only_the_allowed_alphabet() {
        for good in ["fleet_mpx_per_s", "core.adjust_ms_p50", "a-b.c_9", "9lives"] {
            assert!(is_valid_metric_name(good), "{good}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            "_leading",
            ".leading",
            "has space",
            "slash/name",
            "pct%",
            "ünïcode",
            too_long.as_str(),
        ] {
            assert!(!is_valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn units_accept_only_the_allowed_alphabet() {
        for good in ["ms", "s", "1/s", "count", "%", "Mpx/s", "bit/px"] {
            assert!(is_valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "seventeen-chars-x", "µs"] {
            assert!(!is_valid_unit(bad), "{bad:?}");
        }
    }
}
