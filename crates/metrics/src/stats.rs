//! Summary statistics over sampled load series.
//!
//! The paper reports peak load (Fig. 2b), average load with its standard
//! deviation (Fig. 2c), and in-text reduction percentages. [`Summary`]
//! computes those from a sampled series; [`reduction_percent`] expresses the
//! baseline-vs-coordinated comparisons.

use std::fmt;

/// Descriptive statistics of one sampled series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Maximum value.
    pub peak: f64,
    /// Minimum value.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Computes a summary of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty series");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "series contains non-finite samples"
        );
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        let peak = samples.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let min = samples.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        Summary {
            count,
            peak,
            min,
            mean,
            std_dev: var.max(0.0).sqrt(),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} peak={:.2} mean={:.2} ± {:.2} (min {:.2})",
            self.count, self.peak, self.mean, self.std_dev, self.min
        )
    }
}

/// Percentile of a series by linear interpolation (p in `[0, 100]`).
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(
        !samples.is_empty(),
        "cannot take percentile of empty series"
    );
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Reduction of `candidate` relative to `baseline`, in percent.
///
/// Positive means the candidate is lower (better for peak/variation).
/// Returns 0 when the baseline is 0.
pub fn reduction_percent(baseline: f64, candidate: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - candidate) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.peak, 4.0);
        assert_eq!(s.min, 1.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // Population std of {1,2,3,4} = sqrt(1.25).
        assert!((s.std_dev - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_constant_series() {
        let s = Summary::of(&[5.0; 10]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.peak, 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_empty_panics() {
        Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn summary_nan_panics() {
        Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn percentiles() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn reduction_math() {
        assert!((reduction_percent(10.0, 5.0) - 50.0).abs() < 1e-12);
        assert!((reduction_percent(10.0, 12.0) + 20.0).abs() < 1e-12);
        assert_eq!(reduction_percent(0.0, 5.0), 0.0);
    }

    #[test]
    fn display_nonempty() {
        let s = Summary::of(&[1.0, 2.0]);
        assert!(s.to_string().contains("peak"));
    }
}
