//! Radio signal-strength units.
//!
//! Newtypes ([C-NEWTYPE]) keep dBm and milliwatt quantities from being mixed
//! up in link-budget arithmetic.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::ops::{Add, Sub};

/// A power level in dBm (decibels relative to 1 mW).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dbm(pub f64);

/// A power level in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub(crate) struct Milliwatt(pub f64);

impl Dbm {
    /// Converts to linear milliwatts.
    pub(crate) fn to_milliwatt(self) -> Milliwatt {
        Milliwatt(10f64.powf(self.0 / 10.0))
    }
}

impl Milliwatt {
    /// Converts to dBm.
    ///
    /// Zero or negative power maps to negative infinity dBm, which compares
    /// below every finite level — convenient for "no signal".
    pub(crate) fn to_dbm(self) -> Dbm {
        if self.0 <= 0.0 {
            Dbm(f64::NEG_INFINITY)
        } else {
            Dbm(10.0 * self.0.log10())
        }
    }

    /// Returns the raw milliwatt value.
    pub(crate) const fn value(self) -> f64 {
        self.0
    }
}

impl Add<f64> for Dbm {
    type Output = Dbm;
    /// Adds a gain in dB.
    fn add(self, gain_db: f64) -> Dbm {
        Dbm(self.0 + gain_db)
    }
}

impl Sub<f64> for Dbm {
    type Output = Dbm;
    /// Subtracts a loss in dB.
    fn sub(self, loss_db: f64) -> Dbm {
        Dbm(self.0 - loss_db)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = f64;
    /// The difference between two levels is a ratio in dB.
    fn sub(self, other: Dbm) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

/// Sums a set of interfering signal powers (in dBm) in the linear domain and
/// returns the total in dBm.
pub(crate) fn sum_power_dbm(levels: impl IntoIterator<Item = Dbm>) -> Dbm {
    let total: f64 = levels.into_iter().map(|l| l.to_milliwatt().value()).sum();
    Milliwatt(total).to_dbm()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_mw_round_trip() {
        for v in [-90.0, -50.0, -10.0, 0.0, 5.0] {
            let back = Dbm(v).to_milliwatt().to_dbm();
            assert!((back.0 - v).abs() < 1e-9, "{v} -> {back}");
        }
    }

    #[test]
    fn zero_mw_is_neg_infinity() {
        assert_eq!(Milliwatt(0.0).to_dbm().0, f64::NEG_INFINITY);
        assert!(Milliwatt(0.0).to_dbm() < Dbm(-200.0));
    }

    #[test]
    fn known_conversions() {
        assert!((Dbm(0.0).to_milliwatt().value() - 1.0).abs() < 1e-12);
        assert!((Dbm(10.0).to_milliwatt().value() - 10.0).abs() < 1e-9);
        assert!((Dbm(-30.0).to_milliwatt().value() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn gain_and_loss_arithmetic() {
        let p = Dbm(-60.0);
        assert_eq!((p + 3.0).0, -57.0);
        assert_eq!((p - 10.0).0, -70.0);
        assert_eq!(Dbm(-50.0) - Dbm(-60.0), 10.0);
    }

    #[test]
    fn power_sum_of_equal_signals_is_plus_3db() {
        let total = sum_power_dbm([Dbm(-60.0), Dbm(-60.0)]);
        assert!((total.0 - (-60.0 + 3.0103)).abs() < 0.01, "{total}");
    }

    #[test]
    fn power_sum_empty_is_no_signal() {
        assert_eq!(sum_power_dbm([]).0, f64::NEG_INFINITY);
    }
}
