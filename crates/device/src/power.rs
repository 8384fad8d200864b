//! Electrical power units.
//!
//! A newtype keeps watts from being mixed with kilowatts in the
//! load-management arithmetic ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

impl Watts {
    /// Zero power.
    pub(crate) const ZERO: Watts = Watts(0.0);

    /// Creates a power from kilowatts.
    pub fn from_kw(kw: f64) -> Self {
        Watts(kw * 1000.0)
    }

    /// Returns the power in kilowatts.
    pub fn as_kw(self) -> f64 {
        self.0 / 1000.0
    }

    /// Returns the raw value in watts.
    pub(crate) const fn value(self) -> f64 {
        self.0
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, Add::add)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1000.0 {
            write!(f, "{:.2} kW", self.as_kw())
        } else {
            write!(f, "{:.0} W", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Watts::from_kw(1.5).value(), 1500.0);
        assert_eq!(Watts(2500.0).as_kw(), 2.5);
    }

    #[test]
    fn sums() {
        let total: Watts = [Watts(100.0), Watts(250.0), Watts(50.0)].into_iter().sum();
        assert_eq!(total, Watts(400.0));
    }

    #[test]
    fn display() {
        assert_eq!(Watts(1500.0).to_string(), "1.50 kW");
        assert_eq!(Watts(40.0).to_string(), "40 W");
    }
}
