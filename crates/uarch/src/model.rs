//! The area/power accounting type.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul};

/// An (area, power) pair in the units the paper reports: µm² and mW.
///
/// # Example
///
/// ```
/// use uarch::AreaPower;
///
/// let a = AreaPower::new(100.0, 0.5);
/// let b = AreaPower::new(50.0, 0.25);
/// let total = a + b * 2.0;
/// assert_eq!(total.area_um2, 200.0);
/// assert_eq!(total.power_mw, 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaPower {
    /// Silicon (or photonic) area in µm².
    pub area_um2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

impl AreaPower {
    /// Creates a pair.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative or non-finite.
    pub fn new(area_um2: f64, power_mw: f64) -> Self {
        assert!(
            area_um2 >= 0.0 && area_um2.is_finite(),
            "area must be non-negative"
        );
        assert!(
            power_mw >= 0.0 && power_mw.is_finite(),
            "power must be non-negative"
        );
        AreaPower { area_um2, power_mw }
    }

    /// The zero element.
    pub fn zero() -> Self {
        AreaPower::default()
    }

    /// Area in mm² (the unit §II-C quotes for the whole unit).
    pub fn area_mm2(&self) -> f64 {
        self.area_um2 / 1e6
    }
}

impl Add for AreaPower {
    type Output = AreaPower;

    fn add(self, rhs: AreaPower) -> AreaPower {
        AreaPower {
            area_um2: self.area_um2 + rhs.area_um2,
            power_mw: self.power_mw + rhs.power_mw,
        }
    }
}

impl AddAssign for AreaPower {
    fn add_assign(&mut self, rhs: AreaPower) {
        self.area_um2 += rhs.area_um2;
        self.power_mw += rhs.power_mw;
    }
}

impl Mul<f64> for AreaPower {
    type Output = AreaPower;

    fn mul(self, k: f64) -> AreaPower {
        AreaPower {
            area_um2: self.area_um2 * k,
            power_mw: self.power_mw * k,
        }
    }
}

impl Div<f64> for AreaPower {
    type Output = AreaPower;

    fn div(self, k: f64) -> AreaPower {
        AreaPower {
            area_um2: self.area_um2 / k,
            power_mw: self.power_mw / k,
        }
    }
}

impl Sum for AreaPower {
    fn sum<I: Iterator<Item = AreaPower>>(iter: I) -> AreaPower {
        iter.fold(AreaPower::zero(), |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_composes() {
        let a = AreaPower::new(10.0, 1.0);
        let b = AreaPower::new(5.0, 0.5);
        assert_eq!(a + b, AreaPower::new(15.0, 1.5));
        assert_eq!(a * 3.0, AreaPower::new(30.0, 3.0));
        assert_eq!(a / 2.0, AreaPower::new(5.0, 0.5));
        let total: AreaPower = [a, b, b].into_iter().sum();
        assert_eq!(total, AreaPower::new(20.0, 2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, AreaPower::new(15.0, 1.5));
    }

    #[test]
    fn unit_conversion() {
        assert!((AreaPower::new(2903.0, 4.99).area_mm2() - 0.002903).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "area")]
    fn rejects_negative_area() {
        AreaPower::new(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "power")]
    fn rejects_nan_power() {
        AreaPower::new(0.0, f64::NAN);
    }
}
