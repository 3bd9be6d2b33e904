//! Simulated-annealing temperature schedules.
//!
//! The paper's applications use simulated annealing (§III-A, following
//! Barnard): "this method divides the energy by a decreasing temperature
//! after each iteration so that every label has a similar probability to
//! be chosen at the beginning, but gradually labels with lower energy are
//! more likely to be chosen". In an RSU-G the schedule is realised by
//! rewriting the energy-to-intensity LUT (previous design, with stalls) or
//! the comparison-boundary registers (new design, stall-free).

/// A temperature schedule `T(iteration)`.
///
/// # Example
///
/// ```
/// use mrf::Schedule;
///
/// let sa = Schedule::geometric(4.0, 0.5, 0.25);
/// assert_eq!(sa.temperature(0), 4.0);
/// assert_eq!(sa.temperature(1), 2.0);
/// assert_eq!(sa.temperature(2), 1.0);
/// // Clamped at the floor.
/// assert_eq!(sa.temperature(10), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Fixed temperature (plain Gibbs sampling).
    Constant {
        /// The temperature.
        temperature: f64,
    },
    /// `T_k = max(t0 · alpha^k, floor)` — the standard geometric
    /// annealing used by the stereo experiments.
    Geometric {
        /// Initial temperature.
        t0: f64,
        /// Per-iteration decay factor in `(0, 1]`.
        alpha: f64,
        /// Lower clamp, must be positive so `exp(−E/T)` stays defined.
        floor: f64,
    },
    /// `T_k = max(t0 − rate · k, floor)`.
    Linear {
        /// Initial temperature.
        t0: f64,
        /// Per-iteration decrement.
        rate: f64,
        /// Lower clamp.
        floor: f64,
    },
}

impl Schedule {
    /// Constant-temperature schedule.
    ///
    /// # Panics
    ///
    /// Panics if the temperature is not positive and finite.
    pub fn constant(temperature: f64) -> Self {
        assert!(
            temperature > 0.0 && temperature.is_finite(),
            "temperature must be positive and finite"
        );
        Schedule::Constant { temperature }
    }

    /// Geometric annealing schedule.
    ///
    /// # Panics
    ///
    /// Panics if `t0` or `floor` is not positive and finite, or if
    /// `alpha` is outside `(0, 1]`.
    pub fn geometric(t0: f64, alpha: f64, floor: f64) -> Self {
        assert!(t0 > 0.0 && t0.is_finite(), "t0 must be positive and finite");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(
            floor > 0.0 && floor.is_finite(),
            "floor must be positive and finite"
        );
        Schedule::Geometric { t0, alpha, floor }
    }

    /// Linear annealing schedule.
    ///
    /// # Panics
    ///
    /// Panics if `t0` or `floor` is not positive and finite, or `rate` is
    /// negative.
    pub fn linear(t0: f64, rate: f64, floor: f64) -> Self {
        assert!(t0 > 0.0 && t0.is_finite(), "t0 must be positive and finite");
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be non-negative");
        assert!(
            floor > 0.0 && floor.is_finite(),
            "floor must be positive and finite"
        );
        Schedule::Linear { t0, rate, floor }
    }

    /// Temperature at the given (0-based) iteration.
    pub fn temperature(&self, iteration: usize) -> f64 {
        match *self {
            Schedule::Constant { temperature } => temperature,
            Schedule::Geometric { t0, alpha, floor } => {
                // Saturate rather than truncate: `iteration as i32` wraps
                // negative past 2^31, which would *reheat* the chain above
                // `t0`. At i32::MAX the power has long underflowed to zero
                // (any alpha < 1) or is exactly one (alpha == 1), so
                // saturation is exact and keeps small-iteration results
                // bit-identical to the historical `powi` path.
                let k = iteration.min(i32::MAX as usize) as i32;
                (t0 * alpha.powi(k)).max(floor)
            }
            Schedule::Linear { t0, rate, floor } => (t0 - rate * iteration as f64).max(floor),
        }
    }

    /// First iteration at which the schedule reaches its floor, if it has
    /// one (`None` for constant schedules).
    pub fn iterations_to_floor(&self) -> Option<usize> {
        match *self {
            Schedule::Constant { .. } => None,
            Schedule::Geometric { t0, alpha, floor } => {
                if alpha == 1.0 {
                    return None;
                }
                let k = ((floor / t0).ln() / alpha.ln()).ceil();
                Some(k.max(0.0) as usize)
            }
            Schedule::Linear { t0, rate, floor } => {
                if rate == 0.0 {
                    return None;
                }
                Some(((t0 - floor) / rate).ceil().max(0.0) as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_is_monotone_nonincreasing_and_clamped() {
        let s = Schedule::geometric(10.0, 0.9, 0.5);
        let mut prev = f64::INFINITY;
        for k in 0..200 {
            let t = s.temperature(k);
            assert!(t <= prev);
            assert!(t >= 0.5);
            prev = t;
        }
        assert_eq!(s.temperature(1000), 0.5);
    }

    #[test]
    fn geometric_never_reheats_at_huge_iteration_indices() {
        // Regression: `iteration as i32` used to wrap negative past 2^31,
        // turning alpha^k into alpha^(negative) and reheating above t0.
        let s = Schedule::geometric(10.0, 0.96, 0.5);
        for &k in &[
            (1usize << 31) - 1,
            1usize << 31,
            (1usize << 31) + 1,
            1usize << 40,
            usize::MAX,
        ] {
            assert_eq!(s.temperature(k), 0.5, "iteration {k}");
        }
        // alpha == 1 stays flat instead of exploding.
        let flat = Schedule::geometric(2.0, 1.0, 0.1);
        assert_eq!(flat.temperature(usize::MAX), 2.0);
    }

    #[test]
    fn linear_reaches_floor() {
        let s = Schedule::linear(5.0, 1.0, 1.0);
        assert_eq!(s.temperature(0), 5.0);
        assert_eq!(s.temperature(4), 1.0);
        assert_eq!(s.temperature(40), 1.0);
        assert_eq!(s.iterations_to_floor(), Some(4));
    }

    #[test]
    fn geometric_floor_iteration_is_consistent() {
        let s = Schedule::geometric(8.0, 0.5, 1.0);
        let k = s.iterations_to_floor().unwrap();
        assert_eq!(s.temperature(k), 1.0);
        assert!(s.temperature(k.saturating_sub(1)) > 1.0 || k == 0);
    }

    #[test]
    fn constant_never_floors() {
        let s = Schedule::constant(2.0);
        assert_eq!(s.iterations_to_floor(), None);
        assert_eq!(s.temperature(0), s.temperature(10_000));
    }

    #[test]
    fn alpha_one_never_floors() {
        let s = Schedule::geometric(2.0, 1.0, 0.1);
        assert_eq!(s.iterations_to_floor(), None);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        Schedule::geometric(1.0, 1.5, 0.1);
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn rejects_zero_floor() {
        Schedule::geometric(1.0, 0.9, 0.0);
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn rejects_nan_temperature() {
        Schedule::constant(f64::NAN);
    }
}
