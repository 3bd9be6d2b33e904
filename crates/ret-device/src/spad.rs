//! Single-photon avalanche detectors.
//!
//! The paper (§II-B): "Dark count rate of SPADs (~KHz) has negligible
//! effects given RSU-G frequency (1GHz)." This module models exactly that
//! effect so the claim can be checked quantitatively: a dark count inside
//! the detection window can pre-empt the true photon and corrupt a
//! sample, with probability `1 − exp(−DCR · window)` ≈ 10⁻⁵ for kHz dark
//! rates and ~ns windows.

use crate::error::DeviceError;
use rand::Rng;
use sampling::Exponential;

/// A single-photon avalanche detector with Poissonian dark counts.
///
/// # Example
///
/// ```
/// use ret_device::Spad;
///
/// // A typical SPAD: 1 kHz dark counts observed over a 4 ns window.
/// let spad = Spad::new(1_000.0)?;
/// let p = spad.dark_count_probability(4e-9);
/// assert!(p < 1e-5, "dark counts are negligible at RSU-G speed");
/// # Ok::<(), ret_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spad {
    dark_count_rate_hz: f64,
}

impl Spad {
    /// Creates a SPAD with the given dark-count rate in Hz.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidRate`] if the rate is negative or
    /// not finite.
    pub fn new(dark_count_rate_hz: f64) -> Result<Self, DeviceError> {
        if dark_count_rate_hz < 0.0 || !dark_count_rate_hz.is_finite() {
            return Err(DeviceError::InvalidRate {
                value: dark_count_rate_hz,
            });
        }
        Ok(Spad { dark_count_rate_hz })
    }

    /// Dark-count rate, Hz.
    pub fn dark_count_rate_hz(&self) -> f64 {
        self.dark_count_rate_hz
    }

    /// Probability of at least one dark count within a window of
    /// `window_s` seconds.
    pub fn dark_count_probability(&self, window_s: f64) -> f64 {
        1.0 - (-self.dark_count_rate_hz * window_s).exp()
    }

    /// Observes a window of `window_s` seconds in which the true photon
    /// (if any) arrives at `photon_at_s` from the window start.
    ///
    /// Returns the time of the first *detection* — photon or dark count,
    /// whichever is earlier — or `Ok(None)` if neither occurs in the
    /// window.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidWindow`] when `window_s` is NaN,
    /// infinite or negative, and [`DeviceError::InvalidPhotonTime`] when
    /// a supplied photon time is NaN, infinite or negative. These
    /// degenerate inputs used to be silently censored (NaN fails every
    /// comparison), turning an upstream modelling bug into a plausible
    /// "no detection" sample; now they surface as typed errors.
    pub fn detect<R: Rng + ?Sized>(
        &self,
        photon_at_s: Option<f64>,
        window_s: f64,
        rng: &mut R,
    ) -> Result<Option<Detection>, DeviceError> {
        if !window_s.is_finite() || window_s < 0.0 {
            return Err(DeviceError::InvalidWindow { value: window_s });
        }
        if let Some(t) = photon_at_s {
            if !t.is_finite() || t < 0.0 {
                return Err(DeviceError::InvalidPhotonTime { value: t });
            }
        }
        let dark = if self.dark_count_rate_hz > 0.0 {
            let t = Exponential::new(self.dark_count_rate_hz)
                .expect("positive rate")
                .sample(rng);
            (t <= window_s).then_some(t)
        } else {
            None
        };
        Ok(match (photon_at_s.filter(|&t| t <= window_s), dark) {
            (Some(p), Some(d)) => {
                if d < p {
                    Some(Detection {
                        time_s: d,
                        dark: true,
                    })
                } else {
                    Some(Detection {
                        time_s: p,
                        dark: false,
                    })
                }
            }
            (Some(p), None) => Some(Detection {
                time_s: p,
                dark: false,
            }),
            (None, Some(d)) => Some(Detection {
                time_s: d,
                dark: true,
            }),
            (None, None) => None,
        })
    }
}

/// A SPAD detection event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Time from window start, seconds.
    pub time_s: f64,
    /// Whether the detection was a dark count rather than the photon.
    pub dark: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    #[test]
    fn rejects_bad_rates() {
        assert!(Spad::new(-1.0).is_err());
        assert!(Spad::new(f64::NAN).is_err());
        assert!(Spad::new(0.0).is_ok());
    }

    #[test]
    fn paper_claim_dark_counts_negligible_at_1ghz() {
        // kHz dark rate, 4-cycle window at 1 GHz = 4 ns.
        let spad = Spad::new(10_000.0).unwrap(); // even 10 kHz
        let p = spad.dark_count_probability(4e-9);
        assert!(p < 1e-4, "dark-count probability {p} should be negligible");
    }

    #[test]
    fn zero_dark_rate_never_produces_dark_detection() {
        let spad = Spad::new(0.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..1000 {
            match spad.detect(Some(1e-9), 4e-9, &mut rng).unwrap() {
                Some(d) => assert!(!d.dark),
                None => panic!("photon inside window must be detected"),
            }
        }
        assert!(spad.detect(None, 4e-9, &mut rng).unwrap().is_none());
    }

    #[test]
    fn photon_beyond_window_is_censored() {
        let spad = Spad::new(0.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        assert!(spad.detect(Some(5e-9), 4e-9, &mut rng).unwrap().is_none());
    }

    #[test]
    fn degenerate_windows_are_typed_errors_not_missed_photons() {
        // Regression: a NaN window used to censor every photon (NaN
        // fails the `t <= window_s` comparison), silently reporting "no
        // detection" instead of flagging the upstream bug.
        let spad = Spad::new(1_000.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        assert!(matches!(
            spad.detect(Some(1e-9), f64::NAN, &mut rng),
            Err(DeviceError::InvalidWindow { value }) if value.is_nan()
        ));
        assert!(matches!(
            spad.detect(Some(1e-9), f64::INFINITY, &mut rng),
            Err(DeviceError::InvalidWindow { .. })
        ));
        assert!(matches!(
            spad.detect(Some(1e-9), -4e-9, &mut rng),
            Err(DeviceError::InvalidWindow { .. })
        ));
        // A zero-length window is legal (nothing can fire).
        assert_eq!(spad.detect(None, 0.0, &mut rng), Ok(None));
    }

    #[test]
    fn degenerate_photon_times_are_typed_errors() {
        let spad = Spad::new(0.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        assert!(matches!(
            spad.detect(Some(f64::NAN), 4e-9, &mut rng),
            Err(DeviceError::InvalidPhotonTime { .. })
        ));
        assert!(matches!(
            spad.detect(Some(-1e-9), 4e-9, &mut rng),
            Err(DeviceError::InvalidPhotonTime { .. })
        ));
    }

    #[test]
    fn dark_counts_occur_at_expected_rate_over_long_windows() {
        // Make dark counts non-negligible: 1 MHz over 1 µs → p = 1−e⁻¹.
        let spad = Spad::new(1e6).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| spad.detect(None, 1e-6, &mut rng).unwrap().is_some())
            .count();
        let p = hits as f64 / n as f64;
        let expected = 1.0 - (-1.0f64).exp();
        assert!((p - expected).abs() < 0.01, "{p} vs {expected}");
    }

    #[test]
    fn earlier_event_wins() {
        let spad = Spad::new(1e12).unwrap(); // dark counts ~every ps
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut dark_wins = 0;
        let n = 10_000;
        for _ in 0..n {
            let d = spad
                .detect(Some(3.9e-9), 4e-9, &mut rng)
                .unwrap()
                .expect("something fires");
            assert!(d.time_s <= 3.9e-9 + 1e-18);
            if d.dark {
                dark_wins += 1;
            }
        }
        assert!(
            dark_wins > n * 9 / 10,
            "dark counts should usually pre-empt a late photon"
        );
    }
}
