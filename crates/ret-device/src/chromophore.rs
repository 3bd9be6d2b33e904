//! Chromophores and donor–acceptor RET coupling.
//!
//! RET "is the probabilistic transfer of energy between two optically
//! active molecules, called chromophores, through non-radiative
//! dipole-dipole coupling. When a donor and acceptor chromophore pair are
//! placed a few nanometers apart and their emission and excitation spectra
//! overlap, energy transfer can occur between them" (§II-B). This module
//! models the two quantities that matter for the sampler: spectral
//! overlap (does transfer occur at all, and how strongly) and the
//! Förster-type distance dependence of the transfer efficiency, which
//! together set a network's base decay rate.

use crate::error::DeviceError;

/// An optically active molecule characterised by Gaussian-approximated
/// absorption and emission spectra.
///
/// # Example
///
/// ```
/// use ret_device::Chromophore;
///
/// // A fluorescein-like donor and a rhodamine-like acceptor.
/// let donor = Chromophore::new("FAM", 495.0, 520.0, 25.0, 0.9, 4.0).unwrap();
/// let acceptor = Chromophore::new("TAMRA", 555.0, 580.0, 25.0, 0.7, 2.3).unwrap();
/// let overlap = donor.emission_overlap(&acceptor);
/// assert!(overlap > 0.1, "spectra overlap enough for RET");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Chromophore {
    name: String,
    /// Absorption peak wavelength, nm.
    absorption_peak_nm: f64,
    /// Emission peak wavelength, nm.
    emission_peak_nm: f64,
    /// Gaussian spectral width (standard deviation), nm.
    spectral_width_nm: f64,
    /// Fluorescence quantum yield in (0, 1].
    quantum_yield: f64,
    /// Intrinsic excited-state decay rate, ns⁻¹.
    intrinsic_rate_per_ns: f64,
}

impl Chromophore {
    /// Creates a chromophore.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidSpectrum`] if the peaks/width are not
    /// positive, the emission peak is below the absorption peak (no Stokes
    /// shift), or the quantum yield is outside `(0, 1]`;
    /// [`DeviceError::InvalidRate`] if the intrinsic rate is not positive.
    pub fn new(
        name: &str,
        absorption_peak_nm: f64,
        emission_peak_nm: f64,
        spectral_width_nm: f64,
        quantum_yield: f64,
        intrinsic_rate_per_ns: f64,
    ) -> Result<Self, DeviceError> {
        if absorption_peak_nm <= 0.0
            || absorption_peak_nm.is_nan()
            || emission_peak_nm <= 0.0
            || emission_peak_nm.is_nan()
        {
            return Err(DeviceError::InvalidSpectrum {
                reason: "peaks must be positive",
            });
        }
        if emission_peak_nm < absorption_peak_nm {
            return Err(DeviceError::InvalidSpectrum {
                reason: "emission peak must be red-shifted from absorption (Stokes shift)",
            });
        }
        if spectral_width_nm <= 0.0 || spectral_width_nm.is_nan() {
            return Err(DeviceError::InvalidSpectrum {
                reason: "width must be positive",
            });
        }
        if !(quantum_yield > 0.0 && quantum_yield <= 1.0) {
            return Err(DeviceError::InvalidSpectrum {
                reason: "quantum yield must be in (0, 1]",
            });
        }
        if intrinsic_rate_per_ns <= 0.0 || !intrinsic_rate_per_ns.is_finite() {
            return Err(DeviceError::InvalidRate {
                value: intrinsic_rate_per_ns,
            });
        }
        Ok(Chromophore {
            name: name.to_owned(),
            absorption_peak_nm,
            emission_peak_nm,
            spectral_width_nm,
            quantum_yield,
            intrinsic_rate_per_ns,
        })
    }

    /// Chromophore name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Absorption peak, nm.
    pub fn absorption_peak_nm(&self) -> f64 {
        self.absorption_peak_nm
    }

    /// Emission peak, nm.
    pub fn emission_peak_nm(&self) -> f64 {
        self.emission_peak_nm
    }

    /// Fluorescence quantum yield.
    pub fn quantum_yield(&self) -> f64 {
        self.quantum_yield
    }

    /// Intrinsic excited-state decay rate, ns⁻¹.
    pub fn intrinsic_rate_per_ns(&self) -> f64 {
        self.intrinsic_rate_per_ns
    }

    /// Normalised overlap between this chromophore's *emission* spectrum
    /// and another's *absorption* spectrum, in `[0, 1]`.
    ///
    /// Both spectra are unit-height Gaussians; the overlap integral of two
    /// Gaussians `N(μ1, σ1)`, `N(μ2, σ2)` normalised by its maximum value
    /// is `exp(−(μ1 − μ2)² / (2(σ1² + σ2²)))`.
    pub fn emission_overlap(&self, acceptor: &Chromophore) -> f64 {
        let d = self.emission_peak_nm - acceptor.absorption_peak_nm;
        let var = self.spectral_width_nm * self.spectral_width_nm
            + acceptor.spectral_width_nm * acceptor.spectral_width_nm;
        (-d * d / (2.0 * var)).exp()
    }
}

/// A donor–acceptor pair at a fixed separation: the elementary RET link.
///
/// Transfer efficiency follows the Förster law
/// `E = 1 / (1 + (r / R0)^6)`, where the Förster radius `R0` scales with
/// the spectral overlap and the donor quantum yield.
#[derive(Debug, Clone, PartialEq)]
pub struct RetPair {
    donor: Chromophore,
    acceptor: Chromophore,
    separation_nm: f64,
    forster_radius_nm: f64,
}

impl RetPair {
    /// Reference Förster radius (nm) for a perfectly overlapped pair with
    /// unit quantum yield; typical experimental values are 4–7 nm.
    const R0_REFERENCE_NM: f64 = 6.0;

    /// Creates a pair at the given separation (nm).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidRate`] if the separation is not
    /// positive and finite.
    pub fn new(
        donor: Chromophore,
        acceptor: Chromophore,
        separation_nm: f64,
    ) -> Result<Self, DeviceError> {
        if separation_nm <= 0.0 || !separation_nm.is_finite() {
            return Err(DeviceError::InvalidRate {
                value: separation_nm,
            });
        }
        // R0^6 ∝ overlap · quantum yield (orientation factor folded into
        // the reference radius).
        let overlap = donor.emission_overlap(&acceptor);
        let forster_radius_nm =
            Self::R0_REFERENCE_NM * (overlap * donor.quantum_yield()).powf(1.0 / 6.0);
        Ok(RetPair {
            donor,
            acceptor,
            separation_nm,
            forster_radius_nm,
        })
    }

    /// The donor.
    pub fn donor(&self) -> &Chromophore {
        &self.donor
    }

    /// The acceptor.
    pub fn acceptor(&self) -> &Chromophore {
        &self.acceptor
    }

    /// The derived Förster radius, nm.
    pub fn forster_radius_nm(&self) -> f64 {
        self.forster_radius_nm
    }

    /// Energy-transfer efficiency `E ∈ (0, 1)`.
    pub fn transfer_efficiency(&self) -> f64 {
        let ratio = self.separation_nm / self.forster_radius_nm;
        1.0 / (1.0 + ratio.powi(6))
    }

    /// RET transfer rate, ns⁻¹: `k_ret = k_donor · (R0 / r)^6`.
    pub fn transfer_rate_per_ns(&self) -> f64 {
        let ratio = self.forster_radius_nm / self.separation_nm;
        self.donor.intrinsic_rate_per_ns() * ratio.powi(6)
    }

    /// Effective emission rate (ns⁻¹) of the pair when the donor is
    /// excited: the acceptor fires after transfer, so the bottleneck is
    /// the series combination of transfer and acceptor decay weighted by
    /// the transfer efficiency.
    pub fn effective_rate_per_ns(&self) -> f64 {
        let e = self.transfer_efficiency();
        let k_t = self.transfer_rate_per_ns();
        let k_a = self.acceptor.intrinsic_rate_per_ns();
        // Series of two exponential stages: harmonic combination, scaled
        // by the efficiency (failed transfers do not yield an acceptor
        // photon).
        e * (k_t * k_a) / (k_t + k_a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fam() -> Chromophore {
        Chromophore::new("FAM", 495.0, 520.0, 25.0, 0.9, 4.0).unwrap()
    }

    fn tamra() -> Chromophore {
        Chromophore::new("TAMRA", 555.0, 580.0, 25.0, 0.7, 2.3).unwrap()
    }

    #[test]
    fn rejects_invalid_spectra() {
        assert!(Chromophore::new("x", -1.0, 500.0, 20.0, 0.5, 1.0).is_err());
        assert!(
            Chromophore::new("x", 500.0, 490.0, 20.0, 0.5, 1.0).is_err(),
            "no Stokes shift"
        );
        assert!(Chromophore::new("x", 500.0, 520.0, 0.0, 0.5, 1.0).is_err());
        assert!(Chromophore::new("x", 500.0, 520.0, 20.0, 1.5, 1.0).is_err());
        assert!(Chromophore::new("x", 500.0, 520.0, 20.0, 0.5, 0.0).is_err());
    }

    #[test]
    fn overlap_is_one_for_perfectly_matched_spectra() {
        let d = Chromophore::new("d", 480.0, 520.0, 20.0, 0.9, 4.0).unwrap();
        let a = Chromophore::new("a", 520.0, 560.0, 20.0, 0.9, 4.0).unwrap();
        assert!((d.emission_overlap(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_decays_with_spectral_mismatch() {
        let d = fam();
        let near = Chromophore::new("a1", 530.0, 560.0, 25.0, 0.7, 2.0).unwrap();
        let far = Chromophore::new("a2", 650.0, 680.0, 25.0, 0.7, 2.0).unwrap();
        assert!(d.emission_overlap(&near) > d.emission_overlap(&far));
        assert!(d.emission_overlap(&far) < 0.01);
    }

    #[test]
    fn efficiency_is_half_at_forster_radius() {
        let pair = RetPair::new(fam(), tamra(), 1.0).unwrap();
        let r0 = pair.forster_radius_nm();
        let at_r0 = RetPair::new(fam(), tamra(), r0).unwrap();
        assert!((at_r0.transfer_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_decreases_with_distance() {
        let close = RetPair::new(fam(), tamra(), 2.0).unwrap();
        let far = RetPair::new(fam(), tamra(), 8.0).unwrap();
        assert!(close.transfer_efficiency() > 0.9);
        assert!(far.transfer_efficiency() < 0.2);
        assert!(close.effective_rate_per_ns() > far.effective_rate_per_ns());
    }

    #[test]
    fn effective_rate_is_bounded_by_stage_rates() {
        let pair = RetPair::new(fam(), tamra(), 3.0).unwrap();
        let k = pair.effective_rate_per_ns();
        assert!(k > 0.0);
        assert!(k < pair.transfer_rate_per_ns());
        assert!(k < pair.acceptor().intrinsic_rate_per_ns());
    }

    #[test]
    fn rejects_nonpositive_separation() {
        assert!(RetPair::new(fam(), tamra(), 0.0).is_err());
        assert!(RetPair::new(fam(), tamra(), f64::NAN).is_err());
    }
}
