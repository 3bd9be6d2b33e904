//! Photobleaching: cumulative optical damage to RET networks (§IV-D).
//!
//! "Photo-bleaching, which can degrade RET circuits, can be mitigated
//! using known techniques" — chromophores permanently lose fluorescence
//! after a stochastic number of excitation cycles, so a network's
//! effective decay rate (proportional to its live-chromophore
//! concentration) decays exponentially with exposure count. This module
//! models that ageing and the paper-cited mitigation (photostable
//! core–shell encapsulation, modelled as a longer bleaching lifetime),
//! letting the quality experiments ask *when* an aged RSU-G drifts out
//! of specification.

use crate::error::DeviceError;

/// Ageing model for one RET network's ensemble.
///
/// Each excitation bleaches an expected fraction `1/lifetime` of the
/// surviving chromophores, so after `n` exposures the live fraction is
/// `(1 − 1/lifetime)^n ≈ e^{−n/lifetime}`. The effective decay rate of
/// the network scales with the live fraction (rate ∝ concentration).
///
/// # Example
///
/// ```
/// use ret_device::BleachingModel;
///
/// let mut plain = BleachingModel::new(1.0e9)?;       // 1e9-exposure dye
/// plain.expose(2_000_000_000);                        // two lifetimes
/// assert!(plain.live_fraction() < 0.14);
///
/// let mut shielded = BleachingModel::with_mitigation(1.0e9, 30.0)?;
/// shielded.expose(2_000_000_000);
/// assert!(shielded.live_fraction() > 0.9, "encapsulation extends life 30x");
/// # Ok::<(), ret_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BleachingModel {
    /// Expected exposures before a chromophore bleaches.
    lifetime_exposures: f64,
    /// Exposures accumulated so far.
    exposures: f64,
}

impl BleachingModel {
    /// Creates a model with the given mean chromophore lifetime in
    /// exposures.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidRate`] unless the lifetime is
    /// positive and finite.
    pub fn new(lifetime_exposures: f64) -> Result<Self, DeviceError> {
        if lifetime_exposures <= 0.0 || !lifetime_exposures.is_finite() {
            return Err(DeviceError::InvalidRate {
                value: lifetime_exposures,
            });
        }
        Ok(BleachingModel {
            lifetime_exposures,
            exposures: 0.0,
        })
    }

    /// Creates a mitigated model: core–shell encapsulation (Ow et al.,
    /// the paper's citation \[54\]) multiplies the effective lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidRate`] for invalid lifetimes or a
    /// mitigation factor below 1.
    pub fn with_mitigation(
        lifetime_exposures: f64,
        mitigation_factor: f64,
    ) -> Result<Self, DeviceError> {
        if mitigation_factor < 1.0 || !mitigation_factor.is_finite() {
            return Err(DeviceError::InvalidRate {
                value: mitigation_factor,
            });
        }
        BleachingModel::new(lifetime_exposures * mitigation_factor)
    }

    /// Records `n` excitation exposures.
    pub fn expose(&mut self, n: u64) {
        self.exposures += n as f64;
    }

    /// Fraction of chromophores still fluorescent.
    pub fn live_fraction(&self) -> f64 {
        (-self.exposures / self.lifetime_exposures).exp()
    }

    /// Effective decay-rate multiplier of an aged network relative to its
    /// fresh concentration (rate ∝ live concentration).
    pub fn rate_derating(&self) -> f64 {
        self.live_fraction()
    }

    /// Exposures until the network's rate falls below `threshold` of its
    /// fresh value (e.g. the point where a 2× concentration row aliases
    /// into the 1× row at threshold 0.5).
    pub fn exposures_until(&self, threshold: f64) -> f64 {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        -threshold.ln() * self.lifetime_exposures - self.exposures
    }

    /// Whether an aged 2ⁿ concentration ladder is still monotone and
    /// separable: the paper's design needs the 1×/2×/4×/8× rows to stay
    /// distinguishable, which uniform bleaching preserves (all rows
    /// derate by the same factor) — the real risk is *uneven* exposure.
    /// Given per-row exposure counts, returns whether every adjacent
    /// ratio stays above `min_ratio`.
    pub fn ladder_separable(per_row_exposures: &[u64], lifetime: f64, min_ratio: f64) -> bool {
        assert!(per_row_exposures.len() >= 2, "need at least two rows");
        let rates: Vec<f64> = per_row_exposures
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let conc = (1u32 << i) as f64;
                conc * (-(n as f64) / lifetime).exp()
            })
            .collect();
        rates.windows(2).all(|w| w[1] / w[0] >= min_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_network_is_fully_live() {
        let m = BleachingModel::new(1e9).unwrap();
        assert_eq!(m.live_fraction(), 1.0);
        assert_eq!(m.rate_derating(), 1.0);
    }

    #[test]
    fn bleaching_decays_exponentially() {
        let mut m = BleachingModel::new(1_000_000.0).unwrap();
        m.expose(1_000_000);
        assert!((m.live_fraction() - (-1.0f64).exp()).abs() < 1e-12);
        m.expose(1_000_000);
        assert!((m.live_fraction() - (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn mitigation_extends_lifetime_proportionally() {
        let mut plain = BleachingModel::new(1e6).unwrap();
        let mut shielded = BleachingModel::with_mitigation(1e6, 10.0).unwrap();
        plain.expose(1_000_000);
        shielded.expose(10_000_000);
        assert!((plain.live_fraction() - shielded.live_fraction()).abs() < 1e-12);
    }

    #[test]
    fn exposures_until_threshold_is_consistent() {
        let m = BleachingModel::new(1e6).unwrap();
        let n = m.exposures_until(0.5);
        let mut aged = m;
        aged.expose(n as u64);
        assert!((aged.live_fraction() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn uniform_exposure_preserves_the_concentration_ladder() {
        // All four rows aged equally: ratios stay exactly 2.
        let n = 500_000u64;
        assert!(BleachingModel::ladder_separable(&[n; 4], 1e6, 1.9));
    }

    #[test]
    fn uneven_exposure_collapses_the_ladder() {
        // The 8x row (hammered by frequent max-λ selections) ages much
        // faster: its rate can fall below the 4x row's.
        let lifetime = 1e6;
        let exposures = [0u64, 0, 0, 2_000_000];
        assert!(!BleachingModel::ladder_separable(&exposures, lifetime, 1.5));
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(BleachingModel::new(0.0).is_err());
        assert!(BleachingModel::new(f64::NAN).is_err());
        assert!(BleachingModel::with_mitigation(1e6, 0.5).is_err());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn exposures_until_rejects_bad_threshold() {
        BleachingModel::new(1e6).unwrap().exposures_until(1.5);
    }
}
