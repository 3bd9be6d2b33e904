//! RSU-G design-point configuration.

use crate::error::ConfigError;

/// How energies are converted to decay-rate codes (§IV-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Conversion {
    /// A 2^energy_bits-entry lookup table holding precomputed λ codes
    /// (the previous design). Rewriting it on a temperature update stalls
    /// the pipeline.
    Lut,
    /// Boundary registers + comparators (the new design): ≤ `lambda_bits`
    /// comparisons decide the interval; double-buffered registers make
    /// temperature updates stall-free. Requires the 2^n approximation.
    Comparison,
}

/// How the physical decay rate of a RET network is set (§IV-B4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RateControl {
    /// QDLED emission intensity selects the rate (previous design); the
    /// number of QDLEDs/DAC precision scales with the count of unique
    /// rates.
    Intensity,
    /// Per-network molecular concentration selects the rate (new design):
    /// one QDLED, four networks at 1x/2x/4x/8x concentration per row.
    Concentration,
}

/// How time-to-fluorescence samples are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhotonPath {
    /// Exact stateless sampling of the truncated exponential — the
    /// functional-simulator path used for quality studies (fast, no
    /// inter-sample interference, like the paper's MATLAB simulator).
    Ideal,
    /// Full `ret-device` RET-circuit bank with replica scheduling and
    /// excitation bleed-through (new design only; requires 2^n lambdas
    /// with at most 4 unique values).
    RetCircuits,
}

/// What the selection stage does with labels whose photon never arrives
/// within the detection window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CensoredPolicy {
    /// Censored labels drop out of the race; if *no* label fires, the
    /// unit falls back to the largest-λ label (deterministic forward
    /// progress — the default hardware behaviour in this reproduction).
    FallbackMaxLambda,
    /// Censored samples are rounded to the last time bin (`t_max`), the
    /// §III-C3 measurement convention: heavy truncation then shows up as
    /// mass ties in the final bin.
    ClampToTMax,
    /// Censored labels drop out; if no label fires the variable keeps
    /// its current value.
    KeepCurrent,
}

/// Tie-breaking policy when several labels land in the same earliest
/// time bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// Uniformly random among the tied labels (used by the quality
    /// studies; keeps the ratio-1 line of Fig. 7 flat).
    Random,
    /// Lowest label index wins (what a priority-encoded comparator tree
    /// would do).
    LowestIndex,
}

/// A fully validated RSU-G design point.
///
/// Construct via [`RsuConfig::builder`], [`RsuConfig::previous_design`]
/// or [`RsuConfig::new_design`].
///
/// # Example
///
/// ```
/// use rsu::RsuConfig;
///
/// let cfg = RsuConfig::new_design();
/// assert_eq!(cfg.energy_bits(), 8);
/// assert_eq!(cfg.lambda_bits(), 4);
/// assert_eq!(cfg.time_bits(), 5);
/// assert_eq!(cfg.truncation(), 0.5);
/// assert!(cfg.decay_rate_scaling() && cfg.probability_cutoff() && cfg.pow2_lambda());
///
/// // Custom design points through the builder:
/// let custom = RsuConfig::builder().lambda_bits(6).truncation(0.3).build()?;
/// assert_eq!(custom.lambda_bits(), 6);
/// # Ok::<(), rsu::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RsuConfig {
    energy_bits: u32,
    lambda_bits: u32,
    time_bits: u32,
    truncation: f64,
    decay_rate_scaling: bool,
    probability_cutoff: bool,
    pow2_lambda: bool,
    conversion: Conversion,
    rate_control: RateControl,
    photon_path: PhotonPath,
    tie_break: TieBreak,
    censored: CensoredPolicy,
    max_labels: usize,
    energy_lsb: f64,
}

impl RsuConfig {
    /// Starts a builder initialised to the new design's defaults.
    pub fn builder() -> RsuConfigBuilder {
        RsuConfigBuilder::default()
    }

    /// The previous RSU-G (Wang et al. 2016) as characterised in this
    /// paper: 8-bit energy, 4-bit λ through an intensity LUT with a λ0
    /// floor (no scaling, no cut-off, no 2^n), 5 time bits, truncation
    /// 0.004.
    pub fn previous_design() -> Self {
        RsuConfigBuilder::default()
            .decay_rate_scaling(false)
            .probability_cutoff(false)
            .pow2_lambda(false)
            .conversion(Conversion::Lut)
            .rate_control(RateControl::Intensity)
            .truncation(0.004)
            .build()
            .expect("previous-design preset is valid")
    }

    /// The paper's new design: 8-bit energy, 4-bit λ with decay-rate
    /// scaling + probability cut-off + 2^n approximation, comparison-based
    /// conversion, concentration-controlled rates, 5 time bits, truncation
    /// 0.5.
    pub fn new_design() -> Self {
        RsuConfigBuilder::default()
            .build()
            .expect("new-design preset is valid")
    }

    /// Energy precision in bits.
    pub fn energy_bits(&self) -> u32 {
        self.energy_bits
    }

    /// Decay-rate precision in bits.
    pub fn lambda_bits(&self) -> u32 {
        self.lambda_bits
    }

    /// Time precision in bits; the detection window spans `2^time_bits`
    /// bins.
    pub fn time_bits(&self) -> u32 {
        self.time_bits
    }

    /// Truncated tail mass at λ0.
    pub fn truncation(&self) -> f64 {
        self.truncation
    }

    /// Whether decay-rate scaling (`E' = E − E_min`) is applied.
    pub fn decay_rate_scaling(&self) -> bool {
        self.decay_rate_scaling
    }

    /// Whether probabilities too small for λ0 are cut off to zero.
    pub fn probability_cutoff(&self) -> bool {
        self.probability_cutoff
    }

    /// Whether λ codes are truncated down to powers of two.
    pub fn pow2_lambda(&self) -> bool {
        self.pow2_lambda
    }

    /// Energy-to-λ conversion structure.
    pub fn conversion(&self) -> Conversion {
        self.conversion
    }

    /// Physical rate-control mechanism.
    pub fn rate_control(&self) -> RateControl {
        self.rate_control
    }

    /// TTF sampling path.
    pub fn photon_path(&self) -> PhotonPath {
        self.photon_path
    }

    /// Tie-breaking policy.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// Censored-sample policy.
    pub fn censored_policy(&self) -> CensoredPolicy {
        self.censored
    }

    /// Maximum number of labels supported (64 in both paper designs).
    pub fn max_labels(&self) -> usize {
        self.max_labels
    }

    /// Energy units per quantisation step.
    pub fn energy_lsb(&self) -> f64 {
        self.energy_lsb
    }

    /// The λ-code scale `S`: a label's integer code is
    /// `floor(exp(−E'/T) · S)`.
    ///
    /// `S = 2^lambda_bits` in plain mode (the §III-C2 convention where
    /// `Lambda_bits = 7` maps the best label to `128·λ0`), and
    /// `S = 2^(lambda_bits − 1)` in 2^n mode so that exactly
    /// `lambda_bits` distinct non-zero rates exist ({1, 2, 4, 8}·λ0 at 4
    /// bits, λmax = 8·λ0, matching Fig. 7).
    pub fn lambda_scale(&self) -> u32 {
        if self.pow2_lambda {
            1u32 << (self.lambda_bits - 1)
        } else {
            1u32 << self.lambda_bits
        }
    }

    /// Detection window length in bins.
    pub fn t_max_bins(&self) -> u32 {
        1u32 << self.time_bits
    }

    /// Base decay rate λ0 per time bin, fixed by truncation and window.
    pub fn lambda0_per_bin(&self) -> f64 {
        -self.truncation.ln() / self.t_max_bins() as f64
    }
}

/// Builder for [`RsuConfig`]; defaults to the new design.
#[derive(Debug, Clone)]
pub struct RsuConfigBuilder {
    energy_bits: u32,
    lambda_bits: u32,
    time_bits: u32,
    truncation: f64,
    decay_rate_scaling: bool,
    probability_cutoff: bool,
    pow2_lambda: bool,
    conversion: Conversion,
    rate_control: RateControl,
    photon_path: PhotonPath,
    tie_break: TieBreak,
    censored: CensoredPolicy,
    max_labels: usize,
    energy_lsb: f64,
}

impl Default for RsuConfigBuilder {
    fn default() -> Self {
        RsuConfigBuilder {
            energy_bits: 8,
            lambda_bits: 4,
            time_bits: 5,
            truncation: 0.5,
            decay_rate_scaling: true,
            probability_cutoff: true,
            pow2_lambda: true,
            conversion: Conversion::Comparison,
            rate_control: RateControl::Concentration,
            photon_path: PhotonPath::Ideal,
            tie_break: TieBreak::Random,
            censored: CensoredPolicy::FallbackMaxLambda,
            max_labels: 64,
            energy_lsb: 1.0,
        }
    }
}

impl RsuConfigBuilder {
    /// Sets the energy precision (1..=16 bits).
    pub fn energy_bits(mut self, bits: u32) -> Self {
        self.energy_bits = bits;
        self
    }

    /// Sets the decay-rate precision (1..=8 bits).
    pub fn lambda_bits(mut self, bits: u32) -> Self {
        self.lambda_bits = bits;
        self
    }

    /// Sets the time precision (1..=16 bits).
    pub fn time_bits(mut self, bits: u32) -> Self {
        self.time_bits = bits;
        self
    }

    /// Sets the truncation (in `(0, 1)`).
    pub fn truncation(mut self, truncation: f64) -> Self {
        self.truncation = truncation;
        self
    }

    /// Enables or disables decay-rate scaling.
    pub fn decay_rate_scaling(mut self, on: bool) -> Self {
        self.decay_rate_scaling = on;
        self
    }

    /// Enables or disables the probability cut-off.
    pub fn probability_cutoff(mut self, on: bool) -> Self {
        self.probability_cutoff = on;
        self
    }

    /// Enables or disables 2^n lambda truncation.
    pub fn pow2_lambda(mut self, on: bool) -> Self {
        self.pow2_lambda = on;
        self
    }

    /// Selects the conversion structure.
    pub fn conversion(mut self, conversion: Conversion) -> Self {
        self.conversion = conversion;
        self
    }

    /// Selects the rate-control mechanism.
    pub fn rate_control(mut self, rate_control: RateControl) -> Self {
        self.rate_control = rate_control;
        self
    }

    /// Selects the TTF sampling path.
    pub fn photon_path(mut self, photon_path: PhotonPath) -> Self {
        self.photon_path = photon_path;
        self
    }

    /// Selects the tie-breaking policy.
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Selects the censored-sample policy.
    pub fn censored_policy(mut self, censored: CensoredPolicy) -> Self {
        self.censored = censored;
        self
    }

    /// Sets the maximum label count (2..=65536).
    pub fn max_labels(mut self, max_labels: usize) -> Self {
        self.max_labels = max_labels;
        self
    }

    /// Sets the energy units per quantisation step.
    pub fn energy_lsb(mut self, lsb: f64) -> Self {
        self.energy_lsb = lsb;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn build(self) -> Result<RsuConfig, ConfigError> {
        if !(1..=16).contains(&self.energy_bits) {
            return Err(ConfigError::EnergyBits {
                bits: self.energy_bits,
            });
        }
        if !(1..=8).contains(&self.lambda_bits) {
            return Err(ConfigError::LambdaBits {
                bits: self.lambda_bits,
            });
        }
        if !(1..=16).contains(&self.time_bits) {
            return Err(ConfigError::TimeBits {
                bits: self.time_bits,
            });
        }
        if !(self.truncation > 0.0 && self.truncation < 1.0) {
            return Err(ConfigError::Truncation {
                value: self.truncation,
            });
        }
        if !(2..=65536).contains(&self.max_labels) {
            return Err(ConfigError::MaxLabels {
                value: self.max_labels,
            });
        }
        if self.energy_lsb <= 0.0 || !self.energy_lsb.is_finite() {
            return Err(ConfigError::EnergyLsb {
                value: self.energy_lsb,
            });
        }
        if self.conversion == Conversion::Comparison && !self.pow2_lambda {
            return Err(ConfigError::ComparisonNeedsPow2);
        }
        if self.photon_path == PhotonPath::RetCircuits
            && (!self.pow2_lambda || self.lambda_bits > 4)
        {
            return Err(ConfigError::DeviceNeedsPow2);
        }
        Ok(RsuConfig {
            energy_bits: self.energy_bits,
            lambda_bits: self.lambda_bits,
            time_bits: self.time_bits,
            truncation: self.truncation,
            decay_rate_scaling: self.decay_rate_scaling,
            probability_cutoff: self.probability_cutoff,
            pow2_lambda: self.pow2_lambda,
            conversion: self.conversion,
            rate_control: self.rate_control,
            photon_path: self.photon_path,
            tie_break: self.tie_break,
            censored: self.censored,
            max_labels: self.max_labels,
            energy_lsb: self.energy_lsb,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_debug_contains_all_design_parameters() {
        // The Debug form is what experiment logs record; it must expose the
        // four paper parameters.
        let s = format!("{:?}", RsuConfig::new_design());
        for needle in [
            "energy_bits: 8",
            "lambda_bits: 4",
            "time_bits: 5",
            "truncation: 0.5",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }

    #[test]
    fn presets_match_paper() {
        let prev = RsuConfig::previous_design();
        assert_eq!(prev.energy_bits(), 8);
        assert_eq!(prev.lambda_bits(), 4);
        assert_eq!(prev.time_bits(), 5);
        assert_eq!(prev.truncation(), 0.004);
        assert!(!prev.decay_rate_scaling());
        assert!(!prev.probability_cutoff());
        assert!(!prev.pow2_lambda());
        assert_eq!(prev.conversion(), Conversion::Lut);
        assert_eq!(prev.rate_control(), RateControl::Intensity);
        assert_eq!(prev.lambda_scale(), 16, "plain mode: S = 2^4");

        let new = RsuConfig::new_design();
        assert_eq!(new.truncation(), 0.5);
        assert!(new.decay_rate_scaling() && new.probability_cutoff() && new.pow2_lambda());
        assert_eq!(new.conversion(), Conversion::Comparison);
        assert_eq!(new.rate_control(), RateControl::Concentration);
        assert_eq!(
            new.lambda_scale(),
            8,
            "2^n mode: λmax = 8·λ0 at 4 bits (Fig. 7)"
        );
        assert_eq!(new.max_labels(), 64);
    }

    #[test]
    fn lambda_scale_follows_section_3c2_convention_in_plain_mode() {
        // "label 0 is mapped to the maximum supported λ = 128·λ0" at
        // Lambda_bits = 7.
        let cfg = RsuConfig::builder()
            .lambda_bits(7)
            .pow2_lambda(false)
            .conversion(Conversion::Lut)
            .build()
            .unwrap();
        assert_eq!(cfg.lambda_scale(), 128);
    }

    #[test]
    fn lambda0_matches_truncation() {
        let cfg = RsuConfig::new_design();
        let mass = (-cfg.lambda0_per_bin() * cfg.t_max_bins() as f64).exp();
        assert!((mass - 0.5).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_invalid_values() {
        assert!(matches!(
            RsuConfig::builder().energy_bits(0).build(),
            Err(ConfigError::EnergyBits { .. })
        ));
        assert!(matches!(
            RsuConfig::builder().lambda_bits(9).build(),
            Err(ConfigError::LambdaBits { .. })
        ));
        assert!(matches!(
            RsuConfig::builder().time_bits(0).build(),
            Err(ConfigError::TimeBits { .. })
        ));
        assert!(matches!(
            RsuConfig::builder().truncation(0.0).build(),
            Err(ConfigError::Truncation { .. })
        ));
        assert!(matches!(
            RsuConfig::builder().truncation(1.0).build(),
            Err(ConfigError::Truncation { .. })
        ));
        assert!(matches!(
            RsuConfig::builder().max_labels(1).build(),
            Err(ConfigError::MaxLabels { .. })
        ));
        assert!(matches!(
            RsuConfig::builder().energy_lsb(0.0).build(),
            Err(ConfigError::EnergyLsb { .. })
        ));
    }

    #[test]
    fn builder_rejects_inconsistent_combinations() {
        assert_eq!(
            RsuConfig::builder()
                .pow2_lambda(false)
                .conversion(Conversion::Comparison)
                .build(),
            Err(ConfigError::ComparisonNeedsPow2)
        );
        assert_eq!(
            RsuConfig::builder()
                .photon_path(PhotonPath::RetCircuits)
                .pow2_lambda(false)
                .conversion(Conversion::Lut)
                .build(),
            Err(ConfigError::DeviceNeedsPow2)
        );
        assert_eq!(
            RsuConfig::builder()
                .photon_path(PhotonPath::RetCircuits)
                .lambda_bits(5)
                .build(),
            Err(ConfigError::DeviceNeedsPow2)
        );
    }

    #[test]
    fn device_path_accepts_paper_point() {
        let cfg = RsuConfig::builder()
            .photon_path(PhotonPath::RetCircuits)
            .build()
            .unwrap();
        assert_eq!(cfg.photon_path(), PhotonPath::RetCircuits);
    }
}
