//! Energy-to-λ conversion (`Lambda_bits`, Eq. 2, §IV-B3).
//!
//! Both RSU-G designs turn an integer energy code into an integer decay-
//! rate code — a multiplier `m` such that the RET circuit samples at
//! `λ = m · λ0`:
//!
//! ```text
//! m(E) = floor(exp(−E / T) · S)        S = lambda scale
//! ```
//!
//! with the paper's refinements layered on top:
//!
//! * **λ0 floor** (previous design): `m < 1` rounds *up* to 1, keeping
//!   every label active but injecting the late-iteration noise analysed
//!   in §III-C2.
//! * **Probability cut-off** (new design): `m < 1` becomes 0 — the label
//!   is dropped from the race entirely.
//! * **2^n approximation** (new design): `m` is truncated down to a power
//!   of two, so only `lambda_bits` distinct non-zero rates exist.
//!
//! The conversion is realised either as a [`LutConverter`] (a
//! `2^energy_bits`-entry table, rewritten with pipeline stalls on each
//! temperature update — the previous design) or a [`ComparisonConverter`]
//! (≤ `lambda_bits` boundary registers + comparators, double-buffered so
//! annealing is stall-free — the new design; 0.46× area / 0.22× power of
//! the LUT per the paper's synthesis).

/// Width in bits of the host interface used to stream new LUT/boundary
/// contents on a temperature update (§IV-B3 chooses 8).
pub const UPDATE_INTERFACE_BITS: u32 = 8;

/// Raw λ multiplier before floor/cut-off/2^n post-processing.
fn raw_multiplier(e_code: u16, t_code: f64, scale: u32) -> u32 {
    debug_assert!(t_code > 0.0);
    let raw = (-(e_code as f64) / t_code).exp();
    (raw * scale as f64).floor() as u32
}

/// Full λ multiplier with the configured post-processing.
fn shaped_multiplier(e_code: u16, t_code: f64, scale: u32, pow2: bool, cutoff: bool) -> u16 {
    let v = raw_multiplier(e_code, t_code, scale);
    if v < 1 {
        return if cutoff { 0 } else { 1 };
    }
    let v = if pow2 { prev_power_of_two(v) } else { v };
    v.min(scale) as u16
}

/// Largest power of two ≤ `v` (for `v ≥ 1`).
fn prev_power_of_two(v: u32) -> u32 {
    debug_assert!(v >= 1);
    1u32 << (31 - v.leading_zeros())
}

/// Common interface of the two conversion structures.
pub trait EnergyToLambda {
    /// λ multiplier for an energy code under the current temperature.
    fn multiplier_of(&self, e_code: u16) -> u16;

    /// Storage the structure needs, in bits.
    fn storage_bits(&self) -> u64;

    /// Pipeline stall cycles incurred by one temperature update.
    fn update_stall_cycles(&self) -> u64;

    /// Applies a new temperature (in energy-code units).
    fn set_temperature(&mut self, t_code: f64);

    /// The current temperature in energy-code units.
    fn temperature(&self) -> f64;
}

/// LUT-based conversion: one precomputed λ code per energy code
/// (previous design).
///
/// # Example
///
/// ```
/// use rsu::{EnergyToLambda, LutConverter};
///
/// // Previous-design shape: 8-bit energy, scale 16, λ0 floor.
/// let lut = LutConverter::new(8, 16, false, false, 8.0);
/// assert_eq!(lut.multiplier_of(0), 16, "E = 0 maps to the maximum λ");
/// assert_eq!(lut.multiplier_of(255), 1, "tiny probabilities floor at λ0");
/// assert_eq!(lut.storage_bits(), 256 * 4, "the 1K-bit LUT of §IV-B3");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LutConverter {
    energy_bits: u32,
    scale: u32,
    pow2: bool,
    cutoff: bool,
    t_code: f64,
    table: Vec<u16>,
}

impl LutConverter {
    /// Builds the LUT for the given shape and initial temperature.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= energy_bits <= 16`, `scale` is a power of two,
    /// and the temperature is positive and finite.
    pub fn new(energy_bits: u32, scale: u32, pow2: bool, cutoff: bool, t_code: f64) -> Self {
        assert!(
            (1..=16).contains(&energy_bits),
            "energy bits must be 1..=16"
        );
        assert!(scale.is_power_of_two(), "scale must be a power of two");
        assert!(
            t_code > 0.0 && t_code.is_finite(),
            "temperature must be positive"
        );
        let mut lut = LutConverter {
            energy_bits,
            scale,
            pow2,
            cutoff,
            t_code,
            table: vec![0; 1usize << energy_bits],
        };
        lut.rebuild();
        lut
    }

    fn rebuild(&mut self) {
        for e in 0..self.table.len() {
            self.table[e] =
                shaped_multiplier(e as u16, self.t_code, self.scale, self.pow2, self.cutoff);
        }
    }

    /// Bits per table entry: wide enough for the largest multiplier.
    fn entry_bits(&self) -> u64 {
        (32 - self.scale.leading_zeros()) as u64
    }
}

impl EnergyToLambda for LutConverter {
    fn multiplier_of(&self, e_code: u16) -> u16 {
        self.table[(e_code as usize).min(self.table.len() - 1)]
    }

    fn storage_bits(&self) -> u64 {
        // The paper quotes 1024 bits for the 256-entry, 4-bit previous
        // design: count lambda_bits per entry (scale 16 → codes 1..=16
        // stored as the 4-bit intensity selector).
        self.table.len() as u64 * (self.entry_bits() - 1).max(1)
    }

    fn update_stall_cycles(&self) -> u64 {
        // The whole table streams in over the narrow host interface and
        // sampling cannot proceed concurrently (previous design).
        self.storage_bits().div_ceil(UPDATE_INTERFACE_BITS as u64)
    }

    fn set_temperature(&mut self, t_code: f64) {
        assert!(
            t_code > 0.0 && t_code.is_finite(),
            "temperature must be positive"
        );
        self.t_code = t_code;
        self.rebuild();
    }

    fn temperature(&self) -> f64 {
        self.t_code
    }
}

/// Comparison-based conversion (new design): `lambda_bits` boundary
/// registers; an energy code is compared against the boundaries to find
/// its interval, and temperature updates write a staged register bank
/// that commits without stalling the pipeline.
///
/// Only defined for the 2^n approximation (the interval count would not
/// stay small otherwise), matching the hardware argument of §IV-B3.
///
/// # Example
///
/// ```
/// use rsu::{ComparisonConverter, EnergyToLambda, LutConverter};
///
/// let cmp = ComparisonConverter::new(8, 8, true, 10.0);
/// let lut = LutConverter::new(8, 8, true, true, 10.0);
/// // The two structures implement the identical function.
/// for e in 0..=255u16 {
///     assert_eq!(cmp.multiplier_of(e), lut.multiplier_of(e));
/// }
/// assert_eq!(cmp.storage_bits(), 32, "4 boundaries x 8 bits (§IV-B3)");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonConverter {
    energy_bits: u32,
    scale: u32,
    cutoff: bool,
    t_code: f64,
    /// `boundaries[j]` is the largest energy code still mapped to
    /// multiplier `scale >> j`; descending λ order.
    boundaries: Vec<u16>,
    /// Staged boundary bank awaiting [`commit`](Self::commit).
    staged: Option<(f64, Vec<u16>)>,
}

impl ComparisonConverter {
    /// Builds the converter.
    ///
    /// # Panics
    ///
    /// Same constraints as [`LutConverter::new`].
    pub fn new(energy_bits: u32, scale: u32, cutoff: bool, t_code: f64) -> Self {
        assert!(
            (1..=16).contains(&energy_bits),
            "energy bits must be 1..=16"
        );
        assert!(scale.is_power_of_two(), "scale must be a power of two");
        assert!(
            t_code > 0.0 && t_code.is_finite(),
            "temperature must be positive"
        );
        let mut conv = ComparisonConverter {
            energy_bits,
            scale,
            cutoff,
            t_code,
            boundaries: Vec::new(),
            staged: None,
        };
        conv.boundaries = conv.compute_boundaries(t_code);
        conv
    }

    /// Number of boundary registers (= number of distinct non-zero λs).
    pub fn boundary_count(&self) -> usize {
        self.boundaries.len()
    }

    /// Boundary values, in descending-λ order.
    pub fn boundaries(&self) -> &[u16] {
        &self.boundaries
    }

    /// Computes, for each multiplier `scale >> j`, the largest energy
    /// code that still reaches it. Uses binary search over the *same*
    /// float expression as the LUT so the two structures agree bit-for-
    /// bit (the hardware's boundaries are precomputed by the host with
    /// the same arithmetic).
    fn compute_boundaries(&self, t_code: f64) -> Vec<u16> {
        let max_code = ((1u32 << self.energy_bits) - 1) as u16;
        let mut bounds = Vec::new();
        let mut j = 0u32;
        while (self.scale >> j) >= 1 {
            let m = self.scale >> j;
            // Largest e with raw_multiplier(e) >= m; monotone in e.
            let bound = if raw_multiplier(0, t_code, self.scale) < m {
                None
            } else {
                let (mut lo, mut hi) = (0u32, max_code as u32);
                while lo < hi {
                    let mid = (lo + hi).div_ceil(2);
                    if raw_multiplier(mid as u16, t_code, self.scale) >= m {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                Some(lo as u16)
            };
            // Boundary registers exist for every interval; an unreachable
            // multiplier gets a sentinel that never matches. (Cannot occur
            // for m = scale since e = 0 always maps there, but kept
            // uniform for hardware regularity.)
            bounds.push(bound.unwrap_or(0));
            j += 1;
        }
        bounds
    }

    /// Stages new boundary values for a temperature without affecting the
    /// active bank (the 8-bit-interface background transfer of §IV-B3).
    pub fn stage_temperature(&mut self, t_code: f64) {
        assert!(
            t_code > 0.0 && t_code.is_finite(),
            "temperature must be positive"
        );
        let staged = self.compute_boundaries(t_code);
        self.staged = Some((t_code, staged));
    }

    /// Commits the staged bank (the end-of-iteration swap). No-op if
    /// nothing is staged.
    pub fn commit(&mut self) {
        if let Some((t, bounds)) = self.staged.take() {
            self.t_code = t;
            self.boundaries = bounds;
        }
    }

    /// Cycles needed to stream a staged update over the 8-bit interface —
    /// hidden behind sampling, not a stall (exposed for the pipeline
    /// model).
    pub fn background_update_cycles(&self) -> u64 {
        (self.boundaries.len() as u64 * self.energy_bits as u64)
            .div_ceil(UPDATE_INTERFACE_BITS as u64)
    }
}

impl EnergyToLambda for ComparisonConverter {
    fn multiplier_of(&self, e_code: u16) -> u16 {
        for (j, &bound) in self.boundaries.iter().enumerate() {
            if e_code <= bound {
                return (self.scale >> j) as u16;
            }
        }
        if self.cutoff {
            0
        } else {
            1
        }
    }

    fn storage_bits(&self) -> u64 {
        self.boundaries.len() as u64 * self.energy_bits as u64
    }

    fn update_stall_cycles(&self) -> u64 {
        // Double buffering hides the transfer entirely.
        0
    }

    fn set_temperature(&mut self, t_code: f64) {
        self.stage_temperature(t_code);
        self.commit();
    }

    fn temperature(&self) -> f64 {
        self.t_code
    }
}

/// Either conversion structure, selected by the design point.
#[derive(Debug, Clone, PartialEq)]
pub enum LambdaConverter {
    /// LUT-based (previous design).
    Lut(LutConverter),
    /// Comparison-based (new design).
    Comparison(ComparisonConverter),
}

impl EnergyToLambda for LambdaConverter {
    fn multiplier_of(&self, e_code: u16) -> u16 {
        match self {
            LambdaConverter::Lut(c) => c.multiplier_of(e_code),
            LambdaConverter::Comparison(c) => c.multiplier_of(e_code),
        }
    }

    fn storage_bits(&self) -> u64 {
        match self {
            LambdaConverter::Lut(c) => c.storage_bits(),
            LambdaConverter::Comparison(c) => c.storage_bits(),
        }
    }

    fn update_stall_cycles(&self) -> u64 {
        match self {
            LambdaConverter::Lut(c) => c.update_stall_cycles(),
            LambdaConverter::Comparison(c) => c.update_stall_cycles(),
        }
    }

    fn set_temperature(&mut self, t_code: f64) {
        match self {
            LambdaConverter::Lut(c) => c.set_temperature(t_code),
            LambdaConverter::Comparison(c) => c.set_temperature(t_code),
        }
    }

    fn temperature(&self) -> f64 {
        match self {
            LambdaConverter::Lut(c) => c.temperature(),
            LambdaConverter::Comparison(c) => c.temperature(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_energy_pins_to_max_lambda() {
        for scale in [8u32, 16, 128] {
            for t in [0.5, 1.0, 50.0, 1000.0] {
                assert_eq!(shaped_multiplier(0, t, scale, false, true) as u32, scale);
                assert_eq!(shaped_multiplier(0, t, scale, true, true) as u32, scale);
            }
        }
    }

    #[test]
    fn multiplier_is_monotone_nonincreasing_in_energy() {
        let lut = LutConverter::new(8, 16, false, true, 20.0);
        let mut prev = u16::MAX;
        for e in 0..=255u16 {
            let m = lut.multiplier_of(e);
            assert!(m <= prev, "m({e}) = {m} rose above {prev}");
            prev = m;
        }
    }

    #[test]
    fn floor_vs_cutoff_at_tiny_probabilities() {
        let floored = LutConverter::new(8, 16, false, false, 4.0);
        let cut = LutConverter::new(8, 16, false, true, 4.0);
        // exp(-255/4)·16 ≈ 0: floor keeps λ0, cut-off drops the label.
        assert_eq!(floored.multiplier_of(255), 1);
        assert_eq!(cut.multiplier_of(255), 0);
    }

    #[test]
    fn pow2_mode_produces_only_powers_of_two() {
        let lut = LutConverter::new(8, 8, true, true, 30.0);
        let mut seen = std::collections::HashSet::new();
        for e in 0..=255u16 {
            let m = lut.multiplier_of(e);
            if m > 0 {
                assert!(m.is_power_of_two(), "m({e}) = {m}");
                seen.insert(m);
            }
        }
        // Exactly lambda_bits = 4 distinct non-zero rates at scale 8.
        assert_eq!(seen, [1u16, 2, 4, 8].into_iter().collect());
    }

    #[test]
    fn paper_example_128_lambda0_at_7_bits() {
        // §III-C2: "label 0 is mapped to the maximum supported λ = 128·λ0,
        // while each of the other labels is mapped to the minimum λ0."
        let lut = LutConverter::new(8, 128, false, false, 1.0);
        assert_eq!(lut.multiplier_of(0), 128);
        assert_eq!(lut.multiplier_of(200), 1);
    }

    #[test]
    fn lut_storage_and_stalls_match_paper() {
        // 256 entries × 4 bits = 1024 bits; 8-bit interface → 128 stall
        // cycles per temperature update.
        let lut = LutConverter::new(8, 16, false, false, 8.0);
        assert_eq!(lut.storage_bits(), 1024);
        assert_eq!(lut.update_stall_cycles(), 128);
    }

    #[test]
    fn comparison_matches_lut_exactly_across_temperatures() {
        for t in [0.3, 1.0, 2.5, 7.0, 31.0, 255.0] {
            for cutoff in [true, false] {
                let lut = LutConverter::new(8, 8, true, cutoff, t);
                let cmp = ComparisonConverter::new(8, 8, cutoff, t);
                for e in 0..=255u16 {
                    assert_eq!(
                        cmp.multiplier_of(e),
                        lut.multiplier_of(e),
                        "t={t} cutoff={cutoff} e={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn comparison_storage_is_32_bits_and_stall_free() {
        let cmp = ComparisonConverter::new(8, 8, true, 10.0);
        assert_eq!(cmp.boundary_count(), 4);
        assert_eq!(cmp.storage_bits(), 32);
        assert_eq!(cmp.update_stall_cycles(), 0);
        assert_eq!(cmp.background_update_cycles(), 4, "four 8-bit transfers");
    }

    #[test]
    fn staged_update_only_applies_on_commit() {
        let mut cmp = ComparisonConverter::new(8, 8, true, 100.0);
        let before: Vec<u16> = (0..=255u16).map(|e| cmp.multiplier_of(e)).collect();
        cmp.stage_temperature(1.0);
        let during: Vec<u16> = (0..=255u16).map(|e| cmp.multiplier_of(e)).collect();
        assert_eq!(before, during, "staging must not disturb the active bank");
        cmp.commit();
        let after: Vec<u16> = (0..=255u16).map(|e| cmp.multiplier_of(e)).collect();
        assert_ne!(before, after, "commit applies the new temperature");
        assert_eq!(cmp.temperature(), 1.0);
    }

    #[test]
    fn commit_without_stage_is_noop() {
        let mut cmp = ComparisonConverter::new(8, 8, true, 5.0);
        let bounds = cmp.boundaries().to_vec();
        cmp.commit();
        assert_eq!(cmp.boundaries(), &bounds[..]);
        assert_eq!(cmp.temperature(), 5.0);
    }

    #[test]
    fn high_temperature_keeps_all_labels_active() {
        // At very high T, exp(−E/T) ≈ 1 for all 8-bit energies: nothing
        // is cut off and every label sits within one 2^n step of λmax
        // (floor semantics pull codes just under the scale to the next
        // power of two down).
        let cmp = ComparisonConverter::new(8, 8, true, 1e6);
        for e in 0..=255u16 {
            let m = cmp.multiplier_of(e);
            assert!(m >= 4, "e={e}: multiplier {m} should stay near λmax");
        }
        assert_eq!(cmp.multiplier_of(0), 8);
    }

    #[test]
    fn low_temperature_cuts_everything_but_the_best() {
        let cmp = ComparisonConverter::new(8, 8, true, 0.1);
        assert_eq!(cmp.multiplier_of(0), 8);
        for e in 1..=255u16 {
            assert_eq!(cmp.multiplier_of(e), 0, "e={e}");
        }
    }

    #[test]
    fn converter_enum_dispatches() {
        let mut c = LambdaConverter::Comparison(ComparisonConverter::new(8, 8, true, 5.0));
        assert_eq!(c.storage_bits(), 32);
        c.set_temperature(2.0);
        assert_eq!(c.temperature(), 2.0);
        let mut l = LambdaConverter::Lut(LutConverter::new(8, 16, false, false, 5.0));
        assert_eq!(l.update_stall_cycles(), 128);
        l.set_temperature(2.0);
        assert_eq!(l.multiplier_of(0), 16);
    }
}
