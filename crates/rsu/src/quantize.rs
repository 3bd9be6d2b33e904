//! Fixed-point energy quantisation (`Energy_bits`).

/// Quantises floating-point MRF energies into the unsigned integer codes
/// the RSU-G pipeline operates on.
///
/// The paper finds 8 bits sufficient for all three applications
/// (§III-C1); this type lets the experiments sweep the precision.
/// Energies are mapped by `code = round(E / lsb)` and clamped to
/// `0 ..= 2^bits − 1` (energies are non-negative in all the paper's
/// models).
///
/// # Example
///
/// ```
/// use rsu::EnergyQuantizer;
///
/// let q = EnergyQuantizer::new(8, 1.0);
/// assert_eq!(q.quantize(3.4), 3);
/// assert_eq!(q.quantize(3.6), 4);
/// assert_eq!(q.quantize(1000.0), 255, "clamped to the 8-bit ceiling");
/// assert_eq!(q.quantize(-5.0), 0, "negative energies clamp to zero");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyQuantizer {
    bits: u32,
    lsb: f64,
    // `1 / lsb` when `lsb` is a power of two: the product `E · (1/lsb)`
    // and the quotient `E / lsb` then round the same real number, so
    // the multiply is bit-identical to the divide.
    exact_reciprocal: Option<f64>,
}

impl EnergyQuantizer {
    /// Creates a quantiser with the given precision and LSB size (energy
    /// units per code step).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 16` and `lsb` is positive and finite.
    pub fn new(bits: u32, lsb: f64) -> Self {
        assert!((1..=16).contains(&bits), "bits must be 1..=16");
        assert!(
            lsb > 0.0 && lsb.is_finite(),
            "lsb must be positive and finite"
        );
        let power_of_two = lsb.is_normal() && lsb.to_bits() & ((1u64 << 52) - 1) == 0;
        EnergyQuantizer {
            bits,
            lsb,
            exact_reciprocal: power_of_two.then(|| 1.0 / lsb),
        }
    }

    /// Precision in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Energy units per code step.
    pub fn lsb(&self) -> f64 {
        self.lsb
    }

    /// Largest representable code, `2^bits − 1`.
    pub fn max_code(&self) -> u16 {
        ((1u32 << self.bits) - 1) as u16
    }

    /// Quantises one energy: `round(E / lsb)` (halves away from zero)
    /// clamped to `0 ..= max_code`. +inf and NaN saturate high (an
    /// impossible label); −inf and every negative energy give 0.
    ///
    /// Inline compares and a truncating cast instead of `f64::round`,
    /// which baseline x86-64 has no instruction for: this runs once per
    /// label per site.
    #[inline]
    pub fn quantize(&self, energy: f64) -> u16 {
        let x = match self.exact_reciprocal {
            Some(reciprocal) => energy * reciprocal,
            None => energy / self.lsb,
        };
        // NaN fails the compare and lands on the ceiling with +inf and
        // everything above it.
        let ceiling = f64::from(self.max_code());
        let x = if x < ceiling { x } else { ceiling };
        // The cast saturates: negatives, −0.0 and −inf truncate to 0 and
        // their fraction `x − 0` is below one half.
        let whole = x as u32;
        // Exact: `x − trunc(x)` is representable for every finite x.
        (whole + u32::from(x - whole as f64 >= 0.5)) as u16
    }

    /// Reconstructs the energy value a code represents.
    pub fn dequantize(&self, code: u16) -> f64 {
        code as f64 * self.lsb
    }

    /// Worst-case quantisation error in energy units (half an LSB, except
    /// at the clamp boundaries).
    pub fn max_error(&self) -> f64 {
        self.lsb / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_bit_range_is_0_to_255() {
        let q = EnergyQuantizer::new(8, 1.0);
        assert_eq!(q.max_code(), 255);
        assert_eq!(q.quantize(255.0), 255);
        assert_eq!(q.quantize(255.4), 255);
        assert_eq!(q.quantize(256.0), 255);
    }

    #[test]
    fn rounding_is_to_nearest() {
        let q = EnergyQuantizer::new(8, 1.0);
        assert_eq!(q.quantize(0.49), 0);
        assert_eq!(q.quantize(0.51), 1);
        // Errors never exceed half an LSB inside the range.
        for i in 0..1000 {
            let e = i as f64 * 0.2;
            if e <= 255.0 {
                assert!((q.dequantize(q.quantize(e)) - e).abs() <= q.max_error() + 1e-12);
            }
        }
    }

    #[test]
    fn lsb_rescales_the_range() {
        let q = EnergyQuantizer::new(8, 0.5);
        assert_eq!(q.quantize(1.0), 2);
        assert_eq!(q.quantize(127.5), 255);
        assert_eq!(q.quantize(200.0), 255);
        assert_eq!(q.dequantize(2), 1.0);
    }

    #[test]
    fn fewer_bits_coarsen_the_ceiling() {
        let q4 = EnergyQuantizer::new(4, 1.0);
        assert_eq!(q4.max_code(), 15);
        assert_eq!(q4.quantize(100.0), 15);
    }

    #[test]
    fn non_finite_energies_saturate() {
        let q = EnergyQuantizer::new(8, 1.0);
        assert_eq!(q.quantize(f64::INFINITY), 255);
        assert_eq!(q.quantize(f64::NEG_INFINITY), 0);
        assert_eq!(q.quantize(f64::NAN), 255);
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn rejects_zero_bits() {
        EnergyQuantizer::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "lsb")]
    fn rejects_bad_lsb() {
        EnergyQuantizer::new(8, 0.0);
    }
}
