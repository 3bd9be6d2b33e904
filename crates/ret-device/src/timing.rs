//! Shift-register time capture.
//!
//! §IV-B5 of the paper: "We use a clock multiplier and a shift register to
//! read the SPAD output... Assuming a 1GHz clock and an 8× multiplier, the
//! finest resolution is 125 ps for a time bin... The SPAD output is sent
//! to an 8-bit shift register to obtain a unary encoded value for the
//! sample, with all zeros indicating no photon observed in this 1 ns
//! cycle. This design provides Time_bits = 3 (8-bit unary = 3-bit
//! binary)... To increase timing precision, we extend the window for
//! observing fluorescence to more than one clock cycle. The number of
//! clock cycles required for a specific time precision is
//! `Cycles = 2^Time_bits / 8`."

use crate::error::DeviceError;

/// The timing circuit of one RET circuit: a clock multiplier plus an
/// 8-bit unary shift register per clock cycle, extended over several
/// cycles to reach the configured time precision.
///
/// # Example
///
/// ```
/// use ret_device::ShiftRegisterTimer;
///
/// // The paper's configuration: 1 GHz clock, 8x multiplier, Time_bits = 5.
/// let timer = ShiftRegisterTimer::new(1.0, 8, 5)?;
/// assert_eq!(timer.bin_duration_ps(), 125.0);
/// assert_eq!(timer.window_cycles(), 4); // 2^5 / 8
/// assert_eq!(timer.total_bins(), 32);
/// // A photon at 0.4 ns lands in bin 4 (1-based).
/// assert_eq!(timer.bin_of_ns(0.4), Some(4));
/// // Beyond the 4 ns window: censored.
/// assert_eq!(timer.bin_of_ns(4.2), None);
/// # Ok::<(), ret_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftRegisterTimer {
    clock_ghz: f64,
    multiplier: u32,
    time_bits: u32,
}

impl ShiftRegisterTimer {
    /// Creates a timer.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidRate`] if the clock is not positive,
    /// or [`DeviceError::InvalidTimeBits`] if `time_bits` is outside
    /// 1..=16 or the window would be shorter than one clock cycle
    /// (`2^time_bits < multiplier`).
    pub fn new(clock_ghz: f64, multiplier: u32, time_bits: u32) -> Result<Self, DeviceError> {
        if clock_ghz <= 0.0 || !clock_ghz.is_finite() {
            return Err(DeviceError::InvalidRate { value: clock_ghz });
        }
        if multiplier == 0 || !multiplier.is_power_of_two() {
            return Err(DeviceError::InvalidRate {
                value: multiplier as f64,
            });
        }
        if !(1..=16).contains(&time_bits) || (1u32 << time_bits) < multiplier {
            return Err(DeviceError::InvalidTimeBits { time_bits });
        }
        Ok(ShiftRegisterTimer {
            clock_ghz,
            multiplier,
            time_bits,
        })
    }

    /// The paper's design: 1 GHz, 8× multiplier, 5 time bits.
    pub fn paper_design() -> Self {
        ShiftRegisterTimer {
            clock_ghz: 1.0,
            multiplier: 8,
            time_bits: 5,
        }
    }

    /// Finest time resolution in picoseconds.
    pub fn bin_duration_ps(&self) -> f64 {
        1000.0 / (self.clock_ghz * self.multiplier as f64)
    }

    /// Bins captured per clock cycle (the shift-register width).
    pub fn bins_per_cycle(&self) -> u32 {
        self.multiplier
    }

    /// Total bins in the observation window, `2^time_bits`.
    pub fn total_bins(&self) -> u32 {
        1u32 << self.time_bits
    }

    /// Observation window length in clock cycles,
    /// `Cycles = 2^time_bits / multiplier` — the RET-circuit replica count
    /// needed to sustain one evaluation per cycle (§IV-B5).
    pub fn window_cycles(&self) -> u32 {
        self.total_bins() / self.multiplier
    }

    /// Window length in nanoseconds.
    pub fn window_ns(&self) -> f64 {
        self.total_bins() as f64 * self.bin_duration_ps() / 1000.0
    }

    /// Maps a photon arrival at `t_ns` from window start to its 1-based
    /// bin, or `None` if it falls outside the window. Arrivals exactly at
    /// a bin boundary belong to the earlier bin (the register has already
    /// latched).
    pub fn bin_of_ns(&self, t_ns: f64) -> Option<u32> {
        if t_ns < 0.0 {
            return None;
        }
        let bins = t_ns / (self.bin_duration_ps() / 1000.0);
        let bin = bins.ceil().max(1.0) as u32;
        (bin <= self.total_bins()).then_some(bin)
    }

    /// Decodes an `multiplier`-bit unary shift-register snapshot for one
    /// cycle into the bin offset of the first set bit (0-based within the
    /// cycle), or `None` for all-zeros ("no photon observed in this
    /// cycle").
    ///
    /// Bit 0 is the earliest bin of the cycle, matching a register that
    /// shifts the SPAD line in once per multiplied clock.
    pub fn decode_unary(&self, snapshot: u32) -> Option<u32> {
        let mask = if self.multiplier == 32 {
            u32::MAX
        } else {
            (1 << self.multiplier) - 1
        };
        let bits = snapshot & mask;
        (bits != 0).then(|| bits.trailing_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_numbers() {
        let t = ShiftRegisterTimer::paper_design();
        assert_eq!(t.bin_duration_ps(), 125.0);
        assert_eq!(t.window_cycles(), 4);
        assert_eq!(t.total_bins(), 32);
        assert_eq!(t.window_ns(), 4.0);
        assert_eq!(t.bins_per_cycle(), 8);
    }

    #[test]
    fn window_cycles_span_paper_range() {
        // §IV-B5: cycles range from 2 to 32 for 4 <= Time_bits <= 8.
        for (bits, cycles) in [(4u32, 2u32), (5, 4), (6, 8), (7, 16), (8, 32)] {
            let t = ShiftRegisterTimer::new(1.0, 8, bits).unwrap();
            assert_eq!(t.window_cycles(), cycles, "time_bits {bits}");
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(ShiftRegisterTimer::new(0.0, 8, 5).is_err());
        assert!(ShiftRegisterTimer::new(1.0, 0, 5).is_err());
        assert!(
            ShiftRegisterTimer::new(1.0, 3, 5).is_err(),
            "non-power-of-two multiplier"
        );
        assert!(ShiftRegisterTimer::new(1.0, 8, 0).is_err());
        assert!(ShiftRegisterTimer::new(1.0, 8, 17).is_err());
        assert!(
            ShiftRegisterTimer::new(1.0, 8, 2).is_err(),
            "window shorter than one cycle"
        );
    }

    #[test]
    fn binning_boundaries() {
        let t = ShiftRegisterTimer::paper_design();
        assert_eq!(t.bin_of_ns(0.0), Some(1), "instantaneous photon is bin 1");
        assert_eq!(
            t.bin_of_ns(0.125),
            Some(1),
            "boundary belongs to earlier bin"
        );
        assert_eq!(t.bin_of_ns(0.1251), Some(2));
        assert_eq!(t.bin_of_ns(4.0), Some(32));
        assert_eq!(t.bin_of_ns(4.0001), None);
        assert_eq!(t.bin_of_ns(-1.0), None);
    }

    #[test]
    fn unary_decode() {
        let t = ShiftRegisterTimer::paper_design();
        assert_eq!(t.decode_unary(0b0000_0000), None);
        assert_eq!(t.decode_unary(0b0000_0001), Some(0));
        assert_eq!(t.decode_unary(0b0001_0000), Some(4));
        assert_eq!(t.decode_unary(0b1000_0000), Some(7));
        // Multiple set bits (photon + afterpulse): first wins.
        assert_eq!(t.decode_unary(0b1001_0000), Some(4));
        // Bits beyond the register width are ignored.
        assert_eq!(t.decode_unary(0b1_0000_0000), None);
    }

    #[test]
    fn binning_agrees_with_unary_decode_per_cycle() {
        let t = ShiftRegisterTimer::paper_design();
        // A photon at 1.3 ns: cycle 1 (0-based), offset bin.
        let bin = t.bin_of_ns(1.3).unwrap();
        let cycle = (bin - 1) / t.bins_per_cycle();
        let offset = (bin - 1) % t.bins_per_cycle();
        assert_eq!(cycle, 1);
        let snapshot = 1u32 << offset;
        assert_eq!(t.decode_unary(snapshot), Some(offset));
    }
}
