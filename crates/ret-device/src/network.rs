//! RET networks: exponential time-to-fluorescence sources.

use crate::error::DeviceError;
use rand::Rng;
use sampling::Exponential;

/// Calibration shared by every RET network in an RSU-G: the time
/// resolution and the distribution truncation jointly pin the base decay
/// rate λ0 (§III-C3 of the paper).
///
/// * `time_bits` gives `t_max = 2^time_bits` time bins per detection
///   window.
/// * `truncation` is the probability that a λ0 sample falls beyond the
///   window: `Truncation = exp(−λ0 · t_max)`, so
///   `λ0 = −ln(Truncation) / t_max` (per bin).
///
/// # Example
///
/// ```
/// use ret_device::RetCalibration;
///
/// // The paper's chosen point: Time_bits = 5, Truncation = 0.5.
/// let cal = RetCalibration::new(5, 0.5)?;
/// assert_eq!(cal.t_max_bins(), 32);
/// let lambda0 = cal.lambda0_per_bin();
/// assert!(((-lambda0 * 32.0).exp() - 0.5).abs() < 1e-12);
/// # Ok::<(), ret_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetCalibration {
    time_bits: u32,
    truncation: f64,
}

impl RetCalibration {
    /// Creates a calibration.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidTimeBits`] unless
    /// `1 <= time_bits <= 16`, or [`DeviceError::InvalidTruncation`]
    /// unless `0 < truncation < 1`.
    pub fn new(time_bits: u32, truncation: f64) -> Result<Self, DeviceError> {
        if !(1..=16).contains(&time_bits) {
            return Err(DeviceError::InvalidTimeBits { time_bits });
        }
        if !(truncation > 0.0 && truncation < 1.0) {
            return Err(DeviceError::InvalidTruncation { truncation });
        }
        Ok(RetCalibration {
            time_bits,
            truncation,
        })
    }

    /// The paper's chosen design point: 5 time bits, truncation 0.5.
    pub fn paper_new_design() -> Self {
        RetCalibration {
            time_bits: 5,
            truncation: 0.5,
        }
    }

    /// The previous design's operating point as characterised in §III-C3:
    /// 5 time bits with a very low truncation of 0.004 (the 99.6 % sample
    /// coverage of Wang et al.).
    pub fn paper_previous_design() -> Self {
        RetCalibration {
            time_bits: 5,
            truncation: 0.004,
        }
    }

    /// Number of time bits.
    pub fn time_bits(&self) -> u32 {
        self.time_bits
    }

    /// Detection window length in bins, `t_max = 2^time_bits`.
    pub fn t_max_bins(&self) -> u32 {
        1u32 << self.time_bits
    }

    /// Truncated probability mass at λ0.
    pub fn truncation(&self) -> f64 {
        self.truncation
    }

    /// Base decay rate λ0 per time bin.
    pub fn lambda0_per_bin(&self) -> f64 {
        -self.truncation.ln() / self.t_max_bins() as f64
    }
}

/// Samples a binned TTF from an exponential with the given per-bin rate:
/// the idealised (stateless, interference-free) behaviour of one RET
/// network observed through `t_max_bins` time bins.
///
/// Returns the 1-based bin index of the photon, or `None` if the photon
/// falls outside the detection window ("rounded up to infinity").
/// Bin `b` covers continuous times `(b−1, b]`, i.e. binning is by
/// `ceil`, matching a shift register sampled at the end of each bin.
///
/// # Panics
///
/// Panics in debug builds if the rate is not positive or `t_max_bins`
/// is zero.
pub fn sample_binned_ttf<R: Rng + ?Sized>(
    rate_per_bin: f64,
    t_max_bins: u32,
    rng: &mut R,
) -> Option<u32> {
    debug_assert!(rate_per_bin > 0.0 && rate_per_bin.is_finite());
    debug_assert!(t_max_bins > 0);
    let t = Exponential::new(rate_per_bin)
        .expect("validated rate")
        .sample(rng);
    if t > t_max_bins as f64 {
        None
    } else {
        Some((t.ceil() as u32).max(1))
    }
}

/// One physical RET network: an ensemble with a molecular concentration
/// multiplier, stateful so that *bleed-through* is modelled.
///
/// When excited, the network schedules a fluorescence event at an
/// exponential TTF. If the event lands inside the observation window it
/// is the sample; if it lands beyond the window the excitation persists
/// ("the RET network may still have excited chromophores that fluoresce
/// at a later time", §IV-B6) and a later window on the same network can
/// observe this *unwanted* photon instead of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct RetNetwork {
    /// Concentration multiplier relative to the λ0 network (1, 2, 4, 8 in
    /// the new design).
    concentration: f64,
    /// Absolute time (bins) of a scheduled but not-yet-observed
    /// fluorescence event.
    pending_emission: Option<f64>,
}

impl RetNetwork {
    /// Creates a network with the given concentration multiplier.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidRate`] if the concentration is not
    /// positive and finite.
    pub fn new(concentration: f64) -> Result<Self, DeviceError> {
        if concentration <= 0.0 || !concentration.is_finite() {
            return Err(DeviceError::InvalidRate {
                value: concentration,
            });
        }
        Ok(RetNetwork {
            concentration,
            pending_emission: None,
        })
    }

    /// Concentration multiplier.
    pub fn concentration(&self) -> f64 {
        self.concentration
    }

    /// Whether an excitation from a previous window is still pending.
    pub fn has_pending(&self) -> bool {
        self.pending_emission.is_some()
    }

    /// Excites the network at absolute time `now` (bins) with the given
    /// intensity and calibration, then observes during
    /// `(now, now + t_max_bins]`.
    ///
    /// Returns the 1-based bin of the first observed photon — which may
    /// originate from a *previous* excitation that bled through — or
    /// `None` if nothing fires inside the window.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `intensity` is not positive.
    pub fn excite_and_observe<R: Rng + ?Sized>(
        &mut self,
        now: f64,
        intensity: f64,
        cal: RetCalibration,
        rng: &mut R,
    ) -> Option<u32> {
        debug_assert!(intensity > 0.0);
        // A pending emission scheduled before this window fired while
        // nobody was watching; it is gone, not waiting.
        self.relax(now);
        let rate = cal.lambda0_per_bin() * self.concentration * intensity;
        let ttf = Exponential::new(rate).expect("positive rate").sample(rng);
        let new_emission = now + ttf;
        // The earliest scheduled emission wins the detector.
        let candidate = match self.pending_emission {
            Some(old) if old < new_emission => old,
            _ => new_emission,
        };
        let window_end = now + cal.t_max_bins() as f64;
        if candidate <= window_end {
            // Observed: both the old (if it was the candidate) and the new
            // excitation are resolved — the SPAD sees one photon and the
            // remaining excitation decays during the observed window in
            // this behavioural model.
            self.pending_emission = None;
            let bin = (candidate - now).ceil().max(1.0) as u32;
            Some(bin.min(cal.t_max_bins()))
        } else {
            // Truncated: the earliest future emission stays pending.
            self.pending_emission = Some(candidate);
            None
        }
    }

    /// Lets the network relax: any pending emission scheduled before
    /// absolute time `now` is dropped (it fired while nobody watched).
    pub fn relax(&mut self, now: f64) {
        if let Some(t) = self.pending_emission {
            if t <= now {
                self.pending_emission = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sampling::{stats, Xoshiro256pp};

    #[test]
    fn calibration_rejects_bad_inputs() {
        assert!(RetCalibration::new(0, 0.5).is_err());
        assert!(RetCalibration::new(17, 0.5).is_err());
        assert!(RetCalibration::new(5, 0.0).is_err());
        assert!(RetCalibration::new(5, 1.0).is_err());
        assert!(RetCalibration::new(5, f64::NAN).is_err());
    }

    #[test]
    fn lambda0_reproduces_truncation() {
        for (bits, trunc) in [(5u32, 0.5f64), (5, 0.004), (8, 0.1), (3, 0.9)] {
            let cal = RetCalibration::new(bits, trunc).unwrap();
            let mass = (-cal.lambda0_per_bin() * cal.t_max_bins() as f64).exp();
            assert!((mass - trunc).abs() < 1e-12, "bits {bits} trunc {trunc}");
        }
    }

    #[test]
    fn paper_design_points() {
        let new = RetCalibration::paper_new_design();
        assert_eq!(new.t_max_bins(), 32);
        assert_eq!(new.truncation(), 0.5);
        let prev = RetCalibration::paper_previous_design();
        assert_eq!(prev.truncation(), 0.004);
    }

    #[test]
    fn binned_ttf_censoring_matches_truncation() {
        let cal = RetCalibration::paper_new_design();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 200_000;
        let censored = (0..n)
            .filter(|_| {
                sample_binned_ttf(cal.lambda0_per_bin(), cal.t_max_bins(), &mut rng).is_none()
            })
            .count();
        let observed = censored as f64 / n as f64;
        let sd = (0.5 * 0.5 / n as f64).sqrt();
        assert!((observed - 0.5).abs() < 5.0 * sd, "censor rate {observed}");
    }

    #[test]
    fn binned_ttf_bins_follow_geometric_law() {
        // P(bin = b) ∝ exp(−λ(b−1)) − exp(−λb): the discretised
        // exponential is geometric over bins.
        let rate = 0.15;
        let bins = 16u32;
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut counts = vec![0u64; bins as usize];
        let mut n_observed = 0u64;
        for _ in 0..300_000 {
            if let Some(b) = sample_binned_ttf(rate, bins, &mut rng) {
                counts[(b - 1) as usize] += 1;
                n_observed += 1;
            }
        }
        assert!(n_observed > 0);
        let norm: f64 = 1.0 - (-rate * bins as f64).exp();
        let probs: Vec<f64> = (0..bins)
            .map(|b| {
                let lo = (-(rate) * b as f64).exp();
                let hi = (-(rate) * (b + 1) as f64).exp();
                (lo - hi) / norm
            })
            .collect();
        let p = stats::chi_square_pvalue_uniformish(&counts, &probs);
        assert!(p > 1e-4, "chi-square p {p}");
    }

    #[test]
    fn network_rejects_bad_concentration() {
        assert!(RetNetwork::new(0.0).is_err());
        assert!(RetNetwork::new(-1.0).is_err());
        assert!(RetNetwork::new(f64::INFINITY).is_err());
    }

    #[test]
    fn higher_concentration_fires_earlier_on_average() {
        let cal = RetCalibration::paper_new_design();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mean_bin = |conc: f64, rng: &mut Xoshiro256pp| {
            let mut net = RetNetwork::new(conc).unwrap();
            let mut sum = 0.0;
            let mut count = 0u32;
            for i in 0..20_000 {
                let now = (i * 1000) as f64; // far apart: no interference
                net.relax(now);
                if let Some(b) = net.excite_and_observe(now, 1.0, cal, rng) {
                    sum += b as f64;
                    count += 1;
                }
            }
            sum / count as f64
        };
        let m1 = mean_bin(1.0, &mut rng);
        let m8 = mean_bin(8.0, &mut rng);
        assert!(m8 < m1 / 2.0, "8x concentration mean bin {m8} vs 1x {m1}");
    }

    #[test]
    fn truncated_excitation_bleeds_into_next_window() {
        // With a very low rate, almost every window truncates; immediate
        // reuse should frequently observe the *previous* excitation.
        let cal = RetCalibration::new(5, 0.9).unwrap(); // high truncation
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut net = RetNetwork::new(1.0).unwrap();
        let mut bled = 0u32;
        let mut trials = 0u32;
        let mut now = 0.0;
        for _ in 0..10_000 {
            let first = net.excite_and_observe(now, 1.0, cal, &mut rng);
            now += cal.t_max_bins() as f64;
            if first.is_none() && net.has_pending() {
                // Immediate reuse in the very next window.
                trials += 1;
                let had_pending_before = net.has_pending();
                let second = net.excite_and_observe(now, 1.0, cal, &mut rng);
                now += cal.t_max_bins() as f64;
                if had_pending_before && second.is_some() {
                    bled += 1;
                }
            }
        }
        assert!(trials > 100, "expected many truncated windows");
        // The pending emission is conditionally still exponential, so a
        // substantial fraction must fire in the next window.
        assert!(bled > trials / 20, "bleed-through {bled}/{trials} too rare");
    }

    #[test]
    fn relax_clears_stale_pending() {
        let cal = RetCalibration::new(5, 0.9).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let mut net = RetNetwork::new(1.0).unwrap();
        let mut saw_pending = false;
        let mut now = 0.0;
        for _ in 0..1000 {
            if net.excite_and_observe(now, 1.0, cal, &mut rng).is_none() {
                saw_pending = net.has_pending();
                // A long cooldown clears it.
                net.relax(now + 1e9);
                assert!(!net.has_pending());
                break;
            }
            now += cal.t_max_bins() as f64;
        }
        assert!(
            saw_pending,
            "never saw a truncated window at truncation 0.9"
        );
    }

    #[test]
    fn observed_bins_never_exceed_window() {
        let cal = RetCalibration::new(4, 0.3).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let mut net = RetNetwork::new(2.0).unwrap();
        let mut now = 0.0;
        for _ in 0..50_000 {
            if let Some(b) = net.excite_and_observe(now, 1.0, cal, &mut rng) {
                assert!((1..=cal.t_max_bins()).contains(&b));
            }
            now += cal.t_max_bins() as f64;
        }
    }
}
