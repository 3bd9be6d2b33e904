//! Multi-RSU shared optical resources (§IV-B6 of the paper).
//!
//! "Multiple RSU-Gs can share the same waveguide as long as each RET
//! network is not reused within the minimum interval time to reach 99.6%
//! probability of fluorescence... Multiple RET circuits from different
//! RSU-Gs can be placed on the same waveguide as long as the light source
//! provides sufficient intensity to drive all RET network replicas."
//!
//! This module models that sharing arrangement: a [`SharedWaveguide`]
//! couples one light source to the RET-network rows of several RSU-Gs
//! and schedules their observation windows so the per-network cooldown
//! constraint is honoured, tracking the intensity demand the light
//! source must meet.

use crate::circuit::{replicas_for_interference, INTERFERENCE_TARGET};
use crate::error::DeviceError;
use crate::network::{RetCalibration, RetNetwork};
use rand::Rng;

/// One light source + waveguide serving the same replica-row position of
/// several RSU-Gs.
///
/// Each subscriber contributes one row of 4 concentration networks; the
/// waveguide illuminates all of them whenever any subscriber samples, so
/// the light source must drive `subscribers × 4` networks (the intensity
/// budget the paper's layout discussion trades against amortised area).
///
/// # Example
///
/// ```
/// use ret_device::{RetCalibration, SharedWaveguide};
///
/// let cal = RetCalibration::paper_new_design();
/// let mut wg = SharedWaveguide::new(cal, 4)?; // 4 RSU-Gs share the guide
/// assert_eq!(wg.networks_driven(), 16);
/// assert_eq!(wg.min_reuse_windows(), 8, "the truncation-0.5 cooldown");
/// # Ok::<(), ret_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SharedWaveguide {
    cal: RetCalibration,
    /// One row (4 concentrations) per subscribing RSU-G.
    rows: Vec<[RetNetwork; 4]>,
    /// Absolute time (bins) at which each row's last window started.
    last_use: Vec<Option<f64>>,
    now_bins: f64,
    violations: u64,
    samples: u64,
}

impl SharedWaveguide {
    /// Creates a shared waveguide serving `subscribers` RSU-Gs.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidRate`] if `subscribers` is zero.
    pub fn new(cal: RetCalibration, subscribers: u32) -> Result<Self, DeviceError> {
        if subscribers == 0 {
            return Err(DeviceError::InvalidRate { value: 0.0 });
        }
        let rows = (0..subscribers)
            .map(|_| {
                crate::circuit::ROW_CONCENTRATIONS
                    .map(|c| RetNetwork::new(c).expect("fixed concentrations are valid"))
            })
            .collect::<Vec<_>>();
        let last_use = vec![None; rows.len()];
        Ok(SharedWaveguide {
            cal,
            rows,
            last_use,
            now_bins: 0.0,
            violations: 0,
            samples: 0,
        })
    }

    /// Number of subscribing RSU-Gs.
    pub fn subscribers(&self) -> u32 {
        self.rows.len() as u32
    }

    /// RET networks the light source must drive simultaneously
    /// (`subscribers × 4`).
    pub fn networks_driven(&self) -> u32 {
        self.subscribers() * 4
    }

    /// Required light-source intensity relative to a single-RSU QDLED
    /// (proportional to the networks driven).
    pub fn relative_intensity(&self) -> f64 {
        self.networks_driven() as f64 / 4.0
    }

    /// Minimum observation windows between reuses of the same row so the
    /// residual fire probability stays at the 99.6 % target.
    pub fn min_reuse_windows(&self) -> u32 {
        replicas_for_interference(self.cal.truncation(), INTERFERENCE_TARGET)
    }

    /// Whether subscriber `rsu` may start a window now without violating
    /// its cooldown.
    pub fn can_sample(&self, rsu: u32) -> bool {
        match self.last_use[rsu as usize] {
            None => true,
            Some(t) => {
                let elapsed = self.now_bins - t;
                elapsed >= self.min_reuse_windows() as f64 * self.cal.t_max_bins() as f64
            }
        }
    }

    /// Advances shared time by one observation window (one sampling slot
    /// on the guide).
    pub fn advance_window(&mut self) {
        self.now_bins += self.cal.t_max_bins() as f64;
    }

    /// Starts an observation window for subscriber `rsu` with decay-rate
    /// code `lambda_code` (0..=3). Returns the binned TTF, or `None` when
    /// censored.
    ///
    /// Sampling before the cooldown has elapsed is permitted (hardware
    /// cannot stop you) but counted in
    /// [`violations`](Self::cooldown_violations) and exposes the sample
    /// to bleed-through.
    ///
    /// # Panics
    ///
    /// Panics if `rsu` or `lambda_code` is out of range.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        rsu: u32,
        lambda_code: u8,
        rng: &mut R,
    ) -> Option<u32> {
        assert!((rsu as usize) < self.rows.len(), "subscriber out of range");
        assert!(lambda_code <= 3, "lambda code must be 0..=3");
        if !self.can_sample(rsu) {
            self.violations += 1;
        }
        self.samples += 1;
        let now = self.now_bins;
        self.last_use[rsu as usize] = Some(now);
        let net = &mut self.rows[rsu as usize][lambda_code as usize];
        net.relax(now);
        net.excite_and_observe(now, 1.0, self.cal, rng)
    }

    /// Cooldown violations observed so far.
    pub fn cooldown_violations(&self) -> u64 {
        self.violations
    }

    /// Samples issued so far.
    pub fn samples_issued(&self) -> u64 {
        self.samples
    }
}

/// Round-robin arbiter giving each of `n` subscribing RSU-Gs one window
/// slot in turn: with `n ≥` [`SharedWaveguide::min_reuse_windows`], every
/// row's cooldown is satisfied by construction — the paper's observation
/// that sharing *replaces* replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    subscribers: u32,
    next: u32,
}

impl RoundRobinArbiter {
    /// Creates the arbiter.
    ///
    /// # Panics
    ///
    /// Panics if `subscribers` is zero.
    pub fn new(subscribers: u32) -> Self {
        assert!(subscribers > 0, "need at least one subscriber");
        RoundRobinArbiter {
            subscribers,
            next: 0,
        }
    }

    /// The subscriber that owns the next window slot.
    pub fn grant(&mut self) -> u32 {
        let g = self.next;
        self.next = (self.next + 1) % self.subscribers;
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    #[test]
    fn intensity_scales_with_subscribers() {
        let cal = RetCalibration::paper_new_design();
        let wg1 = SharedWaveguide::new(cal, 1).unwrap();
        let wg8 = SharedWaveguide::new(cal, 8).unwrap();
        assert_eq!(wg1.relative_intensity(), 1.0);
        assert_eq!(wg8.relative_intensity(), 8.0);
        assert_eq!(wg8.networks_driven(), 32);
    }

    #[test]
    fn round_robin_with_enough_subscribers_never_violates_cooldown() {
        let cal = RetCalibration::paper_new_design();
        let subscribers = 8; // = min_reuse_windows at truncation 0.5
        let mut wg = SharedWaveguide::new(cal, subscribers).unwrap();
        assert_eq!(wg.min_reuse_windows(), 8);
        let mut arb = RoundRobinArbiter::new(subscribers);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for i in 0..10_000u32 {
            let rsu = arb.grant();
            assert!(wg.can_sample(rsu), "slot {i}: cooldown violated");
            wg.sample(rsu, (i % 4) as u8, &mut rng);
            wg.advance_window();
        }
        assert_eq!(wg.cooldown_violations(), 0);
    }

    #[test]
    fn too_few_subscribers_violate_cooldowns() {
        let cal = RetCalibration::paper_new_design();
        let mut wg = SharedWaveguide::new(cal, 2).unwrap();
        let mut arb = RoundRobinArbiter::new(2);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for i in 0..100u32 {
            let rsu = arb.grant();
            wg.sample(rsu, (i % 4) as u8, &mut rng);
            wg.advance_window();
        }
        assert!(
            wg.cooldown_violations() > 50,
            "2-way sharing at truncation 0.5 must violate"
        );
    }

    #[test]
    fn previous_design_truncation_allows_immediate_reuse() {
        let cal = RetCalibration::paper_previous_design();
        let mut wg = SharedWaveguide::new(cal, 1).unwrap();
        assert_eq!(wg.min_reuse_windows(), 1);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for i in 0..1000u32 {
            assert!(wg.can_sample(0));
            wg.sample(0, (i % 4) as u8, &mut rng);
            wg.advance_window();
        }
        assert_eq!(wg.cooldown_violations(), 0);
    }

    #[test]
    fn samples_stay_in_window() {
        let cal = RetCalibration::paper_new_design();
        let mut wg = SharedWaveguide::new(cal, 8).unwrap();
        let mut arb = RoundRobinArbiter::new(8);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        for i in 0..5_000u32 {
            if let Some(b) = wg.sample(arb.grant(), (i % 4) as u8, &mut rng) {
                assert!((1..=cal.t_max_bins()).contains(&b));
            }
            wg.advance_window();
        }
        assert_eq!(wg.samples_issued(), 5_000);
    }

    #[test]
    fn rejects_zero_subscribers() {
        assert!(SharedWaveguide::new(RetCalibration::paper_new_design(), 0).is_err());
    }

    #[test]
    #[should_panic(expected = "subscriber out of range")]
    fn out_of_range_subscriber_panics() {
        let mut wg = SharedWaveguide::new(RetCalibration::paper_new_design(), 2).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        wg.sample(2, 0, &mut rng);
    }
}
