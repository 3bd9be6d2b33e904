//! Deterministic device-fault injection for RSU-G arrays.
//!
//! Molecular optical hardware fails in device-specific ways: a SPAD can
//! go dark (no photon is ever detected, so every TTF race censors), a
//! RET network's chromophores photobleach (§IV-D — the emission rate
//! derates exponentially with exposure), and a unit's output register
//! can get stuck. This module describes *when* and *how* units fail —
//! as a pure function of the fault plan and the sweep index — so that
//! an injected run is exactly as deterministic, thread-invariant and
//! checkpoint/resumable as a healthy one. [`crate::RsuArray`] consumes
//! a [`FaultPlan`] and degrades gracefully: bleached units keep working
//! at a derated emission rate, while dead or stuck units have their
//! sites served by a healthy stand-in unit or by the software Gibbs
//! kernel, per the plan's [`DegradePolicy`].

use mrf::parallel::band_rows;
use ret_device::BleachingModel;
use sampling::SplitMix64;

/// How a single RSU-G unit fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The unit's single-photon avalanche diode goes dark: no label's
    /// RET network can ever win the TTF race, so the unit is unusable
    /// and its sites must be served elsewhere.
    DeadSpad,
    /// The unit's RET networks photobleach from the activation sweep
    /// onward: the emission rate derates as
    /// `exp(-sweeps_since_onset / lifetime_sweeps)` (the
    /// [`BleachingModel`] law with one exposure per sweep). The unit
    /// keeps sampling in place, just with a slower race.
    Bleached {
        /// Mean sweeps before a chromophore bleaches; must be positive
        /// and finite.
        lifetime_sweeps: f64,
    },
    /// The unit's output register is stuck: it reports the same label
    /// regardless of the race, which is useless for sampling, so the
    /// unit is retired and its sites served elsewhere.
    Stuck,
}

impl FaultKind {
    /// Stable identifier used in trace records (`"dead-spad"`,
    /// `"bleached"`, `"stuck"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::DeadSpad => "dead-spad",
            FaultKind::Bleached { .. } => "bleached",
            FaultKind::Stuck => "stuck",
        }
    }

    /// Whether the fault retires the unit entirely (dead SPAD, stuck
    /// register) rather than merely degrading it (bleaching).
    pub fn disables_unit(&self) -> bool {
        matches!(self, FaultKind::DeadSpad | FaultKind::Stuck)
    }
}

/// One fault scheduled against one unit at one sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Index of the failing unit within the array.
    pub unit: usize,
    /// Sweep index at which the fault takes effect (the fault affects
    /// that sweep and every later one).
    pub sweep: u64,
    /// Failure mode.
    pub kind: FaultKind,
}

impl ScheduledFault {
    /// Whether the fault is in effect during `iteration`.
    pub fn active_at(&self, iteration: u64) -> bool {
        iteration >= self.sweep
    }

    /// Emission-rate derating of the faulted unit during `iteration`:
    /// 1.0 unless the fault is an active bleach, in which case the
    /// [`BleachingModel`] live fraction after
    /// `iteration - sweep + 1` exposures (one per sweep, counting the
    /// activation sweep itself).
    ///
    /// A pure function of `(self, iteration)`, so a resumed run derates
    /// identically to an uninterrupted one. Clamped away from zero (at
    /// `f64::MIN_POSITIVE`) so the TTF race stays well-defined even
    /// after the exponential has underflowed — a fully bleached network
    /// then almost never fires within the race window, which is the
    /// physical behaviour.
    pub fn derating_at(&self, iteration: u64) -> f64 {
        match self.kind {
            FaultKind::Bleached { lifetime_sweeps } if self.active_at(iteration) => {
                let mut model = BleachingModel::new(lifetime_sweeps)
                    .expect("FaultPlan validated the bleach lifetime");
                model.expose(iteration - self.sweep + 1);
                model.rate_derating().max(f64::MIN_POSITIVE)
            }
            _ => 1.0,
        }
    }
}

/// What the array does with the sites of a retired unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Reassign the unit's sites to healthy spare capacity: a stand-in
    /// unit with the same design point serves them, and the nearest
    /// healthy unit (cyclically, by index) absorbs the extra load in
    /// the cycle accounting. Falls back to the software kernel if no
    /// healthy unit remains.
    RemapToHealthy,
    /// Hand the unit's sites to the host's software Gibbs kernel. The
    /// chain is unchanged in structure but those sites cost host time
    /// rather than unit cycles.
    SoftwareFallback,
}

/// A deterministic schedule of unit faults plus the degradation policy.
///
/// At most one fault per unit; faults never heal. Everything the array
/// derives from a plan — which units are retired, remap targets, bleach
/// deratings, activation events — is a pure function of
/// `(plan, iteration)`, which is what makes fault-injected runs
/// thread-invariant and resume-safe.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    policy: DegradePolicy,
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Creates an empty plan with the given degradation policy.
    pub fn new(policy: DegradePolicy) -> Self {
        FaultPlan {
            policy,
            faults: Vec::new(),
        }
    }

    /// Adds a fault (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the unit already has a fault, or if a bleach lifetime
    /// is not positive and finite.
    pub fn with_fault(mut self, fault: ScheduledFault) -> Self {
        if let FaultKind::Bleached { lifetime_sweeps } = fault.kind {
            assert!(
                lifetime_sweeps > 0.0 && lifetime_sweeps.is_finite(),
                "bleach lifetime must be positive and finite, got {lifetime_sweeps}"
            );
        }
        assert!(
            self.fault_for_unit(fault.unit).is_none(),
            "unit {} already has a fault",
            fault.unit
        );
        self.faults.push(fault);
        self
    }

    /// Generates a seed-driven plan: `count` distinct units out of
    /// `units` fail at uniform sweeps in `0..sweeps`, each with one of
    /// the three fault kinds (bleaches get lifetimes of 4–64 sweeps).
    /// Fully determined by `seed` — the driver records only the seed
    /// and the counts, and any process regenerates the identical plan.
    ///
    /// Every bounded draw uses [`SplitMix64::next_below`] (Lemire's
    /// widening multiply with rejection), not `next() % n`: the modulo
    /// map is biased toward small values for every non-power-of-two
    /// modulus, which would tilt unit selection, fault sweeps and
    /// bleach lifetimes — the very RNG-quality sin the paper's Table IV
    /// baselines are there to measure. The rejection loop keeps the
    /// plan a pure function of `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `count > units` or `sweeps` is zero.
    pub fn random(
        seed: u64,
        units: usize,
        sweeps: u64,
        count: usize,
        policy: DegradePolicy,
    ) -> Self {
        assert!(count <= units, "cannot fail {count} of {units} units");
        assert!(sweeps > 0, "need at least one sweep");
        let mut rng = SplitMix64::new(seed);
        // Partial Fisher–Yates over the unit indices: the first `count`
        // entries are a uniform distinct sample.
        let mut indices: Vec<usize> = (0..units).collect();
        let mut plan = FaultPlan::new(policy);
        for i in 0..count {
            let j = i + rng.next_below((units - i) as u64) as usize;
            indices.swap(i, j);
            let unit = indices[i];
            let sweep = rng.next_below(sweeps);
            let kind = match rng.next_below(3) {
                0 => FaultKind::DeadSpad,
                1 => FaultKind::Bleached {
                    lifetime_sweeps: 4.0 + rng.next_below(61) as f64,
                },
                _ => FaultKind::Stuck,
            };
            plan = plan.with_fault(ScheduledFault { unit, sweep, kind });
        }
        plan
    }

    /// The degradation policy for retired units.
    pub fn policy(&self) -> DegradePolicy {
        self.policy
    }

    /// All scheduled faults, in insertion order.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault scheduled against `unit`, active or not.
    pub fn fault_for_unit(&self, unit: usize) -> Option<&ScheduledFault> {
        self.faults.iter().find(|f| f.unit == unit)
    }

    /// Whether `unit` is retired (dead SPAD or stuck) during
    /// `iteration`.
    pub fn unit_disabled(&self, unit: usize, iteration: u64) -> bool {
        self.fault_for_unit(unit)
            .is_some_and(|f| f.kind.disables_unit() && f.active_at(iteration))
    }

    /// The nearest healthy unit (cyclically, by index) that can absorb
    /// a retired `unit`'s load during `iteration`, or `None` if every
    /// other unit is also retired.
    pub fn remap_target(&self, unit: usize, units: usize, iteration: u64) -> Option<usize> {
        (1..units)
            .map(|d| (unit + d) % units)
            .find(|&u| !self.unit_disabled(u, iteration))
    }

    /// How `unit`'s band is served during `iteration`, in an array of
    /// `units` units: in place unless the unit is retired, then per the
    /// policy by a stand-in charged to the remap target, or by the host.
    pub(crate) fn service(&self, unit: usize, units: usize, iteration: u64) -> UnitService {
        if !self.unit_disabled(unit, iteration) {
            return UnitService::InPlace;
        }
        let target = match self.policy {
            DegradePolicy::RemapToHealthy => self.remap_target(unit, units, iteration),
            DegradePolicy::SoftwareFallback => None,
        };
        match target {
            Some(target) => UnitService::Remapped { target },
            // Every unit retired: only the host can keep the chain going.
            None => UnitService::Software,
        }
    }

    /// Faults whose activation sweep is exactly `iteration` — the ones
    /// an observer should be told about during that sweep.
    pub fn activations_at(&self, iteration: u64) -> impl Iterator<Item = &ScheduledFault> {
        self.faults.iter().filter(move |f| f.sweep == iteration)
    }

    /// Analytically replays the band-mapped degradation of a
    /// [`crate::RsuArray`] over sweeps `0..sweeps` of a `width × height`
    /// checkerboard chain, without running the chain.
    ///
    /// Because which unit serves which band is a pure function of
    /// `(plan, iteration)` and the band geometry, the load accounting
    /// is too: the result is bit-identical to the
    /// [`DegradationReport`] the array accumulates while actually
    /// sampling (the tests pin this). That makes it a cheap resume-safe
    /// artifact source: a driver resuming mid-run can reconstruct the
    /// full report from the plan alone.
    pub fn predicted_degradation(
        &self,
        units: usize,
        width: usize,
        height: usize,
        sweeps: u64,
    ) -> DegradationReport {
        // The band geometry is sweep-invariant: hoist each band's
        // per-parity site count out of the sweep loop.
        let band_sites = band_site_table(units, width, height);
        let mut report = DegradationReport::new(units);
        for iteration in 0..sweeps {
            self.accumulate_sweep(&mut report, &band_sites, units, iteration);
        }
        report
    }

    /// Like [`predicted_degradation`](Self::predicted_degradation), for
    /// the single sweep `iteration` — what a cost model needs to price
    /// each sweep's critical path, since the per-sweep service table
    /// changes as faults activate.
    pub fn sweep_degradation(
        &self,
        units: usize,
        width: usize,
        height: usize,
        iteration: u64,
    ) -> DegradationReport {
        let band_sites = band_site_table(units, width, height);
        let mut report = DegradationReport::new(units);
        self.accumulate_sweep(&mut report, &band_sites, units, iteration);
        report
    }

    /// Folds one sweep's band-mapped service into `report`.
    fn accumulate_sweep(
        &self,
        report: &mut DegradationReport,
        band_sites: &[Vec<u64>; 2],
        units: usize,
        iteration: u64,
    ) {
        for sites in band_sites {
            for (band, &count) in sites.iter().enumerate() {
                match self.service(band, units, iteration) {
                    UnitService::InPlace => report.unit_sites[band] += count,
                    UnitService::Remapped { target } => {
                        report.unit_sites[target] += count;
                        report.remapped_sites += count;
                    }
                    UnitService::Software => report.software_sites += count,
                }
            }
        }
        report.sweeps += 1;
    }
}

/// How one unit's band is served during one sweep
/// ([`FaultPlan::service`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitService {
    /// The unit itself serves its band (healthy, or bleached and
    /// derated in place).
    InPlace,
    /// Retired; a stand-in serves the band and healthy unit `target`
    /// absorbs the load.
    Remapped { target: usize },
    /// Retired; the host's software Gibbs kernel serves the band
    /// (costing host time, not unit cycles).
    Software,
}

/// Per-(parity, band) site counts of the checkerboard band geometry an
/// [`crate::RsuArray`] runs on: unit `i` serves band `i`.
fn band_site_table(units: usize, width: usize, height: usize) -> [Vec<u64>; 2] {
    let bands = units.min(height.max(1));
    let mut band_sites = [vec![0u64; bands], vec![0u64; bands]];
    for (parity, sites) in band_sites.iter_mut().enumerate() {
        for (band, count) in sites.iter_mut().enumerate() {
            for y in band_rows(height, bands, band) {
                // Sites x in 0..width with (x + y) % 2 == parity.
                let offset = (parity + y) % 2;
                *count += ((width + 1 - offset) / 2) as u64;
            }
        }
    }
    band_sites
}

/// Cumulative load accounting of a degraded array: who actually served
/// the sites.
///
/// Accumulated per sweep by [`crate::RsuArray`] while a [`FaultPlan`] is
/// installed, and computable analytically from the plan alone via
/// [`FaultPlan::predicted_degradation`] (the two agree exactly —
/// degradation is a pure function of `(plan, iteration)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationReport {
    /// Sites served by each unit, including load absorbed from retired
    /// units under [`DegradePolicy::RemapToHealthy`] (indexed by
    /// absorbing unit).
    pub unit_sites: Vec<u64>,
    /// Of the unit-served sites, how many belonged to a retired unit
    /// and were absorbed by a remap target.
    pub remapped_sites: u64,
    /// Sites served by the host's software Gibbs kernel (the
    /// [`DegradePolicy::SoftwareFallback`] path, or
    /// [`DegradePolicy::RemapToHealthy`] with no healthy unit left).
    pub software_sites: u64,
    /// Sweeps accounted.
    pub sweeps: u64,
}

impl DegradationReport {
    /// An empty report for an array of `units` units.
    pub fn new(units: usize) -> Self {
        DegradationReport {
            unit_sites: vec![0; units],
            remapped_sites: 0,
            software_sites: 0,
            sweeps: 0,
        }
    }

    /// Total sites served, by units and host together.
    pub fn total_sites(&self) -> u64 {
        self.unit_sites.iter().sum::<u64>() + self.software_sites
    }

    /// Sites served by the busiest unit — with
    /// [`DegradePolicy::RemapToHealthy`] this is what stretches the
    /// per-sweep critical path.
    pub fn busiest_unit_sites(&self) -> u64 {
        self.unit_sites.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of all served sites handled by the software fallback
    /// (0 when nothing was served).
    pub fn software_fraction(&self) -> f64 {
        let total = self.total_sites();
        if total == 0 {
            return 0.0;
        }
        self.software_sites as f64 / total as f64
    }

    /// Folds another report (e.g. a later chunk of the same run) into
    /// this one.
    ///
    /// # Panics
    ///
    /// Panics if the unit counts differ.
    pub fn merge(&mut self, other: &DegradationReport) {
        assert_eq!(
            self.unit_sites.len(),
            other.unit_sites.len(),
            "unit count mismatch"
        );
        for (acc, s) in self.unit_sites.iter_mut().zip(&other.unit_sites) {
            *acc += s;
        }
        self.remapped_sites += other.remapped_sites;
        self.software_sites += other.software_sites;
        self.sweeps += other.sweeps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_activate_at_their_sweep_and_never_heal() {
        let f = ScheduledFault {
            unit: 2,
            sweep: 5,
            kind: FaultKind::DeadSpad,
        };
        assert!(!f.active_at(4));
        assert!(f.active_at(5));
        assert!(f.active_at(u64::MAX));
    }

    #[test]
    fn bleach_derating_follows_the_bleaching_model() {
        let f = ScheduledFault {
            unit: 0,
            sweep: 10,
            kind: FaultKind::Bleached {
                lifetime_sweeps: 8.0,
            },
        };
        assert_eq!(f.derating_at(9), 1.0, "inactive bleach does not derate");
        // One exposure at the activation sweep, k+1 after k more sweeps.
        assert!((f.derating_at(10) - (-1.0f64 / 8.0).exp()).abs() < 1e-12);
        assert!((f.derating_at(17) - (-1.0f64).exp()).abs() < 1e-12);
        // Pure function: recomputing mid-history matches (resume safety).
        assert_eq!(f.derating_at(13), f.derating_at(13));
    }

    #[test]
    fn hard_faults_derate_nothing() {
        for kind in [FaultKind::DeadSpad, FaultKind::Stuck] {
            let f = ScheduledFault {
                unit: 0,
                sweep: 0,
                kind,
            };
            assert_eq!(f.derating_at(100), 1.0);
        }
    }

    #[test]
    fn remap_target_skips_retired_units() {
        let plan = FaultPlan::new(DegradePolicy::RemapToHealthy)
            .with_fault(ScheduledFault {
                unit: 1,
                sweep: 0,
                kind: FaultKind::DeadSpad,
            })
            .with_fault(ScheduledFault {
                unit: 2,
                sweep: 0,
                kind: FaultKind::Stuck,
            });
        // Unit 1's load skips retired unit 2 and lands on unit 3.
        assert_eq!(plan.remap_target(1, 4, 0), Some(3));
        assert!(plan.unit_disabled(1, 0));
        assert!(!plan.unit_disabled(3, 0));
    }

    #[test]
    fn remap_target_is_none_when_no_unit_is_healthy() {
        let plan = FaultPlan::new(DegradePolicy::RemapToHealthy)
            .with_fault(ScheduledFault {
                unit: 0,
                sweep: 0,
                kind: FaultKind::DeadSpad,
            })
            .with_fault(ScheduledFault {
                unit: 1,
                sweep: 0,
                kind: FaultKind::Stuck,
            });
        assert_eq!(plan.remap_target(0, 2, 0), None);
    }

    #[test]
    fn bleached_units_are_not_retired() {
        let plan = FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(ScheduledFault {
            unit: 0,
            sweep: 0,
            kind: FaultKind::Bleached {
                lifetime_sweeps: 16.0,
            },
        });
        assert!(!plan.unit_disabled(0, 100));
    }

    #[test]
    fn activations_fire_exactly_once() {
        let plan = FaultPlan::new(DegradePolicy::SoftwareFallback)
            .with_fault(ScheduledFault {
                unit: 0,
                sweep: 3,
                kind: FaultKind::DeadSpad,
            })
            .with_fault(ScheduledFault {
                unit: 1,
                sweep: 7,
                kind: FaultKind::Stuck,
            });
        assert_eq!(plan.activations_at(3).count(), 1);
        assert_eq!(plan.activations_at(7).count(), 1);
        assert_eq!(plan.activations_at(4).count(), 0);
    }

    #[test]
    fn random_plans_are_reproducible_and_distinct_per_seed() {
        let a = FaultPlan::random(42, 16, 100, 5, DegradePolicy::RemapToHealthy);
        let b = FaultPlan::random(42, 16, 100, 5, DegradePolicy::RemapToHealthy);
        let c = FaultPlan::random(43, 16, 100, 5, DegradePolicy::RemapToHealthy);
        assert_eq!(a, b, "same seed must regenerate the identical plan");
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.faults().len(), 5);
        // Distinct units.
        let mut units: Vec<usize> = a.faults().iter().map(|f| f.unit).collect();
        units.sort_unstable();
        units.dedup();
        assert_eq!(units.len(), 5);
        for f in a.faults() {
            assert!(f.unit < 16);
            assert!(f.sweep < 100);
        }
    }

    #[test]
    fn random_plan_can_fail_every_unit() {
        let plan = FaultPlan::random(7, 4, 10, 4, DegradePolicy::SoftwareFallback);
        assert_eq!(plan.faults().len(), 4);
    }

    #[test]
    #[should_panic(expected = "already has a fault")]
    fn duplicate_unit_faults_rejected() {
        let _ = FaultPlan::new(DegradePolicy::RemapToHealthy)
            .with_fault(ScheduledFault {
                unit: 0,
                sweep: 0,
                kind: FaultKind::DeadSpad,
            })
            .with_fault(ScheduledFault {
                unit: 0,
                sweep: 5,
                kind: FaultKind::Stuck,
            });
    }

    #[test]
    #[should_panic(expected = "bleach lifetime")]
    fn invalid_bleach_lifetime_rejected() {
        let _ = FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(ScheduledFault {
            unit: 0,
            sweep: 0,
            kind: FaultKind::Bleached {
                lifetime_sweeps: 0.0,
            },
        });
    }
}
