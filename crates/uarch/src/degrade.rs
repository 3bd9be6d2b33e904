//! Pricing degraded RSU-G arrays: what a fault plan costs in time and
//! energy.
//!
//! The paper's hardware evaluation prices *healthy* arrays only. This
//! module extends the cost model to arrays running under a
//! [`FaultPlan`], so degraded configurations are comparable to healthy
//! ones on the same axes:
//!
//! * [`DegradePolicy::RemapToHealthy`] — a retired unit's band is
//!   absorbed by the nearest healthy unit, which then serves two (or
//!   more) bands serially: the per-sweep critical path stretches to the
//!   busiest unit's load. Work stays on the array, so unit energy is
//!   conserved; only latency suffers.
//! * [`DegradePolicy::SoftwareFallback`] — a retired unit's sites are
//!   served by the host's software Gibbs kernel at the Table II
//!   calibrated per-site update time ([`perf::software_update_time_s`]),
//!   overlapping the array. Latency suffers once the host becomes the
//!   critical path, and every host-served site is charged host power,
//!   which is orders of magnitude more energy per site than an RSU-G.
//!
//! Both predictions are pure functions of `(plan, sweep index)` — the
//! same contract that makes degraded chains deterministic in `rsu` —
//! so they agree with what a real degraded run would measure and can be
//! regenerated from a plan seed alone.

use crate::explore::DesignPoint;
use crate::{designs, explore, perf};
use rsu::{DegradePolicy, FaultPlan};

/// Nominal host power charged while the software fallback serves sites,
/// in mW (50 W — a conservative CPU/GPU package budget; the paper's
/// Table II baseline machine is of this class). The exact figure only
/// scales the energy penalty of [`DegradePolicy::SoftwareFallback`];
/// every sensible value leaves host-served sites costing orders of
/// magnitude more energy than RSU-served ones.
pub const HOST_POWER_MW: f64 = 50_000.0;

/// Unit clock of the paper's accelerator (1 GHz).
pub const CLOCK_HZ: f64 = 1.0e9;

/// Cost model for one degraded array configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeModel {
    /// Units in the array.
    pub units: usize,
    /// Chain width in sites.
    pub width: usize,
    /// Chain height in sites.
    pub height: usize,
    /// Candidate labels per site (`M`).
    pub labels: u32,
    /// Unit clock in Hz.
    pub clock_hz: f64,
    /// Per-unit power in mW while evaluating labels.
    pub unit_power_mw: f64,
    /// Host time per software-served site update, seconds.
    pub host_update_s: f64,
    /// Host power in mW while the fallback is serving sites.
    pub host_power_mw: f64,
}

impl DegradeModel {
    /// Model with the paper's calibration: Table III new-design unit
    /// power, 1 GHz clock, Table II software update time.
    pub fn paper(units: usize, width: usize, height: usize, labels: u32) -> Self {
        DegradeModel {
            units,
            width,
            height,
            labels,
            clock_hz: CLOCK_HZ,
            unit_power_mw: designs::new_rsu_total().power_mw,
            host_update_s: perf::software_update_time_s(labels),
            host_power_mw: HOST_POWER_MW,
        }
    }

    /// Like [`paper`](Self::paper), with the unit's sampling hardware
    /// swapped for `point`'s: the unit power is the new design's total
    /// minus its paper-point sampling portion plus the candidate
    /// point's. This is what lets `design_frontier` price degradation
    /// per design point.
    pub fn for_point(
        point: &DesignPoint,
        units: usize,
        width: usize,
        height: usize,
        labels: u32,
    ) -> Self {
        let paper_sampling = explore::sampling_cost(5, 0.5).power_mw;
        let rest = (designs::new_rsu_total().power_mw - paper_sampling).max(0.0);
        DegradeModel {
            unit_power_mw: rest + point.sampling_cost.power_mw,
            ..Self::paper(units, width, height, labels)
        }
    }

    /// Prices one sweep under `plan` at `iteration`.
    pub fn sweep_cost(&self, plan: &FaultPlan, iteration: u64) -> SweepCost {
        let report = plan.sweep_degradation(self.units, self.width, self.height, iteration);
        let unit_sites: u64 = report.unit_sites.iter().sum();
        // Critical path through the busiest unit, one cycle per
        // candidate label per site; host-served sites overlap the array
        // and pace the sweep only when the host is slower.
        let unit_time_s = report.busiest_unit_sites() as f64 * self.labels as f64 / self.clock_hz;
        let host_time_s = report.software_sites as f64 * self.host_update_s;
        // Energy: aggregate busy time per consumer, not critical path —
        // idle units are assumed power-gated.
        let unit_busy_s = unit_sites as f64 * self.labels as f64 / self.clock_hz;
        SweepCost {
            time_s: unit_time_s.max(host_time_s),
            unit_time_s,
            host_time_s,
            unit_energy_mj: self.unit_power_mw * unit_busy_s,
            host_energy_mj: self.host_power_mw * host_time_s,
            unit_sites,
            software_sites: report.software_sites,
            remapped_sites: report.remapped_sites,
        }
    }

    /// Prices a whole run: per-sweep costs summed over `0..sweeps`
    /// (faults activate over time, so sweeps are not interchangeable).
    pub fn run_cost(&self, plan: &FaultPlan, sweeps: u64) -> RunCost {
        let mut total = RunCost::default();
        for iteration in 0..sweeps {
            total.add(&self.sweep_cost(plan, iteration));
        }
        total
    }

    /// The healthy baseline: the same array with no faults installed.
    pub fn healthy_run_cost(&self, sweeps: u64) -> RunCost {
        self.run_cost(&FaultPlan::new(DegradePolicy::RemapToHealthy), sweeps)
    }
}

/// Cost of one degraded sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCost {
    /// Wall-clock seconds: the slower of array and host.
    pub time_s: f64,
    /// Array critical path, seconds.
    pub unit_time_s: f64,
    /// Host fallback time, seconds.
    pub host_time_s: f64,
    /// Energy spent by busy units, mJ.
    pub unit_energy_mj: f64,
    /// Energy spent by the host fallback, mJ.
    pub host_energy_mj: f64,
    /// Sites served on the array.
    pub unit_sites: u64,
    /// Sites served by the host.
    pub software_sites: u64,
    /// Sites absorbed by remap targets.
    pub remapped_sites: u64,
}

/// Accumulated cost of a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunCost {
    /// Wall-clock seconds over all sweeps.
    pub time_s: f64,
    /// Total energy, mJ (units + host).
    pub energy_mj: f64,
    /// Of which host energy, mJ.
    pub host_energy_mj: f64,
    /// Sites served on the array.
    pub unit_sites: u64,
    /// Sites served by the host.
    pub software_sites: u64,
    /// Sites absorbed by remap targets.
    pub remapped_sites: u64,
}

impl RunCost {
    fn add(&mut self, sweep: &SweepCost) {
        self.time_s += sweep.time_s;
        self.energy_mj += sweep.unit_energy_mj + sweep.host_energy_mj;
        self.host_energy_mj += sweep.host_energy_mj;
        self.unit_sites += sweep.unit_sites;
        self.software_sites += sweep.software_sites;
        self.remapped_sites += sweep.remapped_sites;
    }

    /// Fraction of all served sites handled by the host.
    pub fn software_fraction(&self) -> f64 {
        let total = self.unit_sites + self.software_sites;
        if total == 0 {
            return 0.0;
        }
        self.software_sites as f64 / total as f64
    }
}

/// A healthy [`DesignPoint`] extended with the cost of running it
/// degraded — what `design_frontier --degraded` emits alongside the
/// healthy frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedDesignPoint {
    /// The underlying healthy design point.
    pub point: DesignPoint,
    /// Degradation policy priced.
    pub policy: DegradePolicy,
    /// Units that fail during the run.
    pub failed_units: usize,
    /// Seed of the [`FaultPlan::random`] plan priced.
    pub fault_seed: u64,
    /// Degraded wall-clock over healthy wall-clock (≥ 1).
    pub slowdown: f64,
    /// Degraded energy over healthy energy.
    pub energy_ratio: f64,
    /// Fraction of sites served by the host fallback.
    pub software_fraction: f64,
}

/// Workload shape and fault grid for a [`degraded_design_points`] study.
#[derive(Debug, Clone, Copy)]
pub struct DegradedStudySpec<'a> {
    /// RSU-G units in the array.
    pub units: usize,
    /// Field width in sites.
    pub width: usize,
    /// Field height in sites.
    pub height: usize,
    /// Candidate labels per site.
    pub labels: u32,
    /// Sweeps priced (fault sweeps are drawn over the same range).
    pub sweeps: u64,
    /// Failed-unit counts to grid over.
    pub failed_units: &'a [usize],
    /// Degradation policies to grid over.
    pub policies: &'a [DegradePolicy],
    /// Base seed; per-combination seeds are `seed + index`.
    pub seed: u64,
}

/// Prices every `(point, failed-unit count, policy)` combination with a
/// seed-reproducible [`FaultPlan::random`] grid. Fault sweeps are drawn
/// over `0..spec.sweeps`, the run is priced over the same range, and the
/// per-combination seed is derived as `spec.seed + index` so a single
/// seed reproduces the whole study.
pub fn degraded_design_points(
    points: &[DesignPoint],
    spec: &DegradedStudySpec,
) -> Vec<DegradedDesignPoint> {
    let DegradedStudySpec {
        units,
        width,
        height,
        labels,
        sweeps,
        failed_units,
        policies,
        seed,
    } = *spec;
    let mut out = Vec::with_capacity(points.len() * failed_units.len() * policies.len());
    for point in points {
        let model = DegradeModel::for_point(point, units, width, height, labels);
        let healthy = model.healthy_run_cost(sweeps);
        for &count in failed_units {
            for &policy in policies {
                let fault_seed = seed + out.len() as u64;
                let plan = FaultPlan::random(fault_seed, units, sweeps, count, policy);
                let cost = model.run_cost(&plan, sweeps);
                out.push(DegradedDesignPoint {
                    point: *point,
                    policy,
                    failed_units: count,
                    fault_seed,
                    slowdown: cost.time_s / healthy.time_s,
                    energy_ratio: cost.energy_mj / healthy.energy_mj,
                    software_fraction: cost.software_fraction(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsu::{FaultKind, ScheduledFault};

    fn dead(unit: usize, sweep: u64) -> ScheduledFault {
        ScheduledFault {
            unit,
            sweep,
            kind: FaultKind::DeadSpad,
        }
    }

    #[test]
    fn healthy_cost_matches_the_closed_form() {
        // 12 units over a 24-row chain → 2 rows per band, 64·24/12 = 128
        // sites per unit per sweep (both parities), balanced.
        let m = DegradeModel::paper(12, 64, 24, 5);
        let healthy = m.healthy_run_cost(10);
        assert_eq!(healthy.unit_sites, 64 * 24 * 10);
        assert_eq!(healthy.software_sites, 0);
        let expected_sweep_s = 128.0 * 5.0 / m.clock_hz;
        assert!((healthy.time_s - 10.0 * expected_sweep_s).abs() < 1e-15);
    }

    #[test]
    fn remap_stretches_the_critical_path_but_conserves_energy() {
        let m = DegradeModel::paper(12, 64, 24, 5);
        let plan = FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(dead(3, 0));
        let healthy = m.healthy_run_cost(10);
        let degraded = m.run_cost(&plan, 10);
        // The absorber serves two bands serially: 2x critical path.
        assert!((degraded.time_s / healthy.time_s - 2.0).abs() < 1e-12);
        // All work stays on units at equal power: energy unchanged.
        assert!((degraded.energy_mj / healthy.energy_mj - 1.0).abs() < 1e-12);
        assert_eq!(degraded.software_sites, 0);
        assert_eq!(degraded.remapped_sites, 128 * 10);
    }

    #[test]
    fn software_fallback_charges_host_time_and_energy() {
        let m = DegradeModel::paper(12, 64, 24, 5);
        let plan = FaultPlan::new(DegradePolicy::SoftwareFallback).with_fault(dead(3, 0));
        let healthy = m.healthy_run_cost(10);
        let degraded = m.run_cost(&plan, 10);
        // One band of 128 sites/sweep costs the host ~0.48 µs — less
        // than the array's 0.64 µs critical path, so the fallback hides
        // behind the array and latency is unchanged...
        assert!((degraded.time_s - healthy.time_s).abs() < 1e-15);
        // ...but every host-served site burns host power, which
        // dominates the energy budget outright.
        assert!(
            degraded.energy_mj > 5.0 * healthy.energy_mj,
            "host-served sites dominate energy: {} vs {}",
            degraded.energy_mj,
            healthy.energy_mj
        );
        assert_eq!(degraded.software_sites, 128 * 10);
        assert!((degraded.software_fraction() - 1.0 / 12.0).abs() < 1e-12);

        // Retire half the array and the host becomes the critical path.
        let mut half = FaultPlan::new(DegradePolicy::SoftwareFallback);
        for unit in 0..6 {
            half = half.with_fault(dead(unit, 0));
        }
        let degraded = m.run_cost(&half, 10);
        assert!(degraded.time_s > healthy.time_s);
        assert_eq!(degraded.software_sites, 6 * 128 * 10);
    }

    #[test]
    fn faults_activating_late_cost_less() {
        let m = DegradeModel::paper(12, 64, 24, 5);
        let early = FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(dead(3, 0));
        let late = FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(dead(3, 8));
        let c_early = m.run_cost(&early, 10).time_s;
        let c_late = m.run_cost(&late, 10).time_s;
        assert!(c_late < c_early, "{c_late} < {c_early}");
        assert!(c_late > m.healthy_run_cost(10).time_s);
    }

    #[test]
    fn degraded_points_are_reproducible_and_ordered() {
        let points = [crate::explore::evaluate(5, 0.5)];
        let run = || {
            degraded_design_points(
                &points,
                &DegradedStudySpec {
                    units: 12,
                    width: 64,
                    height: 24,
                    labels: 5,
                    sweeps: 20,
                    failed_units: &[1, 3],
                    policies: &[
                        DegradePolicy::RemapToHealthy,
                        DegradePolicy::SoftwareFallback,
                    ],
                    seed: 99,
                },
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "a single seed reproduces the study");
        assert_eq!(a.len(), 4);
        for d in &a {
            // Bleach faults cost nothing in this model (the unit keeps
            // serving its band), so 1.0 is attainable — but degradation
            // can never speed a run up or make it cheaper.
            assert!(d.slowdown >= 1.0, "degradation cannot speed a run up");
            assert!(d.energy_ratio >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn per_point_power_tracks_the_sampling_hardware() {
        let cheap = crate::explore::evaluate(3, 0.1);
        let rich = crate::explore::evaluate(7, 0.9);
        let m_cheap = DegradeModel::for_point(&cheap, 12, 64, 24, 5);
        let m_rich = DegradeModel::for_point(&rich, 12, 64, 24, 5);
        assert!(m_rich.unit_power_mw > m_cheap.unit_power_mw);
        // The paper point reproduces the Table III total.
        let paper = DegradeModel::for_point(&crate::explore::evaluate(5, 0.5), 12, 64, 24, 5);
        assert!((paper.unit_power_mw - designs::new_rsu_total().power_mw).abs() < 1e-9);
    }
}
