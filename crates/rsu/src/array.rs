//! Multi-unit RSU-G arrays: the functional model of the paper's
//! discrete accelerator (§II-C), which gangs 336 units behind a shared
//! memory system.
//!
//! Parallel Gibbs sampling requires that concurrently updated variables
//! be conditionally independent; on a 4-connected lattice the standard
//! decomposition is the checkerboard: all even-parity sites form one
//! phase, all odd-parity sites the other, and within a phase every site
//! may be assigned to a different RSU-G. An [`RsuArray`] is the set of
//! band workers `mrf`'s checkerboard solver sweeps
//! ([`mrf::ParallelSweepSolver::run_on`]): unit `i` serves row band `i`
//! of `mrf::parallel::band_rows(height, units, i)`, and units beyond
//! the grid's row count idle. Because every site update draws from its
//! own counter-based stream and the functional samplers are stateless
//! between evaluations on the ideal photon path, the chain is *exactly*
//! the same for any unit count and any host thread count, which the
//! tests verify.
//!
//! The array also degrades gracefully under an installed
//! [`FaultPlan`]: bleached units keep sampling at a derated emission
//! rate, retired units (dead SPAD, stuck output) have their sites
//! served by stand-in spare capacity or by the host's software kernel,
//! and every determinism contract — host-thread invariance,
//! checkpoint/resume bit-identity — survives because the degradation is
//! a pure function of `(plan, sweep index)`.

use crate::config::RsuConfig;
use crate::fault::{DegradationReport, FaultPlan, UnitService};
use crate::sampler::{RsuG, RsuStats};
use mrf::parallel::{BandWorker, SweepBands};
use mrf::{FaultRecord, Grid, Label, SiteSampler, SoftwareGibbs, SweepObserver};
use rand::Rng;

/// A gang of identical RSU-G units executing checkerboard sweeps.
///
/// The array keeps one band worker per unit for its whole life, across
/// chains: before each sweep it sets every worker's service, derating
/// and temperature from the installed plan, the sweep index and the
/// temperature alone, so a chain never sees what an earlier chain left
/// behind.
#[derive(Debug, Clone)]
pub struct RsuArray {
    workers: Vec<BandWorker<UnitSampler>>,
    /// Installed fault plan and the load it has shifted, `None` while
    /// the array is healthy.
    faults: Option<FaultState>,
}

/// The fault plan together with its load accounting.
#[derive(Debug, Clone)]
struct FaultState {
    plan: FaultPlan,
    /// Who served the sites, accumulated across every sweep since the
    /// plan was installed.
    degradation: DegradationReport,
}

/// What samples one unit's band during a sweep: the unit itself, or —
/// once the unit is retired — a stand-in for it or the host's software
/// kernel. The array sets the service before every sweep.
#[derive(Debug, Clone)]
pub struct UnitSampler {
    unit: RsuG,
    /// Spare capacity borrowed from the remap target: a unit of the
    /// same design point (the units are stateless between evaluations,
    /// so it samples exactly as the target would), created at the
    /// unit's first remapped sweep and kept so its statistics
    /// accumulate. Dropped with the fault plan.
    stand_in: Option<RsuG>,
    software: SoftwareGibbs,
    service: UnitService,
}

impl UnitSampler {
    fn new(config: RsuConfig) -> Self {
        UnitSampler {
            unit: RsuG::with_config(config),
            stand_in: None,
            software: SoftwareGibbs::new(),
            service: UnitService::InPlace,
        }
    }

    /// Prepares unit `index` of `units` for sweep `iteration` at
    /// `temperature` under `plan`: the unit sees the temperature (an
    /// idle or retired unit still tracks the schedule), takes its
    /// derating and service for the sweep, and a stand-in serving it
    /// sees the temperature too.
    fn prepare(
        &mut self,
        plan: Option<&FaultPlan>,
        index: usize,
        units: usize,
        iteration: u64,
        temperature: f64,
    ) {
        self.unit.begin_iteration(temperature);
        let fault = plan.and_then(|p| p.fault_for_unit(index));
        self.unit
            .set_rate_derating(fault.map_or(1.0, |f| f.derating_at(iteration)));
        self.service = plan.map_or(UnitService::InPlace, |p| p.service(index, units, iteration));
        if let UnitService::Remapped { .. } = self.service {
            let config = *self.unit.config();
            self.stand_in
                .get_or_insert_with(|| RsuG::with_config(config))
                .begin_iteration(temperature);
        }
    }
}

impl SiteSampler for UnitSampler {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        match self.service {
            UnitService::InPlace => self.unit.sample_label(energies, temperature, current, rng),
            UnitService::Remapped { .. } => self
                .stand_in
                .as_mut()
                .expect("a remapped sweep prepares its stand-in")
                .sample_label(energies, temperature, current, rng),
            UnitService::Software => {
                self.software
                    .sample_label(energies, temperature, current, rng)
            }
        }
    }
}

impl RsuArray {
    /// Creates an array of `count` units with the given design point.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(config: RsuConfig, count: u32) -> Self {
        assert!(count > 0, "need at least one unit");
        RsuArray {
            workers: (0..count)
                .map(|_| BandWorker::new(UnitSampler::new(config)))
                .collect(),
            faults: None,
        }
    }

    /// Installs a fault plan: from each fault's activation sweep onward
    /// the array degrades per the plan — bleached units sample in place
    /// at a derated emission rate, retired units (dead SPAD, stuck) have
    /// their sites served by spare capacity or the software kernel per
    /// the plan's [`DegradePolicy`](crate::DegradePolicy). Replaces any
    /// previous plan.
    ///
    /// Degradation is a pure function of `(plan, iteration)`, so a
    /// degraded chain keeps every determinism contract of a healthy one:
    /// identical at every host thread count, and resume-safe.
    ///
    /// # Panics
    ///
    /// Panics if a fault names a unit index outside the array.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for f in plan.faults() {
            assert!(
                f.unit < self.workers.len(),
                "fault unit {} out of range for {} units",
                f.unit,
                self.workers.len()
            );
        }
        self.clear_faults();
        let degradation = DegradationReport::new(self.workers.len());
        self.faults = Some(FaultState { plan, degradation });
    }

    /// Removes any installed fault plan; from the next sweep on every
    /// unit serves its own band at its full emission rate. Statistics
    /// accumulated by stand-in units are dropped with the plan.
    pub fn clear_faults(&mut self) {
        self.faults = None;
        for worker in &mut self.workers {
            worker.sampler_mut().stand_in = None;
        }
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|s| &s.plan)
    }

    /// Cumulative load accounting since the plan was installed: sites
    /// served per unit (remapped load included), sites absorbed from
    /// retired units, and sites served by the software fallback. `None`
    /// while the array is healthy.
    ///
    /// This agrees exactly with [`FaultPlan::predicted_degradation`],
    /// which a resuming driver can therefore use to reconstruct the
    /// full-run report without state.
    pub fn degradation_report(&self) -> Option<&DegradationReport> {
        self.faults.as_ref().map(|s| &s.degradation)
    }

    /// Number of units.
    pub fn len(&self) -> u32 {
        self.workers.len() as u32
    }

    /// Whether the array has no units (never true).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Aggregated statistics across the units, including any fault
    /// stand-ins (so totals such as `variable_evaluations` stay
    /// conserved under degradation; sites served by the software
    /// fallback are not unit work and do not appear here).
    pub fn combined_stats(&self) -> RsuStats {
        let mut total = RsuStats::default();
        for worker in &self.workers {
            let sampler = worker.sampler();
            for s in std::iter::once(&sampler.unit).chain(&sampler.stand_in) {
                let s = s.stats();
                total.variable_evaluations += s.variable_evaluations;
                total.label_evaluations += s.label_evaluations;
                total.cutoff_labels += s.cutoff_labels;
                total.censored_samples += s.censored_samples;
                total.ties_broken += s.ties_broken;
                total.all_censored_fallbacks += s.all_censored_fallbacks;
                total.all_cutoff_keeps += s.all_cutoff_keeps;
                total.stall_cycles += s.stall_cycles;
                total.temperature_updates += s.temperature_updates;
            }
        }
        total
    }
}

impl SweepBands for RsuArray {
    type Sampler = UnitSampler;

    /// Applies the fault plan to sweep `iteration`: each unit's service
    /// and derating, the faults activating at this sweep (reported to
    /// an enabled `observer`), and the sweep's load in the degradation
    /// report.
    fn begin_sweep<O: SweepObserver>(
        &mut self,
        grid: Grid,
        iteration: usize,
        temperature: f64,
        observer: &mut O,
    ) -> &mut [BandWorker<UnitSampler>] {
        let iteration = iteration as u64;
        let units = self.workers.len();
        let plan = self.faults.as_ref().map(|state| &state.plan);
        for (index, worker) in self.workers.iter_mut().enumerate() {
            worker
                .sampler_mut()
                .prepare(plan, index, units, iteration, temperature);
        }
        if let Some(state) = &mut self.faults {
            if observer.is_enabled() {
                for f in state.plan.activations_at(iteration) {
                    let (action, remapped_to) = match self.workers[f.unit].sampler().service {
                        UnitService::InPlace => ("derate", None),
                        UnitService::Remapped { target } => ("remap", Some(target)),
                        UnitService::Software => ("software-fallback", None),
                    };
                    observer.on_fault(&FaultRecord {
                        iteration: iteration as usize,
                        unit: f.unit,
                        kind: f.kind.as_str(),
                        action,
                        remapped_to,
                    });
                }
            }
            let sweep = state
                .plan
                .sweep_degradation(units, grid.width(), grid.height(), iteration);
            state.degradation.merge(&sweep);
        }
        &mut self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DegradePolicy, FaultKind, ScheduledFault};
    use mrf::{
        DistanceFn, LabelField, MrfModel, ParallelSweepSolver, Schedule, SolveReport, TabularMrf,
    };
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    fn model() -> TabularMrf {
        TabularMrf::checkerboard(8, 8, 3, 6.0, DistanceFn::Binary, 0.3)
    }

    /// Runs sweeps `0..sweeps` of `schedule` on `array` from the field
    /// `init_seed` draws, with chain seed `seed`.
    fn run(
        array: &mut RsuArray,
        schedule: Schedule,
        sweeps: usize,
        init_seed: u64,
        seed: u64,
        threads: usize,
    ) -> (LabelField, SolveReport) {
        let m = model();
        let mut rng = Xoshiro256pp::seed_from_u64(init_seed);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let report = ParallelSweepSolver::new(&m)
            .schedule(schedule)
            .iterations(sweeps)
            .threads(threads)
            .seed(seed)
            .run_on(&mut field, array);
        (field, report)
    }

    fn constant(temperature: f64) -> Schedule {
        Schedule::constant(temperature)
    }

    fn fault(unit: usize, sweep: u64, kind: FaultKind) -> ScheduledFault {
        ScheduledFault { unit, sweep, kind }
    }

    #[test]
    fn any_unit_count_produces_the_identical_chain() {
        // On the ideal photon path the units are stateless between
        // evaluations and every site draws from its own stream, so
        // banding the sites over 1, 3 or 16 units must give
        // bit-identical fields.
        let field = |units: u32| {
            let mut array = RsuArray::new(RsuConfig::new_design(), units);
            run(&mut array, constant(1.5), 20, 9, 9, 1).0
        };
        let f1 = field(1);
        assert_eq!(f1, field(3));
        assert_eq!(f1, field(16));
    }

    #[test]
    fn combined_stats_cover_all_sites() {
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        run(&mut array, constant(1.0), 10, 1, 1, 2);
        let stats = array.combined_stats();
        assert_eq!(stats.variable_evaluations, 64 * 10);
        assert_eq!(stats.stall_cycles, 0, "new design never stalls");
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_rejected() {
        RsuArray::new(RsuConfig::new_design(), 0);
    }

    #[test]
    fn parallel_sweep_is_host_thread_invariant() {
        // The chain AND the per-unit statistics must be identical for
        // any number of host threads, because unit→band mapping and
        // per-site randomness are fixed by the arguments.
        let outcome = |threads: usize| {
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            let (field, report) = run(&mut array, constant(1.5), 20, 9, 77, threads);
            (field, array.combined_stats(), report)
        };
        let (f1, s1, r1) = outcome(1);
        for threads in [2, 3, 8] {
            let (f, s, r) = outcome(threads);
            assert_eq!(f, f1, "{threads} host threads changed the chain");
            assert_eq!(s, s1, "{threads} host threads changed the stats");
            assert_eq!(r, r1, "{threads} host threads changed the report");
        }
    }

    #[test]
    fn parallel_sweep_converges_on_checkerboard_problem() {
        let mut array = RsuArray::new(RsuConfig::new_design(), 8);
        let schedule = Schedule::geometric(3.0, 0.93, 0.1);
        let (field, _) = run(&mut array, schedule, 120, 5, 5, 2);
        let truth = TabularMrf::checkerboard_truth(8, 8, 3);
        assert!(
            field.disagreement(&truth) < 0.1,
            "disagreement {}",
            field.disagreement(&truth)
        );
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let outcome = |plan: Option<FaultPlan>| {
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            if let Some(plan) = plan {
                array.install_faults(plan);
            }
            let (field, report) = run(&mut array, constant(1.2), 12, 3, 11, 2);
            (field, array.combined_stats(), report)
        };
        let healthy = outcome(None);
        let empty = outcome(Some(FaultPlan::new(DegradePolicy::RemapToHealthy)));
        assert_eq!(healthy, empty, "a plan with no faults must be inert");
    }

    #[test]
    fn degraded_parallel_sweep_is_host_thread_invariant() {
        let plan = FaultPlan::new(DegradePolicy::RemapToHealthy)
            .with_fault(fault(1, 3, FaultKind::DeadSpad))
            .with_fault(fault(
                2,
                0,
                FaultKind::Bleached {
                    lifetime_sweeps: 6.0,
                },
            ))
            .with_fault(fault(3, 8, FaultKind::Stuck));
        let outcome = |threads: usize| {
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            array.install_faults(plan.clone());
            let (field, report) = run(&mut array, constant(1.5), 20, 9, 77, threads);
            let degradation = array.degradation_report().cloned();
            (field, array.combined_stats(), report, degradation)
        };
        let (f1, s1, r1, d1) = outcome(1);
        for threads in [2, 3, 7] {
            let (f, s, r, d) = outcome(threads);
            assert_eq!(f, f1, "{threads} host threads changed the degraded chain");
            assert_eq!(s, s1, "{threads} host threads changed the degraded stats");
            assert_eq!(r, r1, "{threads} host threads changed the degraded report");
            assert_eq!(d, d1, "{threads} host threads changed the unit load");
        }
    }

    /// Captures [`FaultRecord`]s so tests can assert on the event
    /// stream.
    #[derive(Default)]
    struct FaultRecorder {
        faults: Vec<FaultRecord>,
    }

    impl SweepObserver for FaultRecorder {
        fn on_fault(&mut self, record: &FaultRecord) {
            self.faults.push(record.clone());
        }
    }

    #[test]
    fn fault_activations_surface_through_the_observer_exactly_once() {
        let m = model();
        let plan = FaultPlan::new(DegradePolicy::RemapToHealthy)
            .with_fault(fault(1, 2, FaultKind::DeadSpad))
            .with_fault(fault(
                0,
                5,
                FaultKind::Bleached {
                    lifetime_sweeps: 10.0,
                },
            ));
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        array.install_faults(plan);
        let mut recorder = FaultRecorder::default();
        ParallelSweepSolver::new(&m)
            .schedule(constant(1.5))
            .iterations(10)
            .threads(2)
            .seed(7)
            .observer(&mut recorder)
            .run_on(&mut field, &mut array);
        assert_eq!(
            recorder.faults.len(),
            2,
            "one event per fault, at activation"
        );
        assert_eq!(
            recorder.faults[0],
            FaultRecord {
                iteration: 2,
                unit: 1,
                kind: "dead-spad",
                action: "remap",
                remapped_to: Some(2),
            }
        );
        assert_eq!(
            recorder.faults[1],
            FaultRecord {
                iteration: 5,
                unit: 0,
                kind: "bleached",
                action: "derate",
                remapped_to: None,
            }
        );
    }

    #[test]
    fn remap_piles_load_onto_the_target_unit() {
        // 8x8 grid, 4 units → 8 parity sites per band per phase. With
        // unit 1 dead and remapped to unit 2, unit 2 carries 16 sites
        // per phase while total unit work is conserved.
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        array.install_faults(
            FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(fault(
                1,
                0,
                FaultKind::DeadSpad,
            )),
        );
        run(&mut array, constant(1.0), 1, 2, 0, 2);
        let load = array.degradation_report().expect("plan installed");
        assert_eq!(load.total_sites(), 64);
        assert_eq!(
            load.unit_sites,
            vec![16, 0, 32, 16],
            "remapped work is still unit work"
        );
        assert_eq!(load.remapped_sites, 16);
        assert_eq!(load.software_sites, 0);
        assert_eq!(load.busiest_unit_sites(), 2 * 16, "target serves two bands");
        let stats = array.combined_stats();
        assert_eq!(
            stats.variable_evaluations, 64,
            "stand-in evaluations count toward the total"
        );
    }

    #[test]
    fn software_fallback_moves_work_off_the_units() {
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        array.install_faults(
            FaultPlan::new(DegradePolicy::SoftwareFallback).with_fault(fault(
                1,
                0,
                FaultKind::Stuck,
            )),
        );
        run(&mut array, constant(1.0), 1, 2, 0, 2);
        let load = array.degradation_report().expect("plan installed");
        assert_eq!(load.total_sites(), 64, "every site is still updated");
        assert_eq!(
            load.unit_sites,
            vec![16, 0, 16, 16],
            "one band's work left the array"
        );
        assert_eq!(load.software_sites, 16);
        assert_eq!(load.busiest_unit_sites(), 2 * 8);
        assert_eq!(array.combined_stats().variable_evaluations, 48);
    }

    #[test]
    fn all_units_retired_still_completes_via_software() {
        let mut array = RsuArray::new(RsuConfig::new_design(), 2);
        array.install_faults(
            FaultPlan::new(DegradePolicy::RemapToHealthy)
                .with_fault(fault(0, 0, FaultKind::DeadSpad))
                .with_fault(fault(1, 0, FaultKind::Stuck)),
        );
        run(&mut array, constant(1.0), 1, 6, 3, 2);
        let load = array.degradation_report().expect("plan installed");
        assert_eq!(load.total_sites(), 64);
        assert_eq!(load.unit_sites, vec![0, 0], "no healthy unit remains");
        assert_eq!(load.software_sites, 64);
        assert_eq!(array.combined_stats().variable_evaluations, 0);
    }

    #[test]
    fn bleached_unit_censors_heavily_but_stays_deterministic() {
        // Uniform derating slows every label's race equally, so its
        // observable signature is censoring (the TTF exceeding the
        // window), not a re-ordered winner distribution.
        let outcome = |plan: Option<FaultPlan>| {
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            if let Some(plan) = plan {
                array.install_faults(plan);
            }
            let (field, _) = run(&mut array, constant(0.8), 30, 12, 21, 2);
            (field, array.combined_stats())
        };
        let bleach = || {
            FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(fault(
                0,
                0,
                FaultKind::Bleached {
                    lifetime_sweeps: 2.0,
                },
            ))
        };
        let (healthy_field, healthy_stats) = outcome(None);
        let (degraded_field, degraded_stats) = outcome(Some(bleach()));
        let (again_field, again_stats) = outcome(Some(bleach()));
        assert_eq!(degraded_field, again_field, "degradation is deterministic");
        assert_eq!(degraded_stats, again_stats);
        assert!(
            degraded_stats.censored_samples > 2 * healthy_stats.censored_samples,
            "an aggressively bleached unit should censor far more \
             (degraded {} vs healthy {})",
            degraded_stats.censored_samples,
            healthy_stats.censored_samples
        );
        // The chain itself may or may not coincide with the healthy one
        // (censoring falls back to the max-λ label, which this strongly
        // coupled model often picks anyway) — but it must stay a valid
        // field of the same shape.
        assert_eq!(degraded_field.grid(), healthy_field.grid());
    }

    #[test]
    fn a_plan_reused_across_chains_derates_each_from_its_sweep_alone() {
        // Unit 0 bleaches from sweep 4. A second chain on the same array
        // must start healthy again, not at the first chain's last
        // derating: same field, and exactly as many censored races.
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        array.install_faults(
            FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(fault(
                0,
                4,
                FaultKind::Bleached {
                    lifetime_sweeps: 2.0,
                },
            )),
        );
        let (first, _) = run(&mut array, constant(0.8), 12, 12, 21, 2);
        let once = array.combined_stats().censored_samples;
        let (second, _) = run(&mut array, constant(0.8), 12, 12, 21, 2);
        assert_eq!(first, second);
        assert_eq!(array.combined_stats().censored_samples, 2 * once);
    }

    #[test]
    fn parallel_degradation_report_matches_the_analytic_prediction() {
        // The measured accounting and the pure-function replay must
        // agree bit-for-bit: that equality is what makes the report
        // reconstructible across kill/resume.
        let plan = FaultPlan::new(DegradePolicy::RemapToHealthy)
            .with_fault(fault(1, 3, FaultKind::DeadSpad))
            .with_fault(fault(2, 7, FaultKind::Stuck))
            .with_fault(fault(
                0,
                5,
                FaultKind::Bleached {
                    lifetime_sweeps: 6.0,
                },
            ));
        let sweeps = 15u64;
        for policy_plan in [
            plan.clone(),
            FaultPlan::random(9, 4, sweeps, 3, DegradePolicy::SoftwareFallback),
        ] {
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            array.install_faults(policy_plan.clone());
            run(&mut array, constant(1.5), sweeps as usize, 9, 77, 2);
            let measured = array.degradation_report().expect("plan installed");
            let predicted = policy_plan.predicted_degradation(4, 8, 8, sweeps);
            assert_eq!(measured, &predicted);
            assert_eq!(measured.total_sites(), 64 * sweeps);
        }
    }

    #[test]
    fn healthy_array_reports_no_degradation() {
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        run(&mut array, constant(1.0), 1, 3, 3, 2);
        assert!(array.degradation_report().is_none());
    }
}
