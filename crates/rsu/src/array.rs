//! Multi-unit RSU-G arrays: the functional model of the paper's
//! discrete accelerator (§II-C), which gangs 336 units behind a shared
//! memory system.
//!
//! Parallel Gibbs sampling requires that concurrently updated variables
//! be conditionally independent; on a 4-connected lattice the standard
//! decomposition is the checkerboard: all even-parity sites form one
//! phase, all odd-parity sites the other, and within a phase every site
//! may be assigned to a different RSU-G. [`RsuArray`] executes such
//! sweeps with its units mapped onto contiguous row bands, accounts the
//! cycles each unit spends, and — because every site update draws from
//! its own counter-based stream and the functional samplers are
//! stateless between evaluations on the ideal photon path — produces
//! *exactly* the same chain for any unit count and any host thread
//! count, which the tests verify.
//!
//! The array also degrades gracefully under an installed
//! [`FaultPlan`]: bleached units keep sampling at a derated emission
//! rate, retired units (dead SPAD, stuck output) have their sites
//! served by stand-in spare capacity or by the host's software kernel,
//! and every determinism contract — host-thread invariance,
//! checkpoint/resume bit-identity — survives because the degradation is
//! a pure function of `(plan, sweep index)`.

use crate::config::RsuConfig;
use crate::fault::{DegradationReport, DegradePolicy, FaultKind, FaultPlan};
use crate::sampler::{RsuG, RsuStats};
use mrf::trace::{replay_phase_site_updates, FaultRecord, SweepObserver, SweepRecord};
use mrf::{total_energy, Label, LabelField, MrfModel, NumericPolicy, SiteSampler, SoftwareGibbs};
use rand::Rng;
use std::time::{Duration, Instant};

/// Report of one array sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySweepReport {
    /// Sites updated.
    pub sites: u64,
    /// Cycles on the critical path (the busiest unit per phase, summed
    /// over phases), assuming one label evaluation per unit per cycle.
    pub critical_path_cycles: u64,
    /// Aggregate unit-cycles of useful work.
    pub busy_unit_cycles: u64,
}

impl ArraySweepReport {
    /// Parallel efficiency: useful work over capacity on the critical
    /// path.
    pub fn efficiency(&self, units: u32) -> f64 {
        if self.critical_path_cycles == 0 {
            return 0.0;
        }
        self.busy_unit_cycles as f64 / (self.critical_path_cycles as f64 * units as f64)
    }
}

/// A gang of identical RSU-G units executing checkerboard sweeps.
#[derive(Debug, Clone)]
pub struct RsuArray {
    units: Vec<RsuG>,
    /// Pre-phase label snapshot reused across
    /// [`sweep_parallel`](Self::sweep_parallel) calls, so steady-state
    /// sweeps allocate nothing (it is rebuilt only when the field shape
    /// changes, e.g. across coarse-to-fine pyramid levels).
    snapshot: Option<LabelField>,
    /// Installed fault plan plus its stand-in units, `None` when the
    /// array is healthy (the healthy paths are untouched).
    faults: Option<FaultState>,
}

/// The fault plan together with the degradation machinery it drives.
#[derive(Debug, Clone)]
struct FaultState {
    plan: FaultPlan,
    /// Owned stand-in units servicing retired units' bands on the
    /// parallel path, indexed by the retired unit. Created lazily at
    /// first use and persistent across sweeps so their statistics
    /// accumulate; they model spare sampling capacity borrowed from the
    /// remap target (the units share one design point and are stateless
    /// between evaluations, so a stand-in samples exactly as the target
    /// would).
    spares: Vec<Option<RsuG>>,
    /// Who served the sites, accumulated across every sweep since the
    /// plan was installed.
    degradation: DegradationReport,
}

/// How one unit's sites are served during one sweep — a pure function
/// of `(plan, iteration)`, recomputed identically at any thread count
/// and any resume point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitService {
    /// The unit itself serves its sites (healthy, or bleached and
    /// derated in place).
    InPlace,
    /// Retired; a stand-in serves the sites and healthy unit `target`
    /// absorbs the load in the cycle accounting.
    Remapped { target: usize },
    /// Retired; the host's software Gibbs kernel serves the sites
    /// (costing host time, not unit cycles).
    Software,
}

/// Per-band sampler chosen by the fault logic for one parallel sweep.
enum FaultSampler<'a> {
    Unit(&'a mut RsuG),
    Software(SoftwareGibbs),
}

impl SiteSampler for FaultSampler<'_> {
    fn begin_iteration(&mut self, temperature: f64) {
        match self {
            FaultSampler::Unit(u) => u.begin_iteration(temperature),
            FaultSampler::Software(s) => s.begin_iteration(temperature),
        }
    }

    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        match self {
            FaultSampler::Unit(u) => u.sample_label(energies, temperature, current, rng),
            FaultSampler::Software(s) => s.sample_label(energies, temperature, current, rng),
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
            units: (0..count).map(|_| RsuG::with_config(config)).collect(),
            snapshot: None,
            faults: None,
        }
    }

    /// Installs a fault plan: from each fault's activation sweep onward
    /// the array degrades per the plan — bleached units sample in place
    /// at a derated emission rate, retired units (dead SPAD, stuck) have
    /// their sites served by spare capacity or the software kernel per
    /// the plan's [`DegradePolicy`]. Replaces any previous plan.
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
                f.unit < self.units.len(),
                "fault unit {} out of range for {} units",
                f.unit,
                self.units.len()
            );
        }
        self.clear_faults();
        let spares = vec![None; self.units.len()];
        let degradation = DegradationReport::new(self.units.len());
        self.faults = Some(FaultState {
            plan,
            spares,
            degradation,
        });
    }

    /// Removes any installed fault plan and restores every unit's
    /// emission rate. Statistics accumulated by stand-in units are
    /// dropped with the plan.
    pub fn clear_faults(&mut self) {
        self.faults = None;
        for unit in &mut self.units {
            unit.set_rate_derating(1.0);
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
        self.units.len() as u32
    }

    /// Whether the array has no units (never true).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Aggregated statistics across the units, including any fault
    /// stand-ins (so totals such as `variable_evaluations` stay
    /// conserved under degradation; sites served by the software
    /// fallback are not unit work and do not appear here).
    pub fn combined_stats(&self) -> RsuStats {
        fn accumulate(total: &mut RsuStats, s: &RsuStats) {
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
        let mut total = RsuStats::default();
        for u in &self.units {
            accumulate(&mut total, u.stats());
        }
        if let Some(state) = &self.faults {
            for spare in state.spares.iter().flatten() {
                accumulate(&mut total, spare.stats());
            }
        }
        total
    }

    /// Per-sweep fault prologue: derates active bleached units, resolves
    /// how each unit's sites are served this sweep, and (when observing)
    /// reports faults activating at exactly this sweep. Returns an empty
    /// table when no plan is installed — the caller then takes the
    /// unchanged healthy path.
    fn fault_service<O: SweepObserver>(
        units: &mut [RsuG],
        faults: Option<&FaultState>,
        iteration: u64,
        observing: bool,
        observer: &mut O,
    ) -> Vec<UnitService> {
        let Some(state) = faults else {
            return Vec::new();
        };
        let n = units.len();
        let mut service = vec![UnitService::InPlace; n];
        for f in state.plan.faults() {
            if !f.active_at(iteration) {
                continue;
            }
            match f.kind {
                FaultKind::Bleached { .. } => {
                    units[f.unit].set_rate_derating(f.derating_at(iteration));
                }
                FaultKind::DeadSpad | FaultKind::Stuck => {
                    service[f.unit] = match state.plan.policy() {
                        DegradePolicy::RemapToHealthy => {
                            match state.plan.remap_target(f.unit, n, iteration) {
                                Some(target) => UnitService::Remapped { target },
                                // Every unit retired: only the host can
                                // keep the chain going.
                                None => UnitService::Software,
                            }
                        }
                        DegradePolicy::SoftwareFallback => UnitService::Software,
                    };
                }
            }
        }
        if observing {
            for f in state.plan.activations_at(iteration) {
                let (action, remapped_to) = match service[f.unit] {
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
        service
    }

    /// Runs one checkerboard sweep — the even phase then the odd phase —
    /// with the units mapped onto contiguous row-band shards, executed
    /// on up to `threads` host threads via
    /// `mrf::parallel::checkerboard_phase`.
    ///
    /// Every site update draws from its own counter-based stream keyed
    /// on `(seed, iteration, site)`, so the resulting chain — and each
    /// unit's statistics, since the unit→band mapping is fixed — is
    /// **identical for every host thread count**. Unit `i` services
    /// band `i` of `mrf::parallel::band_rows(height, units, i)`; units
    /// beyond the grid's row count idle.
    ///
    /// The caller advances `iteration` once per sweep so that site
    /// streams never repeat across sweeps of one chain.
    ///
    /// `observer` sees the sweep record, site updates and fault
    /// activations; attaching one never changes the chain, statistics
    /// or report: flip counters and energy deltas are folded in row
    /// order by the phase engine, and per-site hooks replay each phase's
    /// snapshot diff in raster order on the driver thread. An enabled
    /// observer additionally costs one [`total_energy`] scan to seed the
    /// incremental energy it reports; pass `&mut NoopObserver` for none.
    ///
    /// # Panics
    ///
    /// Panics if the field and model disagree.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_parallel<M, O>(
        &mut self,
        model: &M,
        field: &mut LabelField,
        temperature: f64,
        iteration: u64,
        seed: u64,
        threads: usize,
        observer: &mut O,
    ) -> ArraySweepReport
    where
        M: MrfModel + Sync,
        O: SweepObserver,
    {
        assert_eq!(field.grid(), model.grid(), "field grid mismatch");
        assert_eq!(
            field.num_labels(),
            model.num_labels(),
            "label count mismatch"
        );
        let grid = model.grid();
        let width = grid.width();
        let height = grid.height();
        let labels = model.num_labels() as u64;
        for unit in &mut self.units {
            unit.begin_iteration(temperature);
        }
        let bands = self.units.len().min(height.max(1));
        let unit_count = self.units.len();
        // Reuse the snapshot scratch whenever the field shape matches;
        // its stale contents are overwritten at the start of each phase.
        let snapshot = match &mut self.snapshot {
            Some(s) if s.grid() == grid && s.num_labels() == field.num_labels() => s,
            slot => {
                *slot = Some(field.clone());
                slot.as_mut().expect("snapshot was just installed")
            }
        };
        let observing = observer.is_enabled();
        let want_sites = observing && observer.wants_site_updates();
        let sweep_start = observing.then(Instant::now);
        let mut energy = observing.then(|| total_energy(model, field));
        let mut flips = 0u64;
        // Resolve this sweep's degradation (empty table = healthy fast
        // path): band `i` belongs to unit `i`, so a retired unit's band
        // is handed to its stand-in or to the software kernel. Stand-ins
        // are owned clones of the shared design point, which sidesteps
        // aliasing two `&mut` borrows of one healthy unit while sampling
        // exactly as the remap target would.
        let service = Self::fault_service(
            &mut self.units,
            self.faults.as_ref(),
            iteration,
            observing,
            observer,
        );
        let units = &mut self.units;
        let mut workers: Vec<mrf::parallel::BandWorker<FaultSampler>> = if service.is_empty() {
            units
                .iter_mut()
                .map(|unit| mrf::parallel::BandWorker::new(FaultSampler::Unit(unit)))
                .collect()
        } else {
            let spares = &mut self
                .faults
                .as_mut()
                .expect("a non-empty service table implies an installed plan")
                .spares;
            units
                .iter_mut()
                .zip(spares.iter_mut())
                .enumerate()
                .map(|(i, (unit, spare))| {
                    let sampler = match service[i] {
                        UnitService::InPlace => FaultSampler::Unit(unit),
                        UnitService::Remapped { .. } => {
                            let config = *unit.config();
                            let stand_in = spare.get_or_insert_with(|| RsuG::with_config(config));
                            stand_in.begin_iteration(temperature);
                            FaultSampler::Unit(stand_in)
                        }
                        UnitService::Software => FaultSampler::Software(SoftwareGibbs::new()),
                    };
                    mrf::parallel::BandWorker::new(sampler)
                })
                .collect()
        };

        let mut report = ArraySweepReport {
            sites: 0,
            critical_path_cycles: 0,
            busy_unit_cycles: 0,
        };
        // Degradation accounting staged in locals: `workers` holds the
        // spares borrowed from `self.faults`, so the report is merged in
        // only after the phases are done with them.
        let mut deg_unit_sites = (!service.is_empty()).then(|| vec![0u64; unit_count]);
        let mut remapped_sweep = 0u64;
        let mut software_sweep = 0u64;
        for parity in 0..2usize {
            let phase = mrf::parallel::checkerboard_phase(
                model,
                field,
                &mut *snapshot,
                &mut workers,
                threads,
                parity,
                temperature,
                iteration,
                seed,
                NumericPolicy::Exact,
                None,
            );
            if let Some(e) = energy.as_mut() {
                *e += phase.delta_energy;
            }
            flips += phase.labels_changed;
            if want_sites {
                replay_phase_site_updates(&*snapshot, field, parity, iteration as usize, observer);
            }
            // Cycle accounting from the band geometry: band `b` holds
            // its rows' parity-`parity` sites, each costing one cycle
            // per candidate label. Under degradation a remapped band's
            // load lands on its target unit (which then serves two
            // bands serially), while software-served bands cost host
            // time rather than unit cycles.
            let mut phase_sites = 0u64;
            let mut busiest = 0u64;
            let mut unit_sites = 0u64;
            let mut load = (!service.is_empty()).then(|| vec![0u64; unit_count]);
            for band in 0..bands {
                let mut band_sites = 0u64;
                for y in mrf::parallel::band_rows(height, bands, band) {
                    // Sites x in 0..width with (x + y) % 2 == parity.
                    let offset = (parity + y) % 2;
                    band_sites += ((width + 1 - offset) / 2) as u64;
                }
                phase_sites += band_sites;
                match &mut load {
                    None => {
                        busiest = busiest.max(band_sites);
                        unit_sites += band_sites;
                    }
                    Some(load) => match service[band] {
                        UnitService::InPlace => {
                            load[band] += band_sites;
                            unit_sites += band_sites;
                        }
                        UnitService::Remapped { target } => {
                            load[target] += band_sites;
                            unit_sites += band_sites;
                            remapped_sweep += band_sites;
                        }
                        UnitService::Software => {
                            software_sweep += band_sites;
                        }
                    },
                }
            }
            if let Some(load) = &load {
                busiest = load.iter().copied().max().unwrap_or(0);
                if let Some(acc) = deg_unit_sites.as_mut() {
                    for (a, l) in acc.iter_mut().zip(load) {
                        *a += *l;
                    }
                }
            }
            report.critical_path_cycles += busiest * labels;
            report.busy_unit_cycles += unit_sites * labels;
            report.sites += phase_sites;
        }
        if let (Some(sites), Some(state)) = (deg_unit_sites, self.faults.as_mut()) {
            for (acc, s) in state.degradation.unit_sites.iter_mut().zip(&sites) {
                *acc += *s;
            }
            state.degradation.remapped_sites += remapped_sweep;
            state.degradation.software_sites += software_sweep;
            state.degradation.sweeps += 1;
        }
        if observing {
            observer.on_sweep(&SweepRecord {
                iteration: iteration as usize,
                temperature,
                energy: energy.unwrap_or(f64::NAN),
                flips,
                elapsed: sweep_start.map(|t| t.elapsed()).unwrap_or(Duration::ZERO),
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrf::{DistanceFn, NoopObserver, TabularMrf};
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    fn model() -> TabularMrf {
        TabularMrf::checkerboard(8, 8, 3, 6.0, DistanceFn::Binary, 0.3)
    }

    #[test]
    fn any_unit_count_produces_the_identical_chain() {
        // On the ideal photon path the units are stateless between
        // evaluations and every site draws from its own stream, so
        // banding the sites over 1, 3 or 16 units must give
        // bit-identical fields.
        let m = model();
        let run = |units: u32| {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            let mut field = LabelField::random(m.grid(), 3, &mut rng);
            let mut array = RsuArray::new(RsuConfig::new_design(), units);
            for iter in 0..20 {
                array.sweep_parallel(&m, &mut field, 1.5, iter, 9, 1, &mut NoopObserver);
            }
            field
        };
        let f1 = run(1);
        let f3 = run(3);
        let f16 = run(16);
        assert_eq!(f1, f3);
        assert_eq!(f1, f16);
    }

    #[test]
    fn combined_stats_cover_all_sites() {
        let m = model();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        for iter in 0..10 {
            array.sweep_parallel(&m, &mut field, 1.0, iter, 1, 2, &mut NoopObserver);
        }
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
        let m = model();
        let run = |threads: usize| {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            let mut field = LabelField::random(m.grid(), 3, &mut rng);
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            let mut reports = Vec::new();
            for iter in 0..20 {
                reports.push(array.sweep_parallel(
                    &m,
                    &mut field,
                    1.5,
                    iter,
                    77,
                    threads,
                    &mut NoopObserver,
                ));
            }
            (field, array.combined_stats(), reports)
        };
        let (f1, s1, r1) = run(1);
        for threads in [2, 3, 8] {
            let (f, s, r) = run(threads);
            assert_eq!(f, f1, "{threads} host threads changed the chain");
            assert_eq!(s, s1, "{threads} host threads changed the stats");
            assert_eq!(r, r1, "{threads} host threads changed the report");
        }
    }

    #[test]
    fn parallel_sweep_converges_on_checkerboard_problem() {
        let m = model();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let mut array = RsuArray::new(RsuConfig::new_design(), 8);
        for i in 0..120 {
            let t = (3.0f64 * 0.93f64.powi(i)).max(0.1);
            array.sweep_parallel(&m, &mut field, t, i as u64, 5, 2, &mut NoopObserver);
        }
        let truth = TabularMrf::checkerboard_truth(8, 8, 3);
        assert!(
            field.disagreement(&truth) < 0.1,
            "disagreement {}",
            field.disagreement(&truth)
        );
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let m = model();
        let run = |plan: Option<FaultPlan>| {
            let mut rng = Xoshiro256pp::seed_from_u64(3);
            let mut field = LabelField::random(m.grid(), 3, &mut rng);
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            if let Some(plan) = plan {
                array.install_faults(plan);
            }
            let mut reports = Vec::new();
            for iter in 0..12 {
                reports.push(array.sweep_parallel(
                    &m,
                    &mut field,
                    1.2,
                    iter,
                    11,
                    2,
                    &mut NoopObserver,
                ));
            }
            (field, array.combined_stats(), reports)
        };
        let healthy = run(None);
        let empty = run(Some(FaultPlan::new(DegradePolicy::RemapToHealthy)));
        assert_eq!(healthy, empty, "a plan with no faults must be inert");
    }

    #[test]
    fn degraded_parallel_sweep_is_host_thread_invariant() {
        let m = model();
        let plan = FaultPlan::new(DegradePolicy::RemapToHealthy)
            .with_fault(crate::fault::ScheduledFault {
                unit: 1,
                sweep: 3,
                kind: crate::fault::FaultKind::DeadSpad,
            })
            .with_fault(crate::fault::ScheduledFault {
                unit: 2,
                sweep: 0,
                kind: crate::fault::FaultKind::Bleached {
                    lifetime_sweeps: 6.0,
                },
            })
            .with_fault(crate::fault::ScheduledFault {
                unit: 3,
                sweep: 8,
                kind: crate::fault::FaultKind::Stuck,
            });
        let run = |threads: usize| {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            let mut field = LabelField::random(m.grid(), 3, &mut rng);
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            array.install_faults(plan.clone());
            let mut reports = Vec::new();
            for iter in 0..20 {
                reports.push(array.sweep_parallel(
                    &m,
                    &mut field,
                    1.5,
                    iter,
                    77,
                    threads,
                    &mut NoopObserver,
                ));
            }
            (field, array.combined_stats(), reports)
        };
        let (f1, s1, r1) = run(1);
        for threads in [2, 3, 7] {
            let (f, s, r) = run(threads);
            assert_eq!(f, f1, "{threads} host threads changed the degraded chain");
            assert_eq!(s, s1, "{threads} host threads changed the degraded stats");
            assert_eq!(r, r1, "{threads} host threads changed the degraded report");
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
            .with_fault(crate::fault::ScheduledFault {
                unit: 1,
                sweep: 2,
                kind: crate::fault::FaultKind::DeadSpad,
            })
            .with_fault(crate::fault::ScheduledFault {
                unit: 0,
                sweep: 5,
                kind: crate::fault::FaultKind::Bleached {
                    lifetime_sweeps: 10.0,
                },
            });
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        array.install_faults(plan);
        let mut recorder = FaultRecorder::default();
        for iter in 0..10 {
            array.sweep_parallel(&m, &mut field, 1.5, iter, 7, 2, &mut recorder);
        }
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
        let m = model();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        array.install_faults(FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(
            crate::fault::ScheduledFault {
                unit: 1,
                sweep: 0,
                kind: crate::fault::FaultKind::DeadSpad,
            },
        ));
        let r = array.sweep_parallel(&m, &mut field, 1.0, 0, 0, 2, &mut NoopObserver);
        assert_eq!(r.sites, 64);
        assert_eq!(
            r.busy_unit_cycles,
            64 * 3,
            "remapped work is still unit work"
        );
        assert_eq!(
            r.critical_path_cycles,
            2 * 16 * 3,
            "target serves two bands"
        );
        let stats = array.combined_stats();
        assert_eq!(
            stats.variable_evaluations, 64,
            "stand-in evaluations count toward the total"
        );
    }

    #[test]
    fn software_fallback_moves_work_off_the_units() {
        let m = model();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        array.install_faults(FaultPlan::new(DegradePolicy::SoftwareFallback).with_fault(
            crate::fault::ScheduledFault {
                unit: 1,
                sweep: 0,
                kind: crate::fault::FaultKind::Stuck,
            },
        ));
        let r = array.sweep_parallel(&m, &mut field, 1.0, 0, 0, 2, &mut NoopObserver);
        assert_eq!(r.sites, 64, "every site is still updated");
        assert_eq!(r.busy_unit_cycles, 48 * 3, "one band's work left the array");
        assert_eq!(r.critical_path_cycles, 2 * 8 * 3);
        assert_eq!(array.combined_stats().variable_evaluations, 48);
    }

    #[test]
    fn all_units_retired_still_completes_via_software() {
        let m = model();
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let mut array = RsuArray::new(RsuConfig::new_design(), 2);
        array.install_faults(
            FaultPlan::new(DegradePolicy::RemapToHealthy)
                .with_fault(crate::fault::ScheduledFault {
                    unit: 0,
                    sweep: 0,
                    kind: crate::fault::FaultKind::DeadSpad,
                })
                .with_fault(crate::fault::ScheduledFault {
                    unit: 1,
                    sweep: 0,
                    kind: crate::fault::FaultKind::Stuck,
                }),
        );
        let r = array.sweep_parallel(&m, &mut field, 1.0, 0, 3, 2, &mut NoopObserver);
        assert_eq!(r.sites, 64);
        assert_eq!(r.busy_unit_cycles, 0, "no healthy unit remains");
        assert_eq!(array.combined_stats().variable_evaluations, 0);
    }

    #[test]
    fn bleached_unit_censors_heavily_but_stays_deterministic() {
        // Uniform derating slows every label's race equally, so its
        // observable signature is censoring (the TTF exceeding the
        // window), not a re-ordered winner distribution.
        let m = model();
        let run = |plan: Option<FaultPlan>| {
            let mut rng = Xoshiro256pp::seed_from_u64(12);
            let mut field = LabelField::random(m.grid(), 3, &mut rng);
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            if let Some(plan) = plan {
                array.install_faults(plan);
            }
            for iter in 0..30 {
                array.sweep_parallel(&m, &mut field, 0.8, iter, 21, 2, &mut NoopObserver);
            }
            (field, array.combined_stats())
        };
        let bleach = || {
            FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(crate::fault::ScheduledFault {
                unit: 0,
                sweep: 0,
                kind: crate::fault::FaultKind::Bleached {
                    lifetime_sweeps: 2.0,
                },
            })
        };
        let (healthy_field, healthy_stats) = run(None);
        let (degraded_field, degraded_stats) = run(Some(bleach()));
        let (again_field, again_stats) = run(Some(bleach()));
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
    fn parallel_degradation_report_matches_the_analytic_prediction() {
        // The measured accounting and the pure-function replay must
        // agree bit-for-bit: that equality is what makes the report
        // reconstructible across kill/resume.
        let m = model();
        let plan = FaultPlan::new(DegradePolicy::RemapToHealthy)
            .with_fault(crate::fault::ScheduledFault {
                unit: 1,
                sweep: 3,
                kind: crate::fault::FaultKind::DeadSpad,
            })
            .with_fault(crate::fault::ScheduledFault {
                unit: 2,
                sweep: 7,
                kind: crate::fault::FaultKind::Stuck,
            })
            .with_fault(crate::fault::ScheduledFault {
                unit: 0,
                sweep: 5,
                kind: crate::fault::FaultKind::Bleached {
                    lifetime_sweeps: 6.0,
                },
            });
        let sweeps = 15u64;
        for policy_plan in [
            plan.clone(),
            FaultPlan::random(9, 4, sweeps, 3, DegradePolicy::SoftwareFallback),
        ] {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            let mut field = LabelField::random(m.grid(), 3, &mut rng);
            let mut array = RsuArray::new(RsuConfig::new_design(), 4);
            array.install_faults(policy_plan.clone());
            for iter in 0..sweeps {
                array.sweep_parallel(&m, &mut field, 1.5, iter, 77, 2, &mut NoopObserver);
            }
            let measured = array.degradation_report().expect("plan installed");
            let predicted = policy_plan.predicted_degradation(4, 8, 8, sweeps);
            assert_eq!(measured, &predicted);
            assert_eq!(measured.total_sites(), 64 * sweeps);
        }
    }

    #[test]
    fn healthy_array_reports_no_degradation() {
        let m = model();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        array.sweep_parallel(&m, &mut field, 1.0, 0, 3, 2, &mut NoopObserver);
        assert!(array.degradation_report().is_none());
    }

    #[test]
    fn parallel_sweep_accounts_band_critical_path() {
        // 8x8 grid, 4 units → 2 rows per band → 8 parity sites per band
        // per phase; perfectly balanced, so the critical path equals
        // busy work / units.
        let m = model();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut field = LabelField::random(m.grid(), 3, &mut rng);
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        let r = array.sweep_parallel(&m, &mut field, 1.0, 0, 0, 2, &mut NoopObserver);
        assert_eq!(r.sites, 64);
        assert_eq!(r.busy_unit_cycles, 64 * 3);
        assert_eq!(r.critical_path_cycles, 2 * 8 * 3, "8 sites/band/phase");
        assert!(r.efficiency(4) > 0.99);
    }
}
