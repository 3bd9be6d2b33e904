//! Multi-threaded checkerboard Gibbs sweeps with a bit-for-bit
//! determinism contract.
//!
//! # Why checkerboard parallelism is exact
//!
//! On the 4-connected lattice every neighbour of an even-parity site
//! (`(x + y) % 2 == 0`) has odd parity and vice versa. Within one
//! parity *phase* the sites are therefore conditionally independent:
//! updating them simultaneously draws from exactly the same joint
//! conditional as updating them one after another. The engine runs each
//! iteration as two phases (even, then odd) and parallelises freely
//! *inside* a phase — this is the software analogue of the paper's
//! RSU-G array, where multiple sampling units service disjoint pixels
//! of the same colour class concurrently.
//!
//! # The determinism contract
//!
//! [`ParallelSweepSolver`] produces **the same labelling, the same
//! `labels_changed` count, and the same energy history for a given
//! `(model, initial field, sampler, seed)` regardless of the number of
//! worker threads** — 1 thread, 7 threads, or the machine default.
//! Two mechanisms make this hold:
//!
//! * **Counter-based per-site RNG streams.** Each site update draws
//!   from [`sampling::SiteRng`]`::for_site(seed, iteration, site)`, a
//!   pure function of the update's coordinates. No thread ever shares
//!   generator state, so scheduling cannot reorder consumption.
//! * **Order-fixed reductions.** Energy deltas and change counts are
//!   accumulated per *row* by whichever shard owns the row, then folded
//!   row-by-row in row order on the driver thread. The floating-point
//!   summation order is thus a function of the grid, not of the thread
//!   count or band partition.
//!
//! # Incremental energy
//!
//! Like the sequential [`SweepSolver`](crate::SweepSolver), the engine
//! never rescans the field to report per-iteration energy. The full
//! O(N·deg) [`total_energy`](crate::total_energy) is computed once up
//! front; each accepted flip contributes the exact delta
//! `energies[new] − energies[old]` (the local conditional energies
//! already computed for the sampler).
//!
//! # Band workers
//!
//! A sweep runs band `i` of the grid ([`band_rows`]) on worker `i` of a
//! [`SweepBands`] set. [`ParallelSweepSolver::run`] clones one sampler
//! per thread; [`ParallelSweepSolver::run_on`] takes workers the caller
//! keeps between runs — the `rsu` crate's `RsuArray` holds one
//! [`BandWorker`] per sampling unit and decides before each sweep what
//! serves each band.

use crate::active::ActiveSet;
use crate::field::LabelField;
use crate::grid::Grid;
use crate::model::{Label, MrfModel};
use crate::solver::{NumericPolicy, SiteSampler, SiteVisitor, SolveReport, Solver};
use crate::trace::{replay_phase_site_updates, NoopObserver, SweepObserver};
use sampling::SiteRng;
use std::ops::Range;

/// The rows owned by band `band` when `height` rows are split over
/// `bands` contiguous bands: `height / bands` rows each, with the first
/// `height % bands` bands taking one extra row.
///
/// # Panics
///
/// Panics if `bands` is zero or `band >= bands`.
pub fn band_rows(height: usize, bands: usize, band: usize) -> Range<usize> {
    assert!(bands > 0, "need at least one band");
    assert!(band < bands, "band {band} out of range for {bands} bands");
    let base = height / bands;
    let extra = height % bands;
    let start = band * base + band.min(extra);
    let rows = base + usize::from(band < extra);
    start..start + rows
}

/// A per-band shard: a sampler plus its reusable local-energy scratch.
///
/// A sweep assigns band `i` of the grid to worker `i` of its
/// [`SweepBands`], so the worker list also *is* the band partition.
#[derive(Debug, Clone)]
pub struct BandWorker<S> {
    sampler: S,
    energies: Vec<f64>,
    energies_f32: Vec<f32>,
    flipped: Vec<usize>,
}

impl<S> BandWorker<S> {
    /// Wraps a sampler as a band worker.
    pub fn new(sampler: S) -> Self {
        BandWorker {
            sampler,
            energies: Vec::new(),
            energies_f32: Vec::new(),
            flipped: Vec::new(),
        }
    }

    /// The band's sampler.
    pub fn sampler(&self) -> &S {
        &self.sampler
    }

    /// The band's sampler, mutably: how a [`SweepBands`] set prepares
    /// it for the next sweep.
    pub fn sampler_mut(&mut self) -> &mut S {
        &mut self.sampler
    }
}

/// The band workers of a checkerboard sweep: band `i` of the grid
/// ([`band_rows`]) runs on worker `i`, and workers beyond the grid's
/// row count idle.
///
/// The solver asks for the workers once per sweep, before either phase,
/// so an implementation may change what serves a band from one sweep to
/// the next. The chain stays a pure function of `(seed, iteration,
/// site)` — identical at any thread count and across kill/resume — as
/// long as that choice is a pure function of the arguments.
pub trait SweepBands {
    /// The per-band site kernel.
    type Sampler: SiteSampler + Send;

    /// Prepares sweep `iteration` of a chain on `grid` at `temperature`
    /// — every sampler that will serve a band sees
    /// [`begin_iteration`](SiteSampler::begin_iteration) — and returns
    /// the workers. `observer` receives the events the preparation
    /// raises (e.g. device faults), gated on its `is_enabled`.
    fn begin_sweep<O: SweepObserver>(
        &mut self,
        grid: Grid,
        iteration: usize,
        temperature: f64,
        observer: &mut O,
    ) -> &mut [BandWorker<Self::Sampler>];
}

/// One sampler clone per band: the workers of
/// [`ParallelSweepSolver::run`].
impl<S: SiteSampler + Send> SweepBands for Vec<BandWorker<S>> {
    type Sampler = S;

    fn begin_sweep<O: SweepObserver>(
        &mut self,
        _grid: Grid,
        _iteration: usize,
        temperature: f64,
        _observer: &mut O,
    ) -> &mut [BandWorker<S>] {
        for worker in self.iter_mut() {
            worker.sampler.begin_iteration(temperature);
        }
        self
    }
}

/// Aggregated outcome of one [`checkerboard_phase`] call.
struct PhaseReport {
    /// Exact total-energy change from the phase's accepted flips,
    /// summed in row order (deterministic for any band/thread count).
    delta_energy: f64,
    /// Number of sites whose label changed.
    labels_changed: u64,
}

/// Work handed to one shard for one phase: the band's rows, its slice
/// of the label buffer, its per-row reduction slots and its worker.
struct BandTask<'a, S> {
    row_start: usize,
    rows: usize,
    labels: &'a mut [Label],
    row_deltas: &'a mut [f64],
    row_changes: &'a mut [u64],
    worker: &'a mut BandWorker<S>,
}

/// Runs one checkerboard parity phase of a Gibbs sweep, band `i` of the
/// grid on `workers[i]`, using up to `threads` host threads.
///
/// `snapshot` is caller-provided scratch (same shape as `field`); it is
/// overwritten with the pre-phase labels so shards can read neighbour
/// values without touching the buffer being written. Every site update
/// draws from `SiteRng::for_site(seed, iteration, site)`, making the
/// result a pure function of the arguments — never of `threads`.
///
/// `numeric` selects the f64 or f32 site kernel. With an [`ActiveSet`]
/// the phase visits only the sites of its current mask, and each worker
/// records the global indices of its flipped sites (in its `flipped`
/// list, until the next call) so the driver can feed the worklist;
/// sites outside the mask keep their labels and consume no randomness.
///
/// # Panics
///
/// Panics if `workers` is empty, the field/model shapes disagree, or
/// `active` tracks a different number of sites than the grid holds.
#[allow(clippy::too_many_arguments)]
fn checkerboard_phase<M, S>(
    model: &M,
    field: &mut LabelField,
    snapshot: &mut LabelField,
    workers: &mut [BandWorker<S>],
    threads: usize,
    phase: usize,
    temperature: f64,
    iteration: u64,
    seed: u64,
    numeric: NumericPolicy,
    active: Option<&ActiveSet>,
) -> PhaseReport
where
    M: MrfModel + Sync,
    S: SiteSampler + Send,
{
    assert!(!workers.is_empty(), "need at least one band worker");
    if let Some(set) = active {
        assert_eq!(set.len(), model.grid().len(), "active mask length mismatch");
    }
    for worker in workers.iter_mut() {
        worker.flipped.clear();
    }
    assert_eq!(field.grid(), model.grid(), "field grid mismatch");
    assert_eq!(snapshot.grid(), model.grid(), "snapshot grid mismatch");
    let grid = model.grid();
    let width = grid.width();
    let height = grid.height();
    let bands = workers.len().min(height.max(1));

    snapshot.copy_labels_from(field);
    let mut row_deltas = vec![0.0f64; height];
    let mut row_changes = vec![0u64; height];
    let mut tasks = Vec::with_capacity(bands);
    {
        let mut labels = field.labels_mut();
        let mut deltas = &mut row_deltas[..];
        let mut changes = &mut row_changes[..];
        for (band, worker) in workers.iter_mut().take(bands).enumerate() {
            let rows = band_rows(height, bands, band).len();
            let (band_labels, rest_labels) = labels.split_at_mut(rows * width);
            let (band_deltas, rest_deltas) = deltas.split_at_mut(rows);
            let (band_changes, rest_changes) = changes.split_at_mut(rows);
            labels = rest_labels;
            deltas = rest_deltas;
            changes = rest_changes;
            tasks.push(BandTask {
                row_start: band_rows(height, bands, band).start,
                rows,
                labels: band_labels,
                row_deltas: band_deltas,
                row_changes: band_changes,
                worker,
            });
        }
    }

    let snapshot = &*snapshot;
    let run_task = |task: &mut BandTask<'_, S>| {
        sweep_band(
            model,
            snapshot,
            task,
            width,
            phase,
            temperature,
            iteration,
            seed,
            numeric,
            active,
        )
    };
    let host_threads = threads.max(1).min(bands);
    if host_threads == 1 {
        for task in tasks.iter_mut() {
            run_task(task);
        }
    } else {
        let group = tasks.len().div_ceil(host_threads);
        // A panicking worker propagates out of the scope.
        std::thread::scope(|s| {
            let run_task = &run_task;
            for chunk in tasks.chunks_mut(group) {
                s.spawn(move || {
                    for task in chunk.iter_mut() {
                        run_task(task);
                    }
                });
            }
        });
    }

    // Fold per-row reductions in row order: the summation order is
    // fixed by the grid, never by the band partition or thread count.
    let mut report = PhaseReport {
        delta_energy: 0.0,
        labels_changed: 0,
    };
    for (delta, changes) in row_deltas.iter().zip(&row_changes) {
        report.delta_energy += delta;
        report.labels_changed += changes;
    }
    report
}

/// Updates every `phase`-parity site in one row band.
///
/// Reads go through `snapshot` (valid: all neighbours are opposite
/// parity, unwritten this phase); writes go to the band's own label
/// slice. Deltas and change counts land in the band's per-row slots.
#[allow(clippy::too_many_arguments)]
fn sweep_band<M, S>(
    model: &M,
    snapshot: &LabelField,
    task: &mut BandTask<'_, S>,
    width: usize,
    phase: usize,
    temperature: f64,
    iteration: u64,
    seed: u64,
    numeric: NumericPolicy,
    active: Option<&ActiveSet>,
) where
    M: MrfModel + Sync,
    S: SiteSampler,
{
    for local_y in 0..task.rows {
        let y = task.row_start + local_y;
        let mut delta = 0.0;
        let mut changes = 0u64;
        for x in 0..width {
            if (x + y) % 2 != phase {
                continue;
            }
            let site = y * width + x;
            if let Some(set) = active {
                if !set.is_active(site) {
                    continue;
                }
            }
            let current = snapshot.get(site);
            let mut rng = SiteRng::for_site(seed, iteration, site as u64);
            let (new, flip_delta) = match numeric {
                NumericPolicy::Exact => {
                    model.local_energies(site, snapshot, &mut task.worker.energies);
                    let new = task.worker.sampler.sample_label(
                        &task.worker.energies,
                        temperature,
                        current,
                        &mut rng,
                    );
                    let delta =
                        task.worker.energies[new as usize] - task.worker.energies[current as usize];
                    (new, delta)
                }
                NumericPolicy::Fast => {
                    let e_min =
                        model.local_energies_f32(site, snapshot, &mut task.worker.energies_f32);
                    let new = task.worker.sampler.sample_label_f32(
                        &task.worker.energies_f32,
                        e_min,
                        temperature,
                        current,
                        &mut rng,
                    );
                    let delta = (task.worker.energies_f32[new as usize]
                        - task.worker.energies_f32[current as usize])
                        as f64;
                    (new, delta)
                }
            };
            if new != current {
                delta += flip_delta;
                changes += 1;
                task.labels[local_y * width + x] = new;
                if active.is_some() {
                    task.worker.flipped.push(site);
                }
            }
        }
        task.row_deltas[local_y] = delta;
        task.row_changes[local_y] = changes;
    }
}

/// The engine of [`ParallelSweepSolver`]: checkerboard phases sharded
/// over row bands on up to `threads` worker threads, every site update
/// drawing from its own [`SiteRng`] stream keyed on
/// `(seed, iteration, site)`.
#[derive(Debug, Clone, Copy)]
pub struct Checkerboard {
    threads: usize,
    seed: u64,
}

/// Multi-threaded checkerboard Gibbs solver.
///
/// The [`Solver`] builder of [`SweepSolver`](crate::SweepSolver) with
/// its own randomness: instead of threading a sequential generator
/// through the sweep, every site update derives an independent
/// [`SiteRng`] stream from `(seed, iteration, site)`. See the module
/// documentation for the determinism contract.
///
/// # Example
///
/// ```
/// use mrf::{
///     DistanceFn, LabelField, MrfModel, ParallelSweepSolver, Schedule, SoftwareGibbs, TabularMrf,
/// };
///
/// let model = TabularMrf::checkerboard(16, 16, 3, 4.0, DistanceFn::Binary, 0.3);
/// let solve = |threads| {
///     let mut field = LabelField::constant(model.grid(), 3, 0);
///     ParallelSweepSolver::new(&model)
///         .schedule(Schedule::geometric(3.0, 0.9, 0.05))
///         .iterations(40)
///         .threads(threads)
///         .seed(7)
///         .run(&mut field, &SoftwareGibbs::new());
///     field
/// };
/// // Thread count never changes the result.
/// assert_eq!(solve(1).as_slice(), solve(4).as_slice());
/// ```
pub type ParallelSweepSolver<'m, M, O = NoopObserver> = Solver<'m, M, Checkerboard, O>;

impl<'m, M: MrfModel + Sync> ParallelSweepSolver<'m, M> {
    /// Creates a solver with defaults: constant temperature 1.0, 100
    /// iterations, 1 thread, seed 0, no stop flag, no observer.
    pub fn new(model: &'m M) -> Self {
        Solver::with_engine(
            model,
            Checkerboard {
                threads: 1,
                seed: 0,
            },
        )
    }
}

impl<'m, M: MrfModel + Sync, O: SweepObserver> ParallelSweepSolver<'m, M, O> {
    /// Sets the number of worker threads (clamped to at least 1; bands
    /// never outnumber grid rows). The result is identical for every
    /// value — threads only change wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.engine.threads = threads.max(1);
        self
    }

    /// Sets the chain seed. Together with the model, initial field and
    /// sampler this fully determines the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Runs the solver, mutating `field` in place.
    ///
    /// The sampler is cloned once per band, one band per thread;
    /// stateless kernels like [`SoftwareGibbs`](crate::SoftwareGibbs) and
    /// [`IcmSampler`](crate::IcmSampler) are unaffected by cloning.
    ///
    /// # Panics
    ///
    /// Panics if the field's grid or label count disagree with the model.
    pub fn run<S>(&mut self, field: &mut LabelField, sampler: &S) -> SolveReport
    where
        S: SiteSampler + Clone + Send,
    {
        let bands = self.engine.threads.min(self.model.grid().height().max(1));
        let mut workers: Vec<BandWorker<S>> = (0..bands)
            .map(|_| BandWorker::new(sampler.clone()))
            .collect();
        self.run_on(field, &mut workers)
    }

    /// Runs the solver on the caller's band workers (see
    /// [`SweepBands`]), mutating `field` in place. The workers' band
    /// partition is independent of the thread count, which only sets
    /// how many host threads share them.
    ///
    /// # Panics
    ///
    /// Panics if the field's grid or label count disagree with the
    /// model, or if `bands` returns no worker.
    pub fn run_on<B: SweepBands>(&mut self, field: &mut LabelField, bands: &mut B) -> SolveReport {
        let Checkerboard { threads, seed } = self.engine;
        let mut board = CheckerboardSweep {
            model: self.model,
            bands,
            snapshot: field.clone(),
            threads,
            seed,
            numeric: self.numeric,
        };
        self.drive(field, &mut board)
    }
}

/// Checkerboard visits: the even phase then the odd phase, each sharded
/// over row bands, every site drawing from its own counter-based stream.
struct CheckerboardSweep<'a, M, B> {
    model: &'a M,
    bands: &'a mut B,
    snapshot: LabelField,
    threads: usize,
    seed: u64,
    numeric: NumericPolicy,
}

impl<M: MrfModel + Sync, B: SweepBands> SiteVisitor for CheckerboardSweep<'_, M, B> {
    fn sweep<O: SweepObserver>(
        &mut self,
        field: &mut LabelField,
        iteration: usize,
        temperature: f64,
        energy: &mut f64,
        mut active: Option<&mut ActiveSet>,
        observer: &mut O,
    ) -> u64 {
        let grid = self.model.grid();
        let workers = self
            .bands
            .begin_sweep(grid, iteration, temperature, observer);
        let want_sites = observer.is_enabled() && observer.wants_site_updates();
        let mut flips = 0u64;
        for phase in 0..2 {
            let outcome = checkerboard_phase(
                self.model,
                field,
                &mut self.snapshot,
                workers,
                self.threads,
                phase,
                temperature,
                iteration as u64,
                self.seed,
                self.numeric,
                active.as_deref(),
            );
            *energy += outcome.delta_energy;
            flips += outcome.labels_changed;
            // Merge per-band flip lists into the worklist in band
            // order. Marking is an idempotent set-bit, so the merge
            // order cannot change the next mask anyway — the band
            // partition and thread count stay invisible.
            if let Some(set) = active.as_deref_mut() {
                for worker in workers.iter() {
                    for &site in &worker.flipped {
                        set.mark_flip(&grid, site);
                    }
                }
            }
            if want_sites {
                replay_phase_site_updates(&self.snapshot, field, phase, iteration, observer);
            }
        }
        flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annealing::Schedule;
    use crate::energy::DistanceFn;
    use crate::model::TabularMrf;
    use crate::solver::{total_energy, SoftwareGibbs};

    fn test_model() -> TabularMrf {
        TabularMrf::checkerboard(8, 8, 3, 4.0, DistanceFn::Binary, 0.3)
    }

    fn run_with_threads(threads: usize) -> (LabelField, SolveReport) {
        let model = test_model();
        let mut field = LabelField::constant(model.grid(), 3, 0);
        let report = ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.05))
            .iterations(60)
            .threads(threads)
            .seed(1234)
            .run(&mut field, &SoftwareGibbs::new());
        (field, report)
    }

    #[test]
    fn thread_count_does_not_change_anything() {
        let (base_field, base_report) = run_with_threads(1);
        for threads in [2, 3, 8] {
            let (field, report) = run_with_threads(threads);
            assert_eq!(field.as_slice(), base_field.as_slice(), "{threads} threads");
            assert_eq!(report, base_report, "{threads} threads");
        }
    }

    #[test]
    fn parallel_gibbs_recovers_checkerboard() {
        let model = test_model();
        let mut field = LabelField::constant(model.grid(), 3, 0);
        ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.05))
            .iterations(120)
            .threads(4)
            .seed(7)
            .run(&mut field, &SoftwareGibbs::new());
        let truth = TabularMrf::checkerboard_truth(8, 8, 3);
        assert!(
            field.disagreement(&truth) < 0.05,
            "disagreement {} too high",
            field.disagreement(&truth)
        );
    }

    #[test]
    fn incremental_energy_history_matches_full_recomputation() {
        let model = test_model();
        let mut field = LabelField::constant(model.grid(), 3, 0);
        let report = ParallelSweepSolver::new(&model)
            .schedule(Schedule::geometric(3.0, 0.9, 0.05))
            .iterations(40)
            .threads(3)
            .seed(99)
            .run(&mut field, &SoftwareGibbs::new());
        let full = total_energy(&model, &field);
        let incremental = report.final_energy();
        assert!(
            (full - incremental).abs() <= 1e-9 * full.abs().max(1.0),
            "{incremental} drifted from {full}"
        );
    }

    #[test]
    fn raised_stop_flag_runs_no_sweep() {
        let model = test_model();
        let mut field = LabelField::constant(model.grid(), 3, 0);
        let raised = std::sync::atomic::AtomicBool::new(true);
        let report = ParallelSweepSolver::new(&model)
            .iterations(500)
            .threads(2)
            .seed(5)
            .stop_on(&raised)
            .run(&mut field, &SoftwareGibbs::new());
        assert_eq!(report.iterations_run, 0);
        assert_eq!(field, LabelField::constant(model.grid(), 3, 0));
    }

    #[test]
    fn degenerate_grids_work() {
        for (w, h) in [(1, 1), (1, 5), (5, 1), (2, 2)] {
            let model = TabularMrf::checkerboard(w, h, 2, 2.0, DistanceFn::Binary, 0.2);
            let mut field = LabelField::constant(model.grid(), 2, 0);
            let report = ParallelSweepSolver::new(&model)
                .iterations(5)
                .threads(7)
                .seed(3)
                .run(&mut field, &SoftwareGibbs::new());
            assert_eq!(report.iterations_run, 5, "{w}x{h}");
        }
    }

    #[test]
    fn band_rows_partition_is_exact() {
        for height in [1, 2, 5, 7, 64] {
            for bands in [1, 2, 3, 7] {
                if bands > height {
                    continue;
                }
                let mut next = 0;
                for band in 0..bands {
                    let rows = band_rows(height, bands, band);
                    assert_eq!(rows.start, next, "h={height} b={bands}");
                    assert!(!rows.is_empty() || height < bands);
                    next = rows.end;
                }
                assert_eq!(next, height, "h={height} b={bands}");
            }
        }
    }
}
