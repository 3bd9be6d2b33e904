//! Solver observability: per-sweep tracing and convergence diagnostics.
//!
//! The paper's central claim is about *result quality over iterations*
//! (Figs. 8/9 compare software vs RSU-G energy and %-bad-pixel
//! trajectories), so the solvers expose a zero-overhead-when-off
//! observation hook: every sweep engine accepts a [`SweepObserver`] —
//! [`SweepSolver`] and [`ParallelSweepSolver`] through their `observer`
//! builder field (default [`NoopObserver`]), whatever band workers the
//! latter runs on (the `rsu` crate's `RsuArray` included) — and a
//! disabled observer leaves the engine bit-identical to its unobserved
//! behaviour.
//!
//! # The observer determinism contract
//!
//! Attaching an observer **never changes the chain**: the label field,
//! the solve report, and the engine's RNG consumption are bit-identical
//! with and without an observer, for every engine and every host thread
//! count (enforced by `tests/observer_identity.rs`). Three rules make
//! this hold:
//!
//! * **Observers only read.** Every hook takes the record by shared
//!   reference; the engine computes nothing differently because an
//!   observer is attached. The per-sweep energy and flip counters the
//!   records carry are the same incremental quantities the engines
//!   already maintain for their [`SolveReport`](crate::SolveReport).
//! * **Deterministic merge order.** The parallel engines accumulate
//!   flip counts and energy deltas per row band and fold them in row
//!   order on the driver thread, so observed counters are a function of
//!   the grid — never of the thread count or band partition.
//! * **Deterministic site replay.** Per-site hooks are driven after
//!   each checkerboard phase by diffing the pre-phase snapshot against
//!   the updated field in raster order
//!   (`replay_phase_site_updates`), not by the racing workers, so
//!   update events arrive in the same order at any thread count. The
//!   sequential engine emits them inline, which is the same raster
//!   order.
//!
//! Only wall-clock `elapsed` differs between runs; diagnostics never
//! depend on it.
//!
//! # Diagnostics
//!
//! [`EnergyTrace`] records the sweep stream in memory and derives the
//! chain diagnostics the evaluation needs: autocorrelation-based
//! effective sample size ([`effective_sample_size`]), the Gelman–Rubin
//! potential scale reduction factor across independently seeded chains
//! ([`potential_scale_reduction`]), and iterations-to-within-ε of the
//! final energy ([`EnergyTrace::iterations_to_within`]).
//!
//! [`SweepSolver`]: crate::SweepSolver
//! [`ParallelSweepSolver`]: crate::ParallelSweepSolver

use crate::field::LabelField;
use crate::model::Label;
use std::time::Duration;

/// One completed sweep (solver iteration) as seen by an observer.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Iteration index within the run (0-based).
    pub iteration: usize,
    /// Annealing temperature the sweep ran at.
    pub temperature: f64,
    /// Total field energy after the sweep (incrementally tracked).
    pub energy: f64,
    /// Site updates that changed a label during the sweep.
    pub flips: u64,
    /// Wall-clock time the sweep took. The only nondeterministic field;
    /// diagnostics never depend on it.
    pub elapsed: Duration,
}

/// A device-fault event surfaced by a degrading engine (the `rsu`
/// crate's `RsuArray` with a fault plan installed).
///
/// Emitted once per fault, on the driver thread, at the start of the
/// first sweep the fault is active in — so the event stream is
/// deterministic for any thread count, like every other observer hook.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Sweep (global iteration index) the fault activated at.
    pub iteration: usize,
    /// Index of the affected hardware unit within its array.
    pub unit: usize,
    /// Fault model, e.g. `"dead-spad"`, `"bleached"`, `"stuck"`.
    pub kind: &'static str,
    /// How the engine degraded, e.g. `"remap"`, `"software-fallback"`,
    /// `"derate"`, `"freeze"`.
    pub action: &'static str,
    /// Healthy unit the failed unit's sites were remapped to, if the
    /// action was a remap.
    pub remapped_to: Option<usize>,
}

/// Observer of a sweep engine's progress.
///
/// All hooks default to no-ops, so implementors opt into exactly the
/// stream they need. See the [module docs](self) for the determinism
/// contract engines uphold when calling these hooks.
pub trait SweepObserver {
    /// Whether the engine should produce records at all. Engines skip
    /// record construction (and wall-clock reads) entirely when this is
    /// `false`, making a disabled observer literally free.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Called once after each completed sweep.
    fn on_sweep(&mut self, record: &SweepRecord) {
        let _ = record;
    }

    /// Whether [`on_site_update`](Self::on_site_update) should be
    /// driven. Defaults to `false` because replaying site updates costs
    /// a raster scan per checkerboard phase in the parallel engines.
    fn wants_site_updates(&self) -> bool {
        false
    }

    /// Called for every accepted label change, in raster order within a
    /// sweep (sequential engines) or within each checkerboard phase
    /// (parallel engines).
    fn on_site_update(&mut self, iteration: usize, site: usize, old: Label, new: Label) {
        let _ = (iteration, site, old, new);
    }

    /// Called once per fault when a degrading engine activates it,
    /// gated on [`is_enabled`](Self::is_enabled) like every other hook.
    fn on_fault(&mut self, record: &FaultRecord) {
        let _ = record;
    }

    /// Called once per sweep by engines running active-site scheduling
    /// (before the worklist advances): how many sites the sweep
    /// visited and how many converged sites it skipped. Deterministic
    /// like every other hook — the worklist is a pure function of the
    /// chain. Engines running full sweeps never call it.
    fn on_active_sweep(&mut self, iteration: usize, visited: u64, skipped: u64) {
        let _ = (iteration, visited, skipped);
    }
}

impl<O: SweepObserver + ?Sized> SweepObserver for &mut O {
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    fn on_sweep(&mut self, record: &SweepRecord) {
        (**self).on_sweep(record)
    }

    fn wants_site_updates(&self) -> bool {
        (**self).wants_site_updates()
    }

    fn on_site_update(&mut self, iteration: usize, site: usize, old: Label, new: Label) {
        (**self).on_site_update(iteration, site, old, new)
    }

    fn on_fault(&mut self, record: &FaultRecord) {
        (**self).on_fault(record)
    }

    fn on_active_sweep(&mut self, iteration: usize, visited: u64, skipped: u64) {
        (**self).on_active_sweep(iteration, visited, skipped)
    }
}

/// The do-nothing observer, the engines' default. Reports itself
/// disabled, so engines skip all observation work.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SweepObserver for NoopObserver {
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Fans one engine's stream out to several observers (e.g. an on-disk
/// JSONL writer plus an in-memory [`EnergyTrace`]).
#[derive(Default)]
pub struct FanOut<'a> {
    observers: Vec<&'a mut dyn SweepObserver>,
}

impl<'a> FanOut<'a> {
    /// Creates an empty fan-out (disabled until an observer is added).
    pub fn new() -> Self {
        FanOut {
            observers: Vec::new(),
        }
    }

    /// Adds an observer to the fan-out.
    pub fn push(&mut self, observer: &'a mut dyn SweepObserver) {
        self.observers.push(observer);
    }
}

impl SweepObserver for FanOut<'_> {
    fn is_enabled(&self) -> bool {
        self.observers.iter().any(|o| o.is_enabled())
    }

    fn on_sweep(&mut self, record: &SweepRecord) {
        for o in self.observers.iter_mut() {
            o.on_sweep(record);
        }
    }

    fn wants_site_updates(&self) -> bool {
        self.observers.iter().any(|o| o.wants_site_updates())
    }

    fn on_site_update(&mut self, iteration: usize, site: usize, old: Label, new: Label) {
        for o in self.observers.iter_mut() {
            if o.wants_site_updates() {
                o.on_site_update(iteration, site, old, new);
            }
        }
    }

    fn on_fault(&mut self, record: &FaultRecord) {
        for o in self.observers.iter_mut() {
            o.on_fault(record);
        }
    }

    fn on_active_sweep(&mut self, iteration: usize, visited: u64, skipped: u64) {
        for o in self.observers.iter_mut() {
            o.on_active_sweep(iteration, visited, skipped);
        }
    }
}

/// Replays the label changes of one checkerboard phase to an observer
/// in raster order.
///
/// `before` must hold the pre-phase labels (the engines' snapshot
/// buffer) and `after` the post-phase field; only `parity`-parity sites
/// can differ. Because the scan order is the grid's raster order, the
/// event sequence is independent of how the phase was sharded across
/// threads — this is what makes per-site observation safe in the
/// parallel engines.
pub(crate) fn replay_phase_site_updates<O: SweepObserver + ?Sized>(
    before: &LabelField,
    after: &LabelField,
    parity: usize,
    iteration: usize,
    observer: &mut O,
) {
    let grid = after.grid();
    for site in grid.sites() {
        let (x, y) = grid.coords(site);
        if (x + y) % 2 != parity {
            continue;
        }
        let (old, new) = (before.get(site), after.get(site));
        if old != new {
            observer.on_site_update(iteration, site, old, new);
        }
    }
}

/// In-memory sweep recorder with convergence diagnostics.
///
/// # Example
///
/// ```
/// use mrf::{
///     DistanceFn, EnergyTrace, LabelField, MrfModel, ParallelSweepSolver, Schedule, SoftwareGibbs,
///     TabularMrf,
/// };
///
/// let model = TabularMrf::checkerboard(8, 8, 3, 4.0, DistanceFn::Binary, 0.3);
/// let mut field = LabelField::constant(model.grid(), 3, 0);
/// let mut trace = EnergyTrace::new();
/// let report = ParallelSweepSolver::new(&model)
///     .schedule(Schedule::geometric(3.0, 0.9, 0.05))
///     .iterations(40)
///     .seed(7)
///     .observer(&mut trace)
///     .run(&mut field, &SoftwareGibbs::new());
/// assert_eq!(trace.len(), report.iterations_run);
/// assert_eq!(trace.energies().last(), report.energy_history.last());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnergyTrace {
    records: Vec<SweepRecord>,
}

impl EnergyTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        EnergyTrace::default()
    }

    /// The recorded sweeps, in order.
    pub fn records(&self) -> &[SweepRecord] {
        &self.records
    }

    /// Number of recorded sweeps.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The per-sweep energy series.
    pub fn energies(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.energy).collect()
    }

    /// Autocorrelation-based effective sample size of the energy
    /// series. See [`effective_sample_size`].
    pub fn ess(&self) -> Option<f64> {
        effective_sample_size(&self.energies())
    }

    /// First iteration from which the energy stays within
    /// `epsilon · max(|E_final|, 1)` of the final energy for the rest
    /// of the run, or `None` for an empty trace.
    ///
    /// This is the "time to quality" x-coordinate of the paper's Fig. 8
    /// style comparisons: how many sweeps a sampler needs before its
    /// energy trajectory has effectively converged.
    pub fn iterations_to_within(&self, epsilon: f64) -> Option<usize> {
        let last = self.records.last()?;
        let band = epsilon * last.energy.abs().max(1.0);
        let mut first = self.records.len() - 1;
        for (i, r) in self.records.iter().enumerate().rev() {
            if (r.energy - last.energy).abs() <= band {
                first = i;
            } else {
                break;
            }
        }
        Some(self.records[first].iteration)
    }
}

impl SweepObserver for EnergyTrace {
    fn on_sweep(&mut self, record: &SweepRecord) {
        self.records.push(record.clone());
    }
}

/// Biased (divide-by-n) autocovariance of `xs` at `lag`.
fn autocovariance(xs: &[f64], mean: f64, lag: usize) -> f64 {
    let n = xs.len();
    xs[..n - lag]
        .iter()
        .zip(&xs[lag..])
        .map(|(&a, &b)| (a - mean) * (b - mean))
        .sum::<f64>()
        / n as f64
}

/// Effective sample size of a stationary series via Geyer's initial
/// positive sequence: `ESS = n / (1 + 2 Σ ρ_k)`, with the
/// autocorrelation sum truncated at the first adjacent-pair sum
/// `ρ_{2t−1} + ρ_{2t}` that turns non-positive.
///
/// Returns `None` for series shorter than two points. A constant series
/// has no autocorrelation structure to estimate; it reports `n`
/// (every point is "independent" of a degenerate chain).
pub fn effective_sample_size(xs: &[f64]) -> Option<f64> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let c0 = autocovariance(xs, mean, 0);
    if c0 <= 0.0 {
        return Some(n as f64);
    }
    let mut rho_sum = 0.0;
    let mut lag = 1;
    while lag + 1 < n {
        let pair = autocovariance(xs, mean, lag) / c0 + autocovariance(xs, mean, lag + 1) / c0;
        if pair <= 0.0 {
            break;
        }
        rho_sum += pair;
        lag += 2;
    }
    let ess = n as f64 / (1.0 + 2.0 * rho_sum);
    Some(ess.clamp(1.0, n as f64))
}

/// Gelman–Rubin potential scale reduction factor (PSRF, "R-hat") across
/// independently seeded chains of the same quantity.
///
/// Chains are truncated to the shortest length. Returns `None` with
/// fewer than two chains or fewer than two samples per chain. When the
/// within-chain variance is zero, returns 1.0 if the chains agree
/// exactly and `f64::INFINITY` if they froze at different values.
pub fn potential_scale_reduction(chains: &[Vec<f64>]) -> Option<f64> {
    let m = chains.len();
    if m < 2 {
        return None;
    }
    let n = chains.iter().map(Vec::len).min()?;
    if n < 2 {
        return None;
    }
    let means: Vec<f64> = chains
        .iter()
        .map(|c| c[..n].iter().sum::<f64>() / n as f64)
        .collect();
    let grand = means.iter().sum::<f64>() / m as f64;
    let b = means.iter().map(|&mu| (mu - grand).powi(2)).sum::<f64>() * n as f64 / (m - 1) as f64;
    let w = chains
        .iter()
        .zip(&means)
        .map(|(c, &mu)| c[..n].iter().map(|&x| (x - mu).powi(2)).sum::<f64>() / (n - 1) as f64)
        .sum::<f64>()
        / m as f64;
    if w <= 0.0 {
        return Some(if b <= 0.0 { 1.0 } else { f64::INFINITY });
    }
    let v_hat = (n - 1) as f64 / n as f64 * w + b / n as f64;
    Some((v_hat / w).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(iteration: usize, energy: f64) -> SweepRecord {
        SweepRecord {
            iteration,
            temperature: 1.0,
            energy,
            flips: 0,
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn noop_observer_is_disabled() {
        assert!(!NoopObserver.is_enabled());
        assert!(!NoopObserver.wants_site_updates());
    }

    #[test]
    fn energy_trace_records_sweeps_in_order() {
        let mut trace = EnergyTrace::new();
        for (i, e) in [5.0, 3.0, 2.0].iter().enumerate() {
            trace.on_sweep(&record(i, *e));
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.energies(), vec![5.0, 3.0, 2.0]);
    }

    #[test]
    fn ess_of_near_independent_series_is_large() {
        // A deterministic low-autocorrelation sequence (alternating with
        // drift-free noise pattern).
        let xs: Vec<f64> = (0..500)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + 0.001 * (i % 7) as f64))
            .collect();
        let ess = effective_sample_size(&xs).unwrap();
        assert!(ess > 250.0, "alternating series has ESS {ess}");
    }

    #[test]
    fn ess_of_strongly_correlated_series_is_small() {
        // A slow ramp is maximally autocorrelated.
        let xs: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let ess = effective_sample_size(&xs).unwrap();
        assert!(ess < 50.0, "ramp has ESS {ess}");
    }

    #[test]
    fn ess_handles_degenerate_series() {
        assert_eq!(effective_sample_size(&[]), None);
        assert_eq!(effective_sample_size(&[1.0]), None);
        assert_eq!(effective_sample_size(&[2.0; 10]), Some(10.0));
    }

    #[test]
    fn psrf_is_one_for_identical_chains_and_large_for_divergent() {
        let a: Vec<f64> = (0..100).map(|i| ((i * 37) % 11) as f64).collect();
        let same = potential_scale_reduction(&[a.clone(), a.clone(), a.clone()]).unwrap();
        assert!((same - 1.0).abs() < 0.05, "identical chains gave {same}");

        let shifted: Vec<f64> = a.iter().map(|x| x + 1000.0).collect();
        let apart = potential_scale_reduction(&[a, shifted]).unwrap();
        assert!(apart > 10.0, "divergent chains gave {apart}");
    }

    #[test]
    fn psrf_handles_degenerate_inputs() {
        assert_eq!(potential_scale_reduction(&[]), None);
        assert_eq!(potential_scale_reduction(&[vec![1.0, 2.0]]), None);
        assert_eq!(
            potential_scale_reduction(&[vec![3.0, 3.0], vec![3.0, 3.0]]),
            Some(1.0)
        );
        assert_eq!(
            potential_scale_reduction(&[vec![3.0, 3.0], vec![4.0, 4.0]]),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn iterations_to_within_finds_the_settling_point() {
        let mut trace = EnergyTrace::new();
        for (i, e) in [100.0, 50.0, 20.0, 10.0, 10.2, 9.9, 10.0]
            .iter()
            .enumerate()
        {
            trace.on_sweep(&record(i, *e));
        }
        // Band at ε = 0.05: 0.05 · max(10, 1) = 0.5 around 10.0 — entered
        // at iteration 3 and never left.
        assert_eq!(trace.iterations_to_within(0.05), Some(3));
        // A tiny ε admits only the exact final energy (and iteration 3's
        // 10.0 is excluded by the 10.2 excursion after it).
        assert_eq!(trace.iterations_to_within(1e-9), Some(6));
        assert_eq!(EnergyTrace::new().iterations_to_within(0.1), None);
    }

    #[test]
    fn fan_out_forwards_to_all_observers() {
        let mut a = EnergyTrace::new();
        let mut b = EnergyTrace::new();
        {
            let mut fan = FanOut::new();
            assert!(!fan.is_enabled(), "empty fan-out must be disabled");
            fan.push(&mut a);
            fan.push(&mut b);
            assert!(fan.is_enabled());
            fan.on_sweep(&record(0, 7.0));
        }
        assert_eq!(a.energies(), vec![7.0]);
        assert_eq!(b.energies(), vec![7.0]);
    }
}
