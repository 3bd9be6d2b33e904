//! Integration tests for checkpoint/resume of [`RsuArray`] chains —
//! healthy and fault-degraded — via [`mrf::Checkpoint`].
//!
//! The checkerboard solver sweeps the array, so "resume" means: restore
//! the field and the solver state from the checkpoint, build a *fresh*
//! array (same config, same fault plan) and continue at the stored
//! iteration index.
//! That is bit-identical because every per-sweep input is a pure
//! function of the absolute iteration: the per-site RNG streams, the
//! annealing temperature and the fault
//! state (activation and bleaching derate keyed off the iteration, not
//! off elapsed array history).

use mrf::{
    Checkpoint, DistanceFn, FaultRecord, LabelField, MrfModel, NoopObserver, ParallelSweepSolver,
    ResumeState, Schedule, SolveReport, SweepObserver, TabularMrf,
};
use rand::SeedableRng;
use rsu::{DegradePolicy, FaultKind, FaultPlan, RsuArray, RsuConfig, ScheduledFault};
use sampling::Xoshiro256pp;

const SEED: u64 = 77;
const UNITS: u32 = 4;

fn model() -> TabularMrf {
    TabularMrf::checkerboard(10, 8, 3, 5.0, DistanceFn::Binary, 0.5)
}

fn schedule() -> Schedule {
    Schedule::geometric(3.0, 0.92, 0.1)
}

fn initial_field(model: &TabularMrf) -> LabelField {
    let mut rng = Xoshiro256pp::seed_from_u64(SEED);
    LabelField::random(model.grid(), model.num_labels(), &mut rng)
}

fn degraded_plan() -> FaultPlan {
    FaultPlan::new(DegradePolicy::RemapToHealthy)
        .with_fault(ScheduledFault {
            unit: 1,
            sweep: 4,
            kind: FaultKind::DeadSpad,
        })
        .with_fault(ScheduledFault {
            unit: 2,
            sweep: 12,
            kind: FaultKind::Bleached {
                lifetime_sweeps: 6.0,
            },
        })
}

/// Runs checkerboard sweeps up to `end` on an array, from the start or
/// from `resume`, reporting to `observer`.
fn run_observed<O: SweepObserver>(
    array: &mut RsuArray,
    model: &TabularMrf,
    field: &mut LabelField,
    resume: Option<ResumeState>,
    end: usize,
    threads: usize,
    observer: O,
) -> SolveReport {
    let mut solver = ParallelSweepSolver::new(model)
        .schedule(schedule())
        .iterations(end)
        .threads(threads)
        .seed(SEED)
        .observer(observer);
    if let Some(state) = resume {
        solver = solver.resume(state);
    }
    solver.run_on(field, array)
}

/// [`run_observed`] without an observer.
fn run_parallel(
    array: &mut RsuArray,
    model: &TabularMrf,
    field: &mut LabelField,
    resume: Option<ResumeState>,
    end: usize,
    threads: usize,
) -> SolveReport {
    run_observed(array, model, field, resume, end, threads, NoopObserver)
}

/// The checkpoint of a run stopped at its report.
fn capture(field: &LabelField, report: SolveReport) -> Checkpoint {
    Checkpoint::capture(
        "rsu-array",
        field,
        report.iterations_run,
        report.final_energy(),
        report.labels_changed,
        report.energy_history,
    )
    .with_seed(SEED)
}

/// Records fault activations, like `bench`'s JSONL writer would.
#[derive(Default)]
struct FaultRecorder(Vec<(usize, usize, &'static str, &'static str, Option<usize>)>);

impl SweepObserver for FaultRecorder {
    fn on_fault(&mut self, r: &FaultRecord) {
        self.0
            .push((r.iteration, r.unit, r.kind, r.action, r.remapped_to));
    }
}

#[test]
fn healthy_parallel_array_kill_and_resume_is_bit_identical_across_thread_counts() {
    let model = model();
    let total = 24;
    let k = 10;
    let mut reference = initial_field(&model);
    run_parallel(
        &mut RsuArray::new(RsuConfig::new_design(), UNITS),
        &model,
        &mut reference,
        None,
        total,
        1,
    );

    for kill_threads in [1, 2, 7] {
        let mut field = initial_field(&model);
        let report = run_parallel(
            &mut RsuArray::new(RsuConfig::new_design(), UNITS),
            &model,
            &mut field,
            None,
            k,
            kill_threads,
        );
        let checkpoint = capture(&field, report);
        let restored = Checkpoint::from_text(&checkpoint.to_text()).unwrap();
        restored.expect_engine("rsu-array").unwrap();

        for resume_threads in [1, 2, 7] {
            // A *fresh* array: no state beyond the checkpoint survives a
            // kill, so none may be needed.
            let mut resumed = restored.restore_field();
            run_parallel(
                &mut RsuArray::new(RsuConfig::new_design(), UNITS),
                &model,
                &mut resumed,
                Some(restored.resume_state()),
                total,
                resume_threads,
            );
            assert_eq!(
                reference, resumed,
                "kill at {kill_threads}t, resume at {resume_threads}t"
            );
        }
    }
}

#[test]
fn degraded_array_kill_and_resume_is_bit_identical() {
    let model = model();
    let total = 24;
    let mut reference = initial_field(&model);
    {
        let mut array = RsuArray::new(RsuConfig::new_design(), UNITS);
        array.install_faults(degraded_plan());
        run_parallel(&mut array, &model, &mut reference, None, total, 2);
    }

    // Kill points straddle both fault activations (sweeps 4 and 12).
    for k in [2, 8, 15] {
        let mut field = initial_field(&model);
        let report = {
            let mut array = RsuArray::new(RsuConfig::new_design(), UNITS);
            array.install_faults(degraded_plan());
            run_parallel(&mut array, &model, &mut field, None, k, 3)
        };
        let checkpoint = capture(&field, report);
        let restored = Checkpoint::from_text(&checkpoint.to_text()).unwrap();
        for resume_threads in [1, 7] {
            let mut resumed = restored.restore_field();
            let mut array = RsuArray::new(RsuConfig::new_design(), UNITS);
            array.install_faults(degraded_plan());
            run_parallel(
                &mut array,
                &model,
                &mut resumed,
                Some(restored.resume_state()),
                total,
                resume_threads,
            );
            assert_eq!(
                reference, resumed,
                "kill at {k}, resume at {resume_threads}t"
            );
        }
    }
}

#[test]
fn fault_activations_are_emitted_exactly_once_across_a_kill_resume_boundary() {
    let model = model();
    let total = 20;
    // Uninterrupted reference stream of fault events.
    let mut uninterrupted = FaultRecorder::default();
    {
        let mut array = RsuArray::new(RsuConfig::new_design(), UNITS);
        array.install_faults(degraded_plan());
        let mut field = initial_field(&model);
        run_observed(
            &mut array,
            &model,
            &mut field,
            None,
            total,
            2,
            &mut uninterrupted,
        );
    }
    assert_eq!(
        uninterrupted.0,
        vec![
            (4, 1, "dead-spad", "remap", Some(2)),
            (12, 2, "bleached", "derate", None),
        ]
    );

    // Kill at sweep 8: after the dead-SPAD activation, before the
    // bleach. The resumed half must emit only the bleach event — the
    // concatenated stream then equals the uninterrupted one.
    let mut first_half = FaultRecorder::default();
    let mut field = initial_field(&model);
    let report = {
        let mut array = RsuArray::new(RsuConfig::new_design(), UNITS);
        array.install_faults(degraded_plan());
        run_observed(&mut array, &model, &mut field, None, 8, 2, &mut first_half)
    };
    let checkpoint = capture(&field, report);
    let restored = Checkpoint::from_text(&checkpoint.to_text()).unwrap();
    let mut second_half = FaultRecorder::default();
    let mut resumed = restored.restore_field();
    {
        let mut array = RsuArray::new(RsuConfig::new_design(), UNITS);
        array.install_faults(degraded_plan());
        run_observed(
            &mut array,
            &model,
            &mut resumed,
            Some(restored.resume_state()),
            total,
            2,
            &mut second_half,
        );
    }
    let mut combined = first_half.0.clone();
    combined.extend(second_half.0.iter().copied());
    assert_eq!(combined, uninterrupted.0);
}
