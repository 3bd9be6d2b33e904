//! CI gate: exercises the checkpoint write → resume path of
//! [`RunPlan`] end to end on a real file — a raster chain and a
//! checkerboard chain are each killed mid-run, checkpointed to disk,
//! reloaded and resumed, and the resumed fields must equal the
//! uninterrupted references bit for bit (the checkerboard chain resuming
//! on a different thread count than it was killed on). Each checkpoint
//! must also be refused by a plan that routes its label to the other
//! engine. Exits non-zero on any divergence.

use bench::{RunPlan, SamplerKind};
use mrf::{
    Checkpoint, CheckpointError, DistanceFn, LabelField, MrfModel, NoopObserver,
    ParallelSweepSolver, Schedule, SoftwareGibbs, TabularMrf,
};
use rand::SeedableRng;
use sampling::Xoshiro256pp;
use std::path::Path;
use std::process::ExitCode;

const ITERATIONS: usize = 24;
const KILL_AT: usize = 11;
const SEED: u64 = 2024;

fn model() -> TabularMrf {
    TabularMrf::checkerboard(14, 12, 3, 5.0, DistanceFn::Binary, 0.4)
}

fn schedule() -> Schedule {
    Schedule::geometric(3.0, 0.9, 0.1)
}

/// Runs the software chain `label` under `plan` for `iterations` sweeps.
fn run(plan: &mut RunPlan, iterations: usize, label: &str) -> Result<LabelField, CheckpointError> {
    plan.run(
        &model(),
        &SamplerKind::Software,
        schedule(),
        iterations,
        SEED,
        label,
        &mut NoopObserver,
    )
}

/// Kills chain `label` at [`KILL_AT`] on `threads` threads and reloads
/// its checkpoint from `path`.
fn kill(path: &Path, threads: usize, label: &str) -> Result<Checkpoint, String> {
    let mut plan = RunPlan {
        threads,
        checkpoint_every: Some(KILL_AT),
        checkpoint_path: path.to_path_buf(),
        ..RunPlan::default()
    };
    run(&mut plan, KILL_AT, label).map_err(|e| e.to_string())?;
    let checkpoint = Checkpoint::load(path).map_err(|e| format!("reload failed: {e}"))?;
    if checkpoint.next_iteration != KILL_AT {
        return Err(format!("checkpoint at sweep {}", checkpoint.next_iteration));
    }
    Ok(checkpoint)
}

/// Resumes `checkpoint` on `threads` threads to [`ITERATIONS`].
fn resume(
    checkpoint: Checkpoint,
    threads: usize,
    label: &str,
) -> Result<LabelField, CheckpointError> {
    let mut plan = RunPlan {
        threads,
        resume: Some(checkpoint),
        ..RunPlan::default()
    };
    run(&mut plan, ITERATIONS, label)
}

fn gate(dir: &Path) -> Result<(), String> {
    // Raster engine: kill at KILL_AT, resume from disk.
    let reference = SamplerKind::Software.run(&model(), schedule(), ITERATIONS, SEED);
    let checkpoint = kill(&dir.join("sequential.ckpt"), 1, "gate/seq")?;
    if checkpoint.rng_state.is_none() {
        return Err("raster checkpoint carries no RNG words".to_string());
    }
    if resume(checkpoint.clone(), 2, "gate/seq").is_ok() {
        return Err("a raster checkpoint resumed on the checkerboard engine".to_string());
    }
    if resume(checkpoint, 1, "gate/seq").map_err(|e| e.to_string())? != reference {
        return Err("raster resume diverged from the uninterrupted run".to_string());
    }

    // Checkerboard engine: kill on 2 threads, resume on 7, against the
    // uninterrupted one-thread chain.
    let reference = {
        let mut rng = Xoshiro256pp::seed_from_u64(SEED);
        let mut field = LabelField::random(model().grid(), 3, &mut rng);
        ParallelSweepSolver::new(&model())
            .schedule(schedule())
            .iterations(ITERATIONS)
            .threads(1)
            .seed(SEED)
            .run(&mut field, &SoftwareGibbs::new());
        field
    };
    let checkpoint = kill(&dir.join("parallel.ckpt"), 2, "gate/par")?;
    if resume(checkpoint.clone(), 1, "gate/par").is_ok() {
        return Err("a checkerboard checkpoint resumed on the raster engine".to_string());
    }
    if resume(checkpoint, 7, "gate/par").map_err(|e| e.to_string())? != reference {
        return Err(
            "checkerboard resume (2t kill → 7t resume) diverged from the uninterrupted 1t run"
                .to_string(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let dir = std::env::temp_dir().join("retrsu-checkpoint-roundtrip");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("checkpoint_roundtrip: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    match gate(&dir) {
        Ok(()) => {
            println!(
                "checkpoint_roundtrip: raster and checkerboard kill/resume both bit-identical \
                 (kill at sweep {KILL_AT} of {ITERATIONS}), cross-engine resumes refused"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("checkpoint_roundtrip: {e}");
            ExitCode::FAILURE
        }
    }
}
