//! Determinism contract of the `fig_fault_sweep` driver's unit of work:
//! a fault-injected array chain driven by
//! [`bench::RunPlan::run_array`] is bit-identical across
//! host thread counts and across kill/resume at a sweep boundary, and
//! its measured load accounting matches the analytic replay the driver
//! uses to reconstruct artifacts after a resume.

use bench::{segment_model, segmentation_schedule, RunPlan};
use mrf::{Checkpoint, MrfModel};
use rsu::{DegradePolicy, FaultPlan, RsuArray, RsuConfig};
use scenes::SegmentationSpec;
use std::path::PathBuf;
use vision::SegmentModel;

const LABELS: usize = 4;
const UNITS: u32 = 7;
const SWEEPS: usize = 14;
const CHAIN_SEED: u64 = 41;

fn tiny_model() -> (scenes::SegmentationDataset, SegmentModel) {
    let ds = SegmentationSpec {
        width: 24,
        height: 18,
        num_regions: 3,
        noise_sigma: 8.0,
        contrast: 140.0,
    }
    .generate(5);
    let model = segment_model(&ds, LABELS);
    (ds, model)
}

fn run_plan(
    model: &SegmentModel,
    plan: &FaultPlan,
    iterations: usize,
    run: &mut RunPlan,
) -> (mrf::LabelField, RsuArray) {
    let mut array = RsuArray::new(RsuConfig::new_design(), UNITS);
    array.install_faults(plan.clone());
    let field = run
        .run_array(
            model,
            &mut array,
            segmentation_schedule(),
            iterations,
            CHAIN_SEED,
            "t/fault-sweep",
        )
        .expect("the checkpoint is the array's own");
    (field, array)
}

fn threads(threads: usize) -> RunPlan {
    RunPlan {
        threads,
        ..RunPlan::default()
    }
}

fn temp_ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bench-fault-sweep-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Property, sampled over a small grid of random plans: the degraded
/// chain is a pure function of `(plan, chain seed)` — 1, 2 and 7 host
/// threads produce the identical field, and the array's measured
/// degradation accounting equals [`FaultPlan::predicted_degradation`]
/// every time.
#[test]
fn degraded_chain_is_bit_identical_across_thread_counts() {
    let (_ds, model) = tiny_model();
    let cases = [
        (1u64, 2usize, DegradePolicy::SoftwareFallback),
        (2, 3, DegradePolicy::RemapToHealthy),
        (3, 1, DegradePolicy::SoftwareFallback),
        (4, 5, DegradePolicy::RemapToHealthy),
    ];
    for (seed, count, policy) in cases {
        let plan = FaultPlan::random(seed, UNITS as usize, SWEEPS as u64, count, policy);
        let (f1, a1) = run_plan(&model, &plan, SWEEPS, &mut threads(1));
        let (f2, _) = run_plan(&model, &plan, SWEEPS, &mut threads(2));
        let (f7, _) = run_plan(&model, &plan, SWEEPS, &mut threads(7));
        assert_eq!(f1, f2, "plan seed {seed}: 1 vs 2 threads");
        assert_eq!(f1, f7, "plan seed {seed}: 1 vs 7 threads");
        let predicted = plan.predicted_degradation(
            UNITS as usize,
            model.grid().width(),
            model.grid().height(),
            SWEEPS as u64,
        );
        assert_eq!(
            a1.degradation_report(),
            Some(&predicted),
            "plan seed {seed}: measured accounting must match the analytic replay"
        );
    }
}

/// Kill the degraded chain at a sweep boundary, reload the checkpoint,
/// resume at a different thread count: the final field matches the
/// uninterrupted run bit for bit, and the full-run degradation report
/// is reconstructible from the plan alone (the resumed array only
/// measured the tail).
#[test]
fn degraded_chain_survives_kill_and_resume_at_a_sweep_boundary() {
    let (_ds, model) = tiny_model();
    let plan = FaultPlan::random(
        9,
        UNITS as usize,
        SWEEPS as u64,
        3,
        DegradePolicy::SoftwareFallback,
    );
    let (uninterrupted, whole_array) = run_plan(&model, &plan, SWEEPS, &mut threads(2));
    let path = temp_ckpt("fault-sweep-kill.ckpt");
    // "Kill" after 6 of 14 sweeps, checkpointing at the boundary.
    let mut killed = RunPlan {
        checkpoint_every: Some(6),
        checkpoint_path: path.clone(),
        ..threads(1)
    };
    run_plan(&model, &plan, 6, &mut killed);
    let cp = Checkpoint::load(&path).unwrap();
    assert_eq!(cp.next_iteration, 6);
    assert_eq!(cp.seed, CHAIN_SEED);
    // Resume on a fresh array at a different thread count.
    let mut resumed_plan = RunPlan {
        resume: Some(cp),
        ..threads(3)
    };
    let (resumed, tail_array) = run_plan(&model, &plan, SWEEPS, &mut resumed_plan);
    assert_eq!(uninterrupted, resumed, "kill at 1 thread, resume at 3");
    // The resumed array measured sweeps 6..14 only; the driver's
    // artifact path reconstructs the full report analytically.
    let tail = tail_array.degradation_report().unwrap();
    assert_eq!(tail.sweeps, (SWEEPS - 6) as u64);
    let full = plan.predicted_degradation(
        UNITS as usize,
        model.grid().width(),
        model.grid().height(),
        SWEEPS as u64,
    );
    assert_eq!(whole_array.degradation_report(), Some(&full));
    std::fs::remove_file(&path).ok();
}
