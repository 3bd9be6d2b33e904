//! A server worker keeps one 8-unit array (and one scene-model cache)
//! for every job it runs, so nothing a job leaves in the array may
//! reach the next one. This suite runs a worker's job sequence on one
//! array — a stereo job preempted mid-way, a segmentation job, the stereo
//! job's resumption, a motion job — once on a new array and once after
//! the same array has run a fault-injected chain and had its faults
//! cleared, and checks every result against the same job run alone on
//! a fresh array.

use mrf::Checkpoint;
use retrsu_serve::{JobKind, JobSpec, JobTask, Priority, SceneModelCache, SliceStatus};
use rsu::{DegradePolicy, FaultKind, FaultPlan, RsuArray, RsuConfig, ScheduledFault};
use std::sync::atomic::AtomicBool;

fn spec(id: &str, seed: u64, iterations: usize, kind: JobKind) -> JobSpec {
    JobSpec {
        id: id.into(),
        tenant: "reuse".into(),
        priority: Priority::Batch,
        seed,
        iterations,
        threads: 2,
        kind,
    }
}

fn stereo() -> JobSpec {
    spec(
        "reuse-stereo",
        31,
        24,
        JobKind::Stereo {
            width: 24,
            height: 18,
            num_disparities: 6,
            num_layers: 2,
            noise_sigma: 1.0,
            scene_seed: 7,
        },
    )
}

fn segmentation() -> JobSpec {
    spec(
        "reuse-segmentation",
        32,
        16,
        JobKind::Segmentation {
            width: 20,
            height: 14,
            num_regions: 3,
            noise_sigma: 2.0,
            contrast: 90.0,
            scene_seed: 8,
        },
    )
}

fn motion() -> JobSpec {
    spec(
        "reuse-motion",
        33,
        16,
        JobKind::Motion {
            width: 18,
            height: 14,
            window: 3,
            num_patches: 2,
            noise_sigma: 0.5,
            scene_seed: 9,
        },
    )
}

fn array() -> RsuArray {
    RsuArray::new(RsuConfig::new_design(), 8)
}

/// `(score, field digest)` of `spec` run start to finish on a fresh
/// array.
fn standalone(spec: &JobSpec) -> (f64, u64) {
    let mut task = JobTask::start(spec.clone()).unwrap();
    let status = task.run_slice(&mut array(), spec.iterations, &AtomicBool::new(false));
    assert_eq!(status, SliceStatus::Completed);
    let (_, score, digest) = task.finish();
    (score, digest)
}

/// Runs `task` to completion on `array` and scores it.
fn complete(task: &mut JobTask, array: &mut RsuArray) -> (f64, u64) {
    let remaining = task.spec().iterations;
    let status = task.run_slice(array, remaining, &AtomicBool::new(false));
    assert_eq!(status, SliceStatus::Completed);
    let (_, score, digest) = task.finish();
    (score, digest)
}

/// The worker's job sequence on one array and one model cache; returns
/// the stereo, segmentation and motion results in that order.
fn sequence(array: &mut RsuArray) -> [(f64, u64); 3] {
    let mut models = SceneModelCache::new(4);
    let stereo_spec = stereo();

    // 1. The stereo job runs part of the way, then yields to a raised
    //    preempt flag before its next sweep; its checkpoint goes
    //    through text, as a spooled one does.
    let mut task = JobTask::start_cached(stereo_spec.clone(), &mut models).unwrap();
    let never = AtomicBool::new(false);
    assert_eq!(task.run_slice(array, 10, &never), SliceStatus::Expired);
    let raised = AtomicBool::new(true);
    assert_eq!(task.run_slice(array, 10, &raised), SliceStatus::Preempted);
    assert_eq!(task.sweeps_done(), 10);
    let checkpoint = Checkpoint::from_text(&task.checkpoint().to_text()).unwrap();

    // 2. A segmentation job runs whole in between.
    let mut task = JobTask::start_cached(segmentation(), &mut models).unwrap();
    let segmented = complete(&mut task, array);

    // 3. The stereo job resumes on the same array.
    let mut task = JobTask::resume_cached(stereo_spec, &checkpoint, &mut models).unwrap();
    let stereo_result = complete(&mut task, array);

    // 4. A motion job.
    let mut task = JobTask::start_cached(motion(), &mut models).unwrap();
    let flow = complete(&mut task, array);

    [stereo_result, segmented, flow]
}

#[test]
fn one_array_runs_a_job_sequence_as_fresh_arrays_would() {
    let expected = [
        standalone(&stereo()),
        standalone(&segmentation()),
        standalone(&motion()),
    ];
    let mut array = array();
    assert_eq!(sequence(&mut array), expected, "on a new array");

    // The same array runs a degraded chain — a bleached unit, a dead
    // unit remapped to a stand-in, a stuck unit — and has its faults
    // cleared; the sequence must not see any of it.
    array.install_faults(
        FaultPlan::new(DegradePolicy::RemapToHealthy)
            .with_fault(ScheduledFault {
                unit: 1,
                sweep: 0,
                kind: FaultKind::Bleached {
                    lifetime_sweeps: 4.0,
                },
            })
            .with_fault(ScheduledFault {
                unit: 3,
                sweep: 2,
                kind: FaultKind::DeadSpad,
            })
            .with_fault(ScheduledFault {
                unit: 6,
                sweep: 5,
                kind: FaultKind::Stuck,
            }),
    );
    let mut degraded = JobTask::start(motion()).unwrap();
    complete(&mut degraded, &mut array);
    array.clear_faults();
    assert_eq!(
        sequence(&mut array),
        expected,
        "after a degraded chain and clear_faults()"
    );
}
