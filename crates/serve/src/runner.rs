//! Job execution: a [`JobTask`] turns a validated [`JobSpec`] into a
//! running annealing chain on an [`RsuArray`] and supports suspension
//! at any sweep boundary.
//!
//! The preemption contract rests on two facts:
//!
//! 1. Array chains are pure functions of `(seed, iteration, site)` —
//!    resuming needs only the label field, the next iteration index and
//!    the chain seed (plus the incremental energy the solver carries),
//!    all of which the v1 checkpoint format holds.
//! 2. The model and dataset are pure functions of the spec — a resumed
//!    task rebuilds both from the spec alone, proving the checkpoint
//!    plus the spec is the *complete* preemption state (nothing hides
//!    in worker-local memory, so a job may resume on any worker and on
//!    any healthy array instance).
//!
//! Together these make the final label field — and therefore
//! [`JobResult::field_digest`](crate::JobResult::field_digest) —
//! bit-identical however many times the job was preempted, wherever it
//! resumed, and at every host thread count.

use crate::cache::Lru;
use crate::spec::{field_digest, JobKind, JobSpec, SpecError};
use bench::{
    annealing_schedule, segmentation_schedule, MOTION_DATA_WEIGHT, MOTION_SMOOTH_WEIGHT,
    SEGMENT_DATA_WEIGHT, SEGMENT_SMOOTH_WEIGHT, STEREO_DATA_WEIGHT, STEREO_SMOOTH_WEIGHT,
};
use mrf::{Checkpoint, LabelField, MrfModel, ParallelSweepSolver, ResumeState, Schedule};
use rand::SeedableRng;
use rsu::RsuArray;
use sampling::Xoshiro256pp;
use scenes::{FlowSpec, SegmentationSpec, StereoSpec};
use std::rc::Rc;
use std::sync::atomic::AtomicBool;
use vision::{
    metrics::{bad_pixel_percentage, endpoint_error, variation_of_information},
    MotionModel, SegmentModel, StereoModel,
};

/// The materialized workload: MRF model plus the ground truth needed
/// for scoring, both rebuilt deterministically from the spec.
enum JobModel {
    Stereo {
        model: StereoModel,
        truth: LabelField,
        occlusion: Vec<bool>,
    },
    Motion {
        model: MotionModel,
        truth: Vec<(isize, isize)>,
    },
    Segmentation {
        model: SegmentModel,
        truth: LabelField,
    },
}

impl JobModel {
    fn build(spec: &JobSpec) -> Result<Self, SpecError> {
        let bad_model =
            |e: vision::VisionError| SpecError::new(format!("model construction failed: {e}"));
        match spec.kind {
            JobKind::Stereo {
                width,
                height,
                num_disparities,
                num_layers,
                noise_sigma,
                scene_seed,
            } => {
                let ds = StereoSpec {
                    width,
                    height,
                    num_disparities,
                    num_layers,
                    noise_sigma: noise_sigma as f32,
                }
                .generate(scene_seed);
                let model = StereoModel::new(
                    &ds.left,
                    &ds.right,
                    ds.num_disparities,
                    STEREO_DATA_WEIGHT,
                    STEREO_SMOOTH_WEIGHT,
                )
                .map_err(bad_model)?;
                Ok(JobModel::Stereo {
                    model,
                    truth: ds.ground_truth,
                    occlusion: ds.occlusion,
                })
            }
            JobKind::Motion {
                width,
                height,
                window,
                num_patches,
                noise_sigma,
                scene_seed,
            } => {
                let ds = FlowSpec {
                    width,
                    height,
                    window,
                    num_patches,
                    noise_sigma: noise_sigma as f32,
                }
                .generate(scene_seed);
                let model = MotionModel::new(
                    &ds.frame1,
                    &ds.frame2,
                    ds.window,
                    MOTION_DATA_WEIGHT,
                    MOTION_SMOOTH_WEIGHT,
                )
                .map_err(bad_model)?;
                Ok(JobModel::Motion {
                    model,
                    truth: ds.ground_truth,
                })
            }
            JobKind::Segmentation {
                width,
                height,
                num_regions,
                noise_sigma,
                contrast,
                scene_seed,
            } => {
                let ds = SegmentationSpec {
                    width,
                    height,
                    num_regions,
                    noise_sigma: noise_sigma as f32,
                    contrast: contrast as f32,
                }
                .generate(scene_seed);
                let model = SegmentModel::new(
                    &ds.image,
                    ds.num_regions,
                    SEGMENT_DATA_WEIGHT,
                    SEGMENT_SMOOTH_WEIGHT,
                )
                .map_err(bad_model)?;
                Ok(JobModel::Segmentation {
                    model,
                    truth: ds.ground_truth,
                })
            }
        }
    }

    fn grid(&self) -> mrf::Grid {
        match self {
            JobModel::Stereo { model, .. } => model.grid(),
            JobModel::Motion { model, .. } => model.grid(),
            JobModel::Segmentation { model, .. } => model.grid(),
        }
    }

    fn num_labels(&self) -> usize {
        match self {
            JobModel::Stereo { model, .. } => model.num_labels(),
            JobModel::Motion { model, .. } => model.num_labels(),
            JobModel::Segmentation { model, .. } => model.num_labels(),
        }
    }

    fn schedule(&self) -> Schedule {
        match self {
            JobModel::Segmentation { .. } => segmentation_schedule(),
            _ => annealing_schedule(),
        }
    }

    fn score(&self, field: &LabelField) -> (&'static str, f64) {
        match self {
            JobModel::Stereo {
                truth, occlusion, ..
            } => (
                "bp",
                bad_pixel_percentage(field, truth, Some(occlusion), 1.0),
            ),
            JobModel::Motion { model, truth } => {
                let flow: Vec<(isize, isize)> = (0..field.grid().len())
                    .map(|site| model.label_to_flow(field.get(site)))
                    .collect();
                ("epe", endpoint_error(&flow, truth))
            }
            JobModel::Segmentation { truth, .. } => ("voi", variation_of_information(field, truth)),
        }
    }
}

/// A worker-local cache of built scene models, keyed by
/// [`JobSpec::scene_digest`].
///
/// Jobs sharing a scene digest are the same model and dataset by
/// construction (both are pure functions of `application` + `scene`),
/// so a worker handed a same-scene job — or the same job again after a
/// quantum requeue — reuses the built [`MrfModel`] instead of
/// regenerating the scene and rebuilding the energy tables per slice.
/// Models are immutable during sweeps, so sharing one behind an `Rc`
/// cannot change what any chain computes; eviction is
/// least-recently-used over a small capacity.
pub struct SceneModelCache {
    models: Lru<Rc<JobModel>>,
    builds: u64,
}

impl SceneModelCache {
    /// A cache holding at most `capacity` built models (zero disables
    /// reuse: every materialization builds).
    pub fn new(capacity: usize) -> Self {
        SceneModelCache {
            models: Lru::new(capacity),
            builds: 0,
        }
    }

    /// Models built since construction — the cache exists to keep this
    /// counter below the number of materialized slices.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    fn get_or_build(&mut self, spec: &JobSpec) -> Result<Rc<JobModel>, SpecError> {
        let key = spec.scene_digest();
        if let Some(model) = self.models.get(key) {
            return Ok(Rc::clone(model));
        }
        self.builds += 1;
        let model = Rc::new(JobModel::build(spec)?);
        self.models.insert(key, Rc::clone(&model));
        Ok(model)
    }
}

/// Why a slice of execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceStatus {
    /// The job ran its full iteration budget; score it.
    Completed,
    /// The slice's sweep quantum expired with work remaining; the
    /// scheduler decides who runs next (no lifecycle event — the job is
    /// still logically running in the queue's eyes).
    Expired,
    /// The preempt flag was raised; the job stopped at the next sweep
    /// boundary and must be checkpointed.
    Preempted,
}

/// A job materialized for execution: model + chain state. The model is
/// behind an `Rc` so same-scene tasks on one worker can share a single
/// build (see [`SceneModelCache`]).
pub struct JobTask {
    spec: JobSpec,
    model: Rc<JobModel>,
    field: LabelField,
    /// Where the chain stands: the next sweep plus the solver's
    /// incremental energy, flip count and energy history. A chain at
    /// sweep 0 starts fresh, its energy scanned by the solver.
    progress: ResumeState,
}

impl JobTask {
    /// Materializes a fresh task: builds the scene and model from the
    /// spec and draws the initial field from the chain seed — exactly
    /// the initialization the standalone checkpointed drivers use, so a
    /// served job reproduces a CLI run with the same spec.
    pub fn start(spec: JobSpec) -> Result<Self, SpecError> {
        let mut fresh = SceneModelCache::new(0);
        Self::start_cached(spec, &mut fresh)
    }

    /// [`start`](Self::start), but resolving the model through a
    /// worker-local [`SceneModelCache`] so same-scene jobs build it
    /// once. Cached and uncached materialization run the same chain —
    /// the model is a pure function of the spec either way.
    pub fn start_cached(spec: JobSpec, models: &mut SceneModelCache) -> Result<Self, SpecError> {
        spec.validate()?;
        let model = models.get_or_build(&spec)?;
        let mut rng = Xoshiro256pp::seed_from_u64(spec.seed);
        let field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
        Ok(JobTask {
            spec,
            model,
            field,
            progress: ResumeState {
                start_iteration: 0,
                energy: f64::NAN,
                labels_changed: 0,
                energy_history: Vec::new(),
                active_sites: None,
            },
        })
    }

    /// Materializes a task from a suspended job's checkpoint. The model
    /// is rebuilt from the spec; only field, progress and seed come
    /// from the checkpoint.
    pub fn resume(spec: JobSpec, checkpoint: &Checkpoint) -> Result<Self, SpecError> {
        let mut fresh = SceneModelCache::new(0);
        Self::resume_cached(spec, checkpoint, &mut fresh)
    }

    /// [`resume`](Self::resume) through a worker-local
    /// [`SceneModelCache`].
    pub fn resume_cached(
        spec: JobSpec,
        checkpoint: &Checkpoint,
        models: &mut SceneModelCache,
    ) -> Result<Self, SpecError> {
        spec.validate()?;
        checkpoint
            .expect_engine(&spec.id)
            .map_err(|e| SpecError::new(e.to_string()))?;
        if checkpoint.seed != spec.seed {
            return Err(SpecError::new(format!(
                "checkpoint seed {} does not match spec seed {}",
                checkpoint.seed, spec.seed
            )));
        }
        if checkpoint.next_iteration > spec.iterations {
            return Err(SpecError::new(format!(
                "checkpoint is at sweep {} but the spec runs only {}",
                checkpoint.next_iteration, spec.iterations
            )));
        }
        let model = models.get_or_build(&spec)?;
        let field = checkpoint.restore_field();
        if field.grid() != model.grid() || field.num_labels() != model.num_labels() {
            return Err(SpecError::new(
                "checkpoint field does not match the spec's model",
            ));
        }
        Ok(JobTask {
            spec,
            model,
            field,
            progress: checkpoint.resume_state(),
        })
    }

    /// The spec this task executes.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Sweeps completed so far.
    pub fn sweeps_done(&self) -> u64 {
        self.progress.start_iteration as u64
    }

    /// Whether the iteration budget is exhausted.
    pub fn is_done(&self) -> bool {
        self.progress.start_iteration >= self.spec.iterations
    }

    /// Runs up to `max_sweeps` sweeps on `array` through the
    /// checkerboard solver, which polls `preempt` before every sweep.
    /// Temperature follows the application's standard schedule indexed
    /// by the *global* sweep number, so a resumed chain anneals exactly
    /// as an uninterrupted one.
    pub fn run_slice(
        &mut self,
        array: &mut RsuArray,
        max_sweeps: usize,
        preempt: &AtomicBool,
    ) -> SliceStatus {
        let end = self
            .spec
            .iterations
            .min(self.progress.start_iteration + max_sweeps);
        let model = Rc::clone(&self.model);
        let schedule = model.schedule();
        let reached = match &*model {
            JobModel::Stereo { model, .. } => self.advance(model, schedule, array, end, preempt),
            JobModel::Motion { model, .. } => self.advance(model, schedule, array, end, preempt),
            JobModel::Segmentation { model, .. } => {
                self.advance(model, schedule, array, end, preempt)
            }
        };
        if reached < end {
            SliceStatus::Preempted
        } else if self.is_done() {
            SliceStatus::Completed
        } else {
            SliceStatus::Expired
        }
    }

    /// Continues the chain to sweep `end` unless `preempt` stops it
    /// first; returns the sweep it reached.
    fn advance<M: MrfModel + Sync>(
        &mut self,
        model: &M,
        schedule: Schedule,
        array: &mut RsuArray,
        end: usize,
        preempt: &AtomicBool,
    ) -> usize {
        let mut solver = ParallelSweepSolver::new(model)
            .schedule(schedule)
            .iterations(end)
            .threads(self.spec.threads)
            .seed(self.spec.seed)
            .stop_on(preempt);
        if self.progress.start_iteration > 0 {
            solver = solver.resume(self.progress.clone());
        }
        let report = solver.run_on(&mut self.field, array);
        if report.iterations_run > 0 {
            self.progress = report.into();
        }
        self.progress.start_iteration
    }

    /// Captures the suspension state in the v1 checkpoint format
    /// (engine = job id, chain seed recorded).
    pub fn checkpoint(&self) -> Checkpoint {
        let progress = &self.progress;
        Checkpoint::capture(
            &self.spec.id,
            &self.field,
            progress.start_iteration,
            progress.energy,
            progress.labels_changed,
            progress.energy_history.clone(),
        )
        .with_seed(self.spec.seed)
    }

    /// Scores the finished field: `(metric name, score, field digest)`.
    ///
    /// # Panics
    ///
    /// Panics if called before the iteration budget is exhausted.
    pub fn finish(&self) -> (&'static str, f64, u64) {
        assert!(self.is_done(), "finish() on an unfinished job");
        let (metric, score) = self.model.score(&self.field);
        (metric, score, field_digest(&self.field))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Priority;
    use rsu::RsuConfig;

    fn small_spec(kind: JobKind) -> JobSpec {
        JobSpec {
            id: "t-1".into(),
            tenant: "t".into(),
            priority: Priority::Batch,
            seed: 11,
            iterations: 12,
            threads: 2,
            kind,
        }
    }

    fn stereo_kind() -> JobKind {
        JobKind::Stereo {
            width: 20,
            height: 14,
            num_disparities: 5,
            num_layers: 2,
            noise_sigma: 1.0,
            scene_seed: 42,
        }
    }

    fn array() -> RsuArray {
        RsuArray::new(RsuConfig::new_design(), 8)
    }

    fn run_uninterrupted(spec: &JobSpec) -> (f64, u64) {
        let mut task = JobTask::start(spec.clone()).unwrap();
        let status = task.run_slice(&mut array(), spec.iterations, &AtomicBool::new(false));
        assert_eq!(status, SliceStatus::Completed);
        let (_, score, digest) = task.finish();
        (score, digest)
    }

    #[test]
    fn resumed_chain_matches_uninterrupted_run_for_each_application() {
        let kinds = [
            stereo_kind(),
            JobKind::Motion {
                width: 18,
                height: 14,
                window: 3,
                num_patches: 2,
                noise_sigma: 0.5,
                scene_seed: 43,
            },
            JobKind::Segmentation {
                width: 20,
                height: 14,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 44,
            },
        ];
        for kind in kinds {
            let spec = small_spec(kind);
            let (score, digest) = run_uninterrupted(&spec);
            // Same chain, suspended and resumed every 5 sweeps through
            // the v1 checkpoint *text* (full serialize/parse cycle).
            let mut task = JobTask::start(spec.clone()).unwrap();
            loop {
                match task.run_slice(&mut array(), 5, &AtomicBool::new(false)) {
                    SliceStatus::Completed => break,
                    SliceStatus::Expired => {
                        let text = task.checkpoint().to_text();
                        let cp = Checkpoint::from_text(&text).unwrap();
                        task = JobTask::resume(spec.clone(), &cp).unwrap();
                    }
                    SliceStatus::Preempted => unreachable!(),
                }
            }
            let (_, resumed_score, resumed_digest) = task.finish();
            assert_eq!(resumed_digest, digest, "digest diverged for {spec:?}");
            assert_eq!(resumed_score, score);
        }
    }

    #[test]
    fn preempt_flag_stops_at_a_sweep_boundary() {
        let spec = small_spec(stereo_kind());
        let mut task = JobTask::start(spec).unwrap();
        let preempt = AtomicBool::new(true);
        // Pre-raised flag: the slice must yield before sweeping at all.
        assert_eq!(
            task.run_slice(&mut array(), 100, &preempt),
            SliceStatus::Preempted
        );
        assert_eq!(task.sweeps_done(), 0);
        assert!(!task.is_done());
    }

    #[test]
    fn resume_rejects_mismatched_checkpoints() {
        let spec = small_spec(stereo_kind());
        let mut task = JobTask::start(spec.clone()).unwrap();
        task.run_slice(&mut array(), 4, &AtomicBool::new(false));
        let good = task.checkpoint();

        let mut wrong_job = good.clone();
        wrong_job.engine = "other-job".into();
        assert!(JobTask::resume(spec.clone(), &wrong_job).is_err());

        let mut wrong_seed = good.clone();
        wrong_seed.seed = 999;
        assert!(JobTask::resume(spec.clone(), &wrong_seed).is_err());

        let mut too_far = good.clone();
        too_far.next_iteration = spec.iterations + 1;
        assert!(JobTask::resume(spec.clone(), &too_far).is_err());

        // A checkpoint captured for a different scene shape.
        let other = JobSpec {
            id: spec.id.clone(),
            kind: JobKind::Segmentation {
                width: 10,
                height: 8,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 1,
            },
            ..spec.clone()
        };
        let foreign = JobTask::start(other).unwrap().checkpoint();
        assert!(JobTask::resume(spec, &foreign).is_err());
    }

    #[test]
    fn scene_cache_builds_once_per_scene_and_preserves_the_chain() {
        let spec = small_spec(stereo_kind());
        let (score, digest) = run_uninterrupted(&spec);

        let mut models = SceneModelCache::new(4);
        // Three same-scene jobs differing only in seed: one build.
        for seed in [11, 12, 13] {
            let s = JobSpec {
                seed,
                ..spec.clone()
            };
            let mut task = JobTask::start_cached(s.clone(), &mut models).unwrap();
            let status = task.run_slice(&mut array(), s.iterations, &AtomicBool::new(false));
            assert_eq!(status, SliceStatus::Completed);
            if seed == spec.seed {
                let (_, cached_score, cached_digest) = task.finish();
                assert_eq!(cached_digest, digest, "shared model changed the chain");
                assert_eq!(cached_score, score);
            }
        }
        assert_eq!(models.builds(), 1);

        // A different scene misses and builds.
        let other = JobSpec {
            kind: JobKind::Segmentation {
                width: 10,
                height: 8,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 1,
            },
            ..spec
        };
        JobTask::start_cached(other, &mut models).unwrap();
        assert_eq!(models.builds(), 2);
    }

    #[test]
    fn quantum_expiry_reports_progress_without_completion() {
        let spec = small_spec(stereo_kind());
        let mut task = JobTask::start(spec).unwrap();
        assert_eq!(
            task.run_slice(&mut array(), 5, &AtomicBool::new(false)),
            SliceStatus::Expired
        );
        assert_eq!(task.sweeps_done(), 5);
        assert!(!task.is_done());
    }
}
