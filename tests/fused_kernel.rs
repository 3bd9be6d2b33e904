//! End-to-end bit-exactness tests for the fused site-update kernel.
//!
//! The fused path (precomputed [`PairwiseTable`] rows + contiguous
//! singleton rows) must be indistinguishable from the direct per-pair
//! evaluation everywhere it is wired in: same seeds must produce the
//! **same label fields**, exactly, through [`SweepSolver`],
//! [`ParallelSweepSolver`] at any host thread count, and the RSU-G
//! array — otherwise the determinism contract of the parallel engine
//! (and every archived experiment) silently breaks.

use mrf::{
    DistanceFn, Grid, Label, LabelField, MrfModel, PairwiseTable, ParallelSweepSolver, Schedule,
    SoftwareGibbs, SweepSolver, TabularMrf,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rsu::{RsuArray, RsuConfig};
use sampling::Xoshiro256pp;
use vision::{GrayImage, MotionModel, SegmentModel, StereoModel};

/// Forwards a model's energy landscape but hides its pairwise table,
/// forcing every consumer through the direct (naive) kernel. Running a
/// solver on `model` and on `NoTable(model)` with identical seeds is
/// therefore a full-pipeline fused-vs-direct comparison.
struct NoTable<M>(M);

impl<M: MrfModel> MrfModel for NoTable<M> {
    fn grid(&self) -> Grid {
        self.0.grid()
    }

    fn num_labels(&self) -> usize {
        self.0.num_labels()
    }

    fn singleton(&self, site: usize, label: Label) -> f64 {
        self.0.singleton(site, label)
    }

    fn pairwise(&self, site: usize, neighbor: usize, label: Label, neighbor_label: Label) -> f64 {
        self.0.pairwise(site, neighbor, label, neighbor_label)
    }
}

fn solve_sequential<M: MrfModel>(model: &M, seed: u64) -> LabelField {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
    SweepSolver::new(model)
        .schedule(Schedule::geometric(3.0, 0.9, 0.1))
        .iterations(8)
        .run(&mut field, &mut SoftwareGibbs::new(), &mut rng);
    field
}

fn solve_parallel<M: MrfModel + Sync>(
    model: &M,
    start: &LabelField,
    seed: u64,
    threads: usize,
) -> LabelField {
    let mut field = start.clone();
    ParallelSweepSolver::new(model)
        .schedule(Schedule::constant(1.0))
        .iterations(4)
        .threads(threads)
        .seed(seed)
        .run(&mut field, &SoftwareGibbs::new());
    field
}

fn solve_rsu<M: MrfModel + Sync>(
    model: &M,
    start: &LabelField,
    seed: u64,
    threads: usize,
) -> LabelField {
    let mut array = RsuArray::new(RsuConfig::new_design(), 4);
    let mut field = start.clone();
    ParallelSweepSolver::new(model)
        .schedule(Schedule::constant(1.0))
        .iterations(3)
        .threads(threads)
        .seed(seed)
        .run_on(&mut field, &mut array);
    field
}

fn arb_model() -> impl Strategy<Value = TabularMrf> {
    (
        2usize..12,
        2usize..12,
        2usize..=16,
        0.5f64..8.0,
        0.0f64..2.0,
        0usize..3,
    )
        .prop_map(|(w, h, labels, contrast, weight, dist_idx)| {
            TabularMrf::checkerboard(w, h, labels, contrast, DistanceFn::ALL[dist_idx], weight)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential annealed Gibbs produces bit-identical fields with and
    /// without the fused kernel for the same seed.
    #[test]
    fn sequential_gibbs_field_identical_with_and_without_table(
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        prop_assert!(model.pairwise_table().is_some());
        let naive = NoTable(model.clone());
        let fused = solve_sequential(&model, seed);
        let direct = solve_sequential(&naive, seed);
        prop_assert_eq!(fused.as_slice(), direct.as_slice());
    }

    /// The parallel checkerboard engine produces bit-identical fields
    /// with and without the fused kernel, at 1, 2, and 7 host threads —
    /// PR 1's thread-invariance contract survives the kernel swap.
    #[test]
    fn parallel_gibbs_field_identical_across_kernels_and_threads(
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        let naive = NoTable(model.clone());
        let mut init_rng = Xoshiro256pp::seed_from_u64(seed);
        let reference = LabelField::random(model.grid(), model.num_labels(), &mut init_rng);
        let mut reference_result: Option<LabelField> = None;
        for threads in [1usize, 2, 7] {
            let fused = solve_parallel(&model, &reference, seed, threads);
            let direct = solve_parallel(&naive, &reference, seed, threads);
            prop_assert_eq!(
                fused.as_slice(), direct.as_slice(),
                "fused vs direct diverged at {} threads", threads
            );
            match &reference_result {
                None => reference_result = Some(fused),
                Some(r) => prop_assert_eq!(
                    r.as_slice(), fused.as_slice(),
                    "thread-count invariance broke at {} threads", threads
                ),
            }
        }
    }

    /// The RSU-G array's deterministic parallel sweep is bit-identical
    /// with and without the fused kernel, at 1, 2, and 7 host threads.
    #[test]
    fn rsu_array_field_identical_across_kernels_and_threads(
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        let naive = NoTable(model.clone());
        let mut init_rng = Xoshiro256pp::seed_from_u64(seed);
        let reference = LabelField::random(model.grid(), model.num_labels(), &mut init_rng);
        let mut reference_result: Option<LabelField> = None;
        for threads in [1usize, 2, 7] {
            let fused = solve_rsu(&model, &reference, seed, threads);
            let direct = solve_rsu(&naive, &reference, seed, threads);
            prop_assert_eq!(
                fused.as_slice(), direct.as_slice(),
                "fused vs direct diverged at {} threads", threads
            );
            match &reference_result {
                None => reference_result = Some(fused),
                Some(r) => prop_assert_eq!(
                    r.as_slice(), fused.as_slice(),
                    "thread-count invariance broke at {} threads", threads
                ),
            }
        }
    }
}

/// Every vision model's precomputed table entry equals its
/// `MrfModel::pairwise` bit-for-bit over the full label square, and the
/// fused local energies equal the direct ones on a random field.
#[test]
fn vision_model_tables_match_pairwise_exactly() {
    let left = GrayImage::from_fn(16, 12, |x, y| ((x * 13 + y * 29) % 200) as f32);
    let right = left.shifted_left(2);
    let stereo = StereoModel::new(&left, &right, 8, 1.0, 3.5).unwrap();
    let segment = SegmentModel::new(&left, 5, 0.02, 2.0).unwrap();
    let motion = MotionModel::new(&left, &right, 5, 1.0, 0.7).unwrap();

    fn check<M: MrfModel>(name: &str, model: &M) {
        let table: &PairwiseTable = model
            .pairwise_table()
            .unwrap_or_else(|| panic!("{name}: fast path must be wired"));
        let labels = model.num_labels() as Label;
        for a in 0..labels {
            for b in 0..labels {
                assert_eq!(
                    table.get(a, b),
                    model.pairwise(0, 1, a, b),
                    "{name}: table diverges from pairwise at ({a}, {b})"
                );
            }
        }
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
        let (mut fused, mut direct) = (Vec::new(), Vec::new());
        for site in model.grid().sites() {
            model.local_energies(site, &field, &mut fused);
            model.local_energies_direct(site, &field, &mut direct);
            assert_eq!(fused, direct, "{name}: local energies diverge at {site}");
        }
    }

    check("stereo", &stereo);
    check("segment", &segment);
    check("motion", &motion);
}
