//! Determinism guarantees: every layer of the stack is reproducible from
//! seeds, which is what makes the experiment harness's published numbers
//! regenerable.

use rand::SeedableRng;
use ret_rsu::mrf::{LabelField, MrfModel, Schedule, SweepSolver};
use ret_rsu::rsu::RsuG;
use ret_rsu::sampling::Xoshiro256pp;
use ret_rsu::scenes::{self, FlowSpec, SegmentationSpec, StereoSpec};
use ret_rsu::uarch::designs;
use ret_rsu::vision::StereoModel;

#[test]
fn scene_generators_are_pure_functions_of_their_seed() {
    let spec = StereoSpec {
        width: 32,
        height: 24,
        num_disparities: 8,
        num_layers: 2,
        noise_sigma: 2.0,
    };
    assert_eq!(spec.generate(5), spec.generate(5));
    assert_ne!(spec.generate(5).left, spec.generate(6).left);

    let fspec = FlowSpec {
        width: 32,
        height: 24,
        window: 5,
        num_patches: 2,
        noise_sigma: 2.0,
    };
    assert_eq!(fspec.generate(5), fspec.generate(5));

    let sspec = SegmentationSpec {
        width: 32,
        height: 24,
        num_regions: 3,
        noise_sigma: 5.0,
        contrast: 120.0,
    };
    assert_eq!(sspec.generate(5), sspec.generate(5));
}

#[test]
fn named_suites_are_stable() {
    assert_eq!(scenes::stereo_teddy_like(9), scenes::stereo_teddy_like(9));
    assert_eq!(
        scenes::segmentation_suite(3, 4),
        scenes::segmentation_suite(3, 4)
    );
}

#[test]
fn full_solver_runs_are_bit_reproducible() {
    let ds = StereoSpec {
        width: 24,
        height: 16,
        num_disparities: 6,
        num_layers: 2,
        noise_sigma: 1.0,
    }
    .generate(2);
    let model = StereoModel::new(&ds.left, &ds.right, 6, 0.3, 0.3).expect("valid");
    let run = |seed: u64| -> LabelField {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
        SweepSolver::new(&model)
            .schedule(Schedule::geometric(10.0, 0.9, 0.5))
            .iterations(25)
            .run(&mut field, &mut RsuG::new_design(), &mut rng);
        field
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

#[test]
fn cost_models_are_deterministic_and_serialisable() {
    let a = designs::table4();
    let b = designs::table4();
    assert_eq!(a, b);
    // The tables feed the CSV artifacts: their numbers must render stably.
    let json = serde_json_like(&a.rows[0].cost.area_um2);
    assert!(json.contains("2903") || json.contains("2902"), "{json}");
}

fn serde_json_like(area: &f64) -> String {
    format!("{{\"area_um2\":{area:.0}}}")
}
