//! Image segmentation with a Potts MRF (Fig. 1 of the paper): software
//! vs new RSU-G, scored with the BISIP metric quartet.
//!
//! Run with: `cargo run --release --example segmentation`

use rand::SeedableRng;
use ret_rsu::mrf::{self, MrfModel, Schedule};
use ret_rsu::rsu::RsuG;
use ret_rsu::sampling::Xoshiro256pp;
use ret_rsu::scenes::SegmentationSpec;
use ret_rsu::vision::image::labels_to_image;
use ret_rsu::vision::metrics::{
    boundary_displacement_error, global_consistency_error, probabilistic_rand_index,
    variation_of_information,
};
use ret_rsu::vision::SegmentModel;

/// A partition-comparison metric: `(segmentation, reference) -> score`.
type Metric = fn(&mrf::LabelField, &mrf::LabelField) -> f64;

fn solve<S: mrf::SiteSampler>(model: &SegmentModel, sampler: &mut S, seed: u64) -> mrf::LabelField {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut field = mrf::LabelField::random(model.grid(), model.num_labels(), &mut rng);
    mrf::SweepSolver::new(model)
        .schedule(Schedule::geometric(4.0, 0.9, 0.3))
        .iterations(30)
        .run(&mut field, sampler, &mut rng);
    field
}

fn main() -> Result<(), ret_rsu::vision::VisionError> {
    let ds = SegmentationSpec {
        width: 96,
        height: 72,
        num_regions: 4,
        noise_sigma: 8.0,
        contrast: 140.0,
    }
    .generate(21);
    let model = SegmentModel::new(&ds.image, 4, 0.004, 2.5)?;
    println!(
        "image 96x72, 4 segments; class means {:?}",
        model.class_means()
    );

    let sw = solve(&model, &mut mrf::SoftwareGibbs::new(), 3);
    let hw = solve(&model, &mut RsuG::new_design(), 3);

    println!("\nmetric                     software   new RSU-G   (vs generating partition)");
    let rows: [(&str, Metric, &str); 4] = [
        (
            "Variation of Information",
            variation_of_information,
            "lower is better",
        ),
        (
            "Probabilistic Rand Index",
            probabilistic_rand_index,
            "higher is better",
        ),
        (
            "Global Consistency Error",
            global_consistency_error,
            "lower is better",
        ),
        (
            "Boundary Displacement",
            boundary_displacement_error,
            "pixels, lower is better",
        ),
    ];
    for (name, f, note) in rows {
        println!(
            "{name:<26} {:>8.3}   {:>9.3}   {note}",
            f(&sw, &ds.ground_truth),
            f(&hw, &ds.ground_truth)
        );
    }
    ds.image.save_pgm("segmentation_input.pgm")?;
    labels_to_image(&hw).save_pgm("segmentation_new_rsug.pgm")?;
    println!("\nwrote segmentation_input.pgm / segmentation_new_rsug.pgm");
    Ok(())
}
