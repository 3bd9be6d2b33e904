//! Figure 4: left image, ground-truth disparity, software disparity map
//! and previous-RSU-G disparity map for the teddy-like dataset, written
//! as PGM images.

use bench::{artifacts_dir, exit_usage, RunPlan, SamplerKind, STEREO_ITERATIONS};
use vision::image::labels_to_image;

fn main() {
    let mut plan = RunPlan::from_args("fig4_disparity_maps");
    plan.reject("fig4_disparity_maps", &["--trace"]);
    println!("Fig. 4 — Software vs previous RSU-G disparity maps (teddy-like)\n");
    let ds = scenes::stereo_teddy_like(1001);
    let dir = artifacts_dir();
    ds.left
        .save_pgm(dir.join("fig4a_left.pgm"))
        .expect("write pgm");
    labels_to_image(&ds.ground_truth)
        .save_pgm(dir.join("fig4b_ground_truth.pgm"))
        .expect("write pgm");
    let mut run = |kind: SamplerKind| {
        let label = format!("fig4/teddy/{}", kind.name());
        plan.stereo(&ds, &kind, STEREO_ITERATIONS, 11, &label)
            .unwrap_or_else(exit_usage)
    };
    let sw = run(SamplerKind::Software);
    labels_to_image(&sw.field)
        .save_pgm(dir.join("fig4c_software.pgm"))
        .expect("write pgm");
    let prev = run(SamplerKind::PreviousRsu);
    labels_to_image(&prev.field)
        .save_pgm(dir.join("fig4d_prev_rsug.pgm"))
        .expect("write pgm");
    println!(
        "software BP {:.1} %   previous RSU-G BP {:.1} %",
        sw.bp, prev.bp
    );
    println!(
        "wrote fig4a_left / fig4b_ground_truth / fig4c_software / fig4d_prev_rsug under {}",
        dir.display()
    );
    println!("paper shape: (c) resembles (b); (d) is disparity noise");
    plan.finish().unwrap_or_else(exit_usage);
}
