//! Figure 9b: the teddy-like disparity map produced by the new RSU-G.

use bench::{artifacts_dir, exit_usage, RunPlan, SamplerKind, STEREO_ITERATIONS};
use vision::image::labels_to_image;

fn main() {
    let mut plan = RunPlan::from_args("fig9b_teddy_map");
    plan.reject("fig9b_teddy_map", &["--trace"]);
    println!("Fig. 9b — teddy disparity map, new RSU-G\n");
    if let Some(label) = plan.pending_resume() {
        println!("resuming interrupted run {label}\n");
    }
    let ds = scenes::stereo_teddy_like(1001);
    let out = plan
        .stereo(
            &ds,
            &SamplerKind::NewRsu,
            STEREO_ITERATIONS,
            11,
            "fig9b/teddy/new-RSUG",
        )
        .unwrap_or_else(exit_usage);
    let path = artifacts_dir().join("fig9b_new_rsug_teddy.pgm");
    labels_to_image(&out.field)
        .save_pgm(&path)
        .expect("write pgm");
    println!("new RSU-G BP {:.1} %  RMS {:.2}", out.bp, out.rms);
    println!("wrote {}", path.display());
    println!("paper shape: visually indistinguishable from the software map of Fig. 4c");
    plan.finish().unwrap_or_else(exit_usage);
}
