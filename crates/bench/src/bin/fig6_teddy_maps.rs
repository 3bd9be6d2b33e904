//! Figure 6: teddy-like disparity maps under (a) 7-bit scaled decay
//! rates only, and (b) 4-bit λ with cut-off, scaling and 2^n truncation.

use bench::{artifacts_dir, exit_usage, RunPlan, SamplerKind, STEREO_ITERATIONS};
use rsu::{Conversion, RsuConfig};
use vision::image::labels_to_image;

fn main() {
    let mut plan = RunPlan::from_args("fig6_teddy_maps");
    plan.reject("fig6_teddy_maps", &["--trace"]);
    println!("Fig. 6 — scaled-only vs full-technique teddy disparity maps\n");
    let ds = scenes::stereo_teddy_like(1001);
    let dir = artifacts_dir();
    let scaled_only = SamplerKind::Custom(
        RsuConfig::builder()
            .lambda_bits(7)
            .decay_rate_scaling(true)
            .probability_cutoff(false)
            .pow2_lambda(false)
            .conversion(Conversion::Lut)
            .time_bits(12)
            .truncation(0.02)
            .build()
            .expect("valid configuration"),
    );
    let full = SamplerKind::Custom(
        RsuConfig::builder()
            .lambda_bits(4)
            .conversion(Conversion::Lut)
            .time_bits(12)
            .truncation(0.02)
            .build()
            .expect("valid configuration"),
    );
    let mut run = |kind: &SamplerKind, label: &str| {
        plan.stereo(&ds, kind, STEREO_ITERATIONS, 11, label)
            .unwrap_or_else(exit_usage)
    };
    let a = run(&scaled_only, "fig6/teddy/scaled-only");
    let b = run(&full, "fig6/teddy/full-techniques");
    labels_to_image(&a.field)
        .save_pgm(dir.join("fig6a_scaled_only.pgm"))
        .expect("write pgm");
    labels_to_image(&b.field)
        .save_pgm(dir.join("fig6b_full_techniques.pgm"))
        .expect("write pgm");
    println!("scaled-only (7-bit λ) BP {:.1} %", a.bp);
    println!("full techniques (4-bit λ) BP {:.1} %", b.bp);
    println!(
        "wrote fig6a_scaled_only / fig6b_full_techniques under {}",
        dir.display()
    );
    println!("paper shape: (a) visibly degraded (BP ~70 % regime); (b) close to software");
    plan.finish().unwrap_or_else(exit_usage);
}
