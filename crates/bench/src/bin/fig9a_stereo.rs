//! Figure 9a: stereo BP across the three datasets, software vs the full
//! new RSU-G design (Energy 8 b, λ 4 b, Time 5 b, Truncation 0.5).
//!
//! `--numeric fast` / `--active` switch the chains to the checkerboard
//! engine's f32 fast path and/or active-site scheduling; quality under
//! those knobs is gated against the f64 oracle (DESIGN §12), not
//! bit-identical to the default run.

use bench::{exit_usage, stereo_suite, table, write_csv, RunPlan, SamplerKind, STEREO_ITERATIONS};
use mrf::NumericPolicy;

fn main() {
    let mut plan = RunPlan::from_args("fig9a_stereo");
    plan.reject("fig9a_stereo", &["--trace"]);
    println!("Fig. 9a — stereo BP, software vs new RSU-G (8/4/5 bits, truncation 0.5)\n");
    if plan.threads > 1 {
        println!(
            "running the parallel checkerboard engine on {} threads\n",
            plan.threads
        );
    }
    if plan.numeric == NumericPolicy::Fast || plan.active {
        println!(
            "numeric policy {:?}, active-site scheduling {}: chains run on the \
             checkerboard engine (DESIGN §12 quality gate applies)\n",
            plan.numeric,
            if plan.active { "on" } else { "off" }
        );
    }
    if let Some(label) = plan.pending_resume() {
        println!("resuming interrupted run {label} (earlier runs are recomputed)\n");
    }
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, ds) in stereo_suite() {
        let sw = plan
            .stereo(
                &ds,
                &SamplerKind::Software,
                STEREO_ITERATIONS,
                11,
                &format!("fig9a/{name}/software"),
            )
            .unwrap_or_else(exit_usage);
        let hw = plan
            .stereo(
                &ds,
                &SamplerKind::NewRsu,
                STEREO_ITERATIONS,
                11,
                &format!("fig9a/{name}/new-RSUG"),
            )
            .unwrap_or_else(exit_usage);
        rows.push(vec![
            name.to_owned(),
            format!("{:.1}", sw.bp),
            format!("{:.1}", hw.bp),
            format!("{:+.1}", hw.bp - sw.bp),
            format!("{:.2}", sw.rms),
            format!("{:.2}", hw.rms),
        ]);
        csv.push(format!(
            "{name},{:.3},{:.3},{:.4},{:.4}",
            sw.bp, hw.bp, sw.rms, hw.rms
        ));
    }
    println!(
        "{}",
        table::render(
            &[
                "dataset",
                "software BP%",
                "new-RSUG BP%",
                "ΔBP",
                "sw RMS",
                "rsu RMS"
            ],
            &rows
        )
    );
    println!("paper shape: differences of only a few BP points (3 / 0.1 / 0.5 in the paper)");
    write_csv(
        "fig9a_stereo",
        "dataset,software_bp,rsug_bp,software_rms,rsug_rms",
        &csv,
    );
    plan.finish().unwrap_or_else(exit_usage);
}
