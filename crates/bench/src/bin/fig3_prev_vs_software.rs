//! Figure 3: software-only vs previous RSU-G result quality (BP) across
//! the three stereo datasets.

use bench::{exit_usage, stereo_suite, table, write_csv, RunPlan, SamplerKind, STEREO_ITERATIONS};

fn main() {
    let mut plan = RunPlan::from_args("fig3_prev_vs_software");
    plan.reject("fig3_prev_vs_software", &["--trace"]);
    println!("Fig. 3 — Software-only vs previous RSU-G stereo quality (bad-pixel %)\n");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, ds) in stereo_suite() {
        let mut run = |kind: SamplerKind| {
            let label = format!("fig3/{name}/{}", kind.name());
            plan.stereo(&ds, &kind, STEREO_ITERATIONS, 11, &label)
                .unwrap_or_else(exit_usage)
        };
        let sw = run(SamplerKind::Software);
        let prev = run(SamplerKind::PreviousRsu);
        rows.push(vec![
            name.to_owned(),
            format!("{}", ds.num_disparities),
            format!("{:.1}", sw.bp),
            format!("{:.1}", prev.bp),
        ]);
        csv.push(format!(
            "{name},{},{:.3},{:.3}",
            ds.num_disparities, sw.bp, prev.bp
        ));
    }
    println!(
        "{}",
        table::render(
            &["dataset", "labels", "software BP%", "prev-RSUG BP%"],
            &rows
        )
    );
    println!("paper shape: software far below previous RSU-G; previous RSU-G > 90 %");
    write_csv(
        "fig3_prev_vs_software",
        "dataset,labels,software_bp,prev_rsug_bp",
        &csv,
    );
    plan.finish().unwrap_or_else(exit_usage);
}
