//! Figure 5b: per-dataset stereo BP at `Lambda_bits = 4` with the full
//! techniques (scaling + cut-off + 2^n), against the software baseline.

use bench::{exit_usage, stereo_suite, table, write_csv, RunPlan, SamplerKind, STEREO_ITERATIONS};
use rsu::{Conversion, RsuConfig};

fn main() {
    let mut plan = RunPlan::from_args("fig5b_lambda4");
    plan.reject("fig5b_lambda4", &["--trace"]);
    println!("Fig. 5b — per-dataset BP at Lambda_bits = 4 (full techniques)\n");
    // Stage-isolated configuration: time still effectively unconstrained.
    let rsu = SamplerKind::Custom(
        RsuConfig::builder()
            .lambda_bits(4)
            .conversion(Conversion::Lut)
            .time_bits(12)
            .truncation(0.02)
            .build()
            .expect("valid configuration"),
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, ds) in stereo_suite() {
        let mut run = |kind: &SamplerKind, sampler: &str| {
            let label = format!("fig5b/{name}/{sampler}");
            plan.stereo(&ds, kind, STEREO_ITERATIONS, 11, &label)
                .unwrap_or_else(exit_usage)
        };
        let sw = run(&SamplerKind::Software, "software");
        let hw = run(&rsu, "rsug-lambda4");
        rows.push(vec![
            name.to_owned(),
            format!("{:.1}", sw.bp),
            format!("{:.1}", hw.bp),
            format!("{:+.1}", hw.bp - sw.bp),
        ]);
        csv.push(format!("{name},{:.3},{:.3}", sw.bp, hw.bp));
    }
    println!(
        "{}",
        table::render(
            &["dataset", "software BP%", "RSUG(λ=4b) BP%", "delta"],
            &rows
        )
    );
    println!("paper shape: RSU-G within a few BP points of software on every dataset");
    write_csv("fig5b_lambda4", "dataset,software_bp,rsug_bp", &csv);
    plan.finish().unwrap_or_else(exit_usage);
}
