//! Figure 9c: motion-estimation endpoint error across the three flow
//! datasets, software vs new RSU-G (49 labels, 7×7 window).

use bench::{exit_usage, flow_suite, table, write_csv, RunPlan, SamplerKind, STEREO_ITERATIONS};

fn main() {
    let mut plan = RunPlan::from_args("fig9c_motion");
    plan.reject("fig9c_motion", &["--trace"]);
    println!("Fig. 9c — motion estimation EPE, software vs new RSU-G (49 labels)\n");
    if let Some(label) = plan.pending_resume() {
        println!("resuming interrupted run {label} (earlier runs are recomputed)\n");
    }
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, ds) in flow_suite() {
        let sw = plan
            .motion(
                &ds,
                &SamplerKind::Software,
                STEREO_ITERATIONS,
                21,
                &format!("fig9c/{name}/software"),
            )
            .unwrap_or_else(exit_usage);
        let hw = plan
            .motion(
                &ds,
                &SamplerKind::NewRsu,
                STEREO_ITERATIONS,
                21,
                &format!("fig9c/{name}/new-RSUG"),
            )
            .unwrap_or_else(exit_usage);
        rows.push(vec![
            name.to_owned(),
            format!("{:.3}", sw.epe),
            format!("{:.3}", hw.epe),
            format!("{:+.3}", hw.epe - sw.epe),
        ]);
        csv.push(format!("{name},{:.5},{:.5}", sw.epe, hw.epe));
    }
    println!(
        "{}",
        table::render(&["dataset", "software EPE", "new-RSUG EPE", "delta"], &rows)
    );
    println!("paper shape: RSU-G EPE comparable to software on every dataset");
    write_csv("fig9c_motion", "dataset,software_epe,rsug_epe", &csv);
    plan.finish().unwrap_or_else(exit_usage);
}
