//! §III-B reference point: Graph Cuts vs MCMC stereo quality.
//!
//! The paper grounds its software baseline by noting "MCMC software-only
//! (BP 27%) can reach very close to quality of Graph Cuts algorithms
//! (BP 25%)" on teddy. This binary runs α-expansion Graph Cuts on the
//! same synthetic stereo suite and compares against the MCMC software
//! baseline and the new RSU-G.

use bench::{exit_usage, stereo_suite, table, write_csv, RunPlan, SamplerKind, STEREO_ITERATIONS};
use mrf::{alpha_expansion, total_energy, LabelField, MrfModel};
use vision::metrics::bad_pixel_percentage;
use vision::StereoModel;

fn main() {
    let mut plan = RunPlan::from_args("graphcut_reference");
    plan.reject("graphcut_reference", &["--trace"]);
    println!("§III-B — Graph Cuts (alpha-expansion) vs MCMC stereo quality\n");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, ds) in stereo_suite() {
        let model = StereoModel::new(
            &ds.left,
            &ds.right,
            ds.num_disparities,
            bench::STEREO_DATA_WEIGHT,
            bench::STEREO_SMOOTH_WEIGHT,
        )
        .expect("generated datasets are consistent");
        let mut gc_field = LabelField::constant(model.grid(), model.num_labels(), 0);
        let report = alpha_expansion(&model, &mut gc_field).expect("absolute distance is a metric");
        let gc_bp = bad_pixel_percentage(&gc_field, &ds.ground_truth, Some(&ds.occlusion), 1.0);
        let mut run = |kind: SamplerKind| {
            let label = format!("graphcut_reference/{name}/{}", kind.name());
            plan.stereo(&ds, &kind, STEREO_ITERATIONS, 11, &label)
                .unwrap_or_else(exit_usage)
        };
        let sw = run(SamplerKind::Software);
        let hw = run(SamplerKind::NewRsu);
        let sw_energy = {
            let f = &sw.field;
            total_energy(&model, f)
        };
        rows.push(vec![
            name.to_owned(),
            format!("{:.1}", gc_bp),
            format!("{:.1}", sw.bp),
            format!("{:.1}", hw.bp),
            format!("{:.0}", report.final_energy),
            format!("{:.0}", sw_energy),
        ]);
        csv.push(format!("{name},{gc_bp:.3},{:.3},{:.3}", sw.bp, hw.bp));
    }
    println!(
        "{}",
        table::render(
            &[
                "dataset",
                "GraphCuts BP%",
                "MCMC BP%",
                "new-RSUG BP%",
                "GC energy",
                "MCMC energy"
            ],
            &rows
        )
    );
    println!(
        "paper shape: MCMC lands within a couple of BP points of Graph Cuts; the RSU-G\n\
         tracks MCMC; Graph Cuts reaches the lower (or equal) MRF energy deterministically"
    );
    write_csv(
        "graphcut_reference",
        "dataset,graphcuts_bp,mcmc_bp,rsug_bp",
        &csv,
    );
    plan.finish().unwrap_or_else(exit_usage);
}
