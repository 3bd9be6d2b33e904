//! Figure 9d + Table I: image-segmentation Variation of Information
//! across 30 images at 2/4/6/8 labels, software vs new RSU-G — mean VoI
//! (the figure) and its standard deviation (the table).

use bench::trace_jsonl::JsonlTraceWriter;
use bench::{
    exit_usage, segment_model, segmentation_schedule, table, write_csv, RunPlan, SamplerKind,
    SEGMENT_ITERATIONS,
};
use mrf::{potential_scale_reduction, EnergyTrace, FanOut, NumericPolicy};
use sampling::stats::sample_std_dev;

const LABEL_COUNTS: [usize; 4] = [2, 4, 6, 8];
/// Chains traced per sampler when `--trace` is given (first image, 4
/// labels).
const TRACE_SEEDS: [u64; 3] = [31, 32, 33];
const TRACE_EPSILON: f64 = 0.02;

fn main() {
    let mut plan = RunPlan::from_args("fig9d_segmentation");
    println!("Fig. 9d / Tab. I — segmentation VoI over 30 images (30 iterations each)\n");
    if plan.threads > 1 {
        println!(
            "running the parallel checkerboard engine on {} threads\n",
            plan.threads
        );
    }
    if plan.numeric == NumericPolicy::Fast || plan.active {
        println!(
            "numeric policy {:?}, active-site scheduling {}: chains run on the \
             checkerboard engine; quality is gated against the f64 full-sweep oracle \
             (DESIGN §12), not bit-identical to the default run\n",
            plan.numeric,
            if plan.active { "on" } else { "off" }
        );
    }
    if let Some(label) = plan.pending_resume() {
        println!("resuming interrupted run {label} (earlier runs are recomputed)\n");
    }
    let suite = scenes::segmentation_suite(3001, 30);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &k in &LABEL_COUNTS {
        let mut sw_vois = Vec::with_capacity(suite.len());
        let mut hw_vois = Vec::with_capacity(suite.len());
        for (i, ds) in suite.iter().enumerate() {
            let seed = 31 + i as u64;
            for (kind, vois) in [
                (SamplerKind::Software, &mut sw_vois),
                (SamplerKind::NewRsu, &mut hw_vois),
            ] {
                let label = format!("fig9d/k{k}/img{i:02}/{}", kind.name());
                let out = plan
                    .segmentation(ds, k, &kind, SEGMENT_ITERATIONS, seed, &label)
                    .unwrap_or_else(exit_usage);
                vois.push(out.voi);
            }
        }
        let sw_mean = sw_vois.iter().sum::<f64>() / sw_vois.len() as f64;
        let hw_mean = hw_vois.iter().sum::<f64>() / hw_vois.len() as f64;
        let sw_sd = sample_std_dev(&sw_vois);
        let hw_sd = sample_std_dev(&hw_vois);
        rows.push(vec![
            format!("{k}-label"),
            format!("{sw_mean:.3}"),
            format!("{hw_mean:.3}"),
            format!("{sw_sd:.2}"),
            format!("{hw_sd:.2}"),
        ]);
        csv.push(format!(
            "{k},{sw_mean:.5},{hw_mean:.5},{sw_sd:.5},{hw_sd:.5}"
        ));
    }
    println!(
        "{}",
        table::render(
            &[
                "labels",
                "software VoI",
                "new-RSUG VoI",
                "sw σ(VoI)",
                "rsu σ(VoI)"
            ],
            &rows
        )
    );
    println!(
        "paper shape: mean VoI comparable between software and RSU-G at every label\n\
         count, with matching standard deviations (Table I: 0.63–0.79 band)"
    );
    write_csv(
        "fig9d_tab1_segmentation",
        "labels,software_voi_mean,rsug_voi_mean,software_voi_sd,rsug_voi_sd",
        &csv,
    );

    if let Some(path) = &plan.trace {
        write_trace(path, &suite[0], &plan);
    }
    plan.finish().unwrap_or_else(exit_usage);
}

/// `--trace` mode: traces the first image of the suite at 4 labels,
/// software vs new RSU-G, as multi-seed chains on the plan's engine with
/// per-sweep JSONL records plus ESS/PSRF/time-to-quality summaries.
fn write_trace(path: &std::path::Path, ds: &scenes::SegmentationDataset, plan: &RunPlan) {
    let model = segment_model(ds, 4);
    let mut chains_plan = RunPlan {
        threads: plan.threads,
        numeric: plan.numeric,
        active: plan.active,
        ..RunPlan::default()
    };
    let file = std::fs::File::create(path).expect("can create trace file");
    let mut writer = JsonlTraceWriter::new(std::io::BufWriter::new(file));
    for (config, kind) in [
        ("software", SamplerKind::Software),
        ("new-RSUG", SamplerKind::NewRsu),
    ] {
        let mut chains: Vec<EnergyTrace> = Vec::new();
        for &seed in &TRACE_SEEDS {
            writer.set_chain(&format!("{config}/seed{seed}"));
            let mut energy = EnergyTrace::new();
            {
                let mut observers = FanOut::new();
                observers.push(&mut energy);
                observers.push(&mut writer);
                chains_plan
                    .run(
                        &model,
                        &kind,
                        segmentation_schedule(),
                        SEGMENT_ITERATIONS,
                        seed,
                        "",
                        &mut observers,
                    )
                    .expect("trace chains resume nothing");
            }
            chains.push(energy);
        }
        let ess: Vec<Option<f64>> = chains.iter().map(EnergyTrace::ess).collect();
        let energy_series: Vec<Vec<f64>> = chains.iter().map(EnergyTrace::energies).collect();
        let psrf = potential_scale_reduction(&energy_series);
        let to_within: Vec<Option<usize>> = chains
            .iter()
            .map(|c| c.iterations_to_within(TRACE_EPSILON))
            .collect();
        writer.write_summary(config, &ess, psrf, TRACE_EPSILON, &to_within);
    }
    writer.flush();
    if let Some(e) = writer.take_error() {
        eprintln!("error: failed writing trace to {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote trace {}", path.display());
}
