//! Solver taxonomy on one stereo problem: ICM, loopy belief propagation,
//! Graph Cuts, MCMC (software Gibbs) and the new RSU-G — the classical
//! trade-off table behind the paper's §III-B quality grounding, extended
//! with the Middlebury-style subregion decomposition the paper mentions
//! (occluded / textureless / discontinuity).

use bench::{
    annealing_schedule, exit_usage, table, write_csv, RunPlan, SamplerKind, STEREO_ITERATIONS,
};
use mrf::{
    alpha_expansion, belief_propagation, total_energy, IcmSampler, LabelField, MrfModel, Schedule,
    SweepSolver,
};
use rand::SeedableRng;
use sampling::Xoshiro256pp;
use vision::metrics::{bad_pixels_by_region, compute_regions};
use vision::StereoModel;

fn main() {
    let mut plan = RunPlan::from_args("baselines");
    plan.reject("baselines", &["--trace"]);
    println!("Solver taxonomy on the poster-like stereo problem\n");
    let ds = scenes::stereo_poster_like(1002);
    let model = StereoModel::new(
        &ds.left,
        &ds.right,
        ds.num_disparities,
        bench::STEREO_DATA_WEIGHT,
        bench::STEREO_SMOOTH_WEIGHT,
    )
    .expect("generated datasets are consistent");
    let regions = compute_regions(&ds.left, &ds.ground_truth, &ds.occlusion, 4.0, 1);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut push = |name: &str, field: &LabelField, seconds: f64| {
        let (all, nonocc, tex, disc) = bad_pixels_by_region(field, &ds.ground_truth, &regions, 1.0);
        let energy = total_energy(&model, field);
        rows.push(vec![
            name.to_owned(),
            format!("{all:.1}"),
            format!("{nonocc:.1}"),
            format!("{tex:.1}"),
            format!("{disc:.1}"),
            format!("{energy:.0}"),
            format!("{seconds:.2}"),
        ]);
        csv.push(format!(
            "{name},{all:.3},{nonocc:.3},{tex:.3},{disc:.3},{energy:.1}"
        ));
    };

    // ICM (greedy).
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let mut f_icm = LabelField::random(model.grid(), model.num_labels(), &mut rng);
    let t0 = std::time::Instant::now();
    SweepSolver::new(&model)
        .schedule(Schedule::constant(1.0))
        .iterations(25)
        .run(&mut f_icm, &mut IcmSampler::new(), &mut rng);
    push("ICM", &f_icm, t0.elapsed().as_secs_f64());

    // Loopy BP.
    let mut f_bp = LabelField::constant(model.grid(), model.num_labels(), 0);
    let t0 = std::time::Instant::now();
    belief_propagation(&model, &mut f_bp, 25);
    push("LoopyBP", &f_bp, t0.elapsed().as_secs_f64());

    // Graph Cuts.
    let mut f_gc = LabelField::constant(model.grid(), model.num_labels(), 0);
    let t0 = std::time::Instant::now();
    alpha_expansion(&model, &mut f_gc).expect("absolute distance is a metric");
    push("GraphCuts", &f_gc, t0.elapsed().as_secs_f64());

    // MCMC software and RSU-G (reuse the shared driver so the annealing
    // protocol matches the rest of the evaluation).
    let t0 = std::time::Instant::now();
    let sw = plan
        .stereo(
            &ds,
            &SamplerKind::Software,
            STEREO_ITERATIONS,
            11,
            "baselines/software",
        )
        .unwrap_or_else(exit_usage);
    push("MCMC(float)", &sw.field, t0.elapsed().as_secs_f64());
    let t0 = std::time::Instant::now();
    let hw = plan
        .stereo(
            &ds,
            &SamplerKind::NewRsu,
            STEREO_ITERATIONS,
            11,
            "baselines/new-RSUG",
        )
        .unwrap_or_else(exit_usage);
    push("new-RSUG", &hw.field, t0.elapsed().as_secs_f64());
    let _ = annealing_schedule();

    println!(
        "{}",
        table::render(
            &["solver", "BP all%", "nonocc%", "texless%", "disc%", "energy", "sim s"],
            &rows
        )
    );
    println!(
        "expected shape: GraphCuts ≤ LoopyBP ≈ MCMC < ICM on energy; the RSU-G tracks\n\
         MCMC in every subregion; discontinuity regions are the hardest for all solvers"
    );
    write_csv(
        "baselines",
        "solver,bp_all,bp_nonocc,bp_textureless,bp_discontinuity,energy",
        &csv,
    );
    plan.finish().unwrap_or_else(exit_usage);
}
