//! Integration tests for the extension features (the paper's §IV-D
//! future-work directions and the supporting baselines), exercised
//! together across crates.

use rand::SeedableRng;
use ret_rsu::mrf::{
    alpha_expansion, belief_propagation, total_energy, DistanceFn, LabelField, MetropolisSampler,
    MrfModel, ParallelSweepSolver, Schedule, SoftwareGibbs, SweepSolver, TabularMrf,
};
use ret_rsu::ret_device::{RetCalibration, RoundRobinArbiter, SharedWaveguide};
use ret_rsu::rsu::{RsuArray, RsuConfig};
use ret_rsu::sampling::{gumbel, Hypoexponential, Xoshiro256pp};
use ret_rsu::scenes::StereoSpec;
use ret_rsu::vision::metrics::bad_pixel_percentage;
use ret_rsu::vision::{CoarseToFine, StereoModel};

#[test]
fn all_solver_families_agree_on_an_easy_problem() {
    // Gibbs, Metropolis, Graph Cuts, loopy BP and the RSU-G array must
    // all land on the same strong-contrast optimum.
    let model = TabularMrf::checkerboard(8, 8, 3, 8.0, DistanceFn::Binary, 0.2);
    let truth = TabularMrf::checkerboard_truth(8, 8, 3);
    let start = {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        LabelField::random(model.grid(), 3, &mut rng)
    };

    let mut f_gibbs = start.clone();
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    SweepSolver::new(&model)
        .schedule(Schedule::geometric(3.0, 0.9, 0.05))
        .iterations(120)
        .run(&mut f_gibbs, &mut SoftwareGibbs::new(), &mut rng);
    assert!(
        f_gibbs.disagreement(&truth) < 0.05,
        "gibbs {}",
        f_gibbs.disagreement(&truth)
    );

    let mut f_mh = start.clone();
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    SweepSolver::new(&model)
        .schedule(Schedule::geometric(3.0, 0.97, 0.05))
        .iterations(400)
        .run(&mut f_mh, &mut MetropolisSampler::new(), &mut rng);
    assert!(
        f_mh.disagreement(&truth) < 0.08,
        "metropolis {}",
        f_mh.disagreement(&truth)
    );

    let mut f_gc = start.clone();
    alpha_expansion(&model, &mut f_gc).expect("binary distance is a metric");
    assert_eq!(
        f_gc.disagreement(&truth),
        0.0,
        "graph cuts finds the optimum"
    );

    let mut f_bp = start.clone();
    belief_propagation(&model, &mut f_bp, 25);
    assert_eq!(f_bp.disagreement(&truth), 0.0, "loopy BP finds the optimum");

    let mut f_array = start;
    ParallelSweepSolver::new(&model)
        .schedule(Schedule::geometric(3.0, 0.9, 0.05))
        .iterations(120)
        .threads(2)
        .seed(4)
        .run_on(&mut f_array, &mut RsuArray::new(RsuConfig::new_design(), 8));
    assert!(
        f_array.disagreement(&truth) < 0.08,
        "array {}",
        f_array.disagreement(&truth)
    );

    // Energies agree on the deterministic optima.
    assert!((total_energy(&model, &f_gc) - total_energy(&model, &f_bp)).abs() < 1e-9);
}

#[test]
fn coarse_to_fine_rsu_flow_reaches_beyond_the_window() {
    // A translation outside the single-level ±3 reach, solved by the
    // pyramid method with the new RSU-G as the per-level sampler.
    let ds = StereoSpec {
        width: 48,
        height: 48,
        num_disparities: 8,
        num_layers: 1,
        noise_sigma: 0.0,
    }
    .generate(8);
    // Use the stereo scene's left image as a convenient textured frame.
    let f1 = ds.left;
    let f2 = ret_rsu::vision::GrayImage::from_fn(48, 48, |x, y| {
        f1.get_clamped(x as isize - 5, y as isize - 2)
    });
    let mut rng = Xoshiro256pp::seed_from_u64(6);
    let ctf = CoarseToFine::new(2);
    let mut unit = ret_rsu::rsu::RsuG::new_design();
    let flow = ctf
        .solve(&f1, &f2, &mut unit, &mut rng)
        .expect("frames are consistent");
    let hits = (10..38)
        .flat_map(|y| (10..38).map(move |x| (x, y)))
        .filter(|&(x, y)| flow[y * 48 + x] == (5, 2))
        .count();
    let total = 28 * 28;
    assert!(
        hits as f64 / total as f64 > 0.6,
        "RSU-driven pyramid recovered only {hits}/{total}"
    );
}

#[test]
fn shared_waveguide_supports_an_rsu_gang() {
    // Eight RSU-Gs sharing one light source in round-robin never violate
    // the cooldown and together consume 8x the single-unit intensity.
    let cal = RetCalibration::paper_new_design();
    let mut wg = SharedWaveguide::new(cal, 8).expect("valid subscriber count");
    let mut arb = RoundRobinArbiter::new(8);
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let mut observed = 0u64;
    for i in 0..20_000u32 {
        if wg.sample(arb.grant(), (i % 4) as u8, &mut rng).is_some() {
            observed += 1;
        }
        wg.advance_window();
    }
    assert_eq!(wg.cooldown_violations(), 0);
    assert_eq!(wg.relative_intensity(), 8.0);
    assert!(observed > 10_000, "most windows observe a photon");
}

#[test]
fn gumbel_and_phase_type_compose_with_the_race_machinery() {
    // The Gumbel path and a 2-stage Erlang race both produce valid
    // winners with sane frequencies — the §IV-D extension surface.
    let mut rng = Xoshiro256pp::seed_from_u64(8);
    let log_rates = [3.0f64.ln(), 1.0f64.ln()];
    let mut wins = [0u64; 2];
    for _ in 0..60_000 {
        wins[gumbel::gumbel_argmax(&log_rates, &mut rng).unwrap()] += 1;
    }
    let ratio = wins[0] as f64 / wins[1] as f64;
    assert!((ratio - 3.0).abs() < 0.2, "gumbel ratio {ratio}");

    // Erlang-2 competitors: the smaller-mean chain wins more often.
    let fast = Hypoexponential::new(&[4.0, 4.0]).unwrap();
    let slow = Hypoexponential::new(&[1.0, 1.0]).unwrap();
    let mut fast_wins = 0u64;
    let n = 30_000;
    for _ in 0..n {
        if fast.sample(&mut rng) < slow.sample(&mut rng) {
            fast_wins += 1;
        }
    }
    let p = fast_wins as f64 / n as f64;
    assert!(p > 0.8, "fast Erlang chain should dominate: {p}");
}

#[test]
fn stereo_with_all_three_deterministic_baselines() {
    let ds = StereoSpec {
        width: 40,
        height: 30,
        num_disparities: 8,
        num_layers: 2,
        noise_sigma: 2.0,
    }
    .generate(12);
    let model = StereoModel::new(&ds.left, &ds.right, 8, 0.3, 0.3).expect("valid");
    let mut f_gc = LabelField::constant(model.grid(), 8, 0);
    alpha_expansion(&model, &mut f_gc).expect("metric");
    let mut f_bp = LabelField::constant(model.grid(), 8, 0);
    belief_propagation(&model, &mut f_bp, 20);
    let bp_gc = bad_pixel_percentage(&f_gc, &ds.ground_truth, Some(&ds.occlusion), 1.0);
    let bp_bp = bad_pixel_percentage(&f_bp, &ds.ground_truth, Some(&ds.occlusion), 1.0);
    let floor =
        100.0 * ds.occlusion.iter().filter(|&&o| o).count() as f64 / ds.occlusion.len() as f64;
    assert!(
        bp_gc < floor + 25.0,
        "graph cuts BP {bp_gc} (floor {floor})"
    );
    assert!(bp_bp < floor + 25.0, "loopy BP BP {bp_bp} (floor {floor})");
}
