//! Pins the chains the harness runs to digests of their final labels:
//! the raster chains of all three samplers, the checkerboard chain at 1,
//! 2 and 7 threads, the `Fast` + active-set chain, and a fault-injected
//! `RsuArray` chain. A change to RNG consumption, visit order, sampler
//! dispatch or fault service changes a digest, so restructuring the
//! sweep engines cannot silently change a chain.

use bench::{annealing_schedule, stereo_model, RunPlan, SamplerKind};
use mrf::{LabelField, MrfModel, NoopObserver, NumericPolicy, ParallelSweepSolver};
use rand::SeedableRng;
use rsu::{DegradePolicy, FaultPlan, RsuArray, RsuConfig, RsuG};
use sampling::Xoshiro256pp;
use vision::StereoModel;

const SWEEPS: usize = 40;
const SEED: u64 = 11;

const RASTER_SOFTWARE: u64 = 0x5806_14bb_1695_9b97;
const RASTER_PREVIOUS_RSU: u64 = 0xfee8_3913_07f8_a9dc;
const RASTER_NEW_RSU: u64 = 0x2071_5198_421f_106c;
const CHECKERBOARD_NEW_RSU: u64 = 0xf86a_ccaf_eb53_bed1;
const FAST_ACTIVE_SOFTWARE: u64 = 0x1ffb_5790_63ad_0a98;
const ARRAY_SOFTWARE_FALLBACK: u64 = 0xf2a1_5492_5c3e_ef3f;

/// A 40×30 stereo scene with 8 disparities.
fn model() -> StereoModel {
    stereo_model(
        &scenes::StereoSpec {
            width: 40,
            height: 30,
            num_disparities: 8,
            num_layers: 2,
            noise_sigma: 1.0,
        }
        .generate(5),
    )
}

/// FNV-1a over the little-endian labels.
fn digest(field: &LabelField) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &label in field.as_slice() {
        for byte in label.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn plan(threads: usize) -> RunPlan {
    RunPlan {
        threads,
        ..RunPlan::default()
    }
}

#[test]
fn raster_chains_of_every_sampler_are_pinned() {
    let model = model();
    for (kind, pinned) in [
        (SamplerKind::Software, RASTER_SOFTWARE),
        (SamplerKind::PreviousRsu, RASTER_PREVIOUS_RSU),
        (SamplerKind::NewRsu, RASTER_NEW_RSU),
    ] {
        let field = kind.run(&model, annealing_schedule(), SWEEPS, SEED);
        assert_eq!(digest(&field), pinned, "{} raster chain", kind.name());
    }
}

#[test]
fn checkerboard_chain_is_pinned_at_every_thread_count() {
    let model = model();
    for threads in [1, 2, 7] {
        let mut rng = Xoshiro256pp::seed_from_u64(SEED);
        let mut field = LabelField::random(model.grid(), model.num_labels(), &mut rng);
        ParallelSweepSolver::new(&model)
            .schedule(annealing_schedule())
            .iterations(SWEEPS)
            .threads(threads)
            .seed(SEED)
            .run(&mut field, &RsuG::new_design());
        assert_eq!(
            digest(&field),
            CHECKERBOARD_NEW_RSU,
            "solver, {threads} threads"
        );
    }
    for threads in [2, 7] {
        let field = plan(threads)
            .run(
                &model,
                &SamplerKind::NewRsu,
                annealing_schedule(),
                SWEEPS,
                SEED,
                "",
                &mut NoopObserver,
            )
            .unwrap();
        assert_eq!(
            digest(&field),
            CHECKERBOARD_NEW_RSU,
            "plan, {threads} threads"
        );
    }
}

#[test]
fn fast_active_chain_is_pinned() {
    let model = model();
    for threads in [1, 2, 7] {
        let mut fast_active = RunPlan {
            numeric: NumericPolicy::Fast,
            active: true,
            ..plan(threads)
        };
        let field = fast_active
            .run(
                &model,
                &SamplerKind::Software,
                annealing_schedule(),
                SWEEPS,
                SEED,
                "",
                &mut NoopObserver,
            )
            .unwrap();
        assert_eq!(digest(&field), FAST_ACTIVE_SOFTWARE, "{threads} threads");
    }
}

#[test]
fn fault_injected_array_chain_is_pinned() {
    let model = model();
    for threads in [1, 2, 7] {
        let faults = FaultPlan::random(7001, 4, SWEEPS as u64, 3, DegradePolicy::SoftwareFallback);
        let mut array = RsuArray::new(RsuConfig::new_design(), 4);
        array.install_faults(faults);
        let field = plan(threads)
            .run_array(&model, &mut array, annealing_schedule(), SWEEPS, SEED, "")
            .unwrap();
        assert_eq!(digest(&field), ARRAY_SOFTWARE_FALLBACK, "{threads} threads");
    }
}
