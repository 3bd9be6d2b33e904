//! Pins the chains the harness runs to digests of their final labels:
//! the raster chains of all three samplers, the checkerboard chain at 1,
//! 2 and 7 threads, the `Fast` + active-set chain, and a fault-injected
//! `RsuArray` chain. A change to RNG consumption, visit order, sampler
//! dispatch or fault service changes a digest, so restructuring the
//! sweep engines cannot silently change a chain.
//!
//! The 40-sweep pins never cool below T = 8.1. The full-schedule pins
//! run all 220 sweeps of `annealing_schedule()` (floor 0.4 from sweep
//! 113), where most labels are cut off, and add the RSU-G paths the
//! short pins miss: a bleached (derated) unit, and a 12-time-bit unit
//! whose races mostly land past bin 64 and clamp at the window's end.
//! The array pins also fix the units' combined `RsuStats`; the degraded
//! array pins add the stand-ins' statistics and the `DegradationReport`
//! of a remapped plan, a software-fallback plan, an array whose units
//! all retire and an array with more units than the scene has rows.

use bench::{annealing_schedule, stereo_model, RunPlan, SamplerKind, STEREO_ITERATIONS};
use mrf::{LabelField, MrfModel, NoopObserver, NumericPolicy, ParallelSweepSolver};
use rand::SeedableRng;
use rsu::{
    CensoredPolicy, DegradationReport, DegradePolicy, FaultKind, FaultPlan, RsuArray, RsuConfig,
    RsuG, RsuStats, ScheduledFault,
};
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
const ARRAY_SOFTWARE_FALLBACK_STATS: u64 = 0xd5a8_1119_0873_ad34;

const FULL_RASTER_PREVIOUS_RSU: u64 = 0x1fa8_17d3_1310_f14e;
const FULL_RASTER_NEW_RSU: u64 = 0x9eca_b00a_d4f0_9e0e;
const FULL_ARRAY_NEW_RSU: (u64, u64) = (0x5fd3_c56e_36dd_ab30, 0xd39b_aef9_f503_7b90);
const FULL_ARRAY_BLEACHED: (u64, u64) = (0xc110_002d_0373_d00a, 0x233b_1822_37ee_3969);
const FULL_RASTER_TIME_BITS_12_CLAMPED: u64 = 0xc167_6300_2c7a_8937;
/// `(field, combined stats, degradation report)` digests.
const FULL_ARRAY_REMAPPED: (u64, u64, u64) = (
    0x5fd3_c56e_36dd_ab30,
    0xd69d_25cb_536f_c7e9,
    0x98c8_6655_6b28_c807,
);
const FULL_ARRAY_ALL_RETIRED: (u64, u64, u64) = (
    0x0a1c_a087_4867_bcf9,
    0xc343_49ac_8755_4c44,
    0x1289_91a0_a3b6_bc20,
);
const FULL_ARRAY_IDLE_UNITS: (u64, u64, u64) = (
    0x5fd3_c56e_36dd_ab30,
    0x43cc_69b7_0fd8_5e9b,
    0x8a7e_d1cb_8109_5895,
);

/// The 40×30 stereo scene of the 40-sweep pins, 8 disparities.
fn model() -> StereoModel {
    stereo_scene(40, 30)
}

/// The 24×18 scene of the full-schedule pins: small enough that a
/// 220-sweep chain stays cheap in a debug build.
fn small_model() -> StereoModel {
    stereo_scene(24, 18)
}

fn stereo_scene(width: usize, height: usize) -> StereoModel {
    stereo_model(
        &scenes::StereoSpec {
            width,
            height,
            num_disparities: 8,
            num_layers: 2,
            noise_sigma: 1.0,
        }
        .generate(5),
    )
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian labels.
fn digest(field: &LabelField) -> u64 {
    fnv1a(
        field
            .as_slice()
            .iter()
            .flat_map(|label| label.to_le_bytes()),
    )
}

/// Digest of every RSU-G counter.
fn stats_digest(s: &RsuStats) -> u64 {
    let counters = [
        s.variable_evaluations,
        s.label_evaluations,
        s.cutoff_labels,
        s.censored_samples,
        s.ties_broken,
        s.all_censored_fallbacks,
        s.all_cutoff_keeps,
        s.stall_cycles,
        s.temperature_updates,
    ];
    fnv1a(counters.into_iter().flat_map(u64::to_le_bytes))
}

/// Digest of a degradation report: per-unit load, then the remapped,
/// software and sweep counts.
fn degradation_digest(r: &DegradationReport) -> u64 {
    let counts = r
        .unit_sites
        .iter()
        .copied()
        .chain([r.remapped_sites, r.software_sites, r.sweeps]);
    fnv1a(counts.flat_map(u64::to_le_bytes))
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
        assert_eq!(
            stats_digest(&array.combined_stats()),
            ARRAY_SOFTWARE_FALLBACK_STATS,
            "{threads} threads"
        );
    }
}

#[test]
fn full_schedule_raster_rsu_chains_are_pinned() {
    let model = small_model();
    for (kind, pinned) in [
        (SamplerKind::PreviousRsu, FULL_RASTER_PREVIOUS_RSU),
        (SamplerKind::NewRsu, FULL_RASTER_NEW_RSU),
    ] {
        let field = kind.run(&model, annealing_schedule(), STEREO_ITERATIONS, SEED);
        assert_eq!(digest(&field), pinned, "{} full raster chain", kind.name());
    }
}

/// `(field digest, combined stats digest)` of an 8-unit new-design
/// array run over the full schedule.
fn full_array_run(threads: usize, faults: Option<FaultPlan>) -> (u64, u64) {
    let model = small_model();
    let mut array = RsuArray::new(RsuConfig::new_design(), 8);
    if let Some(plan) = faults {
        array.install_faults(plan);
    }
    let field = plan(threads)
        .run_array(
            &model,
            &mut array,
            annealing_schedule(),
            STEREO_ITERATIONS,
            SEED,
            "",
        )
        .unwrap();
    (digest(&field), stats_digest(&array.combined_stats()))
}

#[test]
fn full_schedule_array_chain_is_pinned_at_every_thread_count() {
    for threads in [1, 2, 7] {
        assert_eq!(
            full_array_run(threads, None),
            FULL_ARRAY_NEW_RSU,
            "{threads} threads"
        );
    }
}

#[test]
fn bleached_array_chain_is_pinned() {
    // Two units bleach from the first sweeps on: one fades slowly, one
    // is nearly dark by the end, so the derated race runs at every
    // temperature of the schedule.
    let faults = FaultPlan::new(DegradePolicy::RemapToHealthy)
        .with_fault(ScheduledFault {
            unit: 2,
            sweep: 3,
            kind: FaultKind::Bleached {
                lifetime_sweeps: 90.0,
            },
        })
        .with_fault(ScheduledFault {
            unit: 5,
            sweep: 0,
            kind: FaultKind::Bleached {
                lifetime_sweeps: 12.0,
            },
        });
    for threads in [1, 2] {
        assert_eq!(
            full_array_run(threads, Some(faults.clone())),
            FULL_ARRAY_BLEACHED,
            "{threads} threads"
        );
    }
}

#[test]
fn twelve_time_bit_clamped_chain_is_pinned() {
    let config = RsuConfig::builder()
        .time_bits(12)
        .censored_policy(CensoredPolicy::ClampToTMax)
        .build()
        .unwrap();
    let field = SamplerKind::Custom(config).run(
        &small_model(),
        annealing_schedule(),
        STEREO_ITERATIONS,
        SEED,
    );
    assert_eq!(digest(&field), FULL_RASTER_TIME_BITS_12_CLAMPED);
}

/// `(field, combined stats, degradation report)` digests of a
/// `units`-unit new-design array run over the full schedule with
/// `faults` installed.
fn full_degraded_array_run(threads: usize, units: u32, faults: FaultPlan) -> (u64, u64, u64) {
    let model = small_model();
    let mut array = RsuArray::new(RsuConfig::new_design(), units);
    array.install_faults(faults);
    let field = plan(threads)
        .run_array(
            &model,
            &mut array,
            annealing_schedule(),
            STEREO_ITERATIONS,
            SEED,
            "",
        )
        .unwrap();
    let report = array.degradation_report().expect("a plan is installed");
    (
        digest(&field),
        stats_digest(&array.combined_stats()),
        degradation_digest(report),
    )
}

#[test]
fn remapped_array_chain_is_pinned_at_every_thread_count() {
    // Unit 3's SPAD dies at sweep 20 and its band moves to a stand-in
    // charged to unit 4; unit 4 sticks at sweep 60, so from then on both
    // bands are served by stand-ins charged to unit 5.
    let faults = FaultPlan::new(DegradePolicy::RemapToHealthy)
        .with_fault(ScheduledFault {
            unit: 3,
            sweep: 20,
            kind: FaultKind::DeadSpad,
        })
        .with_fault(ScheduledFault {
            unit: 4,
            sweep: 60,
            kind: FaultKind::Stuck,
        });
    for threads in [1, 2, 7] {
        assert_eq!(
            full_degraded_array_run(threads, 8, faults.clone()),
            FULL_ARRAY_REMAPPED,
            "{threads} threads"
        );
    }
}

#[test]
fn all_retired_array_chain_is_pinned_at_every_thread_count() {
    // Unit 0 retires at sweep 5 (a stand-in charged to unit 1 takes its
    // band); unit 1 retires at sweep 15, after which no healthy unit is
    // left and the host's software kernel serves every site.
    let faults = FaultPlan::new(DegradePolicy::RemapToHealthy)
        .with_fault(ScheduledFault {
            unit: 0,
            sweep: 5,
            kind: FaultKind::DeadSpad,
        })
        .with_fault(ScheduledFault {
            unit: 1,
            sweep: 15,
            kind: FaultKind::Stuck,
        });
    for threads in [1, 2, 7] {
        assert_eq!(
            full_degraded_array_run(threads, 2, faults.clone()),
            FULL_ARRAY_ALL_RETIRED,
            "{threads} threads"
        );
    }
}

#[test]
fn idle_units_and_stand_ins_are_pinned() {
    // 24 units on the 18-row scene: units 18..24 serve no band but still
    // track the schedule, and unit 2's stand-in joins from sweep 3, so
    // both count in the combined `temperature_updates`.
    let faults = FaultPlan::new(DegradePolicy::RemapToHealthy).with_fault(ScheduledFault {
        unit: 2,
        sweep: 3,
        kind: FaultKind::DeadSpad,
    });
    for threads in [1, 2, 7] {
        assert_eq!(
            full_degraded_array_run(threads, 24, faults.clone()),
            FULL_ARRAY_IDLE_UNITS,
            "{threads} threads"
        );
    }
}
