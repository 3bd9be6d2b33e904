//! Experiment harness: shared machinery for the per-figure/per-table
//! binaries that regenerate the paper's evaluation.
//!
//! Each binary in `src/bin/` reproduces one table or figure (see
//! `DESIGN.md` for the index) and prints the same rows/series the paper
//! reports, plus CSV/PGM artifacts under `artifacts/`.
//!
//! The central pieces:
//!
//! * [`SamplerKind`] — the samplers under comparison (software float,
//!   previous RSU-G, new RSU-G, or any custom [`RsuConfig`]);
//! * [`RunPlan`] — the drivers' shared command line and their one chain
//!   entry point ([`RunPlan::run`], with checkpoint/resume), plus a
//!   uniform stereo/motion/segmentation runner per application;
//! * [`StereoOutcome`] etc. — per-run quality summaries (BP, RMS, EPE,
//!   VoI, ...);
//! * [`table`] — plain-text table formatting;
//! * [`artifacts_dir`]/[`write_csv`] — artifact output.

use mrf::{
    CheckpointError, Label, LabelField, MrfModel, NoopObserver, Schedule, SiteSampler,
    SoftwareGibbs,
};
use rand::Rng;
use rsu::{RsuConfig, RsuG};
use scenes::{FlowDataset, SegmentationDataset, StereoDataset};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use vision::metrics::{bad_pixel_percentage, endpoint_error, rms_error, variation_of_information};
use vision::{MotionModel, SegmentModel, StereoModel};

/// Stereo energy weights used throughout the experiments (best-effort
/// tuned once, like the paper's "best-effort optimization for MCMC
/// algorithm parameters ... applied throughout the evaluation").
pub const STEREO_DATA_WEIGHT: f64 = 0.30;
/// Stereo smoothness weight.
pub const STEREO_SMOOTH_WEIGHT: f64 = 0.3;
/// Motion energy weights (squared distances are larger, so smaller
/// weights).
pub const MOTION_DATA_WEIGHT: f64 = 0.004;
/// Motion smoothness weight.
pub const MOTION_SMOOTH_WEIGHT: f64 = 1.2;
/// Segmentation energy weights.
pub const SEGMENT_DATA_WEIGHT: f64 = 0.004;
/// Segmentation smoothness weight.
pub const SEGMENT_SMOOTH_WEIGHT: f64 = 2.5;

/// The annealing schedule used by the stereo and motion experiments.
pub fn annealing_schedule() -> Schedule {
    Schedule::geometric(40.0, 0.96, 0.4)
}

/// The (milder) schedule used by segmentation, which the paper runs for
/// only 30 iterations.
pub fn segmentation_schedule() -> Schedule {
    Schedule::geometric(4.0, 0.9, 0.3)
}

/// Default iteration budget for stereo/motion runs.
pub const STEREO_ITERATIONS: usize = 220;
/// Default iteration budget for segmentation runs (paper: 30).
pub const SEGMENT_ITERATIONS: usize = 30;

/// Which per-site sampler an experiment runs.
#[derive(Debug, Clone)]
pub enum SamplerKind {
    /// IEEE floating-point Gibbs (the quality reference).
    Software,
    /// The previous RSU-G design (Wang et al. 2016).
    PreviousRsu,
    /// The paper's new RSU-G design.
    NewRsu,
    /// An arbitrary RSU-G design point.
    Custom(RsuConfig),
}

impl SamplerKind {
    /// Display name used in printed tables.
    pub fn name(&self) -> String {
        match self {
            SamplerKind::Software => "software".to_owned(),
            SamplerKind::PreviousRsu => "prev-RSUG".to_owned(),
            SamplerKind::NewRsu => "new-RSUG".to_owned(),
            SamplerKind::Custom(_) => "custom-RSUG".to_owned(),
        }
    }

    /// The site kernel this kind names.
    pub fn sampler(&self) -> Sampler {
        match self {
            SamplerKind::Software => Sampler::SoftwareGibbs(SoftwareGibbs::new()),
            SamplerKind::PreviousRsu => Sampler::RsuG(RsuG::previous_design()),
            SamplerKind::NewRsu => Sampler::RsuG(RsuG::new_design()),
            SamplerKind::Custom(cfg) => Sampler::RsuG(RsuG::with_config(*cfg)),
        }
    }

    /// Runs the configured sampler over an arbitrary model with the
    /// given schedule/budget/seed on the raster engine (the historical
    /// chain, [`RunPlan::default`]) and returns the final field.
    pub fn run<M: MrfModel + Sync>(
        &self,
        model: &M,
        schedule: Schedule,
        iterations: usize,
        seed: u64,
    ) -> LabelField {
        RunPlan::default()
            .run(
                model,
                self,
                schedule,
                iterations,
                seed,
                "",
                &mut NoopObserver,
            )
            .expect(NO_RESUME)
    }
}

/// Why a plan without a `--resume` checkpoint cannot refuse a run.
const NO_RESUME: &str = "a plan without a resume checkpoint never refuses a run";

/// The site kernel a [`SamplerKind`] names, as one [`SiteSampler`] the
/// engines monomorphise once.
// Built once per chain and held by value: boxing the larger variant
// would add a pointer chase to every site draw.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Sampler {
    /// IEEE floating-point Gibbs.
    SoftwareGibbs(SoftwareGibbs),
    /// An RSU-G functional simulator.
    RsuG(RsuG),
}

impl SiteSampler for Sampler {
    fn begin_iteration(&mut self, temperature: f64) {
        match self {
            Sampler::SoftwareGibbs(s) => s.begin_iteration(temperature),
            Sampler::RsuG(s) => s.begin_iteration(temperature),
        }
    }

    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        match self {
            Sampler::SoftwareGibbs(s) => s.sample_label(energies, temperature, current, rng),
            Sampler::RsuG(s) => s.sample_label(energies, temperature, current, rng),
        }
    }

    // Forwarded explicitly: `SoftwareGibbs` overrides the f32 draw, and
    // the trait default would silently widen every `--numeric fast`
    // chain to the f64 kernel instead.
    fn sample_label_f32<R: Rng + ?Sized>(
        &mut self,
        energies: &[f32],
        e_min: f32,
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        match self {
            Sampler::SoftwareGibbs(s) => {
                s.sample_label_f32(energies, e_min, temperature, current, rng)
            }
            Sampler::RsuG(s) => s.sample_label_f32(energies, e_min, temperature, current, rng),
        }
    }
}

/// The stereo model of the evaluation for a dataset.
pub fn stereo_model(ds: &StereoDataset) -> StereoModel {
    StereoModel::new(
        &ds.left,
        &ds.right,
        ds.num_disparities,
        STEREO_DATA_WEIGHT,
        STEREO_SMOOTH_WEIGHT,
    )
    .expect("generated datasets are consistent")
}

/// The motion model of the evaluation for a dataset.
pub fn motion_model(ds: &FlowDataset) -> MotionModel {
    MotionModel::new(
        &ds.frame1,
        &ds.frame2,
        ds.window,
        MOTION_DATA_WEIGHT,
        MOTION_SMOOTH_WEIGHT,
    )
    .expect("generated datasets are consistent")
}

/// The segmentation model of the evaluation for a dataset at
/// `num_segments` labels.
pub fn segment_model(ds: &SegmentationDataset, num_segments: usize) -> SegmentModel {
    SegmentModel::new(
        &ds.image,
        num_segments,
        SEGMENT_DATA_WEIGHT,
        SEGMENT_SMOOTH_WEIGHT,
    )
    .expect("generated datasets are consistent")
}

/// Outcome of one stereo run.
#[derive(Debug, Clone)]
pub struct StereoOutcome {
    /// Bad-pixel percentage (threshold 1, occlusions counted bad).
    pub bp: f64,
    /// RMS disparity error over visible pixels.
    pub rms: f64,
    /// The final disparity field.
    pub field: LabelField,
}

/// Outcome of one motion-estimation run.
#[derive(Debug, Clone)]
pub struct MotionOutcome {
    /// Average endpoint error.
    pub epe: f64,
    /// The recovered flow field.
    pub flow: Vec<(isize, isize)>,
}

/// Outcome of one segmentation run.
#[derive(Debug, Clone)]
pub struct SegmentationOutcome {
    /// Variation of Information against the generating partition.
    pub voi: f64,
    /// The recovered segmentation.
    pub field: LabelField,
}

impl RunPlan {
    /// Runs one stereo dataset (run `label`) with the given sampler
    /// under the annealing schedule and returns BP/RMS.
    pub fn stereo(
        &mut self,
        ds: &StereoDataset,
        sampler: &SamplerKind,
        iterations: usize,
        seed: u64,
        label: &str,
    ) -> Result<StereoOutcome, CheckpointError> {
        let model = stereo_model(ds);
        let schedule = annealing_schedule();
        let field = self.run(
            &model,
            sampler,
            schedule,
            iterations,
            seed,
            label,
            &mut NoopObserver,
        )?;
        let bp = bad_pixel_percentage(&field, &ds.ground_truth, Some(&ds.occlusion), 1.0);
        let rms = rms_error(&field, &ds.ground_truth, Some(&ds.occlusion));
        Ok(StereoOutcome { bp, rms, field })
    }

    /// Runs one flow dataset (run `label`) with the given sampler under
    /// the annealing schedule and returns the EPE.
    pub fn motion(
        &mut self,
        ds: &FlowDataset,
        sampler: &SamplerKind,
        iterations: usize,
        seed: u64,
        label: &str,
    ) -> Result<MotionOutcome, CheckpointError> {
        let model = motion_model(ds);
        let schedule = annealing_schedule();
        let field = self.run(
            &model,
            sampler,
            schedule,
            iterations,
            seed,
            label,
            &mut NoopObserver,
        )?;
        let flow: Vec<(isize, isize)> = (0..field.grid().len())
            .map(|site| model.label_to_flow(field.get(site)))
            .collect();
        let epe = endpoint_error(&flow, &ds.ground_truth);
        Ok(MotionOutcome { epe, flow })
    }

    /// Runs one segmentation dataset at `num_segments` (run `label`)
    /// with the given sampler under the segmentation schedule and
    /// returns the VoI against the generating partition.
    pub fn segmentation(
        &mut self,
        ds: &SegmentationDataset,
        num_segments: usize,
        sampler: &SamplerKind,
        iterations: usize,
        seed: u64,
        label: &str,
    ) -> Result<SegmentationOutcome, CheckpointError> {
        let model = segment_model(ds, num_segments);
        let schedule = segmentation_schedule();
        let field = self.run(
            &model,
            sampler,
            schedule,
            iterations,
            seed,
            label,
            &mut NoopObserver,
        )?;
        let voi = variation_of_information(&field, &ds.ground_truth);
        Ok(SegmentationOutcome { voi, field })
    }
}

/// Runs one stereo dataset with the given sampler and returns BP/RMS.
///
/// `threads == 1` reproduces the historical raster-scan chain exactly;
/// `threads > 1` switches to the parallel checkerboard engine (results
/// then depend only on the seed, never on the thread count).
pub fn run_stereo(
    ds: &StereoDataset,
    sampler: &SamplerKind,
    iterations: usize,
    seed: u64,
    threads: usize,
) -> StereoOutcome {
    RunPlan {
        threads,
        ..RunPlan::default()
    }
    .stereo(ds, sampler, iterations, seed, "")
    .expect(NO_RESUME)
}

/// Runs one flow dataset with the given sampler and returns the EPE.
/// See [`run_stereo`] for the meaning of `threads`.
pub fn run_motion(
    ds: &FlowDataset,
    sampler: &SamplerKind,
    iterations: usize,
    seed: u64,
    threads: usize,
) -> MotionOutcome {
    RunPlan {
        threads,
        ..RunPlan::default()
    }
    .motion(ds, sampler, iterations, seed, "")
    .expect(NO_RESUME)
}

/// Runs one segmentation dataset at `num_segments` with the given
/// sampler and returns the VoI against the generating partition.
/// See [`run_stereo`] for the meaning of `threads`.
pub fn run_segmentation(
    ds: &SegmentationDataset,
    num_segments: usize,
    sampler: &SamplerKind,
    iterations: usize,
    seed: u64,
    threads: usize,
) -> SegmentationOutcome {
    RunPlan {
        threads,
        ..RunPlan::default()
    }
    .segmentation(ds, num_segments, sampler, iterations, seed, "")
    .expect(NO_RESUME)
}

/// The three named stereo datasets of the evaluation, with their seeds.
pub fn stereo_suite() -> Vec<(&'static str, StereoDataset)> {
    vec![
        ("teddy", scenes::stereo_teddy_like(1001)),
        ("poster", scenes::stereo_poster_like(1002)),
        ("art", scenes::stereo_art_like(1003)),
    ]
}

/// The three named flow datasets of the evaluation.
pub fn flow_suite() -> Vec<(&'static str, FlowDataset)> {
    vec![
        ("Venus", scenes::flow_venus_like(2001)),
        ("RubberWhale", scenes::flow_rubberwhale_like(2002)),
        ("Dimetrodon", scenes::flow_dimetrodon_like(2003)),
    ]
}

/// Directory for experiment artifacts (`artifacts/` at the workspace
/// root), created on first use.
pub fn artifacts_dir() -> PathBuf {
    let dir = workspace_root().join("artifacts");
    std::fs::create_dir_all(&dir).expect("can create artifacts directory");
    dir
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/bench.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf()
}

/// The `rustc --version` line of the toolchain this process was built
/// by (strictly: the one on `PATH` at run time, which under `cargo
/// bench` is the same), or `"unknown"` when rustc cannot be queried.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler flags in effect for this process: `RUSTFLAGS` when set
/// (the knob that carries `-C target-cpu=...`), else cargo's encoded
/// form `CARGO_ENCODED_RUSTFLAGS` (0x1f-separated) joined with spaces,
/// else empty — meaning the default codegen options.
pub fn rustflags() -> String {
    if let Ok(flags) = std::env::var("RUSTFLAGS") {
        return flags.trim().to_string();
    }
    std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .map(|flags| flags.split('\u{1f}').collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

/// Host/toolchain provenance for the `BENCH_*.json` exports, as a
/// ready-to-embed JSON object fragment:
/// `"host_cores": N, "rustc": "...", "rustflags": "..."`. Throughput
/// numbers are only comparable across runs with matching provenance, so
/// the benches record it next to their results; `bench_compare` ignores
/// these fields (it only reads `ns_per*` metrics).
pub fn provenance_json_fields() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "\"host_cores\": {cores}, \"rustc\": {}, \"rustflags\": {}",
        minijson::Value::String(rustc_version()),
        minijson::Value::String(rustflags()),
    )
}

/// Writes rows of comma-separated values (header first) under
/// `artifacts/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = artifacts_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("can create csv");
    writeln!(f, "{header}").expect("csv write");
    for row in rows {
        writeln!(f, "{row}").expect("csv write");
    }
    println!("wrote {}", path.display());
}

pub mod minijson;
pub mod plan;
pub mod trace_jsonl;

pub use plan::{exit_usage, Args, RunPlan};

/// Plain-text table formatting helpers.
pub mod table {
    /// Renders an aligned table: `header` then `rows`, each a vector of
    /// cells; the first column is left-aligned, the rest right-aligned.
    pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("  {:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        out.push_str(&fmt_row(&header_cells, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrf::SweepSolver;
    use rand::SeedableRng;
    use sampling::Xoshiro256pp;

    #[test]
    fn table_render_aligns_columns() {
        let s = table::render(
            &["name", "bp"],
            &[
                vec!["teddy".into(), "27.0".into()],
                vec!["a".into(), "113.25".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("27.0"));
    }

    #[test]
    fn stereo_suite_is_deterministic() {
        let a = stereo_suite();
        let b = stereo_suite();
        assert_eq!(a[0].1.left, b[0].1.left);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn small_software_stereo_run_produces_sane_bp() {
        // A miniature stereo problem: software Gibbs should beat chance
        // comfortably even with a tiny budget.
        let ds = scenes::StereoSpec {
            width: 40,
            height: 30,
            num_disparities: 8,
            num_layers: 2,
            noise_sigma: 1.0,
        }
        .generate(5);
        let out = run_stereo(&ds, &SamplerKind::Software, 60, 1, 1);
        assert!(out.bp < 60.0, "bp {}", out.bp);
        assert!(out.rms.is_finite());
    }

    #[test]
    fn provenance_fields_embed_as_valid_json() {
        let doc = format!("{{{}}}", provenance_json_fields());
        let parsed = minijson::parse(&doc).expect("provenance fragment must be valid JSON");
        assert!(parsed.get("host_cores").and_then(|v| v.as_f64()).unwrap() >= 1.0);
        let rustc = parsed.get("rustc").and_then(|v| v.as_str()).unwrap();
        assert!(!rustc.is_empty());
        assert!(parsed.get("rustflags").and_then(|v| v.as_str()).is_some());
    }

    #[test]
    fn observed_chain_matches_the_plain_chain() {
        let model = mrf::TabularMrf::checkerboard(6, 6, 3, 4.0, mrf::DistanceFn::Binary, 0.3);
        let schedule = Schedule::geometric(3.0, 0.9, 0.1);
        let plain = SamplerKind::Software.run(&model, schedule, 20, 7);
        let mut trace = mrf::EnergyTrace::new();
        let observed = RunPlan::default()
            .run(
                &model,
                &SamplerKind::Software,
                schedule,
                20,
                7,
                "",
                &mut trace,
            )
            .unwrap();
        assert_eq!(plain, observed);
        assert_eq!(trace.len(), 20);
        let last = trace.records().last().unwrap();
        assert!(
            (last.energy - mrf::total_energy(&model, &observed)).abs() < 1e-6,
            "incremental energy must track the true total"
        );
    }

    /// An RNG whose every draw is the same 64-bit word.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0);
        }
        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
            dest.fill(0);
            Ok(())
        }
    }

    #[test]
    fn sampler_forwards_the_f32_draw() {
        // Two equal energies and a uniform just below 1/2: the f64 draw
        // picks label 0, the f32 draw rounds the scaled uniform up to the
        // first cumulative weight and picks label 1. A `Sampler` falling
        // back to the trait's widening default would return 0.
        let word = ((1u64 << 52) - (1 << 26)) << 11;
        let row = [0.0f32, 0.0];
        let direct = SoftwareGibbs::new().sample_label_f32(&row, 0.0, 1.0, 0, &mut Fixed(word));
        let widened = SoftwareGibbs::new().sample_label(&[0.0, 0.0], 1.0, 0, &mut Fixed(word));
        assert_ne!(direct, widened, "the f32 and f64 draws must disagree here");
        let forwarded =
            SamplerKind::Software
                .sampler()
                .sample_label_f32(&row, 0.0, 1.0, 0, &mut Fixed(word));
        assert_eq!(forwarded, direct);
    }

    #[test]
    fn sampler_kind_run_is_the_raster_sweep_solver_chain() {
        // Identical seeds → identical fields: the harness draws the
        // initial field from the chain seed and keeps drawing from that
        // stream in raster order.
        let model = mrf::TabularMrf::checkerboard(6, 6, 2, 4.0, mrf::DistanceFn::Binary, 0.3);
        let schedule = Schedule::geometric(3.0, 0.9, 0.1);
        let via_kind = SamplerKind::Software.run(&model, schedule, 30, 9);
        let via_solver = {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            let mut field = LabelField::random(model.grid(), 2, &mut rng);
            SweepSolver::new(&model)
                .schedule(schedule)
                .iterations(30)
                .run(&mut field, &mut SoftwareGibbs::new(), &mut rng);
            field
        };
        assert_eq!(via_kind, via_solver);
    }
}
