//! Site-update kernel microbench: ns per single-site Gibbs update for
//! the naive path (per-pair `DistanceFn` dispatch + per-site heap
//! allocations, the pre-fusion implementation), the fused f64 path
//! (precomputed pairwise table rows + scratch-reusing sampler), and the
//! f32 fast path (`NumericPolicy::Fast`: f32 table rows, fused row-add
//! and min tracking, polynomial `fast_exp_f32` weights), per distance
//! function and label count `M ∈ {2, 8, 16, 64}`.
//!
//! Every variant performs one full checkerboard-free raster pass over a
//! 64×64 field (4096 site updates per iteration) at constant
//! temperature; the field is re-seeded identically per variant so all
//! measure the same label trajectory (naive and fused are bit-identical
//! by construction — see `tests/fused_kernel.rs`; the f32 path is
//! statistically equivalent — see `mrf/tests/numeric_equivalence.rs`).
//!
//! The RSU-G rows time `RsuG::sample_label` alone on the 56-label
//! local energies of the teddy-like pair (seed 1001) under its
//! ground-truth field, for both paper designs, at the annealing
//! schedule's start (T = 40) and floor (T = 0.4). Each row sets the
//! integer kernel beside the float pipeline it replaced (`f64::round`
//! quantisation, batch scaling, a converter dispatch per label and an
//! `ln` per active label), reproduced below from the reference
//! functions; the bench first checks that both draw the same labels.
//! `unit_build_us` is the cost of a fresh unit at its first temperature,
//! race and multiplier tables included.
//!
//! Results are exported to `BENCH_kernel.json` at the workspace root
//! (single-core numbers; host/toolchain provenance recorded so runs are
//! only compared like-for-like).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mrf::{DistanceFn, Label, LabelField, MrfModel, SiteSampler, SoftwareGibbs, TabularMrf};
use rand::{Rng, SeedableRng};
use ret_device::sample_binned_ttf;
use rsu::{
    CensoredPolicy, ComparisonConverter, Conversion, EnergyFifo, EnergyToLambda, LambdaConverter,
    LutConverter, RsuConfig, RsuG, TieBreak,
};
use sampling::{Categorical, Xoshiro256pp};
use std::io::Write as _;
use std::path::Path;

const WIDTH: usize = 64;
const HEIGHT: usize = 64;
const LABEL_COUNTS: [usize; 4] = [2, 8, 16, 64];
const TEMPERATURE: f64 = 1.5;
const RSU_TEMPERATURES: [f64; 2] = [40.0, 0.4];

fn rsu_designs() -> [(&'static str, RsuConfig); 2] {
    [
        ("new", RsuConfig::new_design()),
        ("previous", RsuConfig::previous_design()),
    ]
}

/// The pre-fusion site update, reproduced verbatim: direct per-pair
/// local energies into a freshly allocated buffer, Boltzmann weights in
/// a second fresh buffer, and a heap-allocating `Categorical` per draw.
fn naive_site_update<M: MrfModel, R: Rng + ?Sized>(
    model: &M,
    field: &LabelField,
    site: usize,
    rng: &mut R,
) -> Label {
    let mut energies = Vec::new();
    model.local_energies_direct(site, field, &mut energies);
    let e_min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
    let weights: Vec<f64> = energies
        .iter()
        .map(|&e| (-(e - e_min) / TEMPERATURE).exp())
        .collect();
    match Categorical::new(&weights) {
        Ok(dist) => dist.sample(rng) as Label,
        Err(_) => field.get(site),
    }
}

fn bench_site_kernel(c: &mut Criterion) {
    let sites = (WIDTH * HEIGHT) as u64;
    for dist in DistanceFn::ALL {
        for labels in LABEL_COUNTS {
            let model = TabularMrf::checkerboard(WIDTH, HEIGHT, labels, 4.0, dist, 0.3);
            let mut group = c.benchmark_group(format!("site_kernel/{dist}/M{labels}"));
            group.throughput(Throughput::Elements(sites));
            group.sample_size(10);

            group.bench_function("naive", |b| {
                let mut rng = Xoshiro256pp::seed_from_u64(11);
                let mut field = LabelField::random(model.grid(), labels, &mut rng);
                b.iter(|| {
                    for site in model.grid().sites() {
                        let new = naive_site_update(&model, &field, site, &mut rng);
                        field.set(site, new);
                    }
                });
            });

            group.bench_function("fused", |b| {
                let mut rng = Xoshiro256pp::seed_from_u64(11);
                let mut field = LabelField::random(model.grid(), labels, &mut rng);
                let mut gibbs = SoftwareGibbs::new();
                let mut energies = Vec::with_capacity(labels);
                b.iter(|| {
                    for site in model.grid().sites() {
                        model.local_energies(site, &field, &mut energies);
                        let new =
                            gibbs.sample_label(&energies, TEMPERATURE, field.get(site), &mut rng);
                        field.set(site, new);
                    }
                });
            });

            group.bench_function("fast", |b| {
                let mut rng = Xoshiro256pp::seed_from_u64(11);
                let mut field = LabelField::random(model.grid(), labels, &mut rng);
                let mut gibbs = SoftwareGibbs::new();
                let mut energies: Vec<f32> = Vec::with_capacity(labels);
                b.iter(|| {
                    for site in model.grid().sites() {
                        let e_min = model.local_energies_f32(site, &field, &mut energies);
                        let new = gibbs.sample_label_f32(
                            &energies,
                            e_min,
                            TEMPERATURE,
                            field.get(site),
                            &mut rng,
                        );
                        field.set(site, new);
                    }
                });
            });
            group.finish();
        }
    }
    let rsu_sites = bench_rsu_kernel(c);
    export_json(c, sites, rsu_sites);
}

/// Writes `BENCH_kernel.json` at the workspace root: one entry per
/// `(distance, M)` pairing the naive and fused ns/site and the speedup,
/// then the RSU-G rows.
fn export_json(c: &Criterion, sites: u64, rsu_sites: usize) {
    let mut entries = Vec::new();
    for dist in DistanceFn::ALL {
        for labels in LABEL_COUNTS {
            let lookup = |variant: &str| {
                let id = format!("site_kernel/{dist}/M{labels}/{variant}");
                c.results
                    .iter()
                    .find(|(rid, _)| *rid == id)
                    .map(|&(_, ns)| ns / sites as f64)
                    .unwrap_or(f64::NAN)
            };
            let naive = lookup("naive");
            let fused = lookup("fused");
            let fast = lookup("fast");
            entries.push(format!(
                "    {{\"config\": \"{dist}/M{labels}\", \"naive_ns_per_site\": {naive:.2}, \
                 \"fused_ns_per_site\": {fused:.2}, \"fast_ns_per_site\": {fast:.2}, \
                 \"speedup\": {:.3}, \"fast_speedup_vs_fused\": {:.3}}}",
                naive / fused,
                fused / fast
            ));
        }
    }
    entries.extend(rsu_entries(c, rsu_sites));
    let json = format!(
        "{{\n  \"benchmark\": \"site_kernel\",\n  \"grid\": [{WIDTH}, {HEIGHT}],\n  \
         \"temperature\": {TEMPERATURE},\n  {},\n  \
         \"note\": \"single-core ns per site update; naive = per-pair distance dispatch + \
         allocating sampler, fused = pairwise-table rows + scratch sampler (bit-identical \
         outputs), fast = f32 rows + fused row-add/prefix-sum + polynomial exp \
         (statistically equivalent, gated by mrf/tests/numeric_equivalence.rs); rsu-* rows: \
         RsuG::sample_label alone on the 56-label teddy-like pair (seed 1001, 160x72) under \
         its ground-truth field, reference = the float pipeline the integer kernel replaced \
         (same labels from the same RNG words, checked before timing), unit_build_us = a \
         fresh unit at its first temperature, tables included\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        bench::provenance_json_fields(),
        entries.join(",\n")
    );
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/bench.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root");
    let path = root.join("BENCH_kernel.json");
    let mut f = std::fs::File::create(&path).expect("can create BENCH_kernel.json");
    f.write_all(json.as_bytes())
        .expect("can write BENCH_kernel.json");
    println!("wrote {}", path.display());
}

/// `RsuG::sample_label` on the ideal photon path as a step-by-step
/// float pipeline: the kernel rows' baseline.
struct FloatPipeline {
    config: RsuConfig,
    converter: LambdaConverter,
    codes: Vec<u16>,
    scaled: Vec<u16>,
    multipliers: Vec<u16>,
    tied: Vec<usize>,
}

impl FloatPipeline {
    fn new(config: RsuConfig, temperature: f64) -> Self {
        let t_code = temperature / config.energy_lsb();
        let (bits, scale, cutoff) = (
            config.energy_bits(),
            config.lambda_scale(),
            config.probability_cutoff(),
        );
        let converter = match config.conversion() {
            Conversion::Lut => LambdaConverter::Lut(LutConverter::new(
                bits,
                scale,
                config.pow2_lambda(),
                cutoff,
                t_code,
            )),
            Conversion::Comparison => {
                LambdaConverter::Comparison(ComparisonConverter::new(bits, scale, cutoff, t_code))
            }
        };
        FloatPipeline {
            config,
            converter,
            codes: Vec::new(),
            scaled: Vec::new(),
            multipliers: Vec::new(),
            tied: Vec::new(),
        }
    }

    fn sample_label<R: Rng>(&mut self, energies: &[f64], current: Label, rng: &mut R) -> Label {
        let cfg = self.config;
        let max_code = ((1u32 << cfg.energy_bits()) - 1) as f64;
        self.codes.clear();
        self.codes.extend(energies.iter().map(|&e| {
            if !e.is_finite() {
                return if e == f64::NEG_INFINITY {
                    0
                } else {
                    max_code as u16
                };
            }
            (e / cfg.energy_lsb()).round().clamp(0.0, max_code) as u16
        }));
        if cfg.decay_rate_scaling() {
            EnergyFifo::scale_batch(&self.codes, &mut self.scaled);
        } else {
            self.scaled.clone_from(&self.codes);
        }
        self.multipliers.clear();
        for &e in &self.scaled {
            self.multipliers.push(self.converter.multiplier_of(e));
        }
        let clamp = cfg.censored_policy() == CensoredPolicy::ClampToTMax;
        let (t_max, lambda0) = (cfg.t_max_bins(), cfg.lambda0_per_bin());
        let mut best_bin: Option<u32> = None;
        self.tied.clear();
        for (i, &m) in self.multipliers.iter().enumerate() {
            if m == 0 {
                continue;
            }
            let bin = match sample_binned_ttf(m as f64 * lambda0, t_max, rng) {
                Some(bin) => bin,
                None if clamp => t_max,
                None => continue,
            };
            match best_bin {
                Some(best) if bin > best => {}
                Some(best) if bin == best => self.tied.push(i),
                _ => {
                    best_bin = Some(bin);
                    self.tied.clear();
                    self.tied.push(i);
                }
            }
        }
        let winner = match self.tied.len() {
            0 => None,
            1 => Some(self.tied[0]),
            n => Some(match cfg.tie_break() {
                TieBreak::Random => self.tied[rng.gen_range(0..n)],
                TieBreak::LowestIndex => self.tied[0],
            }),
        };
        match (winner, cfg.censored_policy()) {
            (Some(w), _) => w as Label,
            (None, CensoredPolicy::FallbackMaxLambda) => {
                let max = *self.multipliers.iter().max().expect("non-empty");
                if max == 0 || self.multipliers.get(current as usize) == Some(&max) {
                    current
                } else {
                    self.multipliers
                        .iter()
                        .position(|&m| m == max)
                        .expect("max exists") as Label
                }
            }
            (None, _) => current,
        }
    }
}

/// Local energies of every site of the teddy-like pair under its
/// ground-truth field (56 per site, site-major), and that field.
fn teddy_energies() -> (Vec<f64>, Vec<Label>) {
    let ds = scenes::stereo_teddy_like(1001);
    let model = bench::stereo_model(&ds);
    let field = &ds.ground_truth;
    let mut energies = Vec::new();
    let mut row = Vec::new();
    for site in model.grid().sites() {
        model.local_energies(site, field, &mut row);
        energies.extend_from_slice(&row);
    }
    (energies, field.as_slice().to_vec())
}

/// Times the RSU-G rows; returns the sites per pass.
fn bench_rsu_kernel(c: &mut Criterion) -> usize {
    let (energies, current) = teddy_energies();
    let labels = energies.len() / current.len();
    for (design, config) in rsu_designs() {
        for temperature in RSU_TEMPERATURES {
            let mut reference = FloatPipeline::new(config, temperature);
            let mut unit = RsuG::with_config(config);
            let mut pass = |kernel: bool, rng: &mut Xoshiro256pp| -> Vec<Label> {
                let rows = energies.chunks_exact(labels).zip(&current);
                if kernel {
                    rows.map(|(row, &cur)| unit.sample_label(row, temperature, cur, rng))
                        .collect()
                } else {
                    rows.map(|(row, &cur)| reference.sample_label(row, cur, rng))
                        .collect()
                }
            };
            assert_eq!(
                pass(false, &mut Xoshiro256pp::seed_from_u64(5)),
                pass(true, &mut Xoshiro256pp::seed_from_u64(5)),
                "{design} design at T = {temperature}: kernel and float pipeline disagree"
            );
            let mut group = c.benchmark_group(format!("site_kernel/rsu-{design}/T{temperature}"));
            group.throughput(Throughput::Elements(current.len() as u64));
            group.sample_size(10);
            for (variant, kernel) in [("reference", false), ("kernel", true)] {
                group.bench_function(variant, |b| {
                    let mut rng = Xoshiro256pp::seed_from_u64(11);
                    b.iter(|| pass(kernel, &mut rng));
                });
            }
            group.finish();
        }
        let mut group = c.benchmark_group(format!("site_kernel/rsu-{design}"));
        group.bench_function("build", |b| {
            b.iter(|| {
                let mut unit = RsuG::with_config(config);
                unit.begin_iteration(RSU_TEMPERATURES[0]);
                black_box(unit)
            });
        });
        group.finish();
    }
    current.len()
}

/// The RSU-G rows of `BENCH_kernel.json`, keyed like the others on
/// `config` so `bench_compare` gates their `ns_per` fields.
fn rsu_entries(c: &Criterion, sites: usize) -> Vec<String> {
    let lookup = |id: String| {
        c.results
            .iter()
            .find(|(rid, _)| *rid == id)
            .map(|&(_, ns)| ns)
            .unwrap_or(f64::NAN)
    };
    let mut entries = Vec::new();
    for (design, _) in rsu_designs() {
        let build_us = lookup(format!("site_kernel/rsu-{design}/build")) / 1e3;
        for temperature in RSU_TEMPERATURES {
            let ns = |variant: &str| {
                lookup(format!("site_kernel/rsu-{design}/T{temperature}/{variant}")) / sites as f64
            };
            let (reference, kernel) = (ns("reference"), ns("kernel"));
            entries.push(format!(
                "    {{\"config\": \"rsu-{design}/T{temperature}\", \
                 \"reference_ns_per_site\": {reference:.2}, \"kernel_ns_per_site\": {kernel:.2}, \
                 \"speedup\": {:.3}, \"unit_build_us\": {build_us:.2}}}",
                reference / kernel
            ));
        }
    }
    entries
}

criterion_group!(benches, bench_site_kernel);
criterion_main!(benches);
