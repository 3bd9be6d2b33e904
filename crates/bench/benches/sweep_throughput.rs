//! Sweep-engine throughput: sites/second on a 256×256, 16-label Potts
//! model for the sequential raster [`SweepSolver`] baseline, its f32
//! fast path (`NumericPolicy::Fast`), the parallel checkerboard
//! [`ParallelSweepSolver`] at 1/2/4/8 worker threads, and the
//! optimization-mode configurations on a pre-annealed field at the
//! schedule floor: full exact sweeps versus f32 + active-site
//! scheduling (the late-annealing scenario the worklist exists for —
//! the first sweep visits everything, the rest only flipped-or-
//! neighboured sites).
//!
//! Annealed rows time a block of [`ANNEALED_SWEEPS`] sweeps per
//! solver call and report per-sweep numbers; `sites_per_sec` counts
//! *logical* site visits (sweeps × grid size), so an active sweep that
//! skips converged sites is credited for covering them — that is the
//! end-to-end throughput claim the worklist makes.
//!
//! Besides the usual printed report, the measurements are exported to
//! `BENCH_sweep.json` at the workspace root (machine-readable, with
//! host/toolchain provenance — speedups are only meaningful relative to
//! it).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mrf::{
    DistanceFn, LabelField, MrfModel, NumericPolicy, ParallelSweepSolver, Schedule, SoftwareGibbs,
    SweepSolver, TabularMrf,
};
use rand::SeedableRng;
use sampling::Xoshiro256pp;
use std::io::Write as _;
use std::path::Path;

const WIDTH: usize = 256;
const HEIGHT: usize = 256;
const LABELS: usize = 16;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Sweeps timed per solver call in the annealed-regime rows (sweep 1
/// rebuilds the worklist from a full pass; the remaining 7 are sparse).
const ANNEALED_SWEEPS: usize = 8;
/// The schedule floor the annealed rows run at.
const COLD_TEMPERATURE: f64 = 0.3;

fn potts_model() -> TabularMrf {
    // Binary distance is the Potts prior: 0 for equal labels, 1 otherwise.
    TabularMrf::checkerboard(WIDTH, HEIGHT, LABELS, 4.0, DistanceFn::Binary, 0.3)
}

/// A field annealed to the schedule floor: the workload late sweeps
/// actually see (mostly frozen, sparse flip activity).
fn annealed_field(model: &TabularMrf, rng: &mut Xoshiro256pp) -> LabelField {
    let mut field = LabelField::random(model.grid(), LABELS, rng);
    SweepSolver::new(model)
        .schedule(Schedule::geometric(4.0, 0.9, COLD_TEMPERATURE))
        .iterations(40)
        .run(&mut field, &mut SoftwareGibbs::new(), rng);
    field
}

fn bench_sweep_throughput(c: &mut Criterion) {
    let model = potts_model();
    let sites = (WIDTH * HEIGHT) as u64;
    let mut group = c.benchmark_group("sweep_throughput");
    group.throughput(Throughput::Elements(sites));
    group.sample_size(10);

    // Sequential raster-scan baseline: one shared random stream.
    group.bench_function("sequential", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut field = LabelField::random(model.grid(), LABELS, &mut rng);
        let mut gibbs = SoftwareGibbs::new();
        let mut solver = SweepSolver::new(&model)
            .schedule(Schedule::constant(1.5))
            .iterations(1);
        b.iter(|| solver.run(&mut field, &mut gibbs, &mut rng));
    });

    // The same hot full sweep under the f32 fast path.
    group.bench_function("sequential/fast", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut field = LabelField::random(model.grid(), LABELS, &mut rng);
        let mut gibbs = SoftwareGibbs::new();
        let mut solver = SweepSolver::new(&model)
            .schedule(Schedule::constant(1.5))
            .iterations(1)
            .numeric(NumericPolicy::Fast);
        b.iter(|| solver.run(&mut field, &mut gibbs, &mut rng));
    });

    // Parallel checkerboard engine at each thread count. Same model,
    // same per-site deterministic randomness — only the worker count
    // (and therefore wall-clock) varies.
    for threads in THREAD_COUNTS {
        group.bench_function(format!("parallel/{threads}-threads"), |b| {
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            let mut field = LabelField::random(model.grid(), LABELS, &mut rng);
            let mut solver = ParallelSweepSolver::new(&model)
                .schedule(Schedule::constant(1.5))
                .iterations(1)
                .threads(threads)
                .seed(7);
            let gibbs = SoftwareGibbs::new();
            b.iter(|| solver.run(&mut field, &gibbs));
        });
    }

    // Annealed regime: a converged field held at the schedule floor.
    // Each timed call runs ANNEALED_SWEEPS sweeps, so per-sweep numbers
    // amortize the one full worklist-rebuilding pass over the block.
    group.throughput(Throughput::Elements(sites * ANNEALED_SWEEPS as u64));
    group.bench_function("annealed/exact", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut field = annealed_field(&model, &mut rng);
        let mut gibbs = SoftwareGibbs::new();
        let mut solver = SweepSolver::new(&model)
            .schedule(Schedule::constant(COLD_TEMPERATURE))
            .iterations(ANNEALED_SWEEPS);
        b.iter(|| solver.run(&mut field, &mut gibbs, &mut rng));
    });
    group.bench_function("annealed/fast-active", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut field = annealed_field(&model, &mut rng);
        let mut gibbs = SoftwareGibbs::new();
        let mut solver = SweepSolver::new(&model)
            .schedule(Schedule::constant(COLD_TEMPERATURE))
            .iterations(ANNEALED_SWEEPS)
            .numeric(NumericPolicy::Fast)
            .active_sites(true);
        b.iter(|| solver.run(&mut field, &mut gibbs, &mut rng));
    });
    group.finish();

    export_json(c, sites);
}

/// Writes `BENCH_sweep.json` at the workspace root from the harness's
/// recorded medians.
fn export_json(c: &Criterion, sites: u64) {
    let sequential_ns = c
        .results
        .iter()
        .find(|(id, _)| id.ends_with("/sequential"))
        .map(|&(_, ns)| ns)
        .unwrap_or(f64::NAN);
    let mut entries = Vec::new();
    for (id, total_ns) in &c.results {
        let config = id
            .rsplit_once("sweep_throughput/")
            .map(|(_, s)| s)
            .unwrap_or(id);
        let sweeps = if config.starts_with("annealed/") {
            ANNEALED_SWEEPS as f64
        } else {
            1.0
        };
        let ns = total_ns / sweeps;
        let sites_per_sec = sites as f64 / (ns * 1e-9);
        let speedup = sequential_ns / ns;
        entries.push(format!(
            "    {{\"config\": \"{config}\", \"ns_per_sweep\": {ns:.0}, \
             \"sites_per_sec\": {sites_per_sec:.0}, \"speedup_vs_sequential\": {speedup:.3}}}"
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"sweep_throughput\",\n  \"grid\": [{WIDTH}, {HEIGHT}],\n  \
         \"labels\": {LABELS},\n  \"distance\": \"potts\",\n  \
         \"annealed_sweeps_per_call\": {ANNEALED_SWEEPS},\n  \
         \"annealed_temperature\": {COLD_TEMPERATURE},\n  {},\n  \
         \"note\": \"parallel results are bit-identical across thread counts; speedup beyond \
         1x requires host_cores > 1; annealed/* rows run a pre-annealed field at the schedule \
         floor and report per-sweep numbers over {ANNEALED_SWEEPS}-sweep blocks (sites_per_sec \
         counts logical visits, so active sweeps are credited for skipped converged \
         sites)\",\n  \"results\": [\n{}\n  ]\n}}\n",
        bench::provenance_json_fields(),
        entries.join(",\n")
    );
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/bench.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root");
    let path = root.join("BENCH_sweep.json");
    let mut f = std::fs::File::create(&path).expect("can create BENCH_sweep.json");
    f.write_all(json.as_bytes())
        .expect("can write BENCH_sweep.json");
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_sweep_throughput);
criterion_main!(benches);
