//! Degraded-array design-space study: fig9d-style segmentation run on
//! an [`RsuArray`] under seed-reproducible [`FaultPlan::random`] grids
//! (unit count × fault density × degradation policy).
//!
//! Each grid point actually *runs* the degraded chain — faults retire
//! units mid-anneal and the array remaps or falls back per policy — and
//! is then priced with [`uarch::degrade::DegradeModel`], giving the
//! degradation curves the paper's §IV-D reliability discussion asks
//! for: segmentation quality (VoI, final MRF energy) and modelled
//! runtime/energy versus fault density, for both [`DegradePolicy`]
//! variants.
//!
//! Flags: the shared chain-driver flags (`bench::plan`; `--numeric fast`
//! and `--active` are refused: the array has neither path), with
//! `--trace <path>` writing JSONL `design_point` records re-parsed by the
//! driver itself as a self-check, plus `--smoke` (tiny grid for CI).
//!
//! The array's measured load accounting is cross-checked against
//! [`FaultPlan::predicted_degradation`] whenever the whole chain ran in
//! this process; a resumed run only measures the tail, so the artifact
//! always uses the analytic (full-run) report — bit-identical by the
//! measured-equals-predicted contract pinned in `rsu`'s tests.

use bench::minijson::Value;
use bench::trace_jsonl::{parse_jsonl, JsonlTraceWriter};
use bench::{
    exit_usage, segment_model, segmentation_schedule, table, write_csv, Args, RunPlan,
    SEGMENT_ITERATIONS,
};
use mrf::{total_energy, MrfModel};
use rsu::{DegradePolicy, FaultPlan, RsuArray, RsuConfig};
use uarch::degrade::DegradeModel;
use vision::metrics::variation_of_information;
use vision::SegmentModel;

/// Segmentation label count of the study (the fig9d trace setting).
const LABELS: usize = 4;
/// Chain seed: one chain per grid point, differing only in the plan.
const CHAIN_SEED: u64 = 41;
/// Base of the per-grid-point fault-plan seeds (`base + index`).
const FAULT_SEED_BASE: u64 = 7000;

const FULL_UNIT_COUNTS: &[u32] = &[8, 12];
const FULL_FAULT_COUNTS: &[usize] = &[0, 1, 2, 4, 6];
const SMOKE_UNIT_COUNTS: &[u32] = &[4];
const SMOKE_FAULT_COUNTS: &[usize] = &[0, 2];
const SMOKE_ITERATIONS: usize = 8;

/// One evaluated grid point.
struct GridRow {
    units: u32,
    faults: usize,
    /// `None` marks the healthy baseline row of a unit count.
    policy: Option<DegradePolicy>,
    fault_seed: Option<u64>,
    voi: f64,
    final_energy: f64,
    slowdown: f64,
    energy_ratio: f64,
    software_fraction: f64,
}

fn policy_name(policy: Option<DegradePolicy>) -> &'static str {
    match policy {
        None => "healthy",
        Some(DegradePolicy::RemapToHealthy) => "remap",
        Some(DegradePolicy::SoftwareFallback) => "software",
    }
}

fn main() {
    let args = Args::from_env("fig_fault_sweep", &["--smoke"]);
    let smoke = args.switch("--smoke");
    let mut plan = args.into_plan("fig_fault_sweep");
    plan.reject("fig_fault_sweep", &["--numeric", "--active"]);
    let threads = plan.threads;
    let (unit_counts, fault_counts, iterations) = if smoke {
        (SMOKE_UNIT_COUNTS, SMOKE_FAULT_COUNTS, SMOKE_ITERATIONS)
    } else {
        (FULL_UNIT_COUNTS, FULL_FAULT_COUNTS, SEGMENT_ITERATIONS)
    };
    println!(
        "Fault sweep — degraded-array segmentation, {} iterations{}\n",
        iterations,
        if smoke { " (smoke grid)" } else { "" }
    );
    if threads > 1 {
        println!("running the parallel array engine on {threads} host threads\n");
    }
    if let Some(label) = plan.pending_resume() {
        println!("resuming interrupted run {label} (earlier runs are recomputed)\n");
    }
    let ds = &scenes::segmentation_suite(3001, 1)[0];
    let model = segment_model(ds, LABELS);
    let (width, height) = (model.grid().width(), model.grid().height());

    let mut rows: Vec<GridRow> = Vec::new();
    let mut seed_index = 0u64;
    for &units in unit_counts {
        let degrade = DegradeModel::paper(units as usize, width, height, LABELS as u32);
        let healthy_cost = degrade.healthy_run_cost(iterations as u64);
        for &count in fault_counts {
            if count == 0 {
                // Healthy baseline: one row per unit count, ratios 1.
                let (voi, final_energy) = run_point(ds, &model, units, None, iterations, &mut plan);
                rows.push(GridRow {
                    units,
                    faults: 0,
                    policy: None,
                    fault_seed: None,
                    voi,
                    final_energy,
                    slowdown: 1.0,
                    energy_ratio: 1.0,
                    software_fraction: 0.0,
                });
                continue;
            }
            for policy in [
                DegradePolicy::RemapToHealthy,
                DegradePolicy::SoftwareFallback,
            ] {
                let fault_seed = FAULT_SEED_BASE + seed_index;
                seed_index += 1;
                let faults =
                    FaultPlan::random(fault_seed, units as usize, iterations as u64, count, policy);
                let (voi, final_energy) =
                    run_point(ds, &model, units, Some(&faults), iterations, &mut plan);
                let cost = degrade.run_cost(&faults, iterations as u64);
                rows.push(GridRow {
                    units,
                    faults: count,
                    policy: Some(policy),
                    fault_seed: Some(fault_seed),
                    voi,
                    final_energy,
                    slowdown: cost.time_s / healthy_cost.time_s,
                    energy_ratio: cost.energy_mj / healthy_cost.energy_mj,
                    software_fraction: cost.software_fraction(),
                });
            }
        }
    }

    print_table(&rows);
    println!(
        "expected shape: remap stretches runtime (energy flat); software fallback\n\
         hides latency behind the array until the host paces the sweep, but every\n\
         host-served site costs orders of magnitude more energy; VoI stays near the\n\
         healthy baseline under both policies (graceful degradation)"
    );
    let csv_name = if smoke {
        "fig_fault_sweep_smoke"
    } else {
        "fig_fault_sweep"
    };
    write_csv(
        csv_name,
        "units,faults,policy,fault_seed,voi,final_energy,slowdown,energy_ratio,software_fraction",
        &rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{:.5},{:.3},{:.4},{:.4},{:.5}",
                    r.units,
                    r.faults,
                    policy_name(r.policy),
                    r.fault_seed.map_or(String::new(), |s| s.to_string()),
                    r.voi,
                    r.final_energy,
                    r.slowdown,
                    r.energy_ratio,
                    r.software_fraction
                )
            })
            .collect::<Vec<_>>(),
    );
    if let Some(path) = &plan.trace {
        write_and_reparse_trace(path, &rows, iterations, threads);
    }
    plan.finish().unwrap_or_else(exit_usage);
}

/// Runs one grid point's chain on a fresh array (with `faults`
/// installed when given) and cross-checks the measured load accounting
/// against the analytic replay when the whole chain ran here.
fn run_point(
    ds: &scenes::SegmentationDataset,
    model: &SegmentModel,
    units: u32,
    faults: Option<&FaultPlan>,
    iterations: usize,
    plan: &mut RunPlan,
) -> (f64, f64) {
    let label = format!(
        "fig_fault_sweep/u{units}/f{}/{}",
        faults.map_or(0, |p| p.faults().len()),
        policy_name(faults.map(|p| p.policy()))
    );
    let mut array = RsuArray::new(RsuConfig::new_design(), units);
    if let Some(faults) = faults {
        array.install_faults(faults.clone());
    }
    let field = plan
        .run_array(
            model,
            &mut array,
            segmentation_schedule(),
            iterations,
            CHAIN_SEED,
            &label,
        )
        .unwrap_or_else(exit_usage);
    if let (Some(faults), Some(measured)) = (faults, array.degradation_report()) {
        // A resumed run only measured the tail; the uninterrupted case
        // must match the analytic replay exactly.
        if measured.sweeps == iterations as u64 {
            let predicted = faults.predicted_degradation(
                units as usize,
                model.grid().width(),
                model.grid().height(),
                iterations as u64,
            );
            if *measured != predicted {
                eprintln!("error: {label}: measured degradation diverges from the analytic replay");
                std::process::exit(1);
            }
        }
    }
    let energy = total_energy(model, &field);
    (variation_of_information(&field, &ds.ground_truth), energy)
}

fn print_table(rows: &[GridRow]) {
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}u/{}f", r.units, r.faults),
                policy_name(r.policy).to_string(),
                format!("{:.3}", r.voi),
                format!("{:.1}", r.final_energy),
                format!("{:.2}", r.slowdown),
                format!("{:.1}", r.energy_ratio),
                format!("{:.3}", r.software_fraction),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "grid point",
                "policy",
                "VoI",
                "final energy",
                "slowdown",
                "energy ratio",
                "sw fraction"
            ],
            &rendered
        )
    );
}

/// Writes one `design_point` JSONL record per grid row, then re-parses
/// the freshly written file with the same parser `bench_compare` uses —
/// a malformed trace fails the run, not a later consumer.
fn write_and_reparse_trace(
    path: &std::path::Path,
    rows: &[GridRow],
    iterations: usize,
    threads: usize,
) {
    {
        let file = std::fs::File::create(path).expect("can create trace file");
        let mut writer = JsonlTraceWriter::new(std::io::BufWriter::new(file));
        for r in rows {
            writer.write_design_point(vec![
                ("study", Value::String("fig_fault_sweep".to_string())),
                ("units", Value::Number(r.units as f64)),
                ("faults", Value::Number(r.faults as f64)),
                ("policy", Value::String(policy_name(r.policy).to_string())),
                (
                    "fault_seed",
                    r.fault_seed
                        .map(|s| Value::Number(s as f64))
                        .unwrap_or(Value::Null),
                ),
                ("iterations", Value::Number(iterations as f64)),
                ("threads", Value::Number(threads as f64)),
                ("voi", Value::Number(r.voi)),
                ("final_energy", Value::Number(r.final_energy)),
                ("slowdown", Value::Number(r.slowdown)),
                ("energy_ratio", Value::Number(r.energy_ratio)),
                ("software_fraction", Value::Number(r.software_fraction)),
            ]);
        }
        writer.flush();
        if let Some(e) = writer.take_error() {
            eprintln!("error: failed writing trace to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let text = std::fs::read_to_string(path).expect("trace file just written");
    let records = match parse_jsonl(&text) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("error: trace re-parse failed: {e}");
            std::process::exit(1);
        }
    };
    let design_points = records
        .iter()
        .filter(|r| r.get("kind").and_then(Value::as_str) == Some("design_point"))
        .count();
    if design_points != rows.len() {
        eprintln!(
            "error: trace re-parse found {design_points} design points, expected {}",
            rows.len()
        );
        std::process::exit(1);
    }
    println!(
        "wrote trace {} ({design_points} design points, re-parse OK)",
        path.display()
    );
}
