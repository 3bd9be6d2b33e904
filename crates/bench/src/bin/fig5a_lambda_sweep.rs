//! Figure 5a: average stereo BP vs `Lambda_bits` (3–7) for the four
//! λ-conversion variants:
//!
//! * `prev` — λ0 floor, no scaling (the previous RSU-G line);
//! * `scaled` — decay-rate scaling, λ0 floor;
//! * `scaled+cutoff` — scaling + probability cut-off;
//! * `scaled+cutoff+2^n` — the full new-design treatment.
//!
//! Per the paper's staged methodology, energy stays at 8 bits and time
//! precision is effectively unconstrained (12 bits, truncation 0.02).

use bench::{exit_usage, stereo_suite, table, write_csv, RunPlan, SamplerKind, STEREO_ITERATIONS};
use rsu::{Conversion, RsuConfig};

fn variant(lambda_bits: u32, scaling: bool, cutoff: bool, pow2: bool) -> SamplerKind {
    SamplerKind::Custom(
        RsuConfig::builder()
            .lambda_bits(lambda_bits)
            .decay_rate_scaling(scaling)
            .probability_cutoff(cutoff)
            .pow2_lambda(pow2)
            .conversion(Conversion::Lut)
            .time_bits(12)
            .truncation(0.02)
            .build()
            .expect("valid sweep point"),
    )
}

type Variant = (&'static str, fn(u32) -> SamplerKind);

fn main() {
    let mut plan = RunPlan::from_args("fig5a_lambda_sweep");
    plan.reject("fig5a_lambda_sweep", &["--trace"]);
    println!("Fig. 5a — average stereo BP vs Lambda_bits for the conversion variants\n");
    let suite = stereo_suite();
    let variants: [Variant; 4] = [
        ("prev (floor, no scaling)", |l| {
            variant(l, false, false, false)
        }),
        ("scaled", |l| variant(l, true, false, false)),
        ("scaled+cutoff", |l| variant(l, true, true, false)),
        ("scaled+cutoff+2^n", |l| variant(l, true, true, true)),
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for lambda_bits in 3..=7u32 {
        let mut cells = vec![format!("{lambda_bits}")];
        let mut csv_cells = vec![format!("{lambda_bits}")];
        for (variant, make) in &variants {
            let kind = make(lambda_bits);
            let mut total = 0.0;
            for (name, ds) in &suite {
                let label = format!("fig5a/lb{lambda_bits}/{variant}/{name}");
                total += plan
                    .stereo(ds, &kind, STEREO_ITERATIONS, 11, &label)
                    .unwrap_or_else(exit_usage)
                    .bp;
            }
            let avg = total / suite.len() as f64;
            cells.push(format!("{avg:.1}"));
            csv_cells.push(format!("{avg:.3}"));
        }
        rows.push(cells);
        csv.push(csv_cells.join(","));
    }
    let header: Vec<&str> = std::iter::once("Lambda_bits")
        .chain(variants.iter().map(|(n, _)| *n))
        .collect();
    println!("{}", table::render(&header, &rows));
    println!(
        "paper shape: prev stays > 90 %; scaled improves but remains high;\n\
         scaled+cutoff reaches software-level BP from ~3–4 bits; 2^n matches non-2^n"
    );
    write_csv(
        "fig5a_lambda_sweep",
        "lambda_bits,prev,scaled,scaled_cutoff,scaled_cutoff_pow2",
        &csv,
    );
    plan.finish().unwrap_or_else(exit_usage);
}
