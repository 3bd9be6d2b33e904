//! CI gate: runs a tiny traced solve, writes the JSONL trace, then
//! re-parses every line with [`bench::minijson`] and validates the
//! record shapes — proving the emit side and the parse side agree on a
//! real trace, not just unit-test fixtures. Exits non-zero on any
//! mismatch.

use bench::minijson::Value;
use bench::trace_jsonl::{parse_jsonl, JsonlTraceWriter};
use mrf::{potential_scale_reduction, DistanceFn, EnergyTrace, FanOut, Schedule, TabularMrf};
use std::process::ExitCode;

const ITERATIONS: usize = 12;
const SEEDS: [u64; 2] = [1, 2];

fn main() -> ExitCode {
    let model = TabularMrf::checkerboard(12, 12, 3, 5.0, DistanceFn::Binary, 0.4);
    let schedule = Schedule::geometric(3.0, 0.9, 0.1);

    let mut buffer = Vec::new();
    let mut chains = Vec::new();
    {
        let mut writer = JsonlTraceWriter::new(&mut buffer);
        for &seed in &SEEDS {
            writer.set_chain(&format!("software/seed{seed}"));
            let mut energy = EnergyTrace::new();
            {
                let mut observers = FanOut::new();
                observers.push(&mut energy);
                observers.push(&mut writer);
                bench::RunPlan::default()
                    .run(
                        &model,
                        &bench::SamplerKind::Software,
                        schedule,
                        ITERATIONS,
                        seed,
                        "",
                        &mut observers,
                    )
                    .expect("no resume checkpoint");
            }
            chains.push(energy);
        }
        let ess: Vec<Option<f64>> = chains.iter().map(EnergyTrace::ess).collect();
        let series: Vec<Vec<f64>> = chains.iter().map(EnergyTrace::energies).collect();
        writer.write_summary(
            "software",
            &ess,
            potential_scale_reduction(&series),
            0.02,
            &chains
                .iter()
                .map(|c| c.iterations_to_within(0.02))
                .collect::<Vec<_>>(),
        );
        let sim =
            rsu::CycleAccuratePipeline::new(rsu::DesignKind::New, rsu::RsuConfig::new_design(), 3);
        writer.write_rsu_pipeline("new", 3, &sim.run(144, 1));
        writer.flush();
        if let Some(e) = writer.take_error() {
            eprintln!("trace_roundtrip: write failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let text = match String::from_utf8(buffer) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_roundtrip: trace is not UTF-8: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lines = match parse_jsonl(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("trace_roundtrip: minijson rejected the trace: {e}");
            return ExitCode::FAILURE;
        }
    };

    let expected_sweeps = SEEDS.len() * ITERATIONS;
    let sweeps: Vec<&Value> = lines
        .iter()
        .filter(|l| l.get("kind").and_then(Value::as_str) == Some("sweep"))
        .collect();
    if sweeps.len() != expected_sweeps {
        eprintln!(
            "trace_roundtrip: expected {expected_sweeps} sweep records, parsed {}",
            sweeps.len()
        );
        return ExitCode::FAILURE;
    }
    for (i, sweep) in sweeps.iter().enumerate() {
        for field in ["iteration", "temperature", "energy", "flips", "elapsed_s"] {
            if sweep.get(field).and_then(Value::as_f64).is_none() {
                eprintln!("trace_roundtrip: sweep record {i} lacks numeric {field:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The parsed energies must agree exactly with what the in-memory
    // recorder saw (the JSONL path may not lose precision).
    let first_chain: Vec<f64> = sweeps[..ITERATIONS]
        .iter()
        .map(|s| s.get("energy").and_then(Value::as_f64).unwrap())
        .collect();
    if first_chain != chains[0].energies() {
        eprintln!("trace_roundtrip: parsed energies differ from the recorded ones");
        return ExitCode::FAILURE;
    }
    let has = |kind: &str| {
        lines
            .iter()
            .any(|l| l.get("kind").and_then(Value::as_str) == Some(kind))
    };
    if !has("summary") || !has("rsu_pipeline") {
        eprintln!("trace_roundtrip: summary or rsu_pipeline record missing");
        return ExitCode::FAILURE;
    }
    println!(
        "trace_roundtrip: {} JSONL records written and re-parsed OK",
        lines.len()
    );
    ExitCode::SUCCESS
}
