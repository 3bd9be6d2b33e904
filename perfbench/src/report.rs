//! The run report, the trace files and the repeat mode.

use crate::host::Task;
use crate::spans::Tracer;
use crate::stats;
use crate::{Outcome, Run, END_TO_END, PER_LAYER};
use bench::minijson::{self, Value};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

fn metric(name: &str, outcome: &Outcome) -> Option<f64> {
    match name {
        "jobs_per_cpu_s" => Some(outcome.jobs_per_cpu_s),
        "setup_s" => Some(outcome.setup_s),
        "peak_rss_mb" => Some(outcome.peak_rss_mb),
        _ => outcome.layers.get(name).copied(),
    }
}

/// Prints one metric per line, then the operation counts, seed and
/// steal share, then (traced runs) each layer's self time, then the JSON
/// summary as the last line.
pub fn print(run: &Run, outcome: &Outcome) {
    println!(
        "perfbench {} seed {} for {} s, trace {}",
        run.workload,
        run.seed,
        run.seconds,
        if run.trace { "on" } else { "off" }
    );
    let mut problems = outcome.problems.clone();
    let mut json = Vec::new();
    let per_layer: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &[] };
    for (name, unit) in END_TO_END.iter().chain(per_layer) {
        let in_json = run.trace != END_TO_END.iter().any(|(n, _)| n == name);
        let value = metric(name, outcome);
        let shown = match value {
            Some(v) if v.is_finite() => format!("{v:.6}"),
            Some(v) => {
                problems.push(format!("metric {name} is {v}"));
                format!("{v}")
            }
            None => "n/a (layer not on this workload's path; reported as 0)".to_string(),
        };
        println!("{name} {shown} {unit}");
        if in_json {
            let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            json.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    println!("attempted {}", outcome.attempted);
    println!("failed {}", outcome.failed);
    println!("seed {}", run.seed);
    println!(
        "host.steal_pct {:.3} %",
        outcome.layers.get("host.steal_pct").copied().unwrap_or(0.0)
    );
    if !outcome.self_ns.is_empty() {
        println!("layer self time in the traced phase (spans around calls into each layer):");
        for (layer, ns) in &outcome.self_ns {
            println!("  {layer} {:.3} ms", *ns as f64 / 1e6);
        }
    }
    if let Some((name, share)) = &outcome.dominant {
        println!(
            "busiest thread class in the traced phase: {name} ({:.1}% of process CPU)",
            100.0 * share
        );
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
}

/// Writes the traced phase's spans and per-thread CPU samples as JSONL
/// next to the server's lifecycle trace.
pub fn write_trace(run: &Run, tracer: &Tracer, samples: &[(f64, Vec<Task>)]) -> Vec<String> {
    let path = run.out_path("spans.jsonl");
    let written = tracer.write_jsonl(&path).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::OpenOptions::new().append(true).open(&path)?);
        for (t_ms, tasks) in samples {
            for t in tasks {
                writeln!(
                    f,
                    "{{\"kind\":\"thread_cpu\",\"t_ms\":{t_ms},\"thread\":\"{}\",\"tid\":{},\
                     \"cpu_ns\":{},\"ctx_switches\":{}}}",
                    t.name, t.tid, t.cpu_ns, t.ctx_switches
                )?;
            }
        }
        f.flush()
    });
    match written {
        Ok(()) => Vec::new(),
        Err(e) => vec![format!("trace file {}: {e}", path.display())],
    }
}

/// Runs the workload `n` times in fresh processes and summarizes each
/// end-to-end metric against its bound in `BENCHMARK.json`.
pub fn repeat(run: &Run, n: usize) -> ExitCode {
    let bounds = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|text| minijson::parse(&text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json (run from the repository root): {e}");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut failed_runs = 0;
    for i in 0..n {
        let seed = run.seed + i as u64;
        let output = Command::new(&exe)
            .args(["--workload", &run.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &run.seconds.to_string(), "--trace", "0"])
            .stderr(Stdio::inherit())
            .output()
            .expect("benchmark re-executes itself");
        let text = String::from_utf8_lossy(&output.stdout);
        let last = text.lines().last().unwrap_or("");
        let doc = minijson::parse(last).ok();
        let correct = doc
            .as_ref()
            .and_then(|d| d.get("correct"))
            .and_then(Value::as_bool)
            == Some(true);
        if !output.status.success() || !correct {
            failed_runs += 1;
        }
        let mut line = format!("run {i} seed {seed}:");
        for (k, (name, _)) in END_TO_END.iter().enumerate() {
            if let Some(v) = doc
                .as_ref()
                .and_then(|d| d.get("metrics"))
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
            {
                values[k].push(v);
                line += &format!(" {name} {v:.6}");
            }
        }
        println!("{line}{}", if correct { "" } else { " (CHECK FAILED)" });
    }
    println!("{} runs of {}, {} failed", n, run.workload, failed_runs);
    let metrics = bounds
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    for ((name, unit), vals) in END_TO_END.iter().zip(&values) {
        let [q1, med, q3] = stats::quartiles(vals);
        let bound = metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|m| m.get("bound"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let worst = vals
            .iter()
            .map(|v| (v - med).abs() / med)
            .fold(0.0, f64::max);
        println!(
            "{name}: median {med:.6} {unit}, quartiles {q1:.6} .. {q3:.6}, spread {:.2}% of median, \
             worst deviation {:.2}% against bound {:.0}%",
            100.0 * (q3 - q1) / med,
            100.0 * worst,
            100.0 * bound
        );
    }
    if failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
