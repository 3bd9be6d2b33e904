//! `paper-eval`: the Fig. 3/5b/9 quality experiments, no server.
//!
//! A round runs a fixed selection of the named datasets through the
//! harness functions the figure binaries call (raster engine, one
//! thread): software Gibbs, previous RSU-G and new RSU-G on the
//! teddy-like stereo pair; software Gibbs and new RSU-G on the
//! Venus-like flow and on four segmentation images. The timed phase runs
//! whole rounds for `--seconds`; generating the scenes is set-up.

use crate::checks;
use crate::host;
use crate::spans::Tracer;
use crate::{Ctx, Gen, Outcome};
use bench::{
    annealing_schedule, segmentation_schedule, SamplerKind, MOTION_DATA_WEIGHT,
    MOTION_SMOOTH_WEIGHT, SEGMENT_DATA_WEIGHT, SEGMENT_ITERATIONS, SEGMENT_SMOOTH_WEIGHT,
    STEREO_DATA_WEIGHT, STEREO_ITERATIONS, STEREO_SMOOTH_WEIGHT,
};
use mrf::LabelField;
use scenes::{FlowDataset, SegmentationDataset, StereoDataset};
use std::time::Instant;
use vision::metrics::{bad_pixel_percentage, endpoint_error, variation_of_information};
use vision::{MotionModel, SegmentModel, StereoModel};

/// Segmentation images per round.
const SEGMENTATION_IMAGES: usize = 4;

enum Data {
    Stereo(StereoDataset),
    Flow(FlowDataset),
    Segmentation(SegmentationDataset),
}

struct Case {
    name: String,
    data: Data,
}

/// One solve's output.
struct Solve {
    case: usize,
    sampler: &'static str,
    labels: Vec<u16>,
    score: f64,
}

fn samplers(data: &Data) -> Vec<(&'static str, SamplerKind)> {
    let mut s = vec![("software", SamplerKind::Software)];
    if matches!(data, Data::Stereo(_)) {
        s.push(("prev_rsu", SamplerKind::PreviousRsu));
    }
    s.push(("new_rsu", SamplerKind::NewRsu));
    s
}

/// The named datasets with the seeds the figure binaries use
/// (`bench::stereo_suite`, `bench::flow_suite`, `fig9d_segmentation`).
fn generate(tracer: &mut Tracer) -> Vec<Case> {
    let (s1, s2, s3) = (1001, 2001, 3001);
    let mut cases = vec![
        Case {
            name: "teddy".into(),
            data: tracer.span("scenes.generate", Some("teddy"), || {
                Data::Stereo(scenes::stereo_teddy_like(s1))
            }),
        },
        Case {
            name: "venus".into(),
            data: tracer.span("scenes.generate", Some("venus"), || {
                Data::Flow(scenes::flow_venus_like(s2))
            }),
        },
    ];
    let segs = tracer.span("scenes.generate", Some("segmentation"), || {
        scenes::segmentation_suite(s3, SEGMENTATION_IMAGES)
    });
    for (i, ds) in segs.into_iter().enumerate() {
        cases.push(Case {
            name: format!("seg{i}"),
            data: Data::Segmentation(ds),
        });
    }
    cases
}

/// One round over every case.
fn round(cases: &[Case], chain_seed: u64, tracer: &mut Tracer) -> Vec<Solve> {
    let mut out = Vec::new();
    for (index, case) in cases.iter().enumerate() {
        let job = Some(case.name.as_str());
        let samplers = samplers(&case.data);
        match &case.data {
            Data::Stereo(ds) => {
                let model = tracer.span("vision.model_build", job, || {
                    StereoModel::new(
                        &ds.left,
                        &ds.right,
                        ds.num_disparities,
                        STEREO_DATA_WEIGHT,
                        STEREO_SMOOTH_WEIGHT,
                    )
                    .expect("generated datasets are consistent")
                });
                for (name, sampler) in &samplers {
                    let field = tracer.span(span_name(name), job, || {
                        sampler.run(&model, annealing_schedule(), STEREO_ITERATIONS, chain_seed)
                    });
                    let score = tracer.span("vision.score", job, || {
                        bad_pixel_percentage(&field, &ds.ground_truth, Some(&ds.occlusion), 1.0)
                    });
                    out.push((index, *name, field, score));
                }
            }
            Data::Flow(ds) => {
                let model = tracer.span("vision.model_build", job, || {
                    MotionModel::new(
                        &ds.frame1,
                        &ds.frame2,
                        ds.window,
                        MOTION_DATA_WEIGHT,
                        MOTION_SMOOTH_WEIGHT,
                    )
                    .expect("generated datasets are consistent")
                });
                for (name, sampler) in &samplers {
                    let field = tracer.span(span_name(name), job, || {
                        sampler.run(&model, annealing_schedule(), STEREO_ITERATIONS, chain_seed)
                    });
                    let score = tracer.span("vision.score", job, || {
                        let flow: Vec<(isize, isize)> = field
                            .as_slice()
                            .iter()
                            .map(|&l| model.label_to_flow(l))
                            .collect();
                        endpoint_error(&flow, &ds.ground_truth)
                    });
                    out.push((index, *name, field, score));
                }
            }
            Data::Segmentation(ds) => {
                let model = tracer.span("vision.model_build", job, || {
                    SegmentModel::new(
                        &ds.image,
                        ds.num_regions,
                        SEGMENT_DATA_WEIGHT,
                        SEGMENT_SMOOTH_WEIGHT,
                    )
                    .expect("generated datasets are consistent")
                });
                for (name, sampler) in &samplers {
                    let field = tracer.span(span_name(name), job, || {
                        sampler.run(
                            &model,
                            segmentation_schedule(),
                            SEGMENT_ITERATIONS,
                            chain_seed,
                        )
                    });
                    let score = tracer.span("vision.score", job, || {
                        variation_of_information(&field, &ds.ground_truth)
                    });
                    out.push((index, *name, field, score));
                }
            }
        }
    }
    out.into_iter()
        .map(
            |(case, sampler, field, score): (usize, &'static str, LabelField, f64)| Solve {
                case,
                sampler,
                labels: field.as_slice().to_vec(),
                score,
            },
        )
        .collect()
}

fn span_name(sampler: &str) -> &'static str {
    match sampler {
        "software" => "harness.solve.software",
        "prev_rsu" => "harness.solve.prev_rsu",
        _ => "harness.solve.new_rsu",
    }
}

fn iterations(data: &Data) -> usize {
    match data {
        Data::Segmentation(_) => SEGMENT_ITERATIONS,
        _ => STEREO_ITERATIONS,
    }
}

fn sites(data: &Data) -> usize {
    match data {
        Data::Stereo(ds) => ds.ground_truth.grid().len(),
        Data::Flow(ds) => ds.ground_truth.len(),
        Data::Segmentation(ds) => ds.ground_truth.grid().len(),
    }
}

/// Whole rounds for `seconds`; the first round's outputs are kept for
/// the checks, and every later round must reproduce them exactly.
struct Phase {
    first: Vec<Solve>,
    rounds: usize,
    solves: usize,
    cpu_s: f64,
    raw_cpu_s: f64,
    slowdown: f64,
    mismatched_rounds: usize,
}

fn timed(ctx: &Ctx, cases: &[Case], chain_seed: u64, tracer: &mut Tracer) -> Phase {
    let start = Instant::now();
    let m0 = ctx.cal.mark();
    let first = round(cases, chain_seed, tracer);
    let mut solves = first.len();
    let mut rounds = 1;
    let mut mismatched_rounds = 0;
    while start.elapsed().as_secs_f64() < ctx.run.seconds {
        let again = round(cases, chain_seed, tracer);
        solves += again.len();
        rounds += 1;
        if again.iter().zip(&first).any(|(a, b)| a.labels != b.labels) {
            mismatched_rounds += 1;
        }
    }
    let m1 = ctx.cal.mark();
    let (cpu_s, raw_cpu_s) = ctx.cal.cpu_s(&m0, &m1);
    Phase {
        first,
        rounds,
        solves,
        cpu_s,
        raw_cpu_s,
        slowdown: ctx.cal.slowdown(&m0, &m1),
        mismatched_rounds,
    }
}

/// Recomputes every score with the benchmark's own scorers and holds
/// the paper's shape: previous RSU-G fails stereo (BP above the floor),
/// new RSU-G lands within the stated margin of software Gibbs.
fn check(cases: &[Case], solves: &[Solve]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut own = vec![Vec::new(); cases.len()];
    for s in solves {
        let (metric, score) = match &cases[s.case].data {
            Data::Stereo(ds) => (
                "bp",
                checks::bad_pixel_pct(&s.labels, ds.ground_truth.as_slice(), &ds.occlusion),
            ),
            Data::Flow(ds) => (
                "epe",
                checks::endpoint_error(&s.labels, ds.window, &ds.ground_truth),
            ),
            Data::Segmentation(ds) => (
                "voi",
                checks::variation_of_information(&s.labels, ds.ground_truth.as_slice()),
            ),
        };
        let name = &cases[s.case].name;
        if (score - s.score).abs() > 1e-9 || !score.is_finite() {
            problems.push(format!(
                "{name}/{}: program scored {metric} {} but the fields score {score}",
                s.sampler, s.score
            ));
        }
        own[s.case].push((s.sampler, metric, score));
    }
    for (case, scores) in cases.iter().zip(&own) {
        let get = |want: &str| scores.iter().find(|(s, _, _)| *s == want).copied();
        let Some((_, metric, software)) = get("software") else {
            problems.push(format!("{}: no software run", case.name));
            continue;
        };
        match get("new_rsu") {
            Some((_, _, new)) => {
                problems.extend(checks::near_software(&case.name, metric, new, software))
            }
            None => problems.push(format!("{}: no new RSU-G run", case.name)),
        }
        if matches!(case.data, Data::Stereo(_)) {
            match get("prev_rsu") {
                Some((_, _, bp)) if bp > checks::PREVIOUS_DESIGN_BP_FLOOR => {}
                other => problems.push(format!(
                    "{}: previous RSU-G BP {:?} is not above {}",
                    case.name,
                    other.map(|o| o.2),
                    checks::PREVIOUS_DESIGN_BP_FLOOR
                )),
            }
        }
    }
    problems
}

pub fn run(ctx: &Ctx) -> Outcome {
    let run = &ctx.run;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(run.trace);
    let mut cases = Vec::new();
    out.setup_s = crate::serveload::median_set_up(|| {
        // Free the previous set-up's scenes first, so every set-up
        // after the first finds the allocator in the same state.
        cases.clear();
        let m0 = ctx.cal.mark();
        cases = generate(&mut Tracer::new(false));
        ctx.cal.cpu_s(&m0, &ctx.cal.mark()).0
    });
    if run.trace {
        // One more, traced, for the per-layer figure.
        cases.clear();
        cases = generate(&mut tracer);
    }
    // The seed picks the chains; the scenes are the paper's fixed set.
    let chain_seed = Gen::new(run.seed, 7).draw();

    let mut quiet = Tracer::new(false);
    let phase = timed(ctx, &cases, chain_seed, &mut quiet);
    out.peak_rss_mb = host::memory_kb("VmHWM") as f64 / 1024.0;
    out.attempted = phase.solves as u64;
    out.jobs_per_cpu_s = phase.solves as f64 / phase.cpu_s;
    out.lines.push(format!(
        "timed phase: {} rounds, {} solves, {:.3} s CPU at reference speed ({:.3} s measured, \
         host {:.3}x slower than reference)",
        phase.rounds, phase.solves, phase.cpu_s, phase.raw_cpu_s, phase.slowdown
    ));
    out.problems.extend(checks::summarize(
        "paper shape",
        check(&cases, &phase.first),
    ));
    if phase.mismatched_rounds > 0 {
        out.problems.push(format!(
            "determinism: {} of {} rounds differ from the first",
            phase.mismatched_rounds, phase.rounds
        ));
    }

    if run.trace {
        let traced = timed(ctx, &cases, chain_seed, &mut tracer);
        if traced
            .first
            .iter()
            .zip(&phase.first)
            .any(|(a, b)| a.labels != b.labels)
        {
            out.problems
                .push("determinism: the traced run's fields differ".into());
        }
        let l = &mut out.layers;
        for sampler in ["software", "prev_rsu", "new_rsu"] {
            let work: usize = cases
                .iter()
                .filter(|c| samplers(&c.data).iter().any(|(s, _)| *s == sampler))
                .map(|c| sites(&c.data) * iterations(&c.data))
                .sum::<usize>()
                * traced.rounds;
            let (ns, _) = tracer.cpu_of(span_name(sampler));
            let key = match sampler {
                "software" => "harness.ns_per_site.software",
                "prev_rsu" => "harness.ns_per_site.prev_rsu",
                _ => "harness.ns_per_site.new_rsu",
            };
            l.insert(key, ns as f64 / work.max(1) as f64);
        }
        let mean_ms = |(ns, n): (u64, usize)| ns as f64 / n.max(1) as f64 / 1e6;
        l.insert(
            "vision.model_build_ms",
            mean_ms(tracer.cpu_of("vision.model_build")),
        );
        l.insert("vision.score_ms", mean_ms(tracer.cpu_of("vision.score")));
        l.insert(
            "scenes.generate_ms",
            mean_ms(tracer.cpu_of("scenes.generate")),
        );
        l.insert(
            "trace.overhead_pct",
            100.0
                * ((traced.cpu_s / traced.solves as f64) / (phase.cpu_s / phase.solves as f64)
                    - 1.0),
        );
        l.insert("host.slowdown", phase.slowdown);
        out.self_ns = tracer.layer_self_ns();
        let total: u64 = out.self_ns.values().sum();
        let harness = out.self_ns.get("harness").copied().unwrap_or(0);
        let share = harness as f64 / total.max(1) as f64;
        if share < 0.9 {
            out.problems.push(format!(
                "self-check: harness solves are {:.1}% of traced self time, expected 90% or more",
                100.0 * share
            ));
        }
        out.lines.push(format!(
            "traced phase: {} rounds, {:.3} s CPU measured",
            traced.rounds, traced.raw_cpu_s
        ));
        out.problems
            .extend(crate::report::write_trace(run, &tracer, &[]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small stereo case where software and new RSU-G return the true
    /// disparities and previous RSU-G returns a constant field.
    fn stereo_case() -> (Vec<Case>, Vec<Solve>) {
        let ds = scenes::StereoSpec {
            width: 32,
            height: 24,
            num_disparities: 12,
            num_layers: 2,
            noise_sigma: 1.0,
        }
        .generate(7);
        let truth = ds.ground_truth.as_slice().to_vec();
        let flat = vec![11u16; truth.len()];
        let score = |labels: &[u16]| {
            checks::bad_pixel_pct(labels, ds.ground_truth.as_slice(), &ds.occlusion)
        };
        let solve = |sampler, labels: &Vec<u16>| Solve {
            case: 0,
            sampler,
            labels: labels.clone(),
            score: score(labels),
        };
        let solves = vec![
            solve("software", &truth),
            solve("prev_rsu", &flat),
            solve("new_rsu", &truth),
        ];
        let cases = vec![Case {
            name: "stereo".into(),
            data: Data::Stereo(ds),
        }];
        (cases, solves)
    }

    #[test]
    fn paper_shape_holds_for_the_right_fields() {
        let (cases, solves) = stereo_case();
        assert!(solves[1].score > checks::PREVIOUS_DESIGN_BP_FLOOR);
        assert_eq!(check(&cases, &solves), Vec::<String>::new());
    }

    #[test]
    fn previous_design_fields_in_place_of_new_design_fail() {
        let (cases, mut solves) = stereo_case();
        solves[2].labels = solves[1].labels.clone();
        solves[2].score = solves[1].score;
        assert!(!check(&cases, &solves).is_empty());
        // And new-design fields where the previous design's belong.
        let (cases, mut solves) = stereo_case();
        solves[1].labels = solves[2].labels.clone();
        solves[1].score = solves[2].score;
        assert!(!check(&cases, &solves).is_empty());
    }

    #[test]
    fn a_score_that_does_not_match_its_field_fails() {
        let (cases, mut solves) = stereo_case();
        solves[0].score += 1.0;
        assert!(!check(&cases, &solves).is_empty());
    }
}
