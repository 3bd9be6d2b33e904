//! `serve-solve`: one client, one worker, distinct paper-scale jobs one
//! at a time.
//!
//! Each round is one job of each named dataset shape at the paper's
//! sweep budget — a teddy-like 160×72 stereo pair with 56 disparities, a
//! 96×72 flow with 49 labels and a 96×72 segmentation — on fresh scenes,
//! so nothing repeats and the cache, batching and preemption never act.
//! RSU array sweeps are nearly all of the work.

use crate::checks::{self, Reference};
use crate::serveload::{submit_and_wait, Phase, Sent, Traffic};
use crate::spans::Tracer;
use crate::Gen;
use bench::{SamplerKind, SEGMENT_ITERATIONS, STEREO_ITERATIONS};
use retrsu_serve::{JobKind, JobSpec, Priority, ServeHandle, ServerConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

pub struct Solve {
    seed: u64,
    /// Software-Gibbs scores per spec digest, shared by the two phases
    /// of a traced run.
    software: Mutex<HashMap<u64, f64>>,
}

impl Solve {
    pub fn new(seed: u64) -> Self {
        Solve {
            seed,
            software: Mutex::new(HashMap::new()),
        }
    }

    /// Round `r`'s three jobs.
    fn round(&self, r: usize) -> [JobSpec; 3] {
        let mut g = Gen::new(self.seed, 100 + r as u64);
        let mut job = |name: &str, iterations, kind| JobSpec {
            id: format!("s{r}-{name}"),
            tenant: "solver".into(),
            priority: Priority::Batch,
            seed: g.draw(),
            iterations,
            threads: 1,
            kind,
        };
        let stereo = JobKind::Stereo {
            width: 160,
            height: 72,
            num_disparities: 56,
            num_layers: 5,
            noise_sigma: 2.0,
            scene_seed: Gen::new(self.seed, 200 + r as u64).draw(),
        };
        let flow = JobKind::Motion {
            width: 96,
            height: 72,
            window: 7,
            // The Venus-, RubberWhale- and Dimetrodon-like patch counts.
            num_patches: [3, 6, 2][r % 3],
            noise_sigma: 2.0,
            scene_seed: Gen::new(self.seed, 300 + r as u64).draw(),
        };
        let segmentation = JobKind::Segmentation {
            width: 96,
            height: 72,
            num_regions: 3 + r % 4,
            noise_sigma: 8.0,
            contrast: 140.0,
            scene_seed: Gen::new(self.seed, 400 + r as u64).draw(),
        };
        [
            job("stereo", STEREO_ITERATIONS, stereo),
            job("flow", STEREO_ITERATIONS, flow),
            job("seg", SEGMENT_ITERATIONS, segmentation),
        ]
    }
}

/// A software-Gibbs chain (raster engine, one thread) on the spec's
/// scene, through the harness functions the figure binaries call.
fn software_score(spec: &JobSpec) -> f64 {
    let sw = &SamplerKind::Software;
    match spec.kind {
        JobKind::Stereo {
            width,
            height,
            num_disparities,
            num_layers,
            noise_sigma,
            scene_seed,
        } => {
            let ds = scenes::StereoSpec {
                width,
                height,
                num_disparities,
                num_layers,
                noise_sigma: noise_sigma as f32,
            }
            .generate(scene_seed);
            bench::run_stereo(&ds, sw, spec.iterations, spec.seed, 1).bp
        }
        JobKind::Motion {
            width,
            height,
            window,
            num_patches,
            noise_sigma,
            scene_seed,
        } => {
            let ds = scenes::FlowSpec {
                width,
                height,
                window,
                num_patches,
                noise_sigma: noise_sigma as f32,
            }
            .generate(scene_seed);
            bench::run_motion(&ds, sw, spec.iterations, spec.seed, 1).epe
        }
        JobKind::Segmentation {
            width,
            height,
            num_regions,
            noise_sigma,
            contrast,
            scene_seed,
        } => {
            let ds = scenes::SegmentationSpec {
                width,
                height,
                num_regions,
                noise_sigma: noise_sigma as f32,
                contrast: contrast as f32,
            }
            .generate(scene_seed);
            bench::run_segmentation(&ds, num_regions, sw, spec.iterations, spec.seed, 1).voi
        }
    }
}

impl Traffic for Solve {
    type Log = Vec<Sent>;

    fn config(&self) -> ServerConfig {
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        }
    }

    fn warm_up(&self, handle: &ServeHandle) -> usize {
        let mut g = Gen::new(self.seed, 3);
        for app in 0..3 {
            let spec = JobSpec {
                id: format!("warm{app}"),
                tenant: "solver".into(),
                priority: Priority::Batch,
                seed: g.draw(),
                iterations: crate::mixed::INTERACTIVE_SWEEPS,
                threads: 1,
                kind: crate::mixed::small_scene(app, g.draw()),
            };
            submit_and_wait(handle, &spec);
        }
        3
    }

    fn drive(&self, handle: &ServeHandle, tracer: &mut Tracer, seconds: f64) -> Vec<Sent> {
        let start = Instant::now();
        let mut sent = Vec::new();
        let mut r = 0;
        while r == 0 || start.elapsed().as_secs_f64() < seconds {
            for spec in self.round(r) {
                let admission = tracer.span("serve.submit_wait", Some(&spec.id), || {
                    submit_and_wait(handle, &spec)
                });
                sent.push(Sent {
                    spec,
                    late_ms: 0.0,
                    admission,
                });
            }
            r += 1;
        }
        sent
    }

    fn sent(&self, log: Vec<Sent>) -> Vec<Sent> {
        log
    }

    fn check(&self, phase: &Phase, reference: &Reference) -> Vec<String> {
        let mut todo: BTreeMap<u64, JobSpec> = BTreeMap::new();
        {
            let known = self.software.lock().expect("no check thread panicked");
            for s in &phase.sent {
                let digest = s.spec.digest();
                if !known.contains_key(&digest) {
                    todo.insert(digest, s.spec.clone());
                }
            }
        }
        // Two threads: the checks run after the timed phase.
        let todo: Vec<(u64, JobSpec)> = todo.into_iter().collect();
        let (a, b) = todo.split_at(todo.len().div_ceil(2));
        let score_all = |chunk: &[(u64, JobSpec)]| {
            chunk
                .iter()
                .map(|(d, spec)| (*d, software_score(spec)))
                .collect::<Vec<_>>()
        };
        let scored = std::thread::scope(|scope| {
            let second = scope.spawn(|| score_all(b));
            let mut out = score_all(a);
            out.extend(second.join().expect("software check thread panicked"));
            out
        });
        let mut known = self.software.lock().expect("no check thread panicked");
        known.extend(scored);
        let mut problems = Vec::new();
        for s in &phase.sent {
            let digest = s.spec.digest();
            let (Some(&(served, _)), Some(&software)) =
                (reference.get(&digest), known.get(&digest))
            else {
                continue;
            };
            let metric = match s.spec.kind {
                JobKind::Stereo { .. } => "bp",
                JobKind::Motion { .. } => "epe",
                JobKind::Segmentation { .. } => "voi",
            };
            problems.extend(checks::near_software(&s.spec.id, metric, served, software));
        }
        problems
    }

    fn self_check(&self, phase: &Phase) -> Vec<String> {
        let mut problems = Vec::new();
        if phase.cache_hits() != 0 {
            problems.push(format!("{} cache hits", phase.cache_hits()));
        }
        if phase.model_builds() != phase.computed() {
            problems.push(format!(
                "{} model builds for {} jobs",
                phase.model_builds(),
                phase.computed()
            ));
        }
        if phase.preemptions() != 0 {
            problems.push(format!("{} preemptions", phase.preemptions()));
        }
        if phase.outcome.peak_queued > 1 {
            problems.push(format!("peak queue {}", phase.outcome.peak_queued));
        }
        problems
    }

    fn dominant(&self) -> Option<(&'static str, f64)> {
        Some(("serve-worker", 0.9))
    }
}
