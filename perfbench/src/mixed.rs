//! `serve-mixed`: an open loop of mixed traffic on a two-worker server.
//!
//! Arrivals come at a fixed absolute rate in a repeating slot pattern,
//! so every seed and every commit receives the same mix; the seed picks
//! scenes, chain seeds and which earlier spec a retry repeats. Slots are
//!
//! * interactive single jobs of a few sweeps;
//! * batch ensembles: several chains on one scene with different seeds,
//!   submitted together, as uncertainty estimation needs;
//! * retries of an earlier spec under a new id, from a quarter to three
//!   quarters of a second earlier, so the original has finished and is
//!   still inside the 256-entry result cache.
//!
//! Scenes come from a pool of four per application (twelve in all),
//! more than a worker's four-entry model cache holds.

use crate::checks::{self, Reference};
use crate::serveload::{submit_and_wait, Phase, Sent, Traffic};
use crate::spans::Tracer;
use crate::Gen;
use rand::SeedableRng;
use retrsu_serve::{JobKind, JobSpec, JobState, Priority, QueueLimits, ServeHandle, ServerConfig};
use sampling::Xoshiro256pp;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Arrival slots per second.
pub const RATE: f64 = 25.0;
/// Chains per batch ensemble.
pub const ENSEMBLE: usize = 4;
pub const INTERACTIVE_SWEEPS: usize = 8;
pub const BATCH_SWEEPS: usize = 24;
pub const SCENES_PER_APP: usize = 4;
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

#[derive(Clone, Copy)]
enum Slot {
    Interactive,
    Ensemble,
    Retry,
}

/// The repeating arrival pattern: half interactive singles, a quarter
/// batch ensembles, a quarter retries.
const PATTERN: [Slot; 8] = [
    Slot::Interactive,
    Slot::Ensemble,
    Slot::Interactive,
    Slot::Retry,
    Slot::Interactive,
    Slot::Interactive,
    Slot::Ensemble,
    Slot::Retry,
];

/// Retries repeat a spec sent this many slots earlier (0.25–0.75 s).
const RETRY_WINDOW: std::ops::Range<usize> = 25..76;

/// Small scenes of each application. They are as small as lets a chain
/// of [`INTERACTIVE_SWEEPS`] sweeps beat its random start on every scene
/// with room to spare (measured over 600 scenes each: the relative gain
/// sits five standard deviations above zero).
pub fn small_scene(app: usize, scene_seed: u64) -> JobKind {
    match app % 3 {
        0 => JobKind::Stereo {
            width: 64,
            height: 48,
            num_disparities: 6,
            num_layers: 3,
            noise_sigma: 1.0,
            scene_seed,
        },
        1 => JobKind::Motion {
            width: 48,
            height: 32,
            window: 5,
            num_patches: 2,
            noise_sigma: 0.5,
            scene_seed,
        },
        _ => JobKind::Segmentation {
            width: 32,
            height: 24,
            num_regions: 4,
            noise_sigma: 2.0,
            contrast: 90.0,
            scene_seed,
        },
    }
}

struct Arrival {
    due: Duration,
    specs: Vec<JobSpec>,
}

pub struct Mixed {
    arrivals: Vec<Arrival>,
    warm: Vec<JobSpec>,
}

impl Mixed {
    pub fn new(seed: u64, seconds: f64) -> Self {
        let mut g = Gen::new(seed, 1);
        let pool: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..SCENES_PER_APP).map(|_| g.draw()).collect())
            .collect();
        let slots = (RATE * seconds).round() as usize;
        let mut arrivals: Vec<Arrival> = Vec::with_capacity(slots);
        for i in 0..slots {
            let app = i % 3;
            let tenant = TENANTS[(i / 3) % 3].to_string();
            let scene = small_scene(app, pool[app][g.below(SCENES_PER_APP)]);
            let single = |id: String, seed: u64, priority, iterations| JobSpec {
                id,
                tenant: tenant.clone(),
                priority,
                seed,
                iterations,
                threads: 1,
                kind: scene.clone(),
            };
            let specs = match PATTERN[i % PATTERN.len()] {
                Slot::Interactive => vec![single(
                    format!("i{i}"),
                    g.draw(),
                    Priority::Interactive,
                    INTERACTIVE_SWEEPS,
                )],
                Slot::Ensemble => (0..ENSEMBLE)
                    .map(|k| single(format!("b{i}-{k}"), g.draw(), Priority::Batch, BATCH_SWEEPS))
                    .collect(),
                Slot::Retry => {
                    let lo = i.saturating_sub(RETRY_WINDOW.end - 1);
                    let hi = i.saturating_sub(RETRY_WINDOW.start).max(lo + 1);
                    let earlier = &arrivals[lo + g.below(hi - lo)].specs;
                    let original = &earlier[g.below(earlier.len())];
                    vec![JobSpec {
                        id: format!("r{i}"),
                        ..original.clone()
                    }]
                }
            };
            arrivals.push(Arrival {
                due: Duration::from_secs_f64(i as f64 / RATE),
                specs,
            });
        }
        let mut w = Gen::new(seed, 2);
        let warm = (0..3)
            .map(|app| JobSpec {
                id: format!("w{app}"),
                tenant: TENANTS[app].to_string(),
                priority: Priority::Interactive,
                seed: w.draw(),
                iterations: INTERACTIVE_SWEEPS,
                threads: 1,
                kind: small_scene(app, w.draw()),
            })
            .collect();
        Mixed { arrivals, warm }
    }
}

/// The quality a random labelling of the spec's scene scores — the
/// labelling the chain starts from — with the benchmark's own scorers.
fn random_start_score(spec: &JobSpec) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(spec.seed);
    let mut random = |grid: mrf::Grid, labels: usize| {
        mrf::LabelField::random(grid, labels, &mut rng)
            .as_slice()
            .to_vec()
    };
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
            let labels = random(ds.ground_truth.grid(), num_disparities);
            checks::bad_pixel_pct(&labels, ds.ground_truth.as_slice(), &ds.occlusion)
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
            let labels = random(mrf::Grid::new(width, height), window * window);
            checks::endpoint_error(&labels, window, &ds.ground_truth)
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
            let labels = random(ds.ground_truth.grid(), num_regions);
            checks::variation_of_information(&labels, ds.ground_truth.as_slice())
        }
    }
}

impl Traffic for Mixed {
    type Log = Vec<Sent>;

    fn config(&self) -> ServerConfig {
        ServerConfig {
            workers: 2,
            limits: QueueLimits {
                max_interactive: 64,
                max_batch: 256,
                max_per_tenant: 256,
            },
            ..ServerConfig::default()
        }
    }

    fn warm_up(&self, handle: &ServeHandle) -> usize {
        for spec in &self.warm {
            submit_and_wait(handle, spec);
        }
        self.warm.len()
    }

    fn drive(&self, handle: &ServeHandle, tracer: &mut Tracer, _seconds: f64) -> Vec<Sent> {
        let start = Instant::now();
        let mut sent = Vec::new();
        for arrival in &self.arrivals {
            let due = start + arrival.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            for spec in &arrival.specs {
                let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                let admission = tracer
                    .span("serve.submit", Some(&spec.id), || handle.submit(spec))
                    .expect("generated specs are valid");
                sent.push(Sent {
                    spec: spec.clone(),
                    late_ms,
                    admission,
                });
            }
        }
        for s in &sent {
            tracer.span("serve.wait", Some(&s.spec.id), || {
                handle.wait_for(&s.spec.id, JobState::Completed)
            });
        }
        sent
    }

    fn sent(&self, log: Vec<Sent>) -> Vec<Sent> {
        log
    }

    fn check(&self, phase: &Phase, reference: &Reference) -> Vec<String> {
        let mut baseline: HashMap<u64, f64> = HashMap::new();
        let mut problems = Vec::new();
        for s in &phase.sent {
            let digest = s.spec.digest();
            let Some(&(score, _)) = reference.get(&digest) else {
                continue;
            };
            let random = *baseline
                .entry(digest)
                .or_insert_with(|| random_start_score(&s.spec));
            if score.is_nan() || score >= random {
                problems.push(format!(
                    "{}: score {score:.4} does not improve on its random start {random:.4}",
                    s.spec.id
                ));
            }
        }
        problems
    }

    fn self_check(&self, phase: &Phase) -> Vec<String> {
        let mut problems = Vec::new();
        if phase.cache_hits() == 0 {
            problems.push("no result-cache hits".to_string());
        }
        if phase.model_builds() >= phase.computed() {
            problems.push(format!(
                "{} model builds for {} computed jobs: no model was shared",
                phase.model_builds(),
                phase.computed()
            ));
        }
        if phase.preemptions() == 0 {
            problems.push("no preemptions".to_string());
        }
        problems
    }

    fn dominant(&self) -> Option<(&'static str, f64)> {
        None
    }
}
