//! `serve-hits`: one client resubmitting popular specs under fresh ids
//! to a one-worker server, every request answered by the result cache.
//!
//! Set-up computes the popular set; the timed phase is a closed loop of
//! [`REQUESTS_PER_SECOND`] × `--seconds` requests. The request count is
//! fixed rather than time-bound because the server keeps every event,
//! result and id for its lifetime, so peak memory depends on how many
//! requests it has seen: a faster server must not read as a fatter one.
//! 2·10⁵ requests (at 10 s) halve the run-to-run spread of 10⁵.

use crate::checks::Reference;
use crate::serveload::{submit_and_wait, Phase, Sent, Traffic};
use crate::spans::Tracer;
use crate::Gen;
use retrsu_serve::{Admission, JobSpec, Priority, ServeHandle, ServerConfig};

/// Popular specs computed in set-up.
pub const POPULAR: usize = 16;
/// Timed requests per `--seconds`.
pub const REQUESTS_PER_SECOND: usize = 20_000;

pub struct Hits {
    seed: u64,
    popular: Vec<JobSpec>,
    requests: usize,
}

/// The timed phase's record: which popular spec each request repeated
/// and whether the cache answered it.
pub struct Log {
    picks: Vec<u8>,
    admissions: Vec<Admission>,
}

impl Hits {
    pub fn new(seed: u64, seconds: f64) -> Self {
        let mut g = Gen::new(seed, 4);
        let popular = (0..POPULAR)
            .map(|k| JobSpec {
                id: format!("p{k}"),
                tenant: ["acme", "globex", "initech"][k % 3].into(),
                priority: Priority::Interactive,
                seed: g.draw(),
                iterations: crate::mixed::INTERACTIVE_SWEEPS,
                threads: 1,
                kind: crate::mixed::small_scene(k, g.draw()),
            })
            .collect();
        Hits {
            seed,
            popular,
            requests: (REQUESTS_PER_SECOND as f64 * seconds).round().max(1.0) as usize,
        }
    }

    fn request(&self, i: usize, pick: u8) -> JobSpec {
        JobSpec {
            id: format!("h{i}"),
            ..self.popular[pick as usize].clone()
        }
    }
}

impl Traffic for Hits {
    type Log = Log;

    fn config(&self) -> ServerConfig {
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        }
    }

    fn warm_up(&self, handle: &ServeHandle) -> usize {
        for spec in &self.popular {
            submit_and_wait(handle, spec);
        }
        self.popular.len()
    }

    fn drive(&self, handle: &ServeHandle, tracer: &mut Tracer, _seconds: f64) -> Log {
        let mut g = Gen::new(self.seed, 5);
        let mut log = Log {
            picks: Vec::with_capacity(self.requests),
            admissions: Vec::with_capacity(self.requests),
        };
        for i in 0..self.requests {
            let pick = g.below(POPULAR) as u8;
            let spec = self.request(i, pick);
            let admission = tracer
                .span("serve.submit", Some(&spec.id), || handle.submit(&spec))
                .expect("generated specs are valid");
            log.picks.push(pick);
            log.admissions.push(admission);
        }
        log
    }

    fn sent(&self, log: Log) -> Vec<Sent> {
        log.picks
            .into_iter()
            .zip(log.admissions)
            .enumerate()
            .map(|(i, (pick, admission))| Sent {
                spec: self.request(i, pick),
                late_ms: 0.0,
                admission,
            })
            .collect()
    }

    fn check(&self, _phase: &Phase, _reference: &Reference) -> Vec<String> {
        Vec::new()
    }

    fn self_check(&self, phase: &Phase) -> Vec<String> {
        let missed = phase
            .sent
            .iter()
            .filter(|s| s.admission != Admission::Cached)
            .count();
        if missed > 0 || phase.cache_hits() != phase.sent.len() as u64 {
            vec![format!(
                "{missed} of {} requests were not answered from the cache",
                phase.sent.len()
            )]
        } else {
            Vec::new()
        }
    }

    fn dominant(&self) -> Option<(&'static str, f64)> {
        Some(("serve-scheduler", 0.0))
    }
}
