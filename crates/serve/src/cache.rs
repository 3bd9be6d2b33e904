//! Digest-keyed result cache: the determinism contract turned into
//! capacity.
//!
//! A job is a pure function of its spec, and [`JobSpec::digest`]
//! canonicalizes exactly the fields the artifact depends on — so a
//! completed job's `(metric, score, field_digest)` answers every later
//! spec with the same digest, whatever its id, tenant, priority or
//! thread count. The scheduler consults this cache at admission; a hit
//! completes the job without touching a worker
//! (`submitted → admitted → completed`, with `cached: true` on the
//! completion event), and the `serve_smoke` gate proves a hit's digest
//! equals a cache-disabled recompute across a full server rerun.
//!
//! Eviction is least-recently-used over a fixed capacity: entries are
//! stamped with a logical tick on insert and on every hit, and an
//! insert into a full cache evicts the smallest stamp. The policy is
//! deterministic — same submission order, same hits, same evictions —
//! so cached and uncached runs stay reproducible.

use crate::spec::JobSpec;
use std::collections::HashMap;

/// What a completed job leaves behind: everything a duplicate spec
/// needs to answer without recomputing.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Quality-metric name (`"bp"` / `"epe"` / `"voi"`).
    pub metric: &'static str,
    /// The metric's value.
    pub score: f64,
    /// FNV-1a digest of the final label field.
    pub field_digest: u64,
    /// Sweeps the cached run executed (the spec's `iterations`).
    pub iterations: usize,
}

/// A bounded map keyed by a 64-bit digest with least-recently-used
/// eviction — the one eviction policy both digest-keyed caches (the
/// [`ResultCache`] and the worker's
/// [`SceneModelCache`](crate::SceneModelCache)) share.
///
/// Each hit and each insert stamps its entry with a fresh logical tick,
/// and an insert of a new key into a full map evicts the smallest
/// stamp. Zero capacity holds nothing: every lookup misses.
#[derive(Debug)]
pub(crate) struct Lru<V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, (V, u64)>,
}

impl<V> Lru<V> {
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// The value under `key`, refreshing its recency.
    pub(crate) fn get(&mut self, key: u64) -> Option<&V> {
        self.tick += 1;
        let (value, stamp) = self.entries.get_mut(&key)?;
        *stamp = self.tick;
        Some(value)
    }

    /// Stores `value` under `key`, evicting the least-recently-used
    /// entry when a new key meets a full map. Re-inserting a held key
    /// replaces its value and refreshes its recency.
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(&oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(key, _)| key)
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, (value, self.tick));
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A bounded LRU map from [`JobSpec::digest`] to [`CachedResult`].
#[derive(Debug)]
pub struct ResultCache {
    entries: Lru<CachedResult>,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results; zero disables
    /// caching entirely (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: Lru::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a spec's digest, refreshing its recency on a hit and
    /// recording the hit/miss in the counters.
    pub fn lookup(&mut self, spec: &JobSpec) -> Option<CachedResult> {
        let hit = self.entries.get(spec.digest()).cloned();
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// Stores a completed job's result under `digest`, evicting the
    /// least-recently-used entry when full. Re-inserting an existing
    /// digest refreshes its recency (the payload is identical by
    /// determinism, so which copy survives is immaterial).
    pub fn insert(&mut self, digest: u64, result: CachedResult) {
        self.entries.insert(digest, result);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobKind, Priority};

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            id: format!("j-{seed}"),
            tenant: "t".into(),
            priority: Priority::Batch,
            seed,
            iterations: 10,
            threads: 1,
            kind: JobKind::Segmentation {
                width: 16,
                height: 12,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 1,
            },
        }
    }

    fn result(score: f64) -> CachedResult {
        CachedResult {
            metric: "voi",
            score,
            field_digest: score.to_bits(),
            iterations: 10,
        }
    }

    #[test]
    fn hit_returns_the_stored_result_and_counts() {
        let mut cache = ResultCache::new(4);
        let s = spec(1);
        assert_eq!(cache.lookup(&s), None);
        cache.insert(s.digest(), result(0.5));
        assert_eq!(cache.lookup(&s), Some(result(0.5)));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = ResultCache::new(2);
        let (a, b, c) = (spec(1), spec(2), spec(3));
        cache.insert(a.digest(), result(1.0));
        cache.insert(b.digest(), result(2.0));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.lookup(&a).is_some());
        cache.insert(c.digest(), result(3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&a).is_some(), "recently-used entry survives");
        assert!(cache.lookup(&b).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&c).is_some());
    }

    #[test]
    fn reinserting_an_existing_digest_does_not_evict() {
        let mut cache = ResultCache::new(2);
        let (a, b) = (spec(1), spec(2));
        cache.insert(a.digest(), result(1.0));
        cache.insert(b.digest(), result(2.0));
        cache.insert(a.digest(), result(1.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&b).is_some());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = ResultCache::new(0);
        let s = spec(1);
        cache.insert(s.digest(), result(1.0));
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&s), None);
        assert_eq!(cache.stats(), (0, 1));
    }
}
