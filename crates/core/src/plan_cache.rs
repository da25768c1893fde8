//! Compiled plan cache: query shape → verified plan.
//!
//! Repeated queries dominate mediator traffic (ROADMAP's north star), and
//! analyze → plan → static-verify is pure CPU the engine would repeat for
//! every value a lens substitutes into one parameterized query. The
//! cache is keyed by the parsed query printed with its equality
//! parameters lifted out ([`nimble_xmlql::QueryShape`]); an entry is the
//! decomposed [`Plan`], which the engine binds to each serve's own
//! values ([`crate::planner::bind`]). A plan that routes shards on those
//! values serves them alone and is keyed by the query's own spelling
//! (DESIGN.md §12).
//!
//! Entries sit under a [`PlanStamp`] — the optimizer-config fingerprint,
//! the catalog epoch, and the statistics generation — so a hit is only
//! served while every input that shaped the plan is unchanged. Any
//! source registration, view (re)definition, out-of-band mutation, or
//! material statistics drift changes the stamp and the stale entry is
//! dropped on its next lookup.
//!
//! The cached object is a *template*: the engine still fetches sources,
//! assembles fresh operators, and executes per query — only the
//! analysis and planner work is skipped (plus the planck
//! re-verification of an operator shape that already verified clean:
//! the plan's fold order makes the shape deterministic).

use crate::planner::Plan;
use nimble_trace::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything a cached plan's validity depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStamp {
    /// [`crate::engine::OptimizerConfig::fingerprint`] at plan time.
    pub config_fp: u64,
    /// [`crate::catalog::Catalog::epoch`] at plan time.
    pub catalog_epoch: u64,
    /// [`nimble_store::StatsCatalog::generation`] at plan time.
    pub stats_generation: u64,
    /// [`nimble_store::shard::ShardMap::epoch`] of the engine's shard
    /// runtime at plan time (0 when no runtime is attached). Re-sharding
    /// bakes different routing into plans, so it must re-stamp them.
    pub shard_epoch: u64,
}

/// Outcome of one cache lookup.
pub struct Lookup {
    pub value: Option<Arc<Plan>>,
    /// Entries that existed under a probed key but carried a stale
    /// stamp, and were dropped.
    pub invalidated: u64,
}

/// Point-in-time counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub entries: usize,
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
}

struct Entry {
    stamp: PlanStamp,
    value: Arc<Plan>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
}

/// LRU cache of compiled plans, keyed by query shape and guarded by a
/// [`PlanStamp`]. A capacity of 0 disables it entirely.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Look up the keys one serve may be cached under, in order; the
    /// first entry under the current stamp answers. An entry under a
    /// different stamp is dropped and counted as an invalidation. However
    /// many keys are probed, the serve counts as one hit or one miss.
    pub fn get(&self, keys: &[&str], stamp: PlanStamp) -> Lookup {
        let mut lookup = Lookup {
            value: None,
            invalidated: 0,
        };
        if self.capacity == 0 {
            return lookup;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        for key in keys {
            match inner.entries.get_mut(*key) {
                Some(e) if e.stamp == stamp => {
                    e.last_used = tick;
                    inner.hits += 1;
                    lookup.value = Some(Arc::clone(&e.value));
                    return lookup;
                }
                Some(_) => {
                    inner.entries.remove(*key);
                    inner.invalidations += 1;
                    lookup.invalidated += 1;
                }
                None => {}
            }
        }
        inner.misses += 1;
        lookup
    }

    /// Install a plan; returns true when a least-recently-used entry was
    /// evicted to make room.
    pub fn put(&self, key: &str, stamp: PlanStamp, value: Arc<Plan>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        let mut evicted = false;
        if inner.entries.len() >= self.capacity && !inner.entries.contains_key(key) {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                inner.entries.remove(&victim);
                inner.evictions += 1;
                evicted = true;
            }
        }
        inner.entries.insert(
            key.to_string(),
            Entry {
                stamp,
                value,
                last_used: tick,
            },
        );
        evicted
    }

    /// Drop every entry.
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }

    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock();
        PlanCacheStats {
            entries: inner.entries.len(),
            hits: inner.hits,
            misses: inner.misses,
            invalidations: inner.invalidations,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached() -> Arc<Plan> {
        Arc::new(Plan::default())
    }

    fn stamp(n: u64) -> PlanStamp {
        PlanStamp {
            config_fp: 7,
            catalog_epoch: n,
            stats_generation: 0,
            shard_epoch: 0,
        }
    }

    #[test]
    fn shard_epoch_participates_in_the_stamp() {
        let cache = PlanCache::new(4);
        cache.put("q", stamp(1), cached());
        // Re-sharding (shard epoch moved) invalidates like any other
        // stamp component.
        let resharded = PlanStamp {
            shard_epoch: 1,
            ..stamp(1)
        };
        let lookup = cache.get(&["q"], resharded);
        assert!(lookup.value.is_none() && lookup.invalidated == 1);
    }

    #[test]
    fn hit_miss_and_stamp_invalidation() {
        let cache = PlanCache::new(4);
        assert!(cache.get(&["q"], stamp(1)).value.is_none());
        cache.put("q", stamp(1), cached());
        assert!(cache.get(&["q"], stamp(1)).value.is_some());

        // Epoch moved: the entry is dropped and reported invalidated.
        let lookup = cache.get(&["q"], stamp(2));
        assert!(lookup.value.is_none() && lookup.invalidated == 1);
        // And it is really gone, not just skipped.
        let lookup = cache.get(&["q"], stamp(1));
        assert!(lookup.value.is_none() && lookup.invalidated == 0);

        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 3, 1));
    }

    #[test]
    fn a_serve_probing_two_keys_counts_once() {
        let cache = PlanCache::new(4);
        // Neither key: one miss.
        assert!(cache.get(&["shape", "spelled"], stamp(1)).value.is_none());
        // The second key answers: one hit, no miss for the first.
        let under_second = cached();
        cache.put("spelled", stamp(1), Arc::clone(&under_second));
        let lookup = cache.get(&["shape", "spelled"], stamp(1));
        assert!(lookup.value.is_some_and(|p| Arc::ptr_eq(&p, &under_second)));
        // The first key answers before the second is looked at.
        let under_first = cached();
        cache.put("shape", stamp(1), Arc::clone(&under_first));
        let lookup = cache.get(&["shape", "spelled"], stamp(1));
        assert!(lookup.value.is_some_and(|p| Arc::ptr_eq(&p, &under_first)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (2, 1, 0));
        // Both stale: both dropped, still one miss.
        let lookup = cache.get(&["shape", "spelled"], stamp(2));
        assert!(lookup.value.is_none() && lookup.invalidated == 2);
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses, s.invalidations), (0, 2, 2, 2));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = PlanCache::new(2);
        cache.put("a", stamp(1), cached());
        cache.put("b", stamp(1), cached());
        assert!(cache.get(&["a"], stamp(1)).value.is_some()); // a recently used
        assert!(!cache.put("a", stamp(1), cached())); // overwrite, no evict
        assert!(cache.put("c", stamp(1), cached())); // evicts b (LRU)
        assert!(cache.get(&["b"], stamp(1)).value.is_none());
        assert!(cache.get(&["a"], stamp(1)).value.is_some());
        assert!(cache.get(&["c"], stamp(1)).value.is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = PlanCache::new(0);
        cache.put("q", stamp(1), cached());
        assert!(cache.get(&["q"], stamp(1)).value.is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
