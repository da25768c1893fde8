//! An LRU document cache with a node-count budget.

use nimble_xml::Document;
use nimble_trace::sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Entry {
    doc: Arc<Document>,
    size: usize,
    /// Recency stamp from the cache's internal counter.
    last_used: u64,
    /// Wall-clock insertion time; replacing a key resets it. Lets
    /// stale-fallback consumers report how old served data is.
    inserted: Instant,
}

/// Statistics exported for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub current_size: usize,
}

/// Cache of the answers last fetched from each source, keyed by the
/// fragment as shipped (or the collection fetched whole): the stand-in
/// the engine serves, marked stale, while that source is unavailable
/// (§3.4). It is never read while the source answers, so it needs no
/// invalidation. The budget is in document nodes, the same size proxy
/// the view store uses.
pub struct ResultCache {
    inner: Mutex<Inner>,
    budget: usize,
}

struct Inner {
    entries: HashMap<Arc<str>, Entry>,
    /// Recency queue: every touch pushes `(key, tick)`. The front is the
    /// LRU candidate; stamps that no longer match the entry's
    /// `last_used` are stale (the key was touched again later, or
    /// removed) and are skipped lazily at eviction time. Keys are
    /// `Arc<str>` shared with the map, so queue upkeep never clones key
    /// text. Eviction is O(1) amortized — each pushed stamp is popped at
    /// most once — instead of the old linear scan per victim.
    recency: VecDeque<(Arc<str>, u64)>,
    tick: u64,
    size: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    /// Stamp a fresh tick for `key` and record it in the recency queue.
    /// The caller stores the returned tick in the entry's `last_used`.
    fn touch(&mut self, key: &Arc<str>) -> u64 {
        self.tick += 1;
        self.recency.push_back((Arc::clone(key), self.tick));
        // Amortized compaction: stale stamps accumulate one per touch,
        // so bound the queue at a small multiple of the live entries.
        if self.recency.len() > 4 * self.entries.len().max(8) {
            let entries = &self.entries;
            self.recency
                .retain(|(k, t)| entries.get(k).is_some_and(|e| e.last_used == *t));
        }
        self.tick
    }

    /// Remove the least-recently-used entry; false when nothing is left.
    fn evict_one(&mut self) -> bool {
        while let Some((k, t)) = self.recency.pop_front() {
            let live = self.entries.get(&k).is_some_and(|e| e.last_used == t);
            if !live {
                continue;
            }
            if let Some(e) = self.entries.remove(&k) {
                self.size -= e.size;
                self.evictions += 1;
                return true;
            }
        }
        false
    }
}

impl ResultCache {
    /// A cache that holds at most `budget_nodes` document nodes.
    pub fn new(budget_nodes: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                recency: VecDeque::new(),
                tick: 0,
                size: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            budget: budget_nodes,
        }
    }

    /// Look up a result, refreshing its recency.
    pub fn get(&self, key: &str) -> Option<Arc<Document>> {
        self.get_with_age(key).map(|(doc, _)| doc)
    }

    /// Like [`get`](ResultCache::get), also reporting how long ago the
    /// entry was inserted — the "staleness" a fallback consumer surfaces
    /// in provenance reports.
    pub fn get_with_age(&self, key: &str) -> Option<(Arc<Document>, Duration)> {
        let mut inner = self.inner.lock();
        let found = inner
            .entries
            .get_key_value(key)
            .map(|(k, e)| (Arc::clone(k), Arc::clone(&e.doc), e.inserted.elapsed()));
        match found {
            Some((k, doc, age)) => {
                let tick = inner.touch(&k);
                if let Some(e) = inner.entries.get_mut(&k) {
                    e.last_used = tick;
                }
                inner.hits += 1;
                Some((doc, age))
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert a result, evicting least-recently-used entries until the
    /// budget holds. Results larger than the whole budget are not cached.
    pub fn put(&self, key: &str, doc: Arc<Document>) {
        let size = doc.len();
        if size > self.budget {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(old) = inner.entries.remove(key) {
            inner.size -= old.size;
        }
        while inner.size + size > self.budget {
            if !inner.evict_one() {
                break;
            }
        }
        let key: Arc<str> = Arc::from(key);
        let tick = inner.touch(&key);
        inner.size += size;
        inner.entries.insert(
            key,
            Entry {
                doc,
                size,
                last_used: tick,
                inserted: Instant::now(),
            },
        );
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.recency.clear();
        inner.size = 0;
    }

    /// Invalidate one key; true if it was present.
    pub fn invalidate(&self, key: &str) -> bool {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.entries.remove(key) {
            inner.size -= e.size;
            true
        } else {
            false
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            current_size: inner.size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_xml::parse;

    fn doc_of_size(n: usize) -> Arc<Document> {
        // Root + (n-1) children.
        let mut xml = String::from("<r>");
        for _ in 0..n.saturating_sub(1) {
            xml.push_str("<x/>");
        }
        xml.push_str("</r>");
        parse(&xml).unwrap()
    }

    #[test]
    fn hit_and_miss() {
        let c = ResultCache::new(100);
        assert!(c.get("q1").is_none());
        c.put("q1", doc_of_size(5));
        assert!(c.get("q1").is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let c = ResultCache::new(10);
        c.put("a", doc_of_size(4));
        c.put("b", doc_of_size(4));
        // Touch `a` so `b` is the LRU victim.
        c.get("a");
        c.put("c", doc_of_size(4));
        assert!(c.get("a").is_some());
        assert!(c.get("b").is_none());
        assert!(c.get("c").is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_entries_not_cached() {
        let c = ResultCache::new(3);
        c.put("big", doc_of_size(10));
        assert!(c.get("big").is_none());
        assert_eq!(c.stats().current_size, 0);
    }

    #[test]
    fn replace_same_key_adjusts_size() {
        let c = ResultCache::new(10);
        c.put("a", doc_of_size(8));
        c.put("a", doc_of_size(3));
        assert_eq!(c.stats().current_size, 3);
        c.put("b", doc_of_size(7));
        // Both fit exactly now.
        assert!(c.get("a").is_some());
        assert!(c.get("b").is_some());
    }

    #[test]
    fn heavy_churn_keeps_lru_exact_within_budget() {
        // Many touches per entry exercise stale-stamp skipping and the
        // amortized compaction of the recency queue.
        let c = ResultCache::new(6);
        for round in 0..200usize {
            let k = format!("k{}", round % 5);
            c.put(&k, doc_of_size(2));
            let _ = c.get(&format!("k{}", (round + 2) % 5));
            assert!(c.stats().current_size <= 6);
        }
        // Deterministic LRU order at the end: re-touch k0, insert a new
        // entry, and the victim must not be k0.
        c.clear();
        c.put("a", doc_of_size(2));
        c.put("b", doc_of_size(2));
        c.put("c", doc_of_size(2));
        assert!(c.get("a").is_some());
        c.put("d", doc_of_size(2)); // evicts b (LRU), not a
        assert!(c.get("a").is_some());
        assert!(c.get("b").is_none());
        assert!(c.get("c").is_some());
        assert!(c.get("d").is_some());
    }

    #[test]
    fn age_reports_time_since_insert() {
        let c = ResultCache::new(100);
        assert!(c.get_with_age("q").is_none());
        c.put("q", doc_of_size(2));
        let (_, age) = c.get_with_age("q").unwrap();
        assert!(age < Duration::from_secs(60));
        // Replacing resets the insertion stamp.
        c.put("q", doc_of_size(3));
        let (doc, age2) = c.get_with_age("q").unwrap();
        assert_eq!(doc.len(), 3);
        assert!(age2 <= age + Duration::from_secs(60));
    }

    #[test]
    fn invalidate_and_clear() {
        let c = ResultCache::new(10);
        c.put("a", doc_of_size(2));
        assert!(c.invalidate("a"));
        assert!(!c.invalidate("a"));
        c.put("b", doc_of_size(2));
        c.clear();
        assert!(c.get("b").is_none());
    }
}
