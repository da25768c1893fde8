//! Materialized views over the mediated schema.

use nimble_xml::Document;
use nimble_trace::sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Freshness verdict for a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Within TTL (or no TTL set).
    Fresh,
    /// Present but older than its TTL; usable only under a stale-tolerant
    /// policy.
    Stale,
}

/// How far into one append-only source collection a view's document was
/// built: rows `..upto` of `collection` as it stood under schema
/// `generation`. The next refresh asks the source for the rows past
/// `upto` only (DESIGN.md §21).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewMark {
    /// `source.collection`.
    pub collection: String,
    pub generation: u64,
    pub upto: u64,
}

/// One materialized view: the stored result of a mediated-schema query.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// The mediated collection (or query label) this materializes.
    pub name: String,
    /// The defining query text, kept for refresh.
    pub definition: String,
    /// The stored result.
    pub document: Arc<Document>,
    /// Logical time of the last refresh.
    pub refreshed_at: u64,
    /// Maximum age (ticks) before the view counts as stale; `None` means
    /// refresh-on-demand only (never auto-stale).
    pub ttl: Option<u64>,
    /// Lookup hits since materialization.
    pub hits: u64,
    /// Node count, the size proxy used against storage budgets.
    pub size_nodes: usize,
    /// One mark per source fragment of the plan the document was built
    /// from, when every one of them was stamped; empty otherwise (and
    /// the next refresh recomputes).
    pub marks: Vec<ViewMark>,
    /// How the last refresh got the document, as the management console
    /// prints it (`full (first)`, `delta billing.orders 7500..7510`);
    /// empty for a document stored from outside.
    pub refreshed_by: String,
    /// For a document the last refresh appended to
    /// ([`ViewStore::append_marked`]): whether the rows went into the
    /// stored document in place (`Some(true)`) or into a copy, because a
    /// reader held the stored one (`Some(false)`). `None` when the
    /// document was stored whole.
    pub appended_in_place: Option<bool>,
}

impl MaterializedView {
    /// Freshness at a given logical time.
    pub fn freshness(&self, now: u64) -> Freshness {
        match self.ttl {
            Some(ttl) if now.saturating_sub(self.refreshed_at) > ttl => Freshness::Stale,
            _ => Freshness::Fresh,
        }
    }
}

/// Thread-safe store of materialized views, keyed by view name.
#[derive(Default)]
pub struct ViewStore {
    views: RwLock<HashMap<String, MaterializedView>>,
}

impl ViewStore {
    pub fn new() -> ViewStore {
        ViewStore::default()
    }

    /// Materialize (or re-materialize) a view from a document of
    /// unknown provenance: it carries no marks.
    pub fn materialize(
        &self,
        name: &str,
        definition: &str,
        document: Arc<Document>,
        now: u64,
        ttl: Option<u64>,
    ) {
        self.materialize_marked(name, definition, document, now, ttl, Vec::new(), "");
    }

    /// Materialize (or re-materialize) a view, remembering how far into
    /// each source collection its document reaches.
    #[allow(clippy::too_many_arguments)]
    pub fn materialize_marked(
        &self,
        name: &str,
        definition: &str,
        document: Arc<Document>,
        now: u64,
        ttl: Option<u64>,
        marks: Vec<ViewMark>,
        refreshed_by: &str,
    ) {
        let size_nodes = document.len();
        let mut views = self.views.write();
        let hits = views.get(name).map(|v| v.hits).unwrap_or(0);
        views.insert(
            name.to_string(),
            MaterializedView {
                name: name.to_string(),
                definition: definition.to_string(),
                document,
                refreshed_at: now,
                ttl,
                hits,
                size_nodes,
                marks,
                refreshed_by: refreshed_by.to_string(),
                appended_in_place: None,
            },
        );
    }

    /// Append the root children of `rows` to view `name`'s stored
    /// document and restamp the entry — provided the entry is still the
    /// one the rows continue: `definition` and the marks `from`. The
    /// append is in place when nobody else holds the stored document's
    /// `Arc`; otherwise it goes into a copy that replaces it, so a
    /// reader's document never changes under it, and no reader sees a
    /// half-appended one (the store's write lock is held throughout).
    /// Returns whether it was in place; `None`, changing nothing, when the
    /// entry is gone or has moved on.
    #[allow(clippy::too_many_arguments)]
    pub fn append_marked(
        &self,
        name: &str,
        definition: &str,
        from: &[ViewMark],
        rows: &Document,
        now: u64,
        ttl: Option<u64>,
        marks: Vec<ViewMark>,
        refreshed_by: &str,
    ) -> Option<bool> {
        let mut views = self.views.write();
        let v = views.get_mut(name).filter(|v| v.definition == definition && v.marks == from)?;
        let in_place = Arc::get_mut(&mut v.document).is_some();
        let document = Arc::make_mut(&mut v.document);
        document.append_children(rows);
        v.size_nodes = document.len();
        v.refreshed_at = now;
        v.ttl = ttl;
        v.marks = marks;
        v.refreshed_by = refreshed_by.to_string();
        v.appended_in_place = Some(in_place);
        Some(in_place)
    }

    /// Look up a view, counting the hit. Returns the stored document and
    /// its freshness at `now`.
    pub fn lookup(&self, name: &str, now: u64) -> Option<(Arc<Document>, Freshness)> {
        let mut views = self.views.write();
        let v = views.get_mut(name)?;
        v.hits += 1;
        Some((Arc::clone(&v.document), v.freshness(now)))
    }

    /// Peek without counting a hit.
    pub fn peek(&self, name: &str) -> Option<MaterializedView> {
        self.views.read().get(name).cloned()
    }

    /// Remove a view; true if it existed.
    pub fn drop_view(&self, name: &str) -> bool {
        self.views.write().remove(name).is_some()
    }

    /// Names of all views needing refresh at `now` (stale by TTL).
    pub fn stale_views(&self, now: u64) -> Vec<String> {
        self.views
            .read()
            .values()
            .filter(|v| v.freshness(now) == Freshness::Stale)
            .map(|v| v.name.clone())
            .collect()
    }

    /// All view names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.views.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Total stored size in nodes.
    pub fn total_size(&self) -> usize {
        self.views.read().values().map(|v| v.size_nodes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_xml::parse;

    fn doc(xml: &str) -> Arc<Document> {
        parse(xml).unwrap()
    }

    #[test]
    fn materialize_and_lookup() {
        let store = ViewStore::new();
        store.materialize("customers", "WHERE ...", doc("<rows><row/></rows>"), 10, Some(5));
        let (d, f) = store.lookup("customers", 12).unwrap();
        assert_eq!(f, Freshness::Fresh);
        assert_eq!(d.root().name(), Some("rows"));
        assert_eq!(store.peek("customers").unwrap().hits, 1);
    }

    #[test]
    fn ttl_staleness() {
        let store = ViewStore::new();
        store.materialize("v", "q", doc("<r/>"), 0, Some(5));
        assert_eq!(store.lookup("v", 5).unwrap().1, Freshness::Fresh);
        assert_eq!(store.lookup("v", 6).unwrap().1, Freshness::Stale);
        assert_eq!(store.stale_views(6), vec!["v"]);
        // Refresh resets the clock and keeps the hit count.
        store.materialize("v", "q", doc("<r/>"), 6, Some(5));
        assert_eq!(store.lookup("v", 7).unwrap().1, Freshness::Fresh);
        assert_eq!(store.peek("v").unwrap().hits, 3);
        // Marks are kept with the document they describe, and go with it.
        let mark = ViewMark {
            collection: "billing.orders".into(),
            generation: 4,
            upto: 7_500,
        };
        store.materialize_marked("v", "q", doc("<r/>"), 7, Some(5), vec![mark.clone()], "full (first)");
        let v = store.peek("v").unwrap();
        assert_eq!((v.marks, v.hits, v.refreshed_by.as_str()), (vec![mark], 3, "full (first)"));
        store.materialize("v", "q", doc("<r/>"), 8, Some(5));
        assert!(store.peek("v").unwrap().marks.is_empty());
    }

    #[test]
    fn an_append_is_in_place_unless_a_reader_holds_the_document() {
        let store = ViewStore::new();
        let mark = |upto| ViewMark {
            collection: "billing.orders".into(),
            generation: 1,
            upto,
        };
        store.materialize_marked("v", "q", doc("<r><a/></r>"), 0, Some(5), vec![mark(1)], "full (first)");
        let (held, _) = store.lookup("v", 0).unwrap();
        let rows = doc("<r><b/></r>");
        assert_eq!(store.append_marked("v", "q", &[mark(1)], &rows, 1, Some(5), vec![mark(2)], "delta"), Some(false));
        // The reader's snapshot is the document it was handed.
        assert_eq!(held.len(), 2);
        drop(held);
        let again = doc("<r><c/></r>");
        assert_eq!(store.append_marked("v", "q", &[mark(2)], &again, 2, Some(5), vec![mark(3)], "delta"), Some(true));
        let v = store.peek("v").unwrap();
        assert_eq!((v.document.len(), v.size_nodes, v.hits), (4, 4, 1));
        assert_eq!((v.marks, v.refreshed_at, v.appended_in_place), (vec![mark(3)], 2, Some(true)));
        // Rows that continue other marks, or another definition, are not
        // this entry's: nothing changes.
        assert_eq!(store.append_marked("v", "q", &[mark(2)], &again, 3, Some(5), vec![mark(3)], "delta"), None);
        assert_eq!(store.append_marked("v", "q2", &[mark(3)], &again, 3, Some(5), vec![mark(4)], "delta"), None);
        assert_eq!(store.append_marked("w", "q", &[mark(3)], &again, 3, Some(5), vec![mark(4)], "delta"), None);
        assert_eq!(store.peek("v").unwrap().document.len(), 4);
    }

    #[test]
    fn no_ttl_never_stale() {
        let store = ViewStore::new();
        store.materialize("v", "q", doc("<r/>"), 0, None);
        assert_eq!(store.lookup("v", u64::MAX).unwrap().1, Freshness::Fresh);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let store = Arc::new(ViewStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let name = format!("v{}", (t + i) % 4);
                    store.materialize(&name, "q", doc("<r/>"), i, Some(5));
                    let _ = store.lookup(&name, i);
                    let _ = store.stale_views(i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.names().len(), 4);
    }

    #[test]
    fn drop_and_sizes() {
        let store = ViewStore::new();
        store.materialize("a", "q", doc("<r><x>1</x></r>"), 0, None);
        store.materialize("b", "q", doc("<r/>"), 0, None);
        assert_eq!(store.names(), vec!["a", "b"]);
        assert!(store.total_size() >= 4);
        assert!(store.drop_view("a"));
        assert!(!store.drop_view("a"));
        assert_eq!(store.names(), vec!["b"]);
    }
}
