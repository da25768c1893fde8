//! Shard runtime: partitioned collections served by shard-local
//! engines, the mediator half of the store's [`ShardMap`] declaration.
//!
//! "Multiple instances of the integration engine can be run
//! simultaneously" (§4) — here those instances each own a *slice* of a
//! collection, split by the declared shard key, and the coordinator
//! fans a plan's scan subtree out to them through an Exchange operator.
//! The [`ShardRuntime`] holds what the coordinator needs to do that:
//! the shard map (specs + epoch for plan stamping), the per-collection
//! [`Partition`] bookkeeping that lets merged shard streams be restored
//! to original document order, and the shard-local nodes with their
//! liveness flags (a dead node degrades the query to an annotated
//! partial answer instead of failing it).
//!
//! A slice is a document the mediator cut itself and that no source can
//! change underneath it, so each node also keeps its slice *shredded*:
//! the `ScanRows` memo holds the tuples a row pattern binds over the
//! slice, built by the first scan and shared by every later one.

use crate::catalog::Catalog;
use crate::engine::Engine;
use nimble_sources::query::row_field;
use nimble_store::shard::{ShardMap, ShardSpec};
use nimble_xml::{Document, DocumentBuilder, Value};
use nimble_xmlql::ast::Pattern;
use nimble_trace::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One collection split into per-shard documents, plus the origin
/// bookkeeping that makes the split reversible: `origins[k][j]` is the
/// index (in the original document's row order) of shard `k`'s `j`-th
/// row. Rows keep their relative order inside each shard, so a merge
/// that stable-sorts by origin reproduces the unsharded row order
/// exactly.
#[derive(Debug, Clone)]
pub struct Partition {
    pub spec: ShardSpec,
    /// Tag name of the collection's root element (shard documents reuse
    /// it, so shard-local matching sees the same shape as unsharded).
    pub root_name: String,
    pub origins: Vec<Vec<usize>>,
    /// Rows per shard (`origins[k].len()`, cached for stats and plans).
    pub rows: Vec<u64>,
}

impl Partition {
    /// Number of shards this collection was split into.
    pub fn shards(&self) -> usize {
        self.origins.len()
    }
}

/// Split one collection document into per-shard documents by the
/// declared key. Total: every row lands in exactly one shard (nulls and
/// unparseable range keys go to shard 0 via [`ShardSpec::shard_of`]),
/// and per-shard relative order is original document order.
pub fn partition_document(doc: &Arc<Document>, spec: &ShardSpec) -> (Vec<Arc<Document>>, Partition) {
    let root = doc.root();
    let root_name = root.name().unwrap_or("rows").to_string();
    let n = spec.shards();
    let mut builders: Vec<DocumentBuilder> =
        (0..n).map(|_| DocumentBuilder::new(&root_name)).collect();
    let mut origins: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, row) in root.child_elements().enumerate() {
        let k = spec.shard_of(&row_field(&row, &spec.key)).min(n - 1);
        builders[k].copy_subtree(&row);
        origins[k].push(i);
    }
    let docs = builders.into_iter().map(|b| b.finish()).collect();
    let rows = origins.iter().map(|o| o.len() as u64).collect();
    (
        docs,
        Partition {
            spec: spec.clone(),
            root_name,
            origins,
            rows,
        },
    )
}

/// Memoised scans a node keeps per slice (per collection it holds a
/// slice of), most recently used last. Two covers every suite in the
/// repository: a query mix rarely scans one collection under more
/// patterns than that, and a third pattern only costs a rebuild.
const MEMO_SCANS_PER_SLICE: usize = 2;

/// The tuples one `(slice document, row pattern, vars)` scan binds —
/// origin column first, then one column per variable — as a single
/// row-major block. Readers evaluate predicates against the shared rows
/// and copy out only the rows they keep.
pub(crate) struct ScanRows {
    collection: String,
    doc: Arc<Document>,
    pattern: Pattern,
    vars: Vec<String>,
    values: Vec<Value>,
}

impl ScanRows {
    /// The rows in slice order, each `vars.len() + 1` values wide.
    pub(crate) fn rows(&self) -> std::slice::ChunksExact<'_, Value> {
        self.values.chunks_exact(self.vars.len() + 1)
    }

    fn is_scan_of(&self, collection: &str, doc: &Arc<Document>, pattern: &Pattern, vars: &[String]) -> bool {
        Arc::ptr_eq(&self.doc, doc)
            && self.collection == collection
            && self.vars == vars
            && &self.pattern == pattern
    }
}

/// One shard-local engine instance: its own catalog (holding the shard
/// slices of every partitioned collection) and engine, a liveness flag
/// the partial-results machinery consults, and the scan memo over its
/// slices (owned here, so it dies with the cluster).
pub struct ShardNode {
    pub catalog: Arc<Catalog>,
    pub engine: Arc<Engine>,
    alive: AtomicBool,
    memo: Mutex<Vec<Arc<ScanRows>>>,
}

impl ShardNode {
    pub fn new(catalog: Arc<Catalog>, engine: Arc<Engine>) -> ShardNode {
        ShardNode {
            catalog,
            engine,
            alive: AtomicBool::new(true),
            memo: Mutex::new(Vec::new()),
        }
    }

    /// The rows `pattern` binds over `doc`, this node's slice of
    /// `collection` (its `source.collection` key) as the node's adapter
    /// just returned it: the memoised block when one was built from
    /// this very document (`true`), otherwise `build`'s (`false`).
    ///
    /// Identity, not time: an entry answers only for the `Arc` it was
    /// built from, so a re-registered slice is rebuilt and the entries
    /// of the document it replaced are dropped. A block is kept only
    /// while it holds no more values than the slice has nodes — a flat
    /// row pattern always fits, a multiplying one is rebuilt per scan —
    /// so the memo never outgrows the documents it shadows. The lock is
    /// released while `build` runs; two scans racing on a cold entry
    /// both build, and the first block in is the one kept.
    pub(crate) fn scan_rows(
        &self,
        collection: &str,
        doc: &Arc<Document>,
        pattern: &Pattern,
        vars: &[String],
        build: impl FnOnce() -> Vec<Value>,
    ) -> (Arc<ScanRows>, bool) {
        {
            let mut memo = self.memo.lock();
            if let Some(i) = memo
                .iter()
                .position(|e| e.is_scan_of(collection, doc, pattern, vars))
            {
                let hit = memo.remove(i);
                memo.push(Arc::clone(&hit));
                return (hit, true);
            }
        }
        let built = Arc::new(ScanRows {
            collection: collection.to_string(),
            doc: Arc::clone(doc),
            pattern: pattern.clone(),
            vars: vars.to_vec(),
            values: build(),
        });
        let mut memo = self.memo.lock();
        memo.retain(|e| e.collection != collection || Arc::ptr_eq(&e.doc, doc));
        let raced = memo
            .iter()
            .any(|e| e.is_scan_of(collection, doc, pattern, vars));
        if !raced && built.values.len() <= doc.len() {
            let of_slice = |e: &Arc<ScanRows>| e.collection == collection;
            if memo.iter().filter(|e| of_slice(e)).count() >= MEMO_SCANS_PER_SLICE {
                if let Some(oldest) = memo.iter().position(of_slice) {
                    memo.remove(oldest);
                }
            }
            memo.push(Arc::clone(&built));
        }
        (built, false)
    }

    /// Values the scan memo holds right now.
    pub fn memo_values(&self) -> usize {
        self.memo.lock().iter().map(|e| e.values.len()).sum()
    }

    pub fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    pub fn set_alive(&self, alive: bool) {
        self.alive.store(alive, Ordering::SeqCst);
    }
}

/// Everything the coordinator engine needs to route scans over
/// partitioned collections. Attached to an [`Engine`] via
/// [`Engine::attach_shards`]; plans compiled against it stamp the map
/// epoch so re-sharding invalidates them.
pub struct ShardRuntime {
    map: ShardMap,
    parts: BTreeMap<String, Partition>,
    nodes: Vec<ShardNode>,
}

impl ShardRuntime {
    pub fn new(nodes: Vec<ShardNode>) -> ShardRuntime {
        ShardRuntime {
            map: ShardMap::new(),
            parts: BTreeMap::new(),
            nodes,
        }
    }

    /// Record a partitioned collection (keyed `source.collection`).
    /// Declares the spec in the shard map, advancing its epoch.
    pub fn add_partition(&mut self, collection: impl Into<String>, part: Partition) {
        let collection = collection.into();
        self.map.declare(collection.clone(), part.spec.clone());
        self.parts.insert(collection, part);
    }

    /// The declared shard map (specs + epoch).
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The partitioning of `source.collection`, if declared.
    pub fn partition(&self, collection: &str) -> Option<&Partition> {
        self.parts.get(collection)
    }

    /// Shard-local node `k`.
    pub fn node(&self, k: usize) -> Option<&ShardNode> {
        self.nodes.get(k)
    }

    /// Number of shard-local nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Liveness of node `k` (missing nodes are dead).
    pub fn alive(&self, k: usize) -> bool {
        self.nodes.get(k).is_some_and(ShardNode::alive)
    }

    /// Mark node `k` up or down (down nodes degrade queries over their
    /// shards to annotated partial answers).
    pub fn set_alive(&self, k: usize, alive: bool) {
        if let Some(n) = self.nodes.get(k) {
            n.set_alive(alive);
        }
    }

    /// Shard-map epoch, folded into plan-cache stamps.
    pub fn epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// Values held by every node's scan memo.
    pub fn memo_values(&self) -> usize {
        self.nodes.iter().map(ShardNode::memo_values).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_xml::parse;

    fn doc(xml: &str) -> Arc<Document> {
        parse(xml).expect("test doc")
    }

    #[test]
    fn partition_is_total_and_order_preserving() {
        let d = doc(
            "<items><item><id>1</id></item><item><id>2</id></item>\
             <item><id>3</id></item><item><id>4</id></item><item><id>5</id></item></items>",
        );
        let spec = ShardSpec::range("id", vec![3.0]);
        let (docs, part) = partition_document(&d, &spec);
        assert_eq!(docs.len(), 2);
        assert_eq!(part.root_name, "items");
        assert_eq!(part.rows, vec![2, 3]);
        // Shard 0: ids 1,2 (origins 0,1); shard 1: ids 3,4,5 (2,3,4).
        assert_eq!(part.origins[0], vec![0, 1]);
        assert_eq!(part.origins[1], vec![2, 3, 4]);
        let ids: Vec<String> = docs[1]
            .root()
            .child_elements()
            .map(|r| row_field(&r, "id").lexical())
            .collect();
        assert_eq!(ids, vec!["3", "4", "5"]);
        // Every row landed exactly once.
        let total: usize = part.origins.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn hash_partition_co_locates_equal_keys() {
        let d = doc(
            "<orders><order><cust>a</cust></order><order><cust>b</cust></order>\
             <order><cust>a</cust></order></orders>",
        );
        let spec = ShardSpec::hash("cust", 4);
        let (docs, part) = partition_document(&d, &spec);
        assert_eq!(docs.len(), 4);
        let a_shard = spec.shard_of(&nimble_xml::Atomic::Str("a".into()));
        assert!(part.origins[a_shard].contains(&0));
        assert!(part.origins[a_shard].contains(&2));
    }

    #[test]
    fn scan_memo_answers_by_identity_and_stays_bounded() {
        let catalog = Arc::new(Catalog::new());
        let node = ShardNode::new(Arc::clone(&catalog), Arc::new(Engine::new(catalog)));
        let pattern = |text: &str| -> Pattern {
            let q = format!(r#"WHERE {} IN "x" CONSTRUCT <o/>"#, text);
            let (query, _) = nimble_xmlql::compile(&q).expect("test query");
            match &query.conditions[0] {
                nimble_xmlql::ast::Condition::Pattern(pb) => pb.pattern.clone(),
                other => panic!("not a pattern: {:?}", other),
            }
        };
        let slice = doc("<items><item><id>1</id></item><item><id>2</id></item></items>");
        let vars = vec!["i".to_string()];
        let block = |n: usize| (0..n).map(|i| Value::from(i as i64)).collect::<Vec<_>>();
        let (a, b, c) = (
            pattern("<item><id>$i</id></item>"),
            pattern("<item>$i</item>"),
            pattern("<item><id>$i</id></item> ELEMENT_AS $e"),
        );
        let scan = |p: &Pattern, d: &Arc<Document>, n: usize| {
            let mut built = false;
            let (rows, hit) = node.scan_rows("s.items", d, p, &vars, || {
                built = true;
                block(n)
            });
            assert_eq!(hit, !built, "a hit never builds, a miss always does");
            (rows.rows().count(), hit)
        };
        // Built once, then shared.
        assert_eq!(scan(&a, &slice, 4), (2, false));
        assert_eq!(scan(&a, &slice, 4), (2, true));
        // Two patterns per slice; the third evicts the least recently
        // used (b: a was touched after b went in).
        assert_eq!(scan(&b, &slice, 4), (2, false));
        assert_eq!(scan(&a, &slice, 4), (2, true));
        assert_eq!(scan(&c, &slice, 4), (2, false));
        assert_eq!(node.memo_values(), 8);
        assert_eq!(scan(&a, &slice, 4), (2, true));
        assert_eq!(scan(&b, &slice, 4), (2, false));
        // Another collection's slice has its own two.
        let (rows, hit) = node.scan_rows("s.other", &slice, &a, &vars, || block(2));
        assert!(!hit && rows.rows().count() == 1);
        assert_eq!(node.memo_values(), 10);
        // A block with more values than the slice has nodes (7) is
        // used, not kept.
        assert_eq!(scan(&c, &slice, 8), (4, false));
        assert_eq!(scan(&c, &slice, 8), (4, false));
        // An equal document behind another `Arc` is another slice: the
        // old entries go, nothing stale is served.
        let replaced = doc("<items><item><id>1</id></item><item><id>2</id></item></items>");
        assert_eq!(scan(&a, &replaced, 4), (2, false));
        assert_eq!(node.memo_values(), 4 + 2, "s.items' old entries dropped, s.other's kept");
        assert_eq!(scan(&a, &replaced, 4), (2, true));
    }

    #[test]
    fn runtime_tracks_liveness_and_epoch() {
        let mut rt = ShardRuntime::new(Vec::new());
        assert_eq!(rt.epoch(), 0);
        assert!(!rt.alive(0), "missing nodes are dead");
        let d = doc("<items><item><id>1</id></item></items>");
        let spec = ShardSpec::hash("id", 2);
        let (_, part) = partition_document(&d, &spec);
        rt.add_partition("src.items", part);
        assert!(rt.epoch() > 0);
        assert_eq!(rt.partition("src.items").map(Partition::shards), Some(2));
        assert!(rt.map().get("src.items").is_some());
    }
}
