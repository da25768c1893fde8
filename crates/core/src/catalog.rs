//! The metadata server: source registry and mediated schemas.
//!
//! "The metadata server contains the mappings that allow XML-QL to be
//! split apart and translated appropriately; mappings are set via the
//! management tools." A mediated schema here is a set of named **views**,
//! each defined by an XML-QL query over source collections *or over other
//! views* — "these schemas can be built in a hierachical fasion",
//! enabling incremental integration across an organization.

use crate::error::CoreError;
use nimble_sources::query::{row_field, rows_of};
use nimble_sources::{CollectionInfo, SourceAdapter, SourceQuery, Watermark};
use nimble_store::stats::SampleBuilder;
use nimble_store::{LogicalClock, SampleMark, StatsCatalog};
use nimble_xmlql::ast::Query;
use nimble_trace::sync::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How many rows of each collection registration-time seeding samples.
const SAMPLE_ROWS: usize = 256;

/// A named view over the mediated schema.
#[derive(Clone)]
pub struct ViewDef {
    pub name: String,
    /// Original XML-QL text (kept for refresh and display).
    pub text: String,
    /// Parsed and checked query.
    pub query: Arc<Query>,
    /// Default TTL (logical ticks) when this view is materialized.
    pub default_ttl: Option<u64>,
}

/// What a collection name resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolved {
    /// A mediated view.
    View(String),
    /// A concrete source collection.
    Collection { source: String, collection: String },
}

/// The shared registry of sources and views.
#[derive(Default)]
pub struct Catalog {
    sources: RwLock<BTreeMap<String, Arc<dyn SourceAdapter>>>,
    views: RwLock<BTreeMap<String, ViewDef>>,
    /// Catalog epoch: advanced on every registration/definition change,
    /// and when [`Catalog::note_source_mutation`] has to re-sample a
    /// collection. The engine's plan cache keys on it so schema changes
    /// evict cached plans.
    epoch: LogicalClock,
    /// Collection statistics for cost-based planning.
    stats: StatsCatalog,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a source adapter under its own name. Seeds collection
    /// statistics with a cheap sample (errors from unreachable sources
    /// are swallowed — stats are advisory) and bumps the epoch.
    pub fn register_source(&self, adapter: Arc<dyn SourceAdapter>) -> Result<(), CoreError> {
        let name = adapter.name().to_string();
        {
            let mut sources = self.sources.write();
            if sources.contains_key(&name) {
                return Err(CoreError::Catalog(format!(
                    "source {:?} already registered",
                    name
                )));
            }
            sources.insert(name.clone(), adapter.clone());
        }
        for info in adapter.collections() {
            self.sample_collection(&format!("{}.{}", name, info.name), adapter.as_ref(), &info);
        }
        self.epoch.advance(1);
        Ok(())
    }

    /// Drop a source; true if it existed. Drops its statistics and bumps
    /// the epoch.
    pub fn unregister_source(&self, name: &str) -> bool {
        let existed = self.sources.write().remove(name).is_some();
        if existed {
            self.stats.remove_prefix(&format!("{}.", name));
            self.epoch.advance(1);
        }
        existed
    }

    /// Current catalog epoch (monotone; advanced on every change that
    /// can invalidate a compiled plan).
    pub fn epoch(&self) -> u64 {
        self.epoch.now()
    }

    /// The collection-statistics catalog.
    pub fn stats(&self) -> &StatsCatalog {
        &self.stats
    }

    /// Tell the catalog that `source`'s data changed underneath it
    /// (rows added out of band). Each collection's statistics are brought
    /// up to date one of two ways, counted in
    /// [`nimble_store::stats::StatsActivity`]:
    ///
    /// * **appended** — the collection's sample was full and stamped, and
    ///   one floored probe proves the collection only grew since
    ///   ([`Catalog::continue_sample`]). Its first rows are the ones
    ///   sampled, so the statistics are re-extrapolated to the new length;
    ///   the statistics generation moves only on a material change and the
    ///   epoch does not move.
    /// * **resampled** — anything else: the collection is sampled afresh,
    ///   which moves the generation, and the epoch advances so cached plans
    ///   are re-planned.
    pub fn note_source_mutation(&self, source: &str) {
        let Some(adapter) = self.source(source) else {
            self.epoch.advance(1);
            return;
        };
        let mut resampled = false;
        for info in adapter.collections() {
            let key = format!("{}.{}", source, info.name);
            if !self.continue_sample(&key, adapter.as_ref(), &info) {
                self.sample_collection(&key, adapter.as_ref(), &info);
                self.stats.note_resample();
                resampled = true;
            }
        }
        if resampled {
            self.epoch.advance(1);
        }
    }

    /// The appended road of [`Catalog::note_source_mutation`]: true when
    /// `key`'s statistics were continued over the rows appended since its
    /// sample was read, false (and nothing changed) when it declines. It
    /// is taken only when
    ///
    /// * the stored sample is stamped ([`SampleMark`]),
    /// * it is full and did not see the whole collection: a short sample
    ///   would need its accumulators to take more rows in, and an
    ///   exhaustive one gives the exact bounds `prune_unsat` proves
    ///   predicates empty with, which an appended row can break;
    /// * a probe floored at the mark, asking for no row, answers with a
    ///   watermark of the same generation that echoes the floor — the
    ///   proof that nothing but an append happened (DESIGN.md §21).
    fn continue_sample(&self, key: &str, adapter: &dyn SourceAdapter, info: &CollectionInfo) -> bool {
        let Some((stored, Some(mark))) = self.stats.get_sample(key) else {
            return false;
        };
        if stored.sampled != SAMPLE_ROWS as u64 || mark.upto <= SAMPLE_ROWS as u64 {
            return false;
        }
        let mut probe = SourceQuery::scan(&info.name, &[]);
        probe.after_row = Some(mark.upto);
        probe.limit = Some(0);
        match adapter.execute(&probe).ok().and_then(|doc| Watermark::of(&doc)) {
            Some(w) if w.generation == mark.generation && w.from == mark.upto && w.upto >= w.from => {
                let mark = SampleMark {
                    generation: w.generation,
                    upto: w.upto,
                };
                self.stats.append(key, stored.with_rows(w.upto), mark);
                true
            }
            _ => false,
        }
    }

    /// Sample one collection into the stats catalog under `key`. Any
    /// fetch error (e.g. a link that is down at registration) leaves that
    /// collection without statistics; planning falls back to defaults.
    ///
    /// Only the first [`SAMPLE_ROWS`] rows are looked at, so a source
    /// that takes row limits, lists its fields and knows its row count
    /// is asked for exactly those — one limited scan of the listed
    /// fields — instead of the whole collection. Same rows, same fields,
    /// same total: the statistics are the ones a full fetch would give.
    /// The scan is floored at row 0, which changes no row; a source that
    /// can say how long its collection is stamps the answer, and the
    /// stamp is kept beside the statistics for
    /// [`Catalog::continue_sample`].
    fn sample_collection(&self, key: &str, adapter: &dyn SourceAdapter, info: &CollectionInfo) {
        let limited = adapter.capabilities().limit;
        let fetched = if limited && !info.fields.is_empty() && info.estimated_rows.is_some() {
            let fields: Vec<(&str, &str)> = info
                .fields
                .iter()
                .map(|(f, _)| (f.as_str(), f.as_str()))
                .collect();
            let mut scan = SourceQuery::scan(&info.name, &fields);
            scan.limit = Some(SAMPLE_ROWS);
            scan.after_row = Some(0);
            adapter.execute(&scan)
        } else {
            adapter.fetch_collection(&info.name)
        };
        let doc = match fetched {
            Ok(doc) => doc,
            Err(_) => {
                // Unreachable source: keep the adapter's own estimate
                // if it has one, otherwise no entry at all.
                if let Some(rows) = info.estimated_rows {
                    self.stats.set(key, SampleBuilder::new().finish(rows));
                }
                return;
            }
        };
        let rows = rows_of(&doc);
        if rows.is_empty() && info.estimated_rows.is_none() {
            // Not row-shaped (native XML document) and no estimate:
            // better no entry than a misleading zero.
            return;
        }
        let total = info.estimated_rows.unwrap_or(rows.len() as u64);
        let mut b = SampleBuilder::new();
        for row in rows.iter().take(SAMPLE_ROWS) {
            b.add_row();
            if info.fields.is_empty() {
                for child in row.children() {
                    if let Some(f) = child.name() {
                        b.observe(f, &child.typed_value());
                    }
                }
            } else {
                for (field, _) in &info.fields {
                    b.observe(field, &row_field(row, field));
                }
            }
        }
        let mark = Watermark::of(&doc)
            .filter(|w| w.from == 0)
            .map(|w| SampleMark {
                generation: w.generation,
                upto: w.upto,
            });
        self.stats.set_sample(key, b.finish(total), mark);
    }

    /// Look up a source adapter.
    pub fn source(&self, name: &str) -> Option<Arc<dyn SourceAdapter>> {
        self.sources.read().get(name).cloned()
    }

    /// Names of all registered sources.
    pub fn source_names(&self) -> Vec<String> {
        self.sources.read().keys().cloned().collect()
    }

    /// Define (or replace) a mediated view from XML-QL text.
    pub fn define_view(
        &self,
        name: &str,
        text: &str,
        default_ttl: Option<u64>,
    ) -> Result<(), CoreError> {
        let (query, _info) = nimble_xmlql::compile(text)?;
        // Reject direct self-reference eagerly; transitive cycles are
        // caught at evaluation time with a depth guard.
        for source in referenced_names(&query) {
            if source == name {
                return Err(CoreError::CyclicView(name.to_string()));
            }
        }
        self.views.write().insert(
            name.to_string(),
            ViewDef {
                name: name.to_string(),
                text: text.to_string(),
                query: Arc::new(query),
                default_ttl,
            },
        );
        self.epoch.advance(1);
        Ok(())
    }

    /// Look up a view definition.
    pub fn view(&self, name: &str) -> Option<ViewDef> {
        self.views.read().get(name).cloned()
    }

    /// Names of all views.
    pub fn view_names(&self) -> Vec<String> {
        self.views.read().keys().cloned().collect()
    }

    /// Remove a view; true if it existed. Bumps the epoch and drops the
    /// view's observed statistics.
    pub fn drop_view(&self, name: &str) -> bool {
        let existed = self.views.write().remove(name).is_some();
        if existed {
            // Exact key: a prefix removal of "view:a" would also delete
            // the statistics of an unrelated view "ab".
            self.stats.remove(&format!("view:{}", name));
            self.epoch.advance(1);
        }
        existed
    }

    /// Resolve an `IN "name"` reference: views shadow collections;
    /// `source.collection` qualifies explicitly; a bare collection name
    /// must be unique across sources.
    pub fn resolve(&self, name: &str) -> Result<Resolved, CoreError> {
        if self.views.read().contains_key(name) {
            return Ok(Resolved::View(name.to_string()));
        }
        if let Some((source, collection)) = name.split_once('.') {
            let adapter = self
                .source(source)
                .ok_or_else(|| CoreError::UnknownCollection(name.to_string()))?;
            if adapter.collections().iter().any(|c| c.name == collection) {
                return Ok(Resolved::Collection {
                    source: source.to_string(),
                    collection: collection.to_string(),
                });
            }
            return Err(CoreError::UnknownCollection(name.to_string()));
        }
        let sources = self.sources.read();
        let mut owners = Vec::new();
        for (sname, adapter) in sources.iter() {
            if adapter.collections().iter().any(|c| c.name == name) {
                owners.push(sname.clone());
            }
        }
        match owners.pop() {
            None => Err(CoreError::UnknownCollection(name.to_string())),
            Some(source) if owners.is_empty() => Ok(Resolved::Collection {
                source,
                collection: name.to_string(),
            }),
            Some(last) => {
                owners.push(last);
                Err(CoreError::AmbiguousCollection {
                    name: name.to_string(),
                    sources: owners,
                })
            }
        }
    }
}

/// Every `IN "name"` reference anywhere in a query, including nested
/// subqueries, each once, in first-reference order.
pub fn referenced_names(query: &Query) -> Vec<&str> {
    fn walk<'q>(query: &'q Query, out: &mut Vec<&'q str>) {
        use nimble_xmlql::ast::{Condition, SourceRef};
        for c in &query.conditions {
            if let Condition::Pattern(pb) = c {
                if let SourceRef::Named(n) = &pb.source {
                    if !out.contains(&n.as_str()) {
                        out.push(n);
                    }
                }
            }
        }
        for sub in query.construct.subqueries() {
            walk(sub, out);
        }
    }
    let mut out = Vec::new();
    walk(query, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_sources::xmldoc::XmlDocAdapter;
    use nimble_xml::{Atomic, OrderKey};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register_source(Arc::new(
            XmlDocAdapter::new("feeds")
                .add_xml("bib", "<bib/>")
                .unwrap()
                .add_xml("news", "<news/>")
                .unwrap(),
        ))
        .unwrap();
        c.register_source(Arc::new(
            XmlDocAdapter::new("other").add_xml("news", "<news/>").unwrap(),
        ))
        .unwrap();
        c
    }

    #[test]
    fn resolution_rules() {
        let c = catalog();
        assert_eq!(
            c.resolve("bib").unwrap(),
            Resolved::Collection {
                source: "feeds".into(),
                collection: "bib".into()
            }
        );
        assert!(matches!(
            c.resolve("news"),
            Err(CoreError::AmbiguousCollection { .. })
        ));
        assert_eq!(
            c.resolve("other.news").unwrap(),
            Resolved::Collection {
                source: "other".into(),
                collection: "news".into()
            }
        );
        assert!(matches!(
            c.resolve("nothere"),
            Err(CoreError::UnknownCollection(_))
        ));
    }

    #[test]
    fn views_shadow_collections() {
        let c = catalog();
        c.define_view("bib", r#"WHERE <bib>$x</bib> IN "feeds.bib" CONSTRUCT <v>$x</v>"#, None)
            .unwrap();
        assert_eq!(c.resolve("bib").unwrap(), Resolved::View("bib".into()));
    }

    #[test]
    fn view_with_surface_type_error_rejected_at_define_time() {
        let c = catalog();
        // `$x + "abc"` can never be numeric: rejected at DEFINE VIEW
        // time with the operator's position, not on the first query.
        let err = c
            .define_view(
                "bad",
                "WHERE <bib>$x</bib> IN \"feeds.bib\",\n  $x + \"abc\" > 0\nCONSTRUCT <v>$x</v>",
                None,
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("type error at line 2"), "{}", msg);
        assert!(msg.contains("\"abc\""), "{}", msg);
        // The failed definition must not register the view.
        assert!(matches!(c.resolve("bad"), Err(CoreError::UnknownCollection(_))));
        // A clean definition on the same name still works.
        c.define_view("bad", r#"WHERE <bib>$x</bib> IN "feeds.bib" CONSTRUCT <v>$x</v>"#, None)
            .unwrap();
        assert_eq!(c.resolve("bad").unwrap(), Resolved::View("bad".into()));
    }

    #[test]
    fn self_referential_view_rejected() {
        let c = catalog();
        let err = c
            .define_view("loop", r#"WHERE <x>$v</x> IN "loop" CONSTRUCT <y>$v</y>"#, None)
            .unwrap_err();
        assert!(matches!(err, CoreError::CyclicView(_)));
    }

    #[test]
    fn duplicate_source_rejected() {
        let c = catalog();
        let dup = Arc::new(XmlDocAdapter::new("feeds"));
        assert!(matches!(
            c.register_source(dup),
            Err(CoreError::Catalog(_))
        ));
    }

    #[test]
    fn registration_seeds_stats_and_bumps_epoch() {
        use nimble_sources::relational::RelationalAdapter;
        let c = Catalog::new();
        assert_eq!(c.epoch(), 0);
        let adapter = RelationalAdapter::from_statements(
            "crm",
            &[
                "CREATE TABLE customers (id INTEGER, region TEXT)",
                "INSERT INTO customers VALUES (1, 'east')",
                "INSERT INTO customers VALUES (2, 'east')",
                "INSERT INTO customers VALUES (3, 'west')",
                "INSERT INTO customers VALUES (4, 'west')",
            ],
        )
        .unwrap();
        c.register_source(Arc::new(adapter)).unwrap();
        assert_eq!(c.epoch(), 1);

        let stats = c.stats().get("crm.customers").expect("seeded stats");
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.distinct("id"), Some(4));
        let id = &stats.columns["id"];
        assert_eq!((&id.min, &id.max), (&Some(Atomic::Int(1)), &Some(Atomic::Int(4))));
        assert!(stats.columns.contains_key("region"));

        // The epoch moves on registration, definition and re-sampling
        // only. Four rows are an exhaustive sample: a mutation re-samples.
        let gen = c.stats().generation();
        c.note_source_mutation("crm");
        assert_eq!(c.epoch(), 2);
        assert!(c.stats().generation() > gen);

        // A collection past its full sample that only grew is continued:
        // neither the epoch nor the generation moves for ten rows.
        let billing = Arc::new(
            RelationalAdapter::from_statements("billing", &["CREATE TABLE orders (oid INT, total FLOAT)"]).unwrap(),
        );
        let insert = |from: usize, n: usize| {
            let rows: Vec<String> = (from..from + n).map(|o| format!("({}, {}.5)", o, o % 90)).collect();
            let sql = format!("INSERT INTO orders VALUES {}", rows.join(", "));
            billing.database().write().execute(&sql).unwrap();
        };
        insert(0, 300);
        c.register_source(billing.clone()).unwrap();
        assert_eq!(c.epoch(), 3);
        insert(300, 10);
        let gen = c.stats().generation();
        c.note_source_mutation("billing");
        assert_eq!((c.epoch(), c.stats().generation()), (3, gen));
        assert_eq!(c.stats().rows("billing.orders"), Some(310));
        let activity = c.stats().activity();
        assert_eq!((activity.appended, activity.resampled), (1, 1));

        c.unregister_source("crm");
        assert_eq!(c.epoch(), 4);
        assert!(c.stats().get("crm.customers").is_none());
    }

    /// Answers every call honestly and stamps it as read from row 0,
    /// whatever floor was asked: an echo that is right for the
    /// registration sample and wrong for every later probe.
    struct FromZero {
        inner: Arc<dyn SourceAdapter>,
    }

    impl SourceAdapter for FromZero {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn kind(&self) -> nimble_sources::SourceKind {
            self.inner.kind()
        }
        fn capabilities(&self) -> nimble_sources::Capabilities {
            self.inner.capabilities()
        }
        fn collections(&self) -> Vec<CollectionInfo> {
            self.inner.collections()
        }
        fn execute(
            &self,
            query: &SourceQuery,
        ) -> Result<Arc<nimble_xml::Document>, nimble_sources::SourceError> {
            let doc = self.inner.execute(query)?;
            Ok(match Watermark::of(&doc) {
                Some(w) => {
                    let mut again = nimble_xml::DocumentBuilder::reopen(&doc, 0);
                    again.stamp([w.generation, 0, w.upto]);
                    again.finish()
                }
                None => doc,
            })
        }
        fn fetch_collection(
            &self,
            name: &str,
        ) -> Result<Arc<nimble_xml::Document>, nimble_sources::SourceError> {
            self.inner.fetch_collection(name)
        }
        fn estimated_rows(&self, collection: &str) -> Option<u64> {
            self.inner.estimated_rows(collection)
        }
    }

    /// The appended road against its reference: after every mutation,
    /// every collection's statistics and sample stamp are those a fresh
    /// catalog registering the same databases reads, the road taken is
    /// the one its three conditions predict, and the generation moves
    /// exactly once per re-sample and per material growth.
    #[test]
    fn a_continued_sample_is_a_fresh_registration() {
        use nimble_sources::csv::CsvAdapter;
        use nimble_sources::relational::RelationalAdapter;
        use nimble_trace::rng::{sweep, Rng};

        let mut roads = [0usize; 3]; // appended, resampled, material
        sweep(96, |rng| {
            // `erp` answers honestly; `ops` through `FromZero`; `files` is
            // a CSV file, which stamps nothing.
            let erp = Arc::new(RelationalAdapter::from_statements("erp", &[]).unwrap());
            let ops = Arc::new(RelationalAdapter::from_statements("ops", &[]).unwrap());
            let dbs = [&erp, &ops];
            let mut serial = 0u64;
            let mut grow = |db: &RelationalAdapter, table: &str, n: usize, rng: &mut Rng| {
                if n == 0 {
                    return;
                }
                let rows: Vec<String> = (0..n)
                    .map(|_| {
                        serial += 1;
                        let grp = match rng.below(5) {
                            0 => "NULL".to_string(),
                            g => format!("'g{}'", g),
                        };
                        format!("({}, {}, {}.5)", serial, grp, rng.below(150))
                    })
                    .collect();
                let sql = format!("INSERT INTO {} VALUES {}", table, rows.join(", "));
                db.database().write().execute(&sql).unwrap();
            };
            let create = |db: &RelationalAdapter, table: &str| {
                let sql = format!("CREATE TABLE {} (id INT, grp TEXT, v FLOAT)", table);
                db.database().write().execute(&sql).unwrap();
            };
            for (db, table) in [(&erp, "t0"), (&erp, "t1"), (&ops, "t0")] {
                create(db, table);
                grow(db, table, rng.below(601), rng);
            }
            let register = |c: &Catalog| {
                c.register_source(Arc::new(RelationalAdapter::new("erp", erp.database()))).unwrap();
                c.register_source(Arc::new(FromZero {
                    inner: Arc::new(RelationalAdapter::new("ops", ops.database())),
                }))
                .unwrap();
                c.register_source(Arc::new(
                    CsvAdapter::new("files").add_csv("leads", "name,score\na,1\nb,2\nc,2\n").unwrap(),
                ))
                .unwrap();
            };
            let c = Catalog::new();
            register(&c);
            let mut tables = vec![("erp", "t0"), ("erp", "t1"), ("ops", "t0")];
            for step in 0..10 {
                let (source, action) = match rng.below(10) {
                    0 => ("files", "note"),
                    1 => ("erp", "index"),
                    2 => ("erp", "create"),
                    3 => ("ops", "table_mut"),
                    _ => {
                        let (source, table) = *rng.pick(&tables);
                        let db = dbs[usize::from(source == "ops")];
                        let n = match rng.below(6) {
                            0 => 0,
                            1 => 200 + rng.below(600),
                            _ => 1 + rng.below(40),
                        };
                        grow(db, table, n, rng);
                        (source, "insert")
                    }
                };
                match action {
                    "index" => {
                        // The first time creates the index, later times
                        // drop and re-create it: the schema moves, no row.
                        let db = erp.database();
                        let _ = db.write().execute("DROP INDEX ON t1 (id)");
                        db.write().execute("CREATE INDEX ON t1 (id)").unwrap();
                    }
                    "create" => {
                        let table = ["t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11"][step];
                        create(&erp, table);
                        grow(&erp, table, rng.below(400), rng);
                        tables.push(("erp", table));
                    }
                    "table_mut" => {
                        ops.database().write().table_mut("t0");
                    }
                    _ => {}
                }
                // What each collection of `source` should do: the three
                // conditions, read off the stored entry and the database.
                let db = match source {
                    "erp" => Some(&erp),
                    "ops" => Some(&ops),
                    _ => None,
                };
                let adapter = c.source(source).unwrap();
                let mut predicted = Vec::new();
                for info in adapter.collections() {
                    let key = format!("{}.{}", source, info.name);
                    let appends = match (c.stats().get_sample(&key), db) {
                        (Some((stats, Some(mark))), Some(db)) => {
                            source == "erp"
                                && stats.sampled == SAMPLE_ROWS as u64
                                && mark.upto > SAMPLE_ROWS as u64
                                && mark.generation == db.database().read().generation()
                        }
                        _ => false,
                    };
                    let before = c.stats().rows(&key).unwrap_or(0);
                    let after = info.estimated_rows.unwrap_or(0);
                    let material = after > before.saturating_mul(2) && after - before > 16;
                    predicted.push((key, appends, material));
                }
                let (gen, epoch, activity) = (c.stats().generation(), c.epoch(), c.stats().activity());
                c.note_source_mutation(source);

                let context = format!("step {} {} {}", step, source, action);
                let appended = predicted.iter().filter(|p| p.1).count();
                let resampled = predicted.len() - appended;
                let material = predicted.iter().filter(|p| p.1 && p.2).count();
                let now = c.stats().activity();
                assert_eq!(
                    (now.appended - activity.appended, now.resampled - activity.resampled),
                    (appended as u64, resampled as u64),
                    "{} {:?}",
                    context,
                    predicted
                );
                assert_eq!(c.stats().generation() - gen, (resampled + material) as u64, "{}", context);
                assert_eq!(c.epoch() - epoch, u64::from(resampled > 0), "{}", context);
                roads[0] += appended;
                roads[1] += resampled;
                roads[2] += material;

                let fresh = Catalog::new();
                register(&fresh);
                for (key, ..) in &predicted {
                    assert_eq!(c.stats().get_sample(key), fresh.stats().get_sample(key), "{} {}", context, key);
                }
            }
        });
        // Both roads, and both kinds of growth on the appended one.
        println!("appended {}, resampled {}, material {}", roads[0], roads[1], roads[2]);
        assert!(roads.iter().all(|&n| n >= 20), "{:?}", roads);
    }

    /// Pass-through adapter that can hide the inner source's `limit`
    /// capability (forcing the whole-collection sampling path) and
    /// records the largest row count any one call shipped.
    struct Watched {
        inner: Arc<dyn SourceAdapter>,
        advertise_limit: bool,
        max_rows_shipped: std::sync::atomic::AtomicUsize,
    }

    impl Watched {
        fn new(inner: Arc<dyn SourceAdapter>, advertise_limit: bool) -> Arc<Watched> {
            Arc::new(Watched {
                inner,
                advertise_limit,
                max_rows_shipped: Default::default(),
            })
        }

        fn shipped(
            &self,
            doc: Result<Arc<nimble_xml::Document>, nimble_sources::SourceError>,
        ) -> Result<Arc<nimble_xml::Document>, nimble_sources::SourceError> {
            if let Ok(d) = &doc {
                self.max_rows_shipped
                    .fetch_max(rows_of(d).len(), std::sync::atomic::Ordering::Relaxed);
            }
            doc
        }
    }

    impl SourceAdapter for Watched {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn kind(&self) -> nimble_sources::SourceKind {
            self.inner.kind()
        }
        fn capabilities(&self) -> nimble_sources::Capabilities {
            nimble_sources::Capabilities {
                limit: self.advertise_limit,
                ..self.inner.capabilities()
            }
        }
        fn collections(&self) -> Vec<nimble_sources::CollectionInfo> {
            self.inner.collections()
        }
        fn execute(
            &self,
            query: &SourceQuery,
        ) -> Result<Arc<nimble_xml::Document>, nimble_sources::SourceError> {
            self.shipped(self.inner.execute(query))
        }
        fn fetch_collection(
            &self,
            name: &str,
        ) -> Result<Arc<nimble_xml::Document>, nimble_sources::SourceError> {
            self.shipped(self.inner.fetch_collection(name))
        }
        fn estimated_rows(&self, collection: &str) -> Option<u64> {
            self.inner.estimated_rows(collection)
        }
    }

    #[test]
    fn limited_sampling_yields_the_statistics_of_a_full_fetch() {
        use nimble_sources::relational::RelationalAdapter;
        use std::sync::atomic::Ordering;
        // `big` outgrows the sample (partial, so no exact bounds);
        // `small` fits inside it (exhaustive: the verdict prune_unsat
        // relies on). A NULL and repeated regions exercise the
        // per-field accumulators.
        let mut statements = vec![
            "CREATE TABLE big (id INTEGER, region TEXT, total FLOAT)".to_string(),
            "CREATE TABLE small (id INTEGER, score INTEGER)".to_string(),
        ];
        for i in 0..(SAMPLE_ROWS + 44) {
            let region = if i % 7 == 0 { "NULL".to_string() } else { format!("'r{}'", i % 5) };
            statements.push(format!(
                "INSERT INTO big VALUES ({}, {}, {}.5)",
                i, region, (i * 37) % 300
            ));
        }
        for i in 0..100 {
            statements.push(format!("INSERT INTO small VALUES ({}, {})", i, 1000 - i));
        }
        let statements: Vec<&str> = statements.iter().map(String::as_str).collect();
        let db: Arc<dyn SourceAdapter> =
            Arc::new(RelationalAdapter::from_statements("crm", &statements).unwrap());

        let full = Catalog::new();
        let full_adapter = Watched::new(Arc::clone(&db), false);
        full.register_source(full_adapter.clone()).unwrap();
        let limited = Catalog::new();
        let limited_adapter = Watched::new(Arc::clone(&db), true);
        limited.register_source(limited_adapter.clone()).unwrap();

        for key in ["crm.big", "crm.small"] {
            let want = full.stats().get(key).expect("full-fetch stats");
            assert_eq!(limited.stats().get(key).as_ref(), Some(&want), "{}", key);
            assert!(!want.columns.is_empty(), "{} sampled no columns", key);
        }
        assert!(!limited.stats().get("crm.big").unwrap().exhaustive());
        assert_eq!(limited.stats().exact_bounds("crm.big", "id"), None);
        assert!(limited.stats().get("crm.small").unwrap().exhaustive());
        assert_eq!(
            limited.stats().exact_bounds("crm.small", "score"),
            Some((OrderKey::Int(901), OrderKey::Int(1000)))
        );
        // The whole-collection path shipped the table to look at its
        // head; the limited path never shipped more than the sample.
        assert_eq!(
            full_adapter.max_rows_shipped.load(Ordering::Relaxed),
            SAMPLE_ROWS + 44
        );
        assert!(limited_adapter.max_rows_shipped.load(Ordering::Relaxed) <= SAMPLE_ROWS);

        // Re-sampling after an out-of-band mutation takes the same path.
        limited.note_source_mutation("crm");
        full.note_source_mutation("crm");
        assert_eq!(limited.stats().get("crm.big"), full.stats().get("crm.big"));
        assert!(limited_adapter.max_rows_shipped.load(Ordering::Relaxed) <= SAMPLE_ROWS);
    }

    #[test]
    fn native_xml_source_registers_with_count_only_stats() {
        // XmlDocAdapter collections are native XML documents, not
        // row-shaped: registration keeps the adapter's own row estimate
        // (child-element count) but samples no columns.
        let c = catalog();
        let stats = c.stats().get("feeds.bib").expect("estimate recorded");
        assert_eq!(stats.rows, 0); // <bib/> has no child elements
        assert!(stats.columns.is_empty());
        assert!(c.epoch() >= 1);
    }

    #[test]
    fn drop_view_keeps_prefix_sibling_stats() {
        use nimble_store::stats::CollectionStats;
        let c = catalog();
        c.define_view("a", r#"WHERE <bib>$x</bib> IN "feeds.bib" CONSTRUCT <v>$x</v>"#, None)
            .unwrap();
        c.define_view("ab", r#"WHERE <bib>$x</bib> IN "feeds.bib" CONSTRUCT <v>$x</v>"#, None)
            .unwrap();
        c.stats().set("view:a", CollectionStats { rows: 5, ..CollectionStats::default() });
        c.stats().set("view:ab", CollectionStats { rows: 9, ..CollectionStats::default() });
        assert!(c.drop_view("a"));
        assert!(c.stats().get("view:a").is_none());
        // "view:ab" starts with "view:a" but belongs to a different view.
        assert_eq!(c.stats().rows("view:ab"), Some(9));
    }

    #[test]
    fn referenced_names_includes_subqueries() {
        let (q, _) = nimble_xmlql::compile(
            r#"WHERE <a/> ELEMENT_AS $e IN "top"
               CONSTRUCT <o>
                 WHERE <b>$x</b> IN "nested" CONSTRUCT <i>$x</i>
               </o>"#,
        )
        .unwrap();
        assert_eq!(referenced_names(&q), vec!["top", "nested"]);
    }
}
