//! The data administrator sub-system.
//!
//! "Even though our main architecture is built on a federated integration
//! model, this alone is not always sufficient for all needs. Thus we
//! support a compound architecture that includes offline data
//! manipulation and replication as well, using our data administrator
//! sub-system."
//!
//! [`DataAdministrator`] implements exactly that compound piece:
//!
//! * **replication** — materialize a mediated view locally (delegating to
//!   the engine's store), and
//! * **offline data manipulation** — run a declarative
//!   [`CleaningFlow`] over a view's *replica* and store the cleaned
//!   snapshot as its own named, refreshable view. The sources stay
//!   untouched (cleaning in integration "leaves the source data
//!   unchanged"); only the local replica is manipulated.

use nimble_cleaning::{CleaningFlow, LineageLog, Record};
use nimble_core::{CoreError, Engine};
use nimble_xml::{Document, DocumentBuilder, NodeRef};
use nimble_trace::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Administers offline replicas of mediated views.
pub struct DataAdministrator {
    engine: Arc<Engine>,
    /// Cleaned-replica registry: replica name → (origin view, flow).
    replicas: Mutex<BTreeMap<String, (String, CleaningFlow)>>,
    /// Shared lineage for all offline manipulation.
    lineage: Mutex<LineageLog>,
}

impl DataAdministrator {
    pub fn new(engine: Arc<Engine>) -> DataAdministrator {
        DataAdministrator {
            engine,
            replicas: Mutex::new(BTreeMap::new()),
            lineage: Mutex::new(LineageLog::new()),
        }
    }

    /// Replicate a view locally (plain materialization).
    pub fn replicate(&self, view: &str, ttl: Option<u64>) -> Result<(), CoreError> {
        self.engine.materialize_view(view, ttl)
    }

    /// Create (or refresh) a *cleaned replica*: evaluate `origin_view`,
    /// run the flow over its records offline, and store the result as
    /// the queryable view `replica_name`.
    pub fn materialize_cleaned(
        &self,
        origin_view: &str,
        flow: &CleaningFlow,
        replica_name: &str,
        ttl: Option<u64>,
    ) -> Result<usize, CoreError> {
        let def = self
            .engine
            .catalog()
            .view(origin_view)
            .ok_or_else(|| CoreError::UnknownCollection(origin_view.to_string()))?;

        // Evaluate the origin virtually through the public API: bind the
        // result root, then capture each entry element under it.
        let origin_query = format!(
            r#"WHERE <*>$x</> ELEMENT_AS $root IN "{}",
                     <*>$y</> ELEMENT_AS $e IN $root
               CONSTRUCT <keep>$e</keep>"#,
            origin_view
        );
        let result = self.engine.query(&origin_query)?;
        // Each <keep> wraps one original entry element.
        let entries: Vec<NodeRef> = result
            .document
            .root()
            .children_named("keep")
            .filter_map(|k| k.child_elements().next())
            .collect();

        // Offline manipulation: element leaves → records → flow → back.
        let mut records = records_from_entries(replica_name, &entries);
        let mut lineage = self.lineage.lock();
        flow.apply(&mut records, &mut lineage)
            .map_err(|e| CoreError::Exec(e.to_string()))?;
        drop(lineage);
        let tag = entries
            .first()
            .and_then(|e| e.name())
            .unwrap_or("row")
            .to_string();
        let doc = entries_from_records(&tag, &records);
        let count = records.len();

        // Register the replica so queries resolve it, then store the
        // cleaned snapshot. The catalog definition reuses the origin's
        // text: a TTL lapse falls back to *uncleaned* virtual data, so
        // admins re-run this method (or `refresh`) to re-clean.
        self.engine
            .catalog()
            .define_view(replica_name, &def.text, ttl)?;
        self.engine.views().materialize(
            replica_name,
            &def.text,
            doc,
            self.engine.clock().now(),
            ttl,
        );
        self.replicas
            .lock()
            .insert(replica_name.to_string(), (origin_view.to_string(), flow.clone()));
        Ok(count)
    }

    /// Re-run the cleaning flow for a registered replica.
    pub fn refresh(&self, replica_name: &str) -> Result<usize, CoreError> {
        let (origin, flow) = self
            .replicas
            .lock()
            .get(replica_name)
            .cloned()
            .ok_or_else(|| CoreError::UnknownCollection(replica_name.to_string()))?;
        let ttl = self
            .engine
            .views()
            .peek(replica_name)
            .and_then(|v| v.ttl);
        self.materialize_cleaned(&origin, &flow, replica_name, ttl)
    }

    /// Registered cleaned replicas: `(replica, origin, flow name)`.
    pub fn replicas(&self) -> Vec<(String, String, String)> {
        self.replicas
            .lock()
            .iter()
            .map(|(r, (o, f))| (r.clone(), o.clone(), f.name.clone()))
            .collect()
    }

    /// Offline-manipulation lineage entries so far.
    pub fn lineage_len(&self) -> usize {
        self.lineage.lock().len()
    }
}

/// Flatten view entries (`<cust><name>..</name>…</cust>`) into cleaning
/// records; leaf child elements become fields.
fn records_from_entries(source: &str, entries: &[NodeRef]) -> Vec<Record> {
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut r = Record::new(&format!("{}:{}", source, i), source);
            for c in e.child_elements() {
                if let Some(name) = c.name() {
                    r.set(name, c.text());
                }
            }
            r
        })
        .collect()
}

/// Rebuild a `<results>` document from cleaned records.
fn entries_from_records(tag: &str, records: &[Record]) -> Arc<Document> {
    let mut b = DocumentBuilder::new("results");
    for r in records {
        b.start_element(tag);
        for (k, v) in &r.fields {
            b.leaf(k, nimble_xml::Atomic::Str(v.clone()));
        }
        b.end_element();
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_cleaning::FlowStep;
    use nimble_core::Catalog;
    use nimble_sources::csv::CsvAdapter;
    use nimble_xml::to_string;

    fn setup() -> (Arc<Engine>, DataAdministrator) {
        let catalog = Catalog::new();
        catalog
            .register_source(Arc::new(
                CsvAdapter::new("hr")
                    .add_csv(
                        "people",
                        "pname,addr\n\"LOVELACE,  Ada\",\"123 Main St, Seattle, WA\"\n\
                         \"Dr. Grace Hopper\",\"1 Oak Ave, Portland, OR\"\n",
                    )
                    .unwrap(),
            ))
            .unwrap();
        catalog
            .define_view(
                "people_view",
                r#"WHERE <row><pname>$n</pname><addr>$a</addr></row> IN "people"
                   CONSTRUCT <person><name>$n</name><address>$a</address></person>"#,
                None,
            )
            .unwrap();
        let engine = Arc::new(Engine::new(Arc::new(catalog)));
        let admin = DataAdministrator::new(Arc::clone(&engine));
        (engine, admin)
    }

    fn flow() -> CleaningFlow {
        CleaningFlow::new("std")
            .step(FlowStep::Normalize {
                field: "name".into(),
                normalizer: "name".into(),
            })
            .step(FlowStep::Normalize {
                field: "address".into(),
                normalizer: "address".into(),
            })
    }

    #[test]
    fn cleaned_replica_is_queryable() {
        let (engine, admin) = setup();
        let n = admin
            .materialize_cleaned("people_view", &flow(), "people_clean", Some(100))
            .unwrap();
        assert_eq!(n, 2);
        // Queries against the replica see cleaned values, served locally.
        let r = engine
            .query(
                r#"WHERE <person><name>$n</name><address>$a</address></person> IN "people_clean"
                   CONSTRUCT <p><n>$n</n><a>$a</a></p> ORDER-BY $n"#,
            )
            .unwrap();
        assert_eq!(r.stats.source_calls, 0);
        assert_eq!(
            to_string(&r.document.root()),
            "<results>\
             <p><n>ada lovelace</n><a>123 main street seattle wa</a></p>\
             <p><n>grace hopper</n><a>1 oak avenue portland or</a></p>\
             </results>"
        );
        // Sources are untouched: the origin view still yields raw data.
        let raw = engine
            .query(
                r#"WHERE <person><name>$n</name></person> IN "people_view"
                   CONSTRUCT <p>$n</p>"#,
            )
            .unwrap();
        assert!(to_string(&raw.document.root()).contains("LOVELACE"));
        // Offline manipulation was lineage-logged.
        assert!(admin.lineage_len() > 0);
    }

    #[test]
    fn refresh_recleans_current_data() {
        let (engine, admin) = setup();
        admin
            .materialize_cleaned("people_view", &flow(), "people_clean", Some(100))
            .unwrap();
        assert_eq!(
            admin.replicas(),
            vec![(
                "people_clean".to_string(),
                "people_view".to_string(),
                "std".to_string()
            )]
        );
        let n = admin.refresh("people_clean").unwrap();
        assert_eq!(n, 2);
        assert!(engine.views().peek("people_clean").is_some());
        assert!(admin.refresh("nope").is_err());
    }

    #[test]
    fn unknown_origin_rejected() {
        let (_, admin) = setup();
        assert!(admin
            .materialize_cleaned("missing_view", &flow(), "x", None)
            .is_err());
    }
}
