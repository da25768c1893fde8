//! Fixtures shared by the integration tests: the generated two-table
//! database `props.rs` and `profiling_props.rs` both sweep over, the
//! customer-integration fixture the paper-claim tests run on, and a
//! pass-through adapter that counts what the sources ship.

// Each test crate includes this module and uses only part of it.
#![allow(dead_code)]

use nimble::core::Catalog;
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::xmldoc::XmlDocAdapter;
use nimble::sources::{
    Capabilities, CollectionInfo, SourceAdapter, SourceError, SourceKind, SourceQuery,
};
use nimble::trace::rng::Rng;
use nimble::xml::Document;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub fn build_catalog(
    customers: &[(i64, String, String)],
    orders: &[(i64, i64, i64)],
) -> Arc<Catalog> {
    let mut stmts = vec![
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)".to_string(),
        "CREATE TABLE orders (oid INT, cust_id INT, total INT)".to_string(),
    ];
    for (id, name, region) in customers {
        stmts.push(format!(
            "INSERT INTO customers VALUES ({}, '{}', '{}')",
            id, name, region
        ));
    }
    for (oid, cust, total) in orders {
        stmts.push(format!(
            "INSERT INTO orders VALUES ({}, {}, {})",
            oid, cust, total
        ));
    }
    let catalog = Catalog::new();
    catalog
        .register_source(Arc::new(
            RelationalAdapter::from_statements(
                "erp",
                &stmts.iter().map(String::as_str).collect::<Vec<_>>(),
            )
            .unwrap(),
        ))
        .unwrap();
    Arc::new(catalog)
}

/// Up to 14 customers `(id = position, name over a–d, region NW/SW)`.
pub fn customers(rng: &mut Rng) -> Vec<(i64, String, String)> {
    (0..rng.below(15) as i64)
        .map(|i| {
            (
                i,
                rng.string("abcd", 1..5),
                rng.pick(&["NW", "SW"]).to_string(),
            )
        })
        .collect()
}

/// Up to 19 orders `(oid = position, cust_id in 0..15, total in 0..100)`.
pub fn orders(rng: &mut Rng) -> Vec<(i64, i64, i64)> {
    (0..rng.below(20) as i64)
        .map(|i| (i, rng.range(0..15), rng.range(0..100)))
        .collect()
}

/// A relational source `name` built by `ddl`, then each table's rows
/// inserted 500 to a statement.
pub fn relational(
    name: &str,
    ddl: &[&str],
    tables: &[(&str, Vec<String>)],
) -> Arc<RelationalAdapter> {
    let mut stmts: Vec<String> = ddl.iter().map(|s| s.to_string()).collect();
    for (table, rows) in tables {
        stmts.extend(
            rows.chunks(500)
                .map(|chunk| format!("INSERT INTO {} VALUES {}", table, chunk.join(", "))),
        );
    }
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    Arc::new(RelationalAdapter::from_statements(name, &refs).unwrap())
}

/// `(id, 'customer<id>', region)` rows over four regions.
pub fn customer_rows(customers: usize) -> Vec<String> {
    let regions = ["NW", "SW", "NE", "SE"];
    (0..customers)
        .map(|i| format!("({}, 'customer{}', '{}')", i, i, regions[i % regions.len()]))
        .collect()
}

/// `(oid, cust_id, total)` rows, three orders per customer.
pub fn order_rows(customers: usize) -> Vec<String> {
    (0..customers)
        .flat_map(|i| (0..3).map(move |k| (i, k)))
        .enumerate()
        .map(|(oid, (i, k))| {
            format!(
                "({}, {}, {})",
                oid,
                i,
                ((i * 7 + k * 131) % 1000) as f64 / 2.0
            )
        })
        .collect()
}

/// The customer-integration fixture: three departmental relational
/// databases — `crm.customers`, `billing.orders` (three per customer),
/// `support.tickets` (every fifth customer) — plus an XML press feed
/// with an item for every tenth customer. Returns the relational
/// adapters in that order.
pub fn customer_fixture(customers: usize) -> (Arc<Catalog>, Vec<Arc<RelationalAdapter>>) {
    let tickets: Vec<String> = (0..customers)
        .step_by(5)
        .map(|i| format!("({}, {}, {})", i, i, i % 3 + 1))
        .collect();
    let adapters = vec![
        relational(
            "crm",
            &[
                "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
                "CREATE INDEX ON customers (id) USING HASH",
            ],
            &[("customers", customer_rows(customers))],
        ),
        relational(
            "billing",
            &[
                "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)",
                "CREATE INDEX ON orders (cust_id) USING HASH",
                "CREATE INDEX ON orders (total)",
            ],
            &[("orders", order_rows(customers))],
        ),
        relational(
            "support",
            &["CREATE TABLE tickets (tid INT, cust_id INT, severity INT)"],
            &[("tickets", tickets)],
        ),
    ];
    let catalog = Catalog::new();
    for adapter in &adapters {
        catalog.register_source(Arc::clone(adapter) as _).unwrap();
    }
    let items: String = (0..customers)
        .step_by(10)
        .map(|i| {
            format!(
                "<item><company>customer{}</company><h>headline {}</h></item>",
                i, i
            )
        })
        .collect();
    let press = XmlDocAdapter::new("press")
        .add_xml("releases", &format!("<releases>{}</releases>", items))
        .unwrap();
    catalog.register_source(Arc::new(press)).unwrap();
    (Arc::new(catalog), adapters)
}

/// Pass-through adapter counting the calls the mediator makes and the
/// XML nodes it gets back — what a remote, autonomous source is charged.
pub struct Counting {
    pub inner: Arc<dyn SourceAdapter>,
    pub calls: Arc<AtomicU64>,
    pub nodes: Arc<AtomicU64>,
}

impl Counting {
    fn note(&self, result: &Result<Arc<Document>, SourceError>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(doc) = result {
            self.nodes.fetch_add(doc.len() as u64, Ordering::Relaxed);
        }
    }
}

impl SourceAdapter for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn collections(&self) -> Vec<CollectionInfo> {
        self.inner.collections()
    }
    fn execute(&self, query: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        let result = self.inner.execute(query);
        self.note(&result);
        result
    }
    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        let result = self.inner.fetch_collection(name);
        self.note(&result);
        result
    }
    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.inner.estimated_rows(collection)
    }
}
