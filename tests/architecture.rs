//! Figure-1 walk: the full product pipeline from management setup
//! through lens execution, exercising every box of the paper's
//! architecture diagram in one flow.

use nimble::core::{Catalog, Engine};
use nimble::frontend::{Device, Directory, Lens, LensRegistry, ParamDef, SystemMonitor, Template};
use nimble::relational::Database;
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::xmldoc::XmlDocAdapter;
use std::collections::BTreeMap;
use std::sync::Arc;

#[test]
fn figure_1_pipeline() {
    // ── Management tools: register sources in the metadata server ──
    let catalog = Catalog::new();
    let crm = Arc::new(
        RelationalAdapter::from_statements(
            "crm",
            &[
                "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
                "CREATE INDEX ON customers (region) USING HASH",
                "INSERT INTO customers VALUES \
                 (1, 'Acme', 'NW'), (2, 'Globex', 'SW'), (3, 'Initech', 'NW')",
            ],
        )
        .unwrap(),
    );
    let crm_db = crm.database();
    catalog.register_source(crm).unwrap();
    catalog
        .register_source(Arc::new(
            XmlDocAdapter::new("press")
                .add_xml(
                    "releases",
                    "<releases>\
                     <item><company>Acme</company><headline>Acme ships widgets</headline></item>\
                     <item><company>Initech</company><headline>Initech IPO</headline></item>\
                     </releases>",
                )
                .unwrap(),
        ))
        .unwrap();

    // ── Mediated schema: a view joining both sources ──
    catalog
        .define_view(
            "customer_news",
            r#"WHERE <row><name>$n</name><region>$r</region></row> IN "customers",
                     <item><company>$n</company><headline>$h</headline></item> IN "releases"
               CONSTRUCT <news><who>$n</who><region>$r</region><headline>$h</headline></news>"#,
            None,
        )
        .unwrap();

    // ── Integration engine behind the front end ──
    let engine = Arc::new(Engine::new(Arc::new(catalog)));

    // ── Front end: lens with params, auth, formatting, device target ──
    let directory = Arc::new(Directory::new());
    directory.add_user("exec", "pw", &["management"]);
    let monitor = Arc::new(SystemMonitor::new());
    let registry = LensRegistry::new(
        Arc::clone(&engine),
        Arc::clone(&directory),
        Arc::clone(&monitor),
    );
    registry.register(Lens {
        name: "regional_news".into(),
        query: r#"WHERE <news><who>$n</who><region>:region</region><headline>$h</headline></news>
                        IN "customer_news"
                  CONSTRUCT <story><co>$n</co><h>$h</h></story> ORDER-BY $n"#
            .into(),
        params: vec![ParamDef {
            name: "region".into(),
            default: Some("NW".into()),
        }],
        template: Template::parse("{{#each story}}{{co}}: {{h}}\n{{/each}}").unwrap(),
        device: Device::WebBrowser,
        required_role: Some("management".into()),
    });

    // ── Run it end to end ──
    crm_db.write().reset_stats();
    let response = registry
        .run("regional_news", "exec", "pw", &BTreeMap::new())
        .unwrap();
    assert!(response.result.complete);
    assert_eq!(
        response.body,
        "<html><body>\nAcme: Acme ships widgets\nInitech: Initech IPO\n\n</body></html>"
    );

    // The compiler really generated SQL against the relational source
    // (the view's customers fragment executed there).
    assert!(crm_db.read().stats().statements >= 1);

    // The monitor saw the request.
    let report = monitor.report();
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].requests, 1);
    assert_eq!(report[0].incomplete, 0);

    // The lower-level interface remains available and agrees.
    let direct = engine
        .query(
            r#"WHERE <news><who>$n</who><region>"NW"</region></news> IN "customer_news"
               CONSTRUCT <c>$n</c> ORDER-BY $n"#,
        )
        .unwrap();
    assert_eq!(direct.document.root().children().count(), 2);
}

#[test]
fn management_tools_introspection() {
    let catalog = Catalog::new();
    catalog
        .register_source(Arc::new(RelationalAdapter::new(
            "empty_db",
            Arc::new(nimble::trace::sync::RwLock::new(Database::new())),
        )))
        .unwrap();
    catalog
        .register_source(Arc::new(
            XmlDocAdapter::new("docs").add_xml("d", "<d/>").unwrap(),
        ))
        .unwrap();
    assert_eq!(catalog.source_names(), vec!["docs", "empty_db"]);
    assert!(catalog.unregister_source("empty_db"));
    assert_eq!(catalog.source_names(), vec!["docs"]);

    catalog
        .define_view("v", r#"WHERE <d>$x</d> IN "docs.d" CONSTRUCT <o>$x</o>"#, Some(5))
        .unwrap();
    assert_eq!(catalog.view_names(), vec!["v"]);
    assert!(catalog.drop_view("v"));
    assert!(catalog.view_names().is_empty());
}
