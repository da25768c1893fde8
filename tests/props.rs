//! Cross-crate property sweeps (seeded, `nimble::trace::rng::sweep`):
//! the mediator's optimizer choices never change answers over randomly
//! generated databases, and pattern matching agrees between pushed
//! fragments and central matching.

mod common;

use common::{build_catalog, customers, orders};
use nimble::core::{Engine, OptimizerConfig};
use nimble::trace::rng::sweep;
use nimble::xml::to_string;

/// The four optimizer configurations agree on every generated
/// database and threshold — pushdown, join merging, and join
/// ordering are pure performance choices.
#[test]
fn optimizer_is_semantics_preserving() {
    sweep(48, |rng| {
        let (customers, orders, threshold) = (customers(rng), orders(rng), rng.range(0..100));
        let query = format!(
            r#"WHERE <row><id>$i</id><name>$n</name><region>"NW"</region></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                     $t > {}
               CONSTRUCT <hit><n>$n</n><t>$t</t></hit> ORDER-BY $t, $n"#,
            threshold
        );
        let configs = [(true, true), (true, false), (false, true), (false, false)].map(
            |(pushdown, capability_joins)| OptimizerConfig {
                pushdown,
                capability_joins,
                ..OptimizerConfig::default()
            },
        );
        let mut outputs: Vec<String> = Vec::new();
        for config in configs {
            let engine = Engine::new(build_catalog(&customers, &orders));
            engine.set_optimizer(config);
            let r = engine.query(&query).unwrap();
            assert!(r.complete);
            outputs.push(to_string(&r.document.root()));
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
    });
}

/// The engine's answer matches a direct reference join computed in
/// Rust.
#[test]
fn engine_matches_reference_join() {
    sweep(48, |rng| {
        let (customers, orders, threshold) = (customers(rng), orders(rng), rng.range(0..100));
        let query = format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                     $t > {}
               CONSTRUCT <hit><n>$n</n><t>$t</t></hit>"#,
            threshold
        );
        let engine = Engine::new(build_catalog(&customers, &orders));
        let r = engine.query(&query).unwrap();
        let mut got: Vec<(String, i64)> = r
            .document
            .root()
            .children_named("hit")
            .map(|h| {
                (
                    h.child("n").unwrap().text(),
                    h.child("t").unwrap().text().parse().unwrap(),
                )
            })
            .collect();
        got.sort();
        let mut expected: Vec<(String, i64)> = Vec::new();
        for (id, name, _) in &customers {
            for (_, cust, total) in &orders {
                if cust == id && *total > threshold {
                    expected.push((name.clone(), *total));
                }
            }
        }
        expected.sort();
        assert_eq!(got, expected);
    });
}
