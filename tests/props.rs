//! Cross-crate property sweeps (seeded, `nimble::trace::rng::sweep`):
//! the mediator's optimizer choices never change answers over randomly
//! generated databases, and pattern matching agrees between pushed
//! fragments and central matching.

mod common;

use common::{build_catalog, customers, orders};
use nimble::core::{Engine, OptimizerConfig};
use nimble::trace::rng::{sweep, Rng};
use nimble::xml::to_string;

/// A threshold on a boundary of the data: one of the generated totals
/// or its neighbour on either side — where `>` and `>=` part ways. (A
/// uniform draw over 0..100 almost never lands there: E23.)
fn boundary_threshold(rng: &mut Rng, orders: &[(i64, i64, i64)]) -> i64 {
    match orders {
        [] => rng.range(0..100),
        _ => rng.pick(orders).2 + rng.range(-1..2),
    }
}

/// The four optimizer configurations agree on every generated
/// database and threshold — pushdown, join merging, and join
/// ordering are pure performance choices.
#[test]
fn optimizer_is_semantics_preserving() {
    sweep(48, |rng| {
        let (customers, orders) = (customers(rng), orders(rng));
        let threshold = boundary_threshold(rng, &orders);
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
/// Rust — every comparison operator and a negation, at a boundary
/// threshold, evaluated at the source or centrally, in the order
/// ORDER-BY asks for.
#[test]
fn engine_matches_reference_join() {
    type Holds = fn(i64, i64) -> bool;
    let predicates: [(&str, Holds); 6] = [
        ("$t > K", |t, k| t > k),
        ("$t >= K", |t, k| t >= k),
        ("$t < K", |t, k| t < k),
        ("$t <= K", |t, k| t <= k),
        ("NOT $t > K", |t, k| t <= k),
        ("NOT ($t < K OR $t = K)", |t, k| t > k),
    ];
    sweep(96, |rng| {
        let (customers, orders) = (customers(rng), orders(rng));
        let threshold = boundary_threshold(rng, &orders);
        let (predicate, holds) = *rng.pick(&predicates);
        let descending = rng.chance(0.5);
        let query = format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                     {}
               CONSTRUCT <hit><n>$n</n><t>$t</t></hit> ORDER-BY $t{}, $n"#,
            predicate.replace('K', &threshold.to_string()),
            if descending { " DESC" } else { "" },
        );
        let engine = Engine::new(build_catalog(&customers, &orders));
        engine.set_optimizer(OptimizerConfig {
            pushdown: rng.chance(0.5),
            ..OptimizerConfig::default()
        });
        let r = engine.query(&query).unwrap();
        let got: Vec<(String, i64)> = r
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
        let mut expected: Vec<(String, i64)> = Vec::new();
        for (id, name, _) in &customers {
            for (_, cust, total) in &orders {
                if cust == id && holds(*total, threshold) {
                    expected.push((name.clone(), *total));
                }
            }
        }
        expected.sort_by(|(an, at), (bn, bt)| {
            let by_total = if descending { bt.cmp(at) } else { at.cmp(bt) };
            by_total.then(an.cmp(bn))
        });
        assert_eq!(got, expected, "{}", query);
    });
}
