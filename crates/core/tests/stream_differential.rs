//! Differential sweep for the streaming serializer: for every query of
//! the grammar below, [`Engine::query_serialized`] (which streams
//! CONSTRUCT output through an `XmlWriter` with no result tree) is
//! **byte-identical** to tree construction
//! plus `to_string`, with fragments pushed to the source and with
//! everything evaluated centrally, each under `verify_plans: true`. The
//! grammar covers the template shapes the streaming path specializes:
//! flat templates, multi-child templates, ORDER-BY, Skolem grouping
//! with duplicate elimination and aggregates, attributes from a variable
//! and from a literal, literal text, and a node-valued variable. Edge-valued data
//! (negative totals, zero, duplicated and empty names) rides in the
//! fixture so dedup and group keys are exercised; the thresholds cut
//! answers from thousands of rows down to a few and to none.
//!
//! Both renderers read one compiled template, so they are not each
//! other's whole oracle: every answer is also pinned by a digest taken
//! from the renderers before they shared it (`DIGESTS`).
//!
//! Hand-enumerated like `bind_differential.rs` and
//! `shard_differential.rs`.

use nimble_core::{Catalog, Engine, OptimizerConfig};
use nimble_sources::relational::RelationalAdapter;
use nimble_xml::to_string;
use std::sync::Arc;

/// 4 800 customers over 48 names (one of them empty) and one order
/// each, totals cycling through the boundary values.
fn catalog() -> Arc<Catalog> {
    let mut stmts: Vec<String> = vec![
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)".into(),
        "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)".into(),
    ];
    let regions = ["NW", "SW", "NW", "SE"];
    let totals = ["250.0", "-40.5", "0.0", "0.0", "250.0", "17.25"];
    for i in 0..4800usize {
        let name = match i % 48 {
            0 => String::new(),
            k => format!("n{:02}", k),
        };
        stmts.push(format!(
            "INSERT INTO customers VALUES ({}, '{}', '{}')",
            i + 1,
            name,
            regions[i % regions.len()]
        ));
        stmts.push(format!(
            "INSERT INTO orders VALUES ({}, {}, {})",
            10_000 + i,
            i + 1,
            totals[i % totals.len()]
        ));
    }
    let stmts: Vec<&str> = stmts.iter().map(String::as_str).collect();
    let c = Catalog::new();
    c.register_source(Arc::new(
        RelationalAdapter::from_statements("erp", &stmts).unwrap(),
    ))
    .unwrap();
    Arc::new(c)
}

/// Every query of the grammar: optional join, a threshold at the
/// totals' boundary values (-40.5, 0, 17.25, 250: nothing cut, the
/// negative cut, the zeros cut, all but the maximum cut — a small
/// result — and everything cut), and one of eight CONSTRUCT shapes
/// (flat, multi-child, Skolem-grouped, Skolem-grouped with aggregates,
/// an attribute from a variable, a literal attribute, literal text, a
/// node-valued variable), optionally ordered.
fn all_queries() -> Vec<String> {
    let mut queries = Vec::new();
    for shape in 0..8usize {
        for join in [false, true] {
            let joined = join || shape == 2 || shape == 3; // the grouped shapes use $t
            if joined && !join {
                continue;
            }
            let thresholds: &[Option<i64>] = if joined {
                &[None, Some(-41), Some(0), Some(249), Some(250)]
            } else {
                &[None]
            };
            for threshold in thresholds {
                for order in [false, true] {
                    if order && (shape == 2 || shape == 3) {
                        continue; // grouped output has its own order
                    }
                    let mut conds = vec![format!(
                        "<row><id>$i</id><name>$n</name><region>$r</region></row>{} IN \"customers\"",
                        if shape == 7 { " ELEMENT_AS $e" } else { "" }
                    )];
                    if joined {
                        conds.push(
                            "<row><cust_id>$i</cust_id><total>$t</total></row> IN \"orders\"".into(),
                        );
                    }
                    conds.extend(threshold.map(|k| format!("$t > {}", k)));
                    let construct = match shape {
                        0 => "<hit>$n</hit>",
                        1 => "<hit><n>$n</n><r>$r</r></hit>",
                        // Skolem grouping: duplicate names accumulate
                        // under one element and repeated (name, total)
                        // pairs dedup.
                        2 => "<cust ID=ByName($n)><n>$n</n><t>$t</t></cust>",
                        3 => "<cust ID=C($n)><n>$n</n><k>count()</k><s>sum($t)</s></cust>",
                        4 => "<hit id=$i r=$r><n>$n</n></hit>",
                        5 => r#"<hit kind="c&amp;&quot;x"><n>$n</n></hit>"#,
                        6 => r#"<hit>"name: " $n " <&> " $r</hit>"#,
                        _ => "<hit>$e</hit>",
                    };
                    queries.push(format!(
                        "WHERE {} CONSTRUCT {}{}",
                        conds.join(", "),
                        construct,
                        if order { " ORDER-BY $n" } else { "" }
                    ));
                }
            }
        }
    }
    queries
}

/// 64-bit FNV-1a of an answer.
fn digest(answer: &str) -> u64 {
    answer.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The digest of each query's answer, in `all_queries` order, as the
/// renderers wrote it before both read one compiled template.
#[rustfmt::skip]
const DIGESTS: &[u64] = &[
    0x05a868880d7d7742, 0xba1a834e1847d47e, 0x05a868880d7d7742, 0xba1a834e1847d47e,
    0x05a868880d7d7742, 0xba1a834e1847d47e, 0xbb225363071476ba, 0x90aeebf44566b2ce,
    0x46c4266d7980241e, 0x197e46e897c36a86, 0x703d3cf3f94949fe, 0x703d3cf3f94949fe,
    0x61f7939fc8fe7762, 0xe73dfde4b45fd792, 0x61f7939fc8fe7762, 0xe73dfde4b45fd792,
    0x61f7939fc8fe7762, 0xe73dfde4b45fd792, 0xd20910e19e7e116a, 0xaf7326f1da4aa252,
    0x4bcc172b5e6000be, 0xc44b9d4b1712f4da, 0x703d3cf3f94949fe, 0x703d3cf3f94949fe,
    0x89aa08d68bc0799c, 0x89aa08d68bc0799c, 0x32c35c9a186afd34, 0xb3252f34c3f4bca5,
    0x703d3cf3f94949fe, 0x3cacc8ae100795b0, 0x3cacc8ae100795b0, 0xcf46c8d7991b36bc,
    0x4ff669c810f45491, 0x703d3cf3f94949fe, 0x09c3a93e88037af6, 0xa3875cc572f094be,
    0x09c3a93e88037af6, 0xa3875cc572f094be, 0x09c3a93e88037af6, 0xa3875cc572f094be,
    0xf4efd0f85db7db9b, 0x4bacdf728fb261c1, 0x6a4f7054a5fa5c69, 0x41dbfdb6e615b2e1,
    0x703d3cf3f94949fe, 0x703d3cf3f94949fe, 0x22bce2a1f1ffafba, 0x0f132872a84b661e,
    0x22bce2a1f1ffafba, 0x0f132872a84b661e, 0x22bce2a1f1ffafba, 0x0f132872a84b661e,
    0xe35bfb86de3941da, 0xe2043b1d242511e6, 0x49241fe09b95e8be, 0xe9b3aef633ef3a2e,
    0x703d3cf3f94949fe, 0x703d3cf3f94949fe, 0x9d4fb6229a0a3f2a, 0xc8efb74a06cf0ece,
    0x9d4fb6229a0a3f2a, 0xc8efb74a06cf0ece, 0x9d4fb6229a0a3f2a, 0xc8efb74a06cf0ece,
    0x341955c80031243a, 0xe694295c63210b4e, 0xcbc6fc25efddd126, 0x29243cc244c58dda,
    0x703d3cf3f94949fe, 0x703d3cf3f94949fe, 0x30fe37c95293d510, 0x8e7e1987fbdc1334,
    0x30fe37c95293d510, 0x8e7e1987fbdc1334, 0x30fe37c95293d510, 0x8e7e1987fbdc1334,
    0x1c5fd10a66efa001, 0xc969ecae3a6d5fd7, 0xa42e54d51e3f33f1, 0x5565a1cefb47ce19,
    0x703d3cf3f94949fe, 0x703d3cf3f94949fe,
];

#[test]
fn streamed_equals_tree_serialization() {
    let cat = catalog();
    let queries = all_queries();
    assert_eq!(queries.len(), 82);
    for pushdown in [true, false] {
        let e = Engine::new(cat.clone());
        e.set_optimizer(OptimizerConfig {
            pushdown,
            verify_plans: true,
            ..OptimizerConfig::default()
        });
        let mut got = Vec::new();
        for text in &queries {
            let streamed = e.query_serialized(text).unwrap();
            let tree = to_string(&e.query(text).unwrap().document.root());
            assert!(
                streamed == tree,
                "streamed/tree disagree (pushdown={}) for {}\n streamed: {:.300}\n     tree: {:.300}",
                pushdown,
                text,
                streamed,
                tree
            );
            got.push(digest(&streamed));
        }
        assert!(
            got == DIGESTS,
            "answers changed (pushdown={}); digests now:\n{}",
            pushdown,
            got.iter().map(|d| format!("{:#018x},", d)).collect::<Vec<_>>().join("\n")
        );
        // Every answer streamed, whatever its size.
        assert_eq!(
            e.metrics_snapshot().counter("engine.construct.streamed"),
            queries.len() as u64
        );
    }
}
