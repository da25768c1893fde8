//! Differential test for candidate probes (DESIGN.md §22): a plan whose
//! central matches skip the candidates its probes rule out answers
//! exactly like the same plan with its probes cleared — the same bytes,
//! the same lineage, the same `CoreError` — under `verify_plans` (so
//! planck's `candidate-probe` rule re-admits every probe) and with
//! lineage tracked.
//!
//! Each case draws a collection in `arena_model`'s style — records with
//! an `id` attribute or none, zero, one or two `<region>` children, a
//! `<meta><score>` that may be missing, and `Int`, `Float`, `Str`, `Sym`
//! and empty values side by side — and crosses one of the patterns below
//! with up to three predicates over its variables: comparisons, `LIKE`,
//! `NOT`, `OR`, arithmetic that fails on a non-number, a function call,
//! and two-variable conjuncts. The patterns break each eligibility
//! condition once: a descendant, wildcard and closure step (d), a
//! repeated variable and a `CONTENT_AS` binding (c), a dependent atom and
//! a join (b); the join's key takes `key_eq`-equal values of different
//! types on its two sides.
//!
//! A second grammar is about join variables alone: two collections share
//! `$k`, whose values on each side mix `Int`, `Float`, `Str`, `Sym`, NaN
//! and null spellings the join equates, under comparisons with number,
//! text and NaN literals — and the text is served twice, the second time
//! through the cached plan with its equality parameters bound to other
//! values of the same type, so that the literals the matcher checks are
//! the ones bound for that serve.
//!
//! Seeded (`nimble_trace::rng::sweep`): a failure prints its case number.

use nimble_core::planner::{self, Plan, Probe};
use nimble_core::{Catalog, CoreError, Engine, EngineConfig, OptimizerConfig};
use nimble_sources::xmldoc::XmlDocAdapter;
use nimble_trace::rng::{sweep, Rng, SWEEP_SEED};
use nimble_xml::{to_string, Atomic, Document, DocumentBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WORDS: [&str; 7] = ["west", "east", "north", "abc", "", " 7 ", "2"];

fn value(rng: &mut Rng) -> Atomic {
    match rng.below(6) {
        0 => Atomic::Int(rng.range(-5..500)),
        1 => Atomic::Float(rng.range(-8..800) as f64 / 2.0),
        2 => Atomic::Str(rng.pick(&WORDS).to_string()),
        3 => Atomic::Sym(nimble_xml::Sym::intern(WORDS[rng.below(WORDS.len())])),
        4 => Atomic::Null,
        _ => two(rng),
    }
}

/// Values `key_eq` equates, which `LIKE` tells apart.
fn two(rng: &mut Rng) -> Atomic {
    [
        Atomic::Int(2),
        Atomic::Float(2.0),
        Atomic::Str(" 2".into()),
        Atomic::Str("2".into()),
    ][rng.below(4)]
    .clone()
}

/// `<coll>` of records: `<rec id=…><region/>*<meta><score/>+</meta><v/></rec>`,
/// each part present or not.
fn collection(rng: &mut Rng) -> Arc<Document> {
    let mut b = DocumentBuilder::new("coll");
    for _ in 0..rng.below(25) {
        b.start_element("rec");
        if rng.chance(0.8) {
            b.attr("id", &value(rng).lexical());
        }
        for _ in 0..rng.below(3) {
            b.leaf("region", value(rng));
        }
        if rng.chance(0.8) {
            b.start_element("meta");
            for _ in 0..1 + rng.below(2) {
                b.leaf("score", value(rng));
            }
            b.end_element();
        }
        if rng.chance(0.9) {
            let v = if rng.chance(0.5) {
                two(rng)
            } else {
                value(rng)
            };
            b.leaf("v", v);
        }
        b.end_element();
    }
    b.finish()
}

/// `<other>` of `<row><k/><n/></row>`, whose keys mostly meet `coll`'s
/// `<v>` as one of [`two`]'s spellings.
fn other(rng: &mut Rng) -> Arc<Document> {
    let mut b = DocumentBuilder::new("other");
    for _ in 0..rng.below(8) {
        b.start_element("row");
        let k = if rng.chance(0.75) {
            two(rng)
        } else {
            value(rng)
        };
        b.leaf("k", k);
        b.leaf("n", value(rng));
        b.end_element();
    }
    b.finish()
}

const VIEW: &str = r#"WHERE <rec><region>$r</region><meta><score>$s</score></meta><v>$v</v></rec> IN "coll"
CONSTRUCT <w><region>$r</region><score>$s</score><v>$v</v></w>"#;

/// The patterns (WHERE clause before the predicates) and the variables
/// predicates may read — the join's key twice, to read it more often.
const PATTERNS: [(&str, &[&str]); 11] = [
    (
        r#"<rec id=$i><region>$r</region><meta><score>$s</score></meta><v>$v</v></rec> IN "coll""#,
        &["i", "r", "s", "v"],
    ),
    (r#"<rec><region>$r</region></rec> IN "coll""#, &["r"]),
    (r#"<rec><**score>$s</></rec> IN "coll""#, &["s"]),
    (r#"<rec><*>$w</></rec> IN "coll""#, &["w"]),
    (
        r#"<rec><region>$r</region><v>$r</v></rec> IN "coll""#,
        &["r"],
    ),
    (
        r#"<rec><region/> CONTENT_AS $c <v>$v</v></rec> IN "coll""#,
        &["c", "v"],
    ),
    (
        r#"<rec><region>$r</region></rec> ELEMENT_AS $e IN "coll", <v>$x</v> IN $e"#,
        &["r", "x"],
    ),
    (
        r#"<rec><region>$r</region><v>$k</v></rec> IN "coll", <row><k>$k</k><n>$n</n></row> IN "other""#,
        &["k", "r", "k", "n"],
    ),
    (
        r#"<w><region>$r</region><score>$s</score><v>$v</v></w> IN "v""#,
        &["r", "s", "v"],
    ),
    (
        r#"<rec><meta+><score>$s</score></></rec> IN "coll""#,
        &["s"],
    ),
    (
        r#"<coll><rec id=$i><v>$v</v></rec></coll> IN "coll""#,
        &["i", "v"],
    ),
];

/// A predicate over `x` (and `y`, a second variable of the pattern).
fn predicate(rng: &mut Rng, x: &str, y: &str) -> String {
    let t = match rng.below(15) {
        0 => r#"$X = "west""#,
        1 => r#"$X != "east""#,
        2 => r#"NOT ($X = "north")"#,
        3 => r#"$X LIKE "w%""#,
        4 => r#"$X LIKE "2""#,
        5 => "$X > 300",
        6 => "$X >= 2.5",
        7 => "$X < 7",
        8 => "$X + 1 > 3",
        9 => r#"$X = """#,
        10 => r#"($X = "west" OR $X = 2)"#,
        11 => r#"upper($X) = "WEST""#,
        12 => "$X > $Y",
        13 => r#"$X LIKE "%.%""#,
        _ => r#"($X = "west" OR $Y > 3)"#,
    };
    t.replace("$X", &format!("${}", x))
        .replace("$Y", &format!("${}", y))
}

fn engine(rng: &mut Rng) -> Engine {
    let catalog = Catalog::new();
    let src = XmlDocAdapter::new("src")
        .add_document("coll", collection(rng))
        .add_document("other", other(rng));
    catalog.register_source(Arc::new(src)).unwrap();
    catalog.define_view("v", VIEW, None).unwrap();
    let config = EngineConfig {
        optimizer: OptimizerConfig {
            verify_plans: true,
            track_lineage: true,
            ..OptimizerConfig::default()
        },
        ..EngineConfig::default()
    };
    let engine = Engine::with_config(Arc::new(catalog), config);
    engine.materialize_view("v", None).unwrap();
    engine
}

/// An answer as the differential compares it.
fn answer(engine: &Engine, text: &str, plan: Plan) -> Result<(String, String), CoreError> {
    engine
        .query_planned(text, plan)
        .map(|r| (to_string(&r.document.root()), format!("{:?}", r.provenance)))
}

#[test]
fn probed_plans_answer_as_the_same_plan_without_probes() {
    eprintln!("probe_differential: sweep seed {:#x}", SWEEP_SEED);
    let probed = AtomicU64::new(0);
    let pruned = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    sweep(1000, |rng| {
        let engine = engine(rng);
        let (pattern, vars) = PATTERNS[rng.below(PATTERNS.len())];
        let mut text = format!("WHERE {}", pattern);
        for _ in 0..rng.below(4) {
            let (x, y) = (*rng.pick(vars), *rng.pick(vars));
            text.push_str(",\n      ");
            text.push_str(&predicate(rng, x, y));
        }
        let bound: Vec<String> = vars.iter().map(|v| format!("<{v}>${v}</{v}>")).collect();
        text.push_str(&format!("\nCONSTRUCT <o>{}</o>", bound.join("")));
        if rng.chance(0.3) {
            text.push_str(&format!(" ORDER-BY ${}", rng.pick(vars)));
        }

        let query = nimble_xmlql::parse_query(&text).unwrap();
        let plan =
            planner::plan_query(engine.catalog(), &query, &engine.config().optimizer).unwrap();
        let mut cleared = plan.clone();
        cleared.probes.clear();
        let before = engine.metrics_snapshot().counter("engine.match.pruned");
        let got = answer(&engine, &text, plan.clone());
        let want = answer(&engine, &text, cleared);
        assert_eq!(got, want, "{}\nprobes {:?}", text, plan.probes);
        // The text's own serve is the probed plan's.
        assert_eq!(
            engine.query(&text).map(|r| to_string(&r.document.root())),
            got.map(|(xml, _)| xml)
        );

        probed.fetch_add(u64::from(!plan.probes.is_empty()), Ordering::Relaxed);
        let after = engine.metrics_snapshot().counter("engine.match.pruned");
        pruned.fetch_add(u64::from(after > before), Ordering::Relaxed);
        failed.fetch_add(u64::from(want.is_err()), Ordering::Relaxed);
    });
    // The sweep reached what it is about.
    let (probed, pruned, failed) = (
        probed.into_inner(),
        pruned.into_inner(),
        failed.into_inner(),
    );
    eprintln!(
        "probe_differential: {} cases probed, {} pruned, {} failed",
        probed, pruned, failed
    );
    assert!(
        probed >= 200 && pruned >= 100 && failed >= 25,
        "probed {} pruned {} failed {}",
        probed,
        pruned,
        failed
    );
}

/// Text values of a join key: numbers spelled the ways the join
/// equates, both zeros, NaNs of either sign, and words.
const KEY_TEXT: [&str; 13] = ["2", " 2 ", "2.0", "-0", "0", "1e3", "1000", "NaN", "-nan", "inf", "abc", "", "10x"];

/// A join key: mostly a spelling of 2, 0 or 1000 — so the two sides
/// meet as values of different types — or null, a NaN (which the join
/// equates with every other NaN), or a word.
fn key(rng: &mut Rng) -> Atomic {
    match rng.below(9) {
        0 => Atomic::Int([2, 0, 1000, -3][rng.below(4)]),
        1 => Atomic::Float([2.0, -0.0, 0.0, 1000.0, 2.5][rng.below(5)]),
        2 | 3 => Atomic::Str(rng.pick(&KEY_TEXT).to_string()),
        4 => Atomic::Sym(nimble_xml::Sym::intern(KEY_TEXT[rng.below(KEY_TEXT.len())])),
        5 => Atomic::Float([f64::NAN, -f64::NAN][rng.below(2)]),
        6 => Atomic::Null,
        _ => two(rng),
    }
}

/// `<name>` of `<row><k/><tag/></row>`, the key sometimes missing.
fn keyed(rng: &mut Rng, name: &str, tag: &str) -> Arc<Document> {
    let mut b = DocumentBuilder::new(name);
    for i in 0..rng.below(20) {
        b.start_element("row");
        if rng.chance(0.9) {
            b.leaf("k", key(rng));
        }
        b.leaf(tag, Atomic::Int(i as i64));
        b.end_element();
    }
    b.finish()
}

/// Literals of one type each: a serve binds an equality parameter to
/// another value of its type.
const LITERALS: [&[&str]; 3] = [
    &["2", "0", "1000", "-3"],
    &["2.0", "2.5", "-0.0", "1000.0"],
    &[r#""2""#, r#"" 2 ""#, r#""-0""#, r#""1e3""#, r#""abc""#, r#""NaN""#, r#""inf""#, r#""""#],
];

/// A conjunct on the join variable `$k`, `?` standing for an equality
/// literal; or one on `$x`, which the left side alone binds.
fn key_predicate(rng: &mut Rng) -> &'static str {
    [
        "$k = ?",
        "$k = ?",
        "$k != 2",
        "$k > 1",
        "$k <= 0",
        "$k >= 1000.0",
        r#"NOT ($k = "2")"#,
        "($k < 0 OR $k > 999)",
        r#"$k < "10x""#,
        r#"$k > "NaN""#,
        r#"$k LIKE "2%""#,
        r#"$k LIKE "2""#,
        "$k + 1 > 2",
        "$x > 3",
    ][rng.below(14)]
}

#[test]
fn join_variable_probes_answer_as_the_same_plan_without_probes() {
    let joined = AtomicU64::new(0);
    let pruned = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    sweep(600, |rng| {
        let catalog = Catalog::new();
        let src = XmlDocAdapter::new("src")
            .add_document("left", keyed(rng, "left", "x"))
            .add_document("right", keyed(rng, "right", "y"));
        catalog.register_source(Arc::new(src)).unwrap();
        let engine = Engine::with_config(
            Arc::new(catalog),
            EngineConfig {
                optimizer: OptimizerConfig {
                    verify_plans: true,
                    track_lineage: true,
                    ..OptimizerConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        let mut shape = String::from(
            r#"WHERE <row><k>$k</k><x>$x</x></row> IN "left", <row><k>$k</k><y>$y</y></row> IN "right""#,
        );
        for _ in 0..1 + rng.below(3) {
            shape.push_str(",\n      ");
            shape.push_str(key_predicate(rng));
        }
        shape.push_str("\nCONSTRUCT <o><k>$k</k><x>$x</x><y>$y</y></o>");
        if rng.chance(0.5) {
            shape.push_str(" ORDER-BY $y");
        }
        // The same shape twice: the first serve fills the plan cache, the
        // second binds its own literals into the cached plan.
        let literals = LITERALS[rng.below(LITERALS.len())];
        let serves: Vec<String> = (0..2)
            .map(|_| {
                let mut text = shape.clone();
                while let Some(at) = text.find('?') {
                    text.replace_range(at..at + 1, *rng.pick(literals));
                }
                text
            })
            .collect();
        for text in &serves {
            let query = nimble_xmlql::parse_query(text).unwrap();
            let plan =
                planner::plan_query(engine.catalog(), &query, &engine.config().optimizer).unwrap();
            let mut cleared = plan.clone();
            cleared.probes.clear();
            let before = engine.metrics_snapshot().counter("engine.match.pruned");
            let served = engine.query(text).map(|r| to_string(&r.document.root()));
            let after = engine.metrics_snapshot().counter("engine.match.pruned");
            let got = answer(&engine, text, plan.clone());
            let want = answer(&engine, text, cleared);
            joined.fetch_add(u64::from(plan.probes.iter().any(|p| p.joined)), Ordering::Relaxed);
            pruned.fetch_add(u64::from(after > before), Ordering::Relaxed);
            failed.fetch_add(u64::from(want.is_err()), Ordering::Relaxed);
            assert_eq!(got, want, "{}\nprobes {:?}", text, plan.probes);
            assert_eq!(served, want.map(|(xml, _)| xml), "{}", text);
        }
    });
    let (joined, pruned, failed) = (joined.into_inner(), pruned.into_inner(), failed.into_inner());
    eprintln!(
        "probe_differential: {} serves with join-variable probes, {} pruned, {} failed",
        joined, pruned, failed
    );
    assert!(
        joined >= 400 && pruned >= 200 && failed >= 25,
        "joined {} pruned {} failed {}",
        joined,
        pruned,
        failed
    );
}

/// The probes `text` plans, as `(variable, path)`.
fn probes_of(text: &str) -> Vec<(String, String)> {
    let engine = engine(&mut Rng::new(7));
    let query = nimble_xmlql::parse_query(text).unwrap();
    let plan = planner::plan_query(engine.catalog(), &query, &engine.config().optimizer).unwrap();
    planner::verify_plan(&plan, None).unwrap();
    plan.probes
        .iter()
        .map(|p| (p.var.clone(), p.walk().join("/")))
        .collect()
}

fn pairs(want: &[(&str, &str)]) -> Vec<(String, String)> {
    want.iter()
        .map(|(v, p)| (v.to_string(), p.to_string()))
        .collect()
}

#[test]
fn each_condition_declines_a_probe_where_it_fails() {
    let full = r#"WHERE <rec id=$i><region>$r</region><meta><score>$s</score></meta><v>$v</v></rec> IN "coll""#;
    let with = |preds: &str| format!("{},\n      {}\nCONSTRUCT <o/>", full, preds);
    // Content under names, at depth two, and an attribute of the candidate.
    assert_eq!(
        probes_of(&with(r#"$r = "west", $s > 300, $i < 9"#)),
        pairs(&[("r", "region/$"), ("s", "meta/score/$"), ("i", "@id")])
    );
    // (a) two variables, and a function call.
    assert_eq!(
        probes_of(&with(r#"$s > $v, upper($r) = "WEST""#)),
        pairs(&[])
    );
    // Behind a conjunct that can fail, nothing; ahead of it, yes. The
    // one that can fail is not a literal test — arithmetic does not
    // compile — so it stays in the Filter alone, and raises there.
    assert_eq!(
        probes_of(&with(r#"$v + 1 > 3, $r = "west""#)),
        pairs(&[])
    );
    assert_eq!(
        probes_of(&with(r#"$r = "west", $v + 1 > 3"#)),
        pairs(&[("r", "region/$")])
    );
    // (b) a join variable is probed on every atom that binds it, when the
    // conjunct only compares it with literals; a variable a dependent
    // atom binds is not probed.
    let join = |preds: &str| {
        format!(
            r#"WHERE <rec><region>$r</region><v>$k</v></rec> IN "coll", <row><k>$k</k></row> IN "other", {}
               CONSTRUCT <o/>"#,
            preds
        )
    };
    assert_eq!(
        probes_of(&join(r#"$k = 2, $r = "west""#)),
        pairs(&[("k", "v/$"), ("k", "k/$"), ("r", "region/$")])
    );
    assert_eq!(
        probes_of(&join(r#"NOT ($k > "10x" OR $k <= -1), $r = "west""#)),
        pairs(&[("k", "v/$"), ("k", "k/$"), ("r", "region/$")])
    );
    // Refused on $k; `$r` after it is probed unless the refused conjunct
    // can fail.
    let r_only: &[(&str, &str)] = &[("r", "region/$")];
    for (refused, want) in [
        (r#"$k LIKE "2""#, r_only),
        ("$k = $r", r_only),
        ("$k < $k", r_only),
        ("$k + 1 > 3", &[]),
        (r#"upper($k) = "2""#, &[]),
    ] {
        assert_eq!(
            probes_of(&join(&format!(r#"{}, $r = "west""#, refused))),
            pairs(want),
            "{}",
            refused
        );
    }
    assert_eq!(
        probes_of(
            r#"WHERE <rec/> ELEMENT_AS $e IN "coll", <v>$x</v> IN $e, $x = 2 CONSTRUCT <o/>"#
        ),
        pairs(&[])
    );
    // (c) a repeated variable, and CONTENT_AS / ELEMENT_AS.
    assert_eq!(
        probes_of(
            r#"WHERE <rec><region>$r</region><v>$r</v></rec> IN "coll", $r = 2 CONSTRUCT <o/>"#
        ),
        pairs(&[])
    );
    assert_eq!(
        probes_of(
            r#"WHERE <rec><region/> CONTENT_AS $c</rec> ELEMENT_AS $e IN "coll", $c = 2, $e = 2 CONSTRUCT <o/>"#
        ),
        pairs(&[])
    );
    // (d) `**`, `*` and `+` on the way.
    for pattern in [
        r#"<rec><**score>$s</></rec>"#,
        r#"<rec><*><score>$s</score></></rec>"#,
        r#"<rec><meta+><score>$s</score></></rec>"#,
    ] {
        assert_eq!(
            probes_of(&format!(
                r#"WHERE {} IN "coll", $s > 3 CONSTRUCT <o/>"#,
                pattern
            )),
            pairs(&[])
        );
    }
    // A view atom is probed like a collection.
    assert_eq!(
        probes_of(r#"WHERE <w><region>$r</region></w> IN "v", $r = "west" CONSTRUCT <o/>"#),
        pairs(&[("r", "region/$")])
    );
}

#[test]
fn the_candidate_probe_rule_refuses_a_probe_the_conditions_do_not_admit() {
    let engine = engine(&mut Rng::new(7));
    let like = r#"WHERE <rec><region>$r</region><v>$k</v></rec> IN "coll", <row><k>$k</k></row> IN "other", $k LIKE "2"
                  CONSTRUCT <o>$k</o>"#;
    let plus_one = r#"WHERE <rec><region>$r</region><v>$k</v></rec> IN "coll", $k + 1 > 3
                      CONSTRUCT <o>$k</o>"#;
    let probe = Probe {
        atom: 0,
        conjunct: 0,
        var: "k".into(),
        path: vec!["v".into()],
        attr: None,
        joined: false,
    };
    // Unguarded, and guarded over a `LIKE`; and over arithmetic, which
    // is not a literal test.
    for (text, probe, why) in [
        (like, probe.clone(), "bound by 2 units"),
        (like, Probe { joined: true, ..probe.clone() }, "compares $k with literals only"),
        (plus_one, probe, "not a literal test of $k"),
    ] {
        let query = nimble_xmlql::parse_query(text).unwrap();
        let mut plan =
            planner::plan_query(engine.catalog(), &query, &engine.config().optimizer).unwrap();
        assert!(plan.probes.is_empty());
        plan.probes = vec![probe];
        let err = planner::verify_plan(&plan, None).unwrap_err();
        assert!(
            matches!(&err, CoreError::PlanVerify(m) if m.contains("candidate-probe") && m.contains(why)),
            "{}",
            err
        );
        assert!(matches!(
            engine.query_planned(text, plan.clone()),
            Err(CoreError::PlanVerify(_))
        ));
    }
}

#[test]
fn explain_names_each_probe_and_analyze_counts_what_it_pruned() {
    let engine = engine(&mut Rng::new(11));
    let text = r#"WHERE <w><region>$r</region><score>$s</score></w> IN "v", $r = "west", $s > 300
                  CONSTRUCT <o>$s</o>"#;
    let plan = engine.query(text).unwrap().stats.plan;
    assert!(
        plan.contains(r#"-- probe: $r = "west" on v at w/region"#),
        "{}",
        plan
    );
    assert!(
        plan.contains("-- probe: $s > 300 on v at w/score"),
        "{}",
        plan
    );
    let analyzed = engine.explain_analyze(text).unwrap();
    let m = engine.metrics_snapshot();
    let (candidates, pruned) = (
        m.counter("engine.match.candidates"),
        m.counter("engine.match.pruned"),
    );
    assert!(candidates > 0 && pruned > 0 && pruned <= candidates);
    assert!(
        analyzed.contains(&format!(
            "-- probe: pruned {} of {} candidates of view v",
            pruned / 2,
            candidates / 2
        )),
        "{}",
        analyzed
    );
}

/// Why a join variable's probe guards (b): the row a join leaves may
/// carry the other side's value of the variable — `typed_key`-equal, but
/// not the same under `LIKE` — so an unguarded probe on one side's value
/// would drop a row the Filter keeps. Only the `candidate-probe` rule
/// stands in the way, so it is off here.
#[test]
fn a_probe_on_a_join_variable_would_lose_rows() {
    // `other` is the smaller side: the fold starts there, and the joined
    // row keeps its `Int 2`.
    let coll = {
        let mut b = DocumentBuilder::new("coll");
        for region in ["west", "east", "north"] {
            b.start_element("rec");
            b.leaf("region", Atomic::Str(region.into()));
            b.leaf("v", Atomic::Float(2.0));
            b.end_element();
        }
        b.finish()
    };
    let other = {
        let mut b = DocumentBuilder::new("other");
        b.start_element("row");
        b.leaf("k", Atomic::Int(2));
        b.leaf("n", Atomic::Int(0));
        b.end_element();
        b.finish()
    };
    let catalog = Catalog::new();
    let src = XmlDocAdapter::new("src")
        .add_document("coll", coll)
        .add_document("other", other);
    catalog.register_source(Arc::new(src)).unwrap();
    let config = EngineConfig {
        optimizer: OptimizerConfig {
            verify_plans: false,
            ..OptimizerConfig::default()
        },
        ..EngineConfig::default()
    };
    let engine = Engine::with_config(Arc::new(catalog), config);
    let text = r#"WHERE <rec><region>$r</region><v>$k</v></rec> IN "coll", <row><k>$k</k><n>$n</n></row> IN "other", $k LIKE "2"
                  CONSTRUCT <o>$r</o>"#;
    let query = nimble_xmlql::parse_query(text).unwrap();
    let plan = planner::plan_query(engine.catalog(), &query, &engine.config().optimizer).unwrap();
    assert!(plan.probes.is_empty());
    let mut probed = plan.clone();
    let coll = plan.independents.iter().position(|a| matches!(a, planner::AtomExec::FetchMatch { collection, .. } if collection == "coll")).unwrap();
    probed.probes.push(Probe {
        atom: coll,
        conjunct: 0,
        var: "k".into(),
        path: vec!["v".into()],
        attr: None,
        joined: false,
    });
    let rows = |plan: Plan| {
        engine
            .query_planned(text, plan)
            .unwrap()
            .document
            .root_cursor()
            .child_element_count()
    };
    assert_eq!((rows(plan), rows(probed)), (3, 0));
}

/// The outer row of a correlated subquery binds its variables too: a
/// subquery atom's variable that the outer row also binds is a join
/// variable, and a `LIKE` on it is not probed.
#[test]
fn a_variable_the_outer_row_binds_is_not_probed() {
    let coll = {
        let mut b = DocumentBuilder::new("coll");
        for (region, v) in [(Atomic::Int(2), "outer"), (Atomic::Float(2.0), "inner")] {
            b.start_element("rec");
            b.leaf("region", region);
            b.leaf("v", Atomic::Str(v.into()));
            b.end_element();
        }
        b.finish()
    };
    let catalog = Catalog::new();
    catalog
        .register_source(Arc::new(
            XmlDocAdapter::new("src").add_document("coll", coll),
        ))
        .unwrap();
    let engine = Engine::new(Arc::new(catalog));
    let text = r#"WHERE <rec><region>$r</region><v>$w</v></rec> IN "coll", $w = "outer"
                  CONSTRUCT <o>{ WHERE <rec><region>$r</region><v>$v</v></rec> IN "coll", $r LIKE "2" CONSTRUCT <i>$v</i> }</o>"#;
    let answer = engine.query(text).unwrap();
    assert_eq!(
        to_string(&answer.document.root()),
        "<results><o><i>outer</i><i>inner</i></o></results>"
    );
}
