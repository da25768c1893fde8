//! Counted, not timed: what the executor allocates per row when it
//! filters, sorts and hands sorted rows on, what a central match's probes
//! and a shard scan's test allocate per value they read, what a metric
//! lookup allocates, and what a serve of a cached shape allocates. The
//! counting allocator is per thread, so each pin reads only its own
//! test's work.

mod common;

use nimble::algebra::ops::{Operator, SortKey, SortOp, ValuesOp};
use nimble::algebra::{CmpOp, FunctionRegistry, LiteralTest, ScalarExpr, Schema, Tuple};
use nimble::core::matcher::CandidateFilter;
use nimble::core::planner::Probe;
use nimble::core::{Catalog, Engine, EngineConfig};
use nimble::trace::alloc::{enabled, AllocScope};
use nimble::trace::MetricsRegistry;
use nimble::xml::{Atomic, DocumentBuilder, Sym, Value};

/// `n` rows `(i, i % 97, "k<i % 1000>", "x" | "y")`.
fn rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let (key, tag) = (format!("k{:03}", (i * 7919) % 1000), if i % 3 == 0 { "x" } else { "y" });
            vec![Value::from(i), Value::from(i % 97), Value::from(key.as_str()), Value::from(tag)]
        })
        .collect()
}

fn schema() -> Schema {
    Schema::new(["i", "a", "k", "b"].map(String::from).to_vec())
}

#[test]
fn a_filter_allocates_nothing_per_row() {
    if !enabled() {
        return;
    }
    let (rows, funcs) = (rows(10_000), FunctionRegistry::with_builtins());
    // `$a > 40 AND $b = "x"`
    let predicate = ScalarExpr::conjunction(vec![
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(1), ScalarExpr::lit(40i64)),
        ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(3), ScalarExpr::lit("x")),
    ]);
    let scope = AllocScope::enter();
    let mut kept = 0;
    for row in &rows {
        kept += usize::from(predicate.eval_bool(row, &funcs).unwrap());
    }
    let stats = scope.finish();
    assert!((1_000..3_000).contains(&kept), "{} rows kept", kept);
    assert_eq!(stats.allocs, 0, "{} blocks over 10 000 rows", stats.allocs);
}

#[test]
fn a_sort_allocates_a_constant_beside_its_input_and_moves_its_rows_out() {
    if !enabled() {
        return;
    }
    let rows = rows(5_000);
    let key = vec![SortKey { column: 2, descending: false }];
    // What ingesting the input costs on its own: the source clones each
    // row it emits.
    let mut source = ValuesOp::new(schema(), rows.clone());
    let scope = AllocScope::enter();
    let drained = nimble::algebra::run_to_vec(&mut source).unwrap();
    let ingest = scope.finish().allocs;
    drop(drained);

    let mut sort = SortOp::new(Box::new(ValuesOp::new(schema(), rows.clone())), key);
    let scope = AllocScope::enter();
    sort.open().unwrap();
    let opened = scope.finish().allocs;
    // The permutation, and the buffer's doublings: no key per row.
    assert!(
        opened <= ingest + 32,
        "open() made {} blocks for 5 000 rows; ingesting them alone makes {}",
        opened,
        ingest
    );

    let mut out: Vec<Tuple> = Vec::with_capacity(rows.len());
    let scope = AllocScope::enter();
    while sort.next_batch(&mut out, 1024).unwrap() > 0 {}
    let drain = scope.finish().allocs;
    sort.close();
    assert_eq!(drain, 0, "draining cloned: {} blocks", drain);
    assert_eq!(out.len(), rows.len());
    assert!(out.windows(2).all(|w| w[0][2].total_cmp(&w[1][2]).is_le()));
}

#[test]
fn streaming_construct_allocates_a_constant_beside_the_writers_buffer() {
    if !enabled() {
        return;
    }
    // `<hit id=$i><c>$c</c></hit>` over 1 000 rows: the template is
    // compiled once, names are written from it, and the attribute's value
    // is written escaped into the buffer — no block per row.
    let query = nimble::xmlql::parse_query(r#"WHERE <r>$i</r> IN "s" CONSTRUCT <hit id=$i><c>$c</c></hit>"#).unwrap();
    let schema = Schema::new(["i", "c"].map(String::from).to_vec());
    let rows: Vec<Tuple> = (0..1_000i64)
        .map(|i| vec![Value::from(i), Value::Atomic(Atomic::Sym(Sym::intern(if i % 2 == 0 { "a&b" } else { "c" })))])
        .collect();
    let mut w = nimble::xml::XmlWriter::with_capacity("results", 64 * 1024);
    let scope = AllocScope::enter();
    nimble::core::construct::append_instances_stream(&mut w, &query.construct, &schema, &rows, None).unwrap();
    let blocks = scope.finish().allocs;
    let xml = w.finish();
    assert!(xml.starts_with(r#"<results><hit id="0"><c>a&amp;b</c></hit><hit id="1"><c>c</c></hit>"#), "{:.120}", xml);
    assert!(blocks <= 16, "{} blocks for 1 000 rows", blocks);
}

/// `$v op lit`, compiled for a one-column row.
fn test(op: CmpOp, lit: impl Into<Value>) -> LiteralTest {
    LiteralTest::compile(&ScalarExpr::cmp(op, ScalarExpr::Col(0), ScalarExpr::lit(lit)), 1).unwrap()
}

#[test]
fn probing_a_candidate_allocates_nothing() {
    if !enabled() {
        return;
    }
    // `<rec><v/></rec>` x 1 000, the values `Int`, `Float` and `Sym`.
    let mut b = DocumentBuilder::new("coll");
    for i in 0..1_000i64 {
        b.start_element("rec");
        let v = match i % 3 {
            0 => Atomic::Int(i),
            1 => Atomic::Float(i as f64 / 2.0),
            _ => Atomic::Sym(Sym::intern(["east", "west", "north"][(i % 7) as usize % 3])),
        };
        b.leaf("v", v);
        b.end_element();
    }
    let doc = b.finish();
    let probe = |joined| Probe {
        atom: 0,
        conjunct: 0,
        var: "v".into(),
        path: vec!["v".into()],
        attr: None,
        joined,
    };
    let (plain, joined) = (probe(false), probe(true));
    let candidates: Vec<_> = doc.root_cursor().children_named("rec").collect();
    for probes in [
        vec![(&plain, test(CmpOp::Ne, "east"))],
        vec![(&plain, test(CmpOp::Gt, 300i64)), (&joined, test(CmpOp::Le, 400.5))],
    ] {
        let mut filter = CandidateFilter::new(probes);
        let scope = AllocScope::enter();
        let admitted = candidates.iter().filter(|c| filter.admits(**c)).count();
        let stats = scope.finish();
        assert!((100..900).contains(&admitted), "{} of 1 000 admitted", admitted);
        assert_eq!(filter.candidates, 1_000);
        assert_eq!(stats.allocs, 0, "{} blocks over 1 000 candidates", stats.allocs);
    }
}

#[test]
fn a_memo_scan_allocates_only_the_rows_it_keeps() {
    if !enabled() {
        return;
    }
    // A shard scan's memo: rows `(origin, $k, $v)` in one block, tested
    // by `$v > 90` where they lie.
    let block: Vec<Value> = (0..5_000i64)
        .flat_map(|i| [Value::from(i), Value::from(i % 37), Value::from(i % 101)])
        .collect();
    let keep = LiteralTest::compile(&ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(2), ScalarExpr::lit(90i64)), 3).unwrap();
    let scope = AllocScope::enter();
    let kept = keep.select(block.chunks_exact(3));
    let allocs = scope.finish().allocs;
    assert!((400..600).contains(&kept.len()), "{} rows kept", kept.len());
    // One block per row kept, and the list's doublings.
    assert!(allocs <= kept.len() as u64 + 16, "{} blocks for {} rows kept", allocs, kept.len());
}

#[test]
fn a_metric_that_exists_is_found_without_allocating() {
    if !enabled() {
        return;
    }
    let metrics = MetricsRegistry::new();
    metrics.incr("engine.match.candidates", 1);
    metrics.observe("source.latency_us.crm", 1);
    metrics.gauge_max("engine.shard.memo.values", 1);
    let scope = AllocScope::enter();
    for i in 0..1_000 {
        metrics.incr("engine.match.candidates", i);
        metrics.observe("source.latency_us.crm", i);
        metrics.gauge_max("engine.shard.memo.values", i);
    }
    let allocs = scope.finish().allocs;
    assert_eq!(allocs, 0, "{} blocks over 3 000 lookups", allocs);
    assert_eq!(metrics.counter_value("engine.match.candidates"), 1 + 999 * 1_000 / 2);
}

/// An engine over one relational source `name` holding `customers`
/// (200 rows, hash-indexed on `id`), as the serve benchmark's lookups
/// read it — in release, where plans are not verified, so no hit is
/// differentially re-planned.
fn lookup_engine(name: &str) -> Engine {
    let catalog = Catalog::new();
    let customers = common::relational(
        name,
        &[
            "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
            "CREATE INDEX ON customers (id) USING HASH",
        ],
        &[("customers", common::customer_rows(200))],
    );
    catalog.register_source(customers).unwrap();
    let mut config = EngineConfig::default();
    config.optimizer.verify_plans = false;
    Engine::with_config(std::sync::Arc::new(catalog), config)
}

/// The serve benchmark's `lens_point` customer lookup at key `k`.
fn lookup(k: i64) -> String {
    format!(
        r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers", $i = {} CONSTRUCT <c><n>$n</n><r>$r</r></c>"#,
        k
    )
}

/// Blocks and bytes one `query_serialized` of `text` allocates.
fn serve(engine: &Engine, text: &str) -> (String, nimble::trace::AllocStats) {
    let scope = AllocScope::enter();
    let xml = engine.query_serialized(text).unwrap();
    (xml, scope.finish())
}

#[test]
fn a_cached_shape_hit_copies_no_plan() {
    if !enabled() {
        return;
    }
    let engine = lookup_engine("crm");
    // The first key plans the shape; the second is a hit. A hit cuts
    // its key and value from the text's tokens and serves the cached
    // plan as it is, with that value beside it: no query is parsed, and
    // no plan is copied, printed or freed.
    serve(&engine, &lookup(7));
    let (xml, stats) = serve(&engine, &lookup(42));
    assert_eq!(xml, "<results><c><n>customer42</n><r>NE</r></c></results>");
    assert_eq!(engine.plan_cache().stats().hits, 1);
    assert!(stats.allocs <= 120, "{} blocks for a hit", stats.allocs);
    assert_eq!(stats.allocs, HIT_BLOCKS, "{} blocks for a hit", stats.allocs);
}

/// Blocks a hit of [`a_cached_shape_hit_copies_no_plan`] allocates.
const HIT_BLOCKS: u64 = 71;

/// A lookup of customer `k` whose template nests a subquery, with a
/// template `width` elements wide.
fn nested_lookup(k: i64, width: usize) -> String {
    format!(
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $i = {}
CONSTRUCT <c>{{ WHERE <row><name>$m</name></row> IN "customers", $m = $n CONSTRUCT <m>{}</m> }}</c>"#,
        k,
        "<x>$m</x>".repeat(width)
    )
}

#[test]
fn a_wide_template_lexes_into_one_block() {
    if !enabled() {
        return;
    }
    // `<x>$m</x>` is 7 tokens in 9 bytes: a vector sized for fewer
    // tokens than bytes grows while the wide text is lexed.
    let blocks = |width: usize| {
        let text = nested_lookup(1000, width);
        let scope = AllocScope::enter();
        let tokens = nimble::xmlql::lexer::tokenize(&text).unwrap().len();
        (tokens, scope.finish().allocs)
    };
    let ((narrow_tokens, narrow), (wide_tokens, wide)) = (blocks(1), blocks(400));
    assert!(wide_tokens >= narrow_tokens + 7 * 399, "{} tokens against {}", wide_tokens, narrow_tokens);
    assert_eq!((narrow, wide), (1, 1), "blocks to lex the narrow and the wide text");
}

#[test]
fn a_hit_neither_parses_nor_analyzes() {
    if !enabled() {
        return;
    }
    // Two shapes alike but for the template of a nested subquery, one
    // element wide or 400, which no row reaches (no customer has id
    // 1000).
    // Parsing the wide text builds 400 elements more, and analyzing it
    // walks them; a hit of either allocates alike, so it did neither.
    let text = nested_lookup;
    let blocks = |what: &dyn Fn() -> usize| {
        let scope = AllocScope::enter();
        let got = what();
        (got, scope.finish().allocs)
    };
    let mut hits = Vec::new();
    for width in [1, 400] {
        let engine = lookup_engine("crm");
        serve(&engine, &text(7, width));
        serve(&engine, &text(8, width));
        let (xml, stats) = serve(&engine, &text(1000, width));
        assert_eq!(xml, "<results/>");
        assert_eq!(engine.plan_cache().stats().hits, 2);
        let (_, parsed) = blocks(&|| nimble::xmlql::parse_query(&text(1000, width)).unwrap().conditions.len());
        hits.push((stats.allocs, parsed));
    }
    let [(narrow_hit, narrow_parse), (wide_hit, wide_parse)] = hits[..] else {
        unreachable!()
    };
    assert!(wide_parse >= narrow_parse + 400, "{} against {} blocks to parse", wide_parse, narrow_parse);
    assert_eq!(wide_hit, narrow_hit, "a hit of the wide text against the narrow one");
}

#[test]
fn a_fetch_formats_no_metric_name() {
    if !enabled() {
        return;
    }
    // Two engines alike but for the source's name, one of them 4 KiB
    // long. Warm, a serve carries the name in the blocks that hold it
    // for their own sake — the stale-cache key of the fragment sent, the
    // query's record of the call — and in no metric name: each source's
    // metric handles are looked up once and kept.
    // Two names more a fetch, `source.calls.*` and `source.latency_us.*`,
    // would be two lengths more.
    const LONG: usize = 4096;
    let long = format!("crm{}", "x".repeat(LONG));
    let bytes = |name: &str| {
        let engine = lookup_engine(name);
        serve(&engine, &lookup(7));
        serve(&engine, &lookup(8));
        let (_, stats) = serve(&engine, &lookup(9));
        stats.bytes
    };
    let extra = bytes(&long) - bytes("crm");
    assert_eq!(extra as usize / LONG, NAME_COPIES, "{} bytes more for a {}-byte name", extra, LONG);
}

/// How many name lengths a warm serve of [`a_fetch_formats_no_metric_name`]
/// allocates beyond the short-named engine.
const NAME_COPIES: usize = 8;
