//! A serve leaves nothing behind: after a warm-up, what the engine holds
//! between serves does not grow with the number of serves. The counting
//! allocator's peak of live bytes over a window of serves is the window's
//! largest serve plus whatever the engine kept from the serves before it
//! in the window, so a window four times as long reads the same peak
//! unless something is kept per serve.

mod common;

use nimble::core::{Engine, EngineConfig};
use nimble::trace::alloc::{enabled, AllocScope};

/// Customer `k` of `crm`, found by name, joined to its orders in
/// `billing` through the bind stage: the customer's id is sent to the
/// orders fragment as its one key.
fn lookup_join(k: i64) -> String {
    format!(
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $n = "customer{}",
                 <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
           CONSTRUCT <r><n>$n</n><o>$o</o><t>$t</t></r>"#,
        k
    )
}

/// Serve `serves` lookups over a fixed set of eight keys, returning the
/// peak of live bytes above where the window started.
fn peak_over(engine: &Engine, serves: usize) -> u64 {
    let scope = AllocScope::enter();
    for s in 0..serves {
        let xml = engine.query_serialized(&lookup_join(1 + (s % 8) as i64)).unwrap();
        assert!(xml.starts_with("<results><r>"), "{}", xml);
    }
    scope.finish().peak_bytes
}

#[test]
fn a_serve_keeps_nothing_per_serve() {
    if !enabled() {
        return;
    }
    let (catalog, _) = common::customer_fixture(200);
    let mut config = EngineConfig::default();
    config.optimizer.verify_plans = false;
    let engine = Engine::with_config(catalog, config);
    let explained = engine.query(&lookup_join(1)).unwrap().stats.plan;
    assert!(explained.contains("-- bind $i: 1 keys sent"), "{}", explained);
    // Past every ring the engine keeps (the query log's 256 serves among
    // them), so each window's serves replace as many as they add.
    peak_over(&engine, 600);
    const N: usize = 256;
    let (short, long) = (peak_over(&engine, N), peak_over(&engine, 4 * N));
    eprintln!("peak over {} serves: {} B, over {}: {} B", N, short, 4 * N, long);
    // One 16-byte block kept per serve would read 12 KiB more.
    assert!(long.abs_diff(short) <= SLACK, "peak over {} serves {} B, over {} serves {} B", N, short, 4 * N, long);
}

/// Bytes the two windows' peaks may differ by.
const SLACK: u64 = 2048;
