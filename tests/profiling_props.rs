//! Property sweep (seeded, `nimble::trace::rng::sweep`) for the resource
//! profiler: over randomly generated databases, every serve's accounting
//! is internally conserved (peaks bounded by totals, the plan's root
//! rows equal to materialized tuples), and rendering it as EXPLAIN
//! ANALYZE never changes a query's answer.

mod common;

use common::{build_catalog, customers, orders};
use nimble::core::Engine;
use nimble::trace::rng::sweep;
use nimble::xml::to_string;

/// Accounting is an observer: a second serve of every generated query
/// constructs a byte-identical document, and its accounting is
/// conserved.
#[test]
fn profiling_never_changes_answers_and_accounting_is_conserved() {
    sweep(32, |rng| {
        let (customers, orders, threshold) = (customers(rng), orders(rng), rng.range(0..100));
        let query = format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                     $t > {}
               CONSTRUCT <hit><name>$n</name><total>$t</total></hit>
               ORDER-BY $n"#,
            threshold
        );
        let engine = Engine::new(build_catalog(&customers, &orders));

        let first = engine.query(&query).unwrap();
        let served = engine.query(&query).unwrap();

        // Byte-identical result documents and tuple counts.
        assert_eq!(
            to_string(&first.document.root()),
            to_string(&served.document.root())
        );
        assert_eq!(first.stats.tuples, served.stats.tuples);

        // Allocation conservation (when the counting allocator is
        // compiled in): a peak above entry can only come from bytes
        // allocated inside the scope.
        if nimble::trace::alloc::enabled() {
            assert!(served.stats.alloc_bytes > 0);
            assert!(served.stats.alloc_peak_bytes <= served.stats.alloc_bytes);
        }

        // Plan-quality scoring: when a worst offender is named, its
        // Q-error is a ratio >= 1 by construction.
        if served.stats.worst_qerror_op.is_some() {
            assert!(served.stats.worst_qerror >= 1.0);
        }

        // Row conservation: the root of the analyzed plan (its first
        // operator line, unannotated when it emitted nothing)
        // materializes exactly the reported tuples.
        let listing = engine.explain_analyze(&query).unwrap();
        let root = listing
            .lines()
            .skip_while(|l| !l.starts_with("-- "))
            .find(|l| !l.starts_with("-- "))
            .unwrap();
        let root_rows: usize = root.split_once("[rows=").map_or(0, |(_, rest)| {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse().unwrap()
        });
        assert_eq!(root_rows, served.stats.tuples, "listing:\n{}", listing);
    });
}
