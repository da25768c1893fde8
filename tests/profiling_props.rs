//! Property sweep (seeded, `nimble::trace::rng::sweep`) for the resource
//! profiler: over randomly generated databases, forcing per-operator
//! metering and allocation accounting on never changes a query's answer,
//! and the accounting it produces is internally conserved (peaks bounded
//! by totals, metered root rows equal to materialized tuples).

mod common;

use common::{build_catalog, customers, orders};
use nimble::core::Engine;
use nimble::trace::rng::sweep;
use nimble::xml::to_string;

/// Profiling is an observer: the profiled run of every generated
/// query constructs a byte-identical document, and its accounting
/// is conserved.
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

        let plain = engine.query(&query).unwrap();
        let profiled = engine.query_profiled(&query).unwrap();

        // Byte-identical result documents and tuple counts.
        assert_eq!(
            to_string(&plain.document.root()),
            to_string(&profiled.document.root())
        );
        assert_eq!(plain.stats.tuples, profiled.stats.tuples);

        // Allocation conservation (when the counting allocator is
        // compiled in): a peak above entry can only come from bytes
        // allocated inside the scope.
        if nimble::trace::alloc::enabled() {
            assert!(profiled.stats.alloc_bytes > 0);
            assert!(profiled.stats.alloc_peak_bytes <= profiled.stats.alloc_bytes);
        }

        // Plan-quality scoring: when a worst offender is named, its
        // Q-error is a ratio >= 1 by construction.
        if profiled.stats.worst_qerror_op.is_some() {
            assert!(profiled.stats.worst_qerror >= 1.0);
        }

        // Row conservation: the metered root of the analyzed plan
        // materializes exactly the reported tuples.
        let listing = engine.explain_analyze(&query).unwrap();
        if let Some(at) = listing.find("actual rows=") {
            let digits: String = listing[at + "actual rows=".len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            let root_rows: usize = digits.parse().unwrap();
            assert_eq!(root_rows, profiled.stats.tuples);
        }
    });
}
