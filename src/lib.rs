//! # nimble
//!
//! Umbrella crate for the reproduction of *The Nimble XML Data Integration
//! System* (Draper, Halevy, Weld — ICDE 2001). It re-exports every
//! subsystem crate under one roof so examples and downstream users can
//! depend on a single crate:
//!
//! * [`xml`] — the XML data model, parser, serializer, paths, and shapes.
//! * [`xmlql`] — the XML-QL query language front end.
//! * [`algebra`] — the physical algebra and its batch-at-a-time executor
//!   (`next_batch`).
//! * [`relational`] — the in-memory relational engine substrate.
//! * [`sources`] — source adapters and the availability/latency simulator.
//! * [`core`] — the mediator: metadata server, view expansion, fragment
//!   compiler, optimizer, distributed executor, partial results.
//! * [`cleaning`] — dynamic data cleaning: normalizers, matchers, the
//!   concordance database, merge/purge, lineage, and cleaning flows.
//! * [`store`] — local materialization, result caching, view selection.
//! * [`frontend`] — lenses, formatting templates, auth, and monitoring.
//! * [`trace`] — observability: spans, metrics registry, query log.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use nimble_algebra as algebra;
pub use nimble_cleaning as cleaning;
pub use nimble_core as core;
pub use nimble_frontend as frontend;
pub use nimble_relational as relational;
pub use nimble_sources as sources;
pub use nimble_store as store;
pub use nimble_trace as trace;
pub use nimble_xml as xml;
pub use nimble_xmlql as xmlql;
