//! # nimble-sources
//!
//! Source adapters: the boundary between the mediator and the autonomous
//! data sources it integrates.
//!
//! The paper's product promises "robust and reasonably efficient access to
//! a wide variety of data source systems" and an optimizer "that can
//! address the varying query capabilities of different data sources".
//! This crate supplies both halves of that contract:
//!
//! * [`SourceAdapter`] — the uniform trait every source implements:
//!   schema export (collections with typed fields), a **capability
//!   declaration** ([`Capabilities`]) the optimizer consults, fragment
//!   execution ([`SourceQuery`] → XML rows), and row-count estimates for
//!   costing.
//! * Four concrete adapters:
//!   [`relational::RelationalAdapter`] (generates **prepared SQL** against
//!   the `nimble-relational` engine — the paper's "if an RDB is being
//!   queried, then the compiler generates SQL" — one statement per
//!   fragment shape, each call's values bound to its `?` slots), [`hierarchical::HierarchicalAdapter`]
//!   (an IMS-style segment store with limited query capability),
//!   [`xmldoc::XmlDocAdapter`] (native XML documents), and
//!   [`csv::CsvAdapter`] (flat files with schema inference).
//! * [`sim::SimulatedLink`] — wraps any adapter with the failure modes the
//!   paper's §3.4 is about: sources that are offline, flaky, or slow.
//!   Availability and latency are configurable and deterministic, which is
//!   what experiments E1/E3 sweep.
//!
//! ## The fragment result contract
//!
//! Every adapter returns query results as an XML document shaped
//! `<rows><row><out1>…</out1><out2>…</out2></row>…</rows>`, where the
//! `outN` names are exactly the output names the [`SourceQuery`] asked
//! for. The mediator turns these into binding tuples without caring what
//! kind of source produced them — XML as the unifying model, which is the
//! paper's thesis.

//!
//! ## Key sets
//!
//! Besides its selections a fragment may carry **key sets**
//! ([`SourceQuery::key_sets`]): `field IN (keys)`, sent when another
//! source's answer already says which join keys can contribute (the
//! mediator's bind stage). The contract is one sentence: *a key set is
//! a hint* — the mediator still runs the join, so an adapter that
//! ignores it returns a superset and the answer is the same; an adapter
//! that honours it must keep every row whose field
//! [`nimble_xml::Atomic::key_eq`]s a key. A new adapter therefore needs
//! no code to stay correct. The relational adapter renders
//! `alias.field IN (…)`; adapters that filter in-process (`csv`,
//! `hierarchical`) share [`KeyFilter`]; the [`sim`] and [`metered`]
//! wrappers pass the query through. Keys are distinct, non-null, of the
//! field's declared type, and the list is never empty — a mediator that
//! has no key does not call the source at all.
//!
//! ## Row floors
//!
//! A fragment over one collection may also carry a **row floor**
//! ([`SourceQuery::after_row`]): "only the rows past the first `n`",
//! which is how a materialized view is refreshed from what an
//! append-only collection gained instead of from the whole of it. The
//! contract is the opposite of a key set's: *a floor is a requirement* —
//! the mediator appends the answer to rows it already holds. So an
//! adapter opts in by stamping its answer with a [`query::Watermark`]
//! (the floor it applied, the collection's length as read, and a
//! generation that moves whenever anything but an append happened), and
//! the mediator takes an answer for a delta only when the stamp echoes
//! the floor it sent. An adapter that ignores the field never stamps,
//! and gets asked for the whole collection — a new adapter needs no
//! code for this either. Only the relational adapter stamps (its tables
//! have no `UPDATE` or `DELETE`); the [`sim`] and [`metered`] wrappers
//! hand query and answer through untouched.

pub mod capabilities;
pub mod csv;
pub mod error;
pub mod hierarchical;
pub mod metered;
pub mod query;
pub mod relational;
pub mod sim;
pub mod xmldoc;

pub use capabilities::Capabilities;
pub use error::SourceError;
pub use metered::MeteredAdapter;
pub use query::{
    CollectionInfo, CollectionRef, FieldRef, KeyFilter, PredOp, Selection, SourceQuery, Watermark,
};

use nimble_xml::Document;
use std::sync::Arc;

/// What kind of system sits behind an adapter (used in EXPLAIN output and
/// by the compiler's per-source translation choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    Relational,
    Hierarchical,
    XmlDocument,
    FlatFile,
}

/// The uniform adapter interface.
pub trait SourceAdapter: Send + Sync {
    /// Registered name of the source.
    fn name(&self) -> &str;

    /// What kind of system this is.
    fn kind(&self) -> SourceKind;

    /// What query work this source can take over from the mediator.
    fn capabilities(&self) -> Capabilities;

    /// Collections (tables / segment types / documents) this source
    /// exports, with their typed fields.
    fn collections(&self) -> Vec<CollectionInfo>;

    /// Execute a pushed-down fragment; the result follows the
    /// `<rows><row>…` contract.
    fn execute(&self, query: &SourceQuery) -> Result<Arc<Document>, SourceError>;

    /// Fetch one whole collection as XML (native document form for XML
    /// sources, `<rows>` form for record-shaped sources). The mediator
    /// uses this when a pattern cannot be pushed down.
    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError>;

    /// Estimated rows in a collection, for join ordering. `None` when the
    /// source cannot say (the paper: "we do not have good cost estimates
    /// for querying over remote data sources").
    fn estimated_rows(&self, collection: &str) -> Option<u64>;
}
