//! # nimble-core
//!
//! The mediator — the Nimble paper's primary contribution. This crate
//! wires every subsystem into the pipeline of the paper's Figure 1:
//!
//! ```text
//!            lens / application
//!                   │ XML-QL
//!        ┌──────────▼───────────┐
//!        │  INTEGRATION ENGINE  │   parse → resolve (metadata server)
//!        │   (this crate)       │   → view expansion → fragment
//!        └──┬───────┬────────┬──┘   compilation → optimize → execute
//!           │       │        │
//!        compiler compiler compiler      per-source translation
//!           │       │        │           (SQL text for RDBs, …)
//!        ┌──▼──┐ ┌──▼───┐ ┌──▼──┐
//!        │ RDB │ │ hier │ │ XML │ ...    autonomous sources
//!        └─────┘ └──────┘ └─────┘
//! ```
//!
//! Responsibilities, with the paper section they reproduce:
//!
//! * [`catalog::Catalog`] — the **metadata server**: registered sources
//!   and **hierarchically composable mediated schemas** (views defined
//!   over sources *or over other views*, §2.1's global-as-view layering).
//! * [`matcher`] — XML-QL tree-pattern matching producing binding tuples.
//! * [`compiler`] — **query decomposition**: "parsed and broken into
//!   multiple fragments based on the target data sources", each fragment
//!   translated "into the appropriate query language for the destination
//!   source" (SQL text for relational adapters).
//! * [`planner`] — the optimizer that "can address the varying query
//!   capabilities of different data sources": capability-aware pushdown,
//!   cardinality-ordered joins, and translation of residual work into
//!   `nimble-algebra` physical operators (no logical algebra — §3.1).
//! * [`construct`] — CONSTRUCT templates, Skolem-ID grouping, nested
//!   subqueries.
//! * [`engine::Engine`] — end-to-end query service with **partial
//!   results** under source unavailability (§3.4) and **materialized
//!   views over the mediated schema** with on-demand refresh (§3.3).
//! * [`cluster::EngineCluster`] — "multiple instances of the integration
//!   engine can be run simultaneously", with round-robin or least-loaded
//!   dispatch.

pub mod catalog;
pub mod cluster;
pub mod compiler;
pub mod construct;
pub mod engine;
pub mod error;
pub mod matcher;
pub mod plan_cache;
pub mod planner;
pub mod shard;

pub use catalog::Catalog;
pub use cluster::{DispatchStrategy, EngineCluster, ShardedCluster};
pub use nimble_store::{ShardScheme, ShardSpec};
pub use shard::{Partition, ShardNode, ShardRuntime};
pub use engine::{
    Engine, EngineConfig, OptimizerConfig, ProvSource, Provenance, QueryResult,
    UnavailablePolicy,
};
pub use nimble_algebra::LineageMask;
pub use nimble_trace::{Phases, ServeReport, SourceCalls, Stage};
pub use plan_cache::{Observed, PlanCache, PlanCacheStats, PlanStamp, Prepared, Took};
pub use error::CoreError;

#[cfg(test)]
mod engine_tests;
