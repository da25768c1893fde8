//! # nimble-store
//!
//! Local materialization: the "compound architecture" of the paper's
//! §3.3, which combines virtual querying with selective, locally
//! materialized data.
//!
//! The key design point reproduced here is that Nimble does **not** build
//! a warehouse with its own schema: "one does not design a warehouse
//! schema. Instead, one materializes views over the mediated schema."
//! Accordingly:
//!
//! * [`ViewStore`] holds materialized results of mediated-schema queries,
//!   stamped with a logical refresh time and an optional TTL, and reports
//!   freshness so the query processor "knows to make use of local copies
//!   of data when available".
//! * [`ResultCache`] is an LRU cache of the fragment answers last fetched
//!   from each source, under a size budget: what the §3.4
//!   `StaleCache` policy answers with while a source is down.
//! * [`selection`] implements the view-selection policies experiment E2
//!   compares (none / greedy benefit-per-size / all),
//!   addressing the paper's open problem of "algorithms that decide which
//!   data (and over which sources) need to be materialized" using a
//!   workload monitor.
//!
//! Time is a logical [`clock::LogicalClock`] so freshness experiments are
//! deterministic.

pub mod cache;
pub mod clock;
pub mod selection;
pub mod shard;
pub mod stats;
pub mod views;

pub use cache::ResultCache;
pub use clock::LogicalClock;
pub use shard::{shard_stats_key, ShardMap, ShardScheme, ShardSpec};
pub use stats::{CollectionStats, ColumnStats, SampleBuilder, SampleMark, StatsCatalog};
pub use selection::{select_views, CandidateView, SelectionPolicy, WorkloadMonitor};
pub use views::{Freshness, MaterializedView, ViewMark, ViewStore};
