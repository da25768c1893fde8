//! # nimble-cleaning
//!
//! Dynamic data cleaning (paper §3.2).
//!
//! Cleaning in a data-integration system differs from warehouse ETL:
//! "the source data is unchanged, and at least some of the cleansing and
//! matching need to be performed dynamically." This crate implements the
//! full §3.2 feature list:
//!
//! * **Extensible normalization & matching** — [`normalize`] ships
//!   case/whitespace, abbreviation expansion, name standardization, and
//!   US-address parsing (the paper's *translation problem*: source A's
//!   `city, state` vs. source B's single `address`); [`matching`] ships
//!   Levenshtein, Jaro-Winkler, q-gram Jaccard, Soundex, and weighted
//!   composites. Both are open traits — "domain-specific and
//!   customer-provided normalization and matching functions are
//!   supported".
//! * **Concordance database** — [`concordance`]: "a separate data store
//!   … created to serve to match records from two or more different
//!   original data sources", recording object-identity decisions so the
//!   *extraction* phase can reapply past human decisions autonomously.
//! * **Two phases** — [`pipeline`]: the interactive *data-mining* phase
//!   surfaces uncertain pairs for a human; the autonomous *extraction*
//!   phase applies known decisions and traps exceptions "to allow
//!   extraction to continue with cleanup applied post-hoc".
//! * **Merge/purge baseline** — [`merge_purge`]: the sorted-neighborhood
//!   method of Hernández & Stolfo (the paper's references 10 and 11),
//!   used as the comparison arm of experiment E4.
//! * **Lineage** — [`lineage`]: "recording data ancestry, human
//!   decisions, and supporting roll-back whenever possible".
//! * **Declarative flows** — [`flow`]: cleaning pipelines as data
//!   ("We use a declarative representation of the flow"), serializable
//!   as JSON so flows can be stored and shipped.
//! * **Synthetic dirty data** — [`synth`]: the stand-in for proprietary
//!   customer databases, with parameterized error rates and ground
//!   truth for precision/recall measurement.

pub mod concordance;
pub mod flow;
pub mod lineage;
pub mod matching;
pub mod merge_purge;
pub mod normalize;
pub mod pipeline;
pub mod record;
pub mod synth;

pub use concordance::{ConcordanceDb, Decision};
pub use flow::{CleaningFlow, FlowStep};
pub use lineage::{LineageLog, LineageOp};
pub use matching::{CompositeMatcher, MatchOutcome, Matcher};
pub use merge_purge::{merge_purge, MergePurgeConfig};
pub use normalize::Normalizer;
pub use pipeline::{CleaningPipeline, PipelineReport};
pub use record::{Record, RecordSet};
