//! # nimble-xml
//!
//! The XML data model at the core of the Nimble data integration system
//! reproduction, together with a from-scratch XML 1.0 parser, a serializer,
//! a small path-navigation language, and a *shape* (schema) layer.
//!
//! ## The "slightly more structured" model
//!
//! The Nimble paper (§3.1) argues that a data model for an integration
//! product should accommodate XML, yet "deal efficiently with the types of
//! data that we expected to see from users most frequently (e.g.,
//! relational, hierarchical)". This crate realizes that as follows:
//!
//! * Atomic values are **typed** ([`Atomic`]: null, boolean, integer,
//!   float, string) rather than uniformly text, so relational columns round
//!   trip without reparsing.
//! * Documents are **ordered trees** stored in one flat pre-order table
//!   ([`Document`]): a node's id is its position, its subtree the id range
//!   up to its `end` link, so document order (an XML requirement the paper
//!   calls "intrinsic") is a cheap integer comparison, navigation "up,
//!   down and sideways" is O(1) per step, a relational row costs no heap
//!   block of its own, and bulk readers walk a borrowed [`Cursor`].
//! * Elements may be annotated with a [`shape::Shape`] describing
//!   record-like or list-like regular structure, which adapters for
//!   relational and hierarchical sources exploit.
//!
//! ## Quick example
//!
//! ```
//! use nimble_xml::{parse, Path};
//!
//! let doc = parse("<db><book year='1999'><title>Data on the Web</title></book></db>").unwrap();
//! let path = Path::parse("book/title").unwrap();
//! let titles: Vec<String> = path
//!     .select(doc.root())
//!     .map(|n| n.text())
//!     .collect();
//! assert_eq!(titles, vec!["Data on the Web"]);
//! ```

pub mod atomic;
pub mod build;
pub mod intern;
pub mod node;
pub mod parse;
pub mod path;
pub mod serialize;
pub mod shape;
pub mod value;

pub use atomic::{Atomic, AtomicKey, AtomicType};
pub use build::{BuildMark, DocumentBuilder};
pub use intern::Sym;
pub use node::{Cursor, Document, NodeId, NodeKind, NodeRef};
pub use parse::{parse, ParseError};
pub use path::{Path, Step};
pub use serialize::{to_string, to_string_pretty, XmlWriter};
pub use shape::{Multiplicity, Shape, ShapeError};
pub use value::Value;
