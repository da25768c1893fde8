//! # nimble-relational
//!
//! An in-memory relational engine substrate.
//!
//! The Nimble paper's compiler "translates each fragment into the
//! appropriate query language for the destination source; for example, if
//! an RDB is being queried, then the compiler generates SQL", and it
//! "considers both the type of the underlying source … and the presence of
//! indices on the data". Reproducing that faithfully requires an actual
//! SQL-speaking relational system for the mediator to talk to — this crate
//! is that system:
//!
//! * typed columns (`INT`, `FLOAT`, `TEXT`, `BOOL`) over heap tables,
//! * hash and B-tree secondary indexes,
//! * a SQL subset (SELECT–PROJECT–JOIN, aggregates, `ORDER BY`, `LIMIT`,
//!   `IN`, `LIKE`, `BETWEEN`; plus `CREATE TABLE`, `CREATE INDEX`,
//!   `INSERT`) with its own lexer and parser,
//! * a planner that picks index access paths and hash joins,
//! * execution statistics (`rows_scanned`, `index_lookups`) that the
//!   pushdown experiments (E5) read.
//!
//! The mediator never touches these internals: its relational adapter
//! ships SQL, exactly as it would to a remote database over ODBC — text
//! with `?` slots **prepared** once ([`Database::prepare`]: parsed,
//! names resolved, access paths chosen) and **run** with each call's
//! values bound ([`Database::run`]). Plain text goes the same way with
//! nothing to bind ([`Database::execute`]).
//!
//! ```
//! use nimble_relational::{Database, SlotValue};
//! use nimble_xml::Atomic;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'ada'), (2, 'alan')").unwrap();
//! let rs = db.execute("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(rs.rows[0][0].lexical(), "alan");
//!
//! let by_id = db.prepare("SELECT name FROM t WHERE id = ?").unwrap();
//! let rows = db.run(&by_id, &[SlotValue::Value(&Atomic::Int(1))]).unwrap();
//! assert_eq!(rows[0][0].lexical(), "ada");
//! ```

pub mod database;
pub mod error;
pub mod exec;
pub mod plan;
pub mod sql;
pub mod table;
pub mod types;

pub use database::{Database, ExecStats, ResultSet};
pub use exec::{Prepared, SlotValue};
pub use sql::ast::SlotKind;
pub use error::SqlError;
pub use table::{IndexKind, Table};
pub use types::{Column, ColumnType};
