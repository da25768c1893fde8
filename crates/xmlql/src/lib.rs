//! # nimble-xmlql
//!
//! An XML-QL query-language front end: lexer, recursive-descent parser,
//! AST, and semantic analysis.
//!
//! XML-QL (Deutsch, Fernández, Florescu, Levy, Suciu — W3C note, 1998) was
//! "the only existing expressive query language for XML" when the Nimble
//! system was designed, and is the language the paper's product supports.
//! This crate implements the core of that language as a clearly documented
//! dialect:
//!
//! ```text
//! WHERE  <bib><book year=$y>
//!            <title>$t</title>
//!            <author><last>$l</last></author>
//!        </book></bib> IN "books",
//!        $y > 1995
//! CONSTRUCT <result><title>$t</title><author>$l</author></result>
//! ORDER-BY $t
//! ```
//!
//! Dialect summary (differences from the note are called out):
//!
//! * **Patterns** bind variables at attributes (`year=$y`), element content
//!   (`<title>$t</title>`), whole elements (`ELEMENT_AS $e`), and element
//!   content forests (`CONTENT_AS $c`). End tags may be abbreviated `</>`.
//! * **Tag patterns**: a literal name, `*` (any element), `**name`
//!   (descendant at any depth — regular-path shorthand), and `name+`
//!   (one or more levels of recursive nesting through `name` elements).
//! * **Sources**: `IN "name"` names a registered collection or mediated
//!   view; `IN $var` navigates within an element bound earlier (join
//!   within a document).
//! * **Predicates** are comma-separated alongside patterns: comparisons,
//!   arithmetic, `AND`/`OR`/`NOT`, `LIKE` with `%` wildcards, and function
//!   calls from the engine's registry.
//! * **CONSTRUCT templates** nest literal elements, variable references,
//!   quoted literal text, **nested subqueries** (grouping by correlation,
//!   as in the note), and **Skolem-ID grouping** (`<result ID=F($x)>`).
//! * **`ORDER-BY $v [DESC]`** is a dialect extension (the product lists
//!   ordering among its required features; the note has no explicit
//!   clause).
//!
//! Keywords (`WHERE`, `IN`, `AND`, `OR`, `NOT`, `LIKE`, `ASC`, `DESC`,
//! `CONSTRUCT`, `ELEMENT_AS`, `CONTENT_AS`) are reserved in any case
//! spelling and cannot be used as element names in patterns or
//! templates.
//!
//! The output of this crate is a checked [`ast::Query`]; lowering to the
//! mediator's internal representation lives in `nimble-core`, matching the
//! paper's stance that the *physical* algebra is the interface that
//! matters while the query language "is a moving target".

pub mod analyze;
pub mod ast;
pub mod display;
pub mod lexer;
pub mod parser;

pub use analyze::{analyze, AnalysisError, QueryInfo};
pub use ast::*;
pub use display::QueryShape;
pub use parser::{parse_query, parse_query_checked, ParseError, TypeDiag};

/// Parse and semantically check a query in one step. Surface type
/// diagnostics (arithmetic on a non-numeric literal, `LIKE` on a
/// numeric one) are fatal here: the first is reported as a positioned
/// [`AnalysisError::TypeError`], so a bad view definition fails at
/// DEFINE VIEW time instead of on its first query.
pub fn compile(text: &str) -> Result<(ast::Query, QueryInfo), CompileError> {
    let (query, diags) = parser::parse_query_checked(text).map_err(CompileError::Parse)?;
    if let Some(d) = diags.into_iter().next() {
        return Err(CompileError::Analysis(AnalysisError::TypeError {
            detail: d.detail,
            line: d.line,
            col: d.col,
        }));
    }
    let info = analyze(&query).map_err(CompileError::Analysis)?;
    Ok((query, info))
}

/// Either phase of front-end failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    Parse(ParseError),
    Analysis(AnalysisError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{}", e),
            CompileError::Analysis(e) => write!(f, "{}", e),
        }
    }
}
impl std::error::Error for CompileError {}
