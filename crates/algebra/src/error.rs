//! Execution errors.

use std::fmt;

/// A runtime failure inside the physical executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An expression referenced a column index outside the schema.
    ColumnOutOfRange { index: usize, width: usize },
    /// A call named a function the registry does not know.
    UnknownFunction(String),
    /// A function was called with the wrong number or type of arguments.
    FunctionArgs { func: String, message: String },
    /// Arithmetic on non-numeric operands, division by zero, etc.
    Arithmetic(String),
    /// An operator invariant was violated (mismatched exchange schemas,
    /// a sort input too large to index, …).
    Operator(String),
    /// A failure raised by a source underneath a scan.
    Source { source: String, message: String },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ColumnOutOfRange { index, width } => {
                write!(f, "column {} out of range for width-{} tuple", index, width)
            }
            ExecError::UnknownFunction(name) => write!(f, "unknown function {:?}", name),
            ExecError::FunctionArgs { func, message } => {
                write!(f, "bad arguments to {}: {}", func, message)
            }
            ExecError::Arithmetic(m) => write!(f, "arithmetic error: {}", m),
            ExecError::Operator(m) => write!(f, "operator error: {}", m),
            ExecError::Source { source, message } => {
                write!(f, "source {:?} failed: {}", source, message)
            }
        }
    }
}

impl std::error::Error for ExecError {}
