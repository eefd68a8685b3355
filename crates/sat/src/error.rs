//! Error type for SAT parsing.

use std::error::Error;
use std::fmt;

/// Errors raised while parsing DIMACS input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SatError {
    /// The `p cnf <vars> <clauses>` header is missing, malformed or repeated.
    MalformedHeader {
        /// The offending line.
        line: String,
    },
    /// A token could not be parsed as a literal.
    MalformedLiteral {
        /// The offending token.
        token: String,
    },
    /// A literal referenced a variable beyond the header's declaration.
    VariableOutOfRange {
        /// 1-based DIMACS variable number.
        variable: i32,
        /// Declared variable count.
        declared: usize,
    },
    /// The header declared a clause count the document does not hold (a
    /// truncated or concatenated file).
    ClauseCountMismatch {
        /// Clause count of the header.
        declared: usize,
        /// Clauses the document holds.
        read: usize,
    },
}

impl fmt::Display for SatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatError::MalformedHeader { line } => {
                write!(f, "malformed dimacs header: {line:?}")
            }
            SatError::MalformedLiteral { token } => {
                write!(f, "malformed dimacs literal: {token:?}")
            }
            SatError::VariableOutOfRange { variable, declared } => {
                write!(
                    f,
                    "variable {variable} out of range, header declared {declared}"
                )
            }
            SatError::ClauseCountMismatch { declared, read } => {
                write!(
                    f,
                    "clause count mismatch: header declared {declared}, document holds {read}"
                )
            }
        }
    }
}

impl Error for SatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SatError::VariableOutOfRange {
            variable: 9,
            declared: 3,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('3'));
    }
}
