//! DIMACS CNF import/export.

use std::fmt::Write as _;
use std::num::NonZeroI32;

use crate::{CnfFormula, Lit, SatError};

/// Parses a DIMACS CNF document.
///
/// Comment lines (`c …`) are ignored; the `p cnf <vars> <clauses>` header is
/// required, once, with nothing after the clause count; clauses are
/// zero-terminated literal lists and may span lines, and a last clause may
/// leave out its `0`. A header without a clause count is legal and reads
/// every clause that follows; a header with one must match the clauses
/// read.
///
/// # Errors
///
/// Returns [`SatError`] on a missing, malformed or repeated header, an
/// unparsable literal, a literal outside the declared variable range, or a
/// declared clause count the document does not hold.
///
/// ```
/// use modsyn_sat::parse_dimacs;
/// # fn main() -> Result<(), modsyn_sat::SatError> {
/// let f = parse_dimacs("c demo\np cnf 2 2\n1 2 0\n-1 0\n")?;
/// assert_eq!(f.num_vars(), 2);
/// assert_eq!(f.clause_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_dimacs(input: &str) -> Result<CnfFormula, SatError> {
    let mut formula: Option<CnfFormula> = None;
    let mut declared: Option<usize> = None;
    let mut read = 0usize;
    let mut current: Vec<Lit> = Vec::new();

    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('p') {
            let mut it = line.split_whitespace().skip(1);
            let kind = it.next();
            let vars = it.next().and_then(|v| v.parse::<usize>().ok());
            let clauses = it.next().map(str::parse::<usize>).transpose();
            match (kind, vars, clauses, it.next()) {
                (Some("cnf"), Some(v), Ok(c), None) if formula.is_none() => {
                    formula = Some(CnfFormula::new(v));
                    declared = c;
                }
                _ => {
                    return Err(SatError::MalformedHeader {
                        line: line.to_string(),
                    });
                }
            }
            continue;
        }
        let f = formula.as_mut().ok_or_else(|| SatError::MalformedHeader {
            line: line.to_string(),
        })?;
        for token in line.split_whitespace() {
            let value: i32 = token.parse().map_err(|_| SatError::MalformedLiteral {
                token: token.to_string(),
            })?;
            if value == 0 {
                f.add_clause(current.drain(..));
                read += 1;
                continue;
            }
            if value.unsigned_abs() as usize > f.num_vars() {
                return Err(SatError::VariableOutOfRange {
                    variable: value,
                    declared: f.num_vars(),
                });
            }
            current.push(Lit::from_dimacs(
                NonZeroI32::new(value).expect("checked non-zero"),
            ));
        }
    }
    let mut f = formula.ok_or_else(|| SatError::MalformedHeader {
        line: String::new(),
    })?;
    if !current.is_empty() {
        f.add_clause(current);
        read += 1;
    }
    match declared {
        Some(declared) if declared != read => Err(SatError::ClauseCountMismatch { declared, read }),
        _ => Ok(f),
    }
}

/// Serialises a formula to DIMACS CNF text.
///
/// ```
/// use modsyn_sat::{parse_dimacs, write_dimacs};
/// # fn main() -> Result<(), modsyn_sat::SatError> {
/// let f = parse_dimacs("p cnf 2 1\n1 -2 0\n")?;
/// let text = write_dimacs(&f);
/// assert_eq!(parse_dimacs(&text)?, f);
/// # Ok(())
/// # }
/// ```
pub fn write_dimacs(formula: &CnfFormula) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "p cnf {} {}",
        formula.num_vars(),
        formula.clause_count()
    );
    for clause in formula.clauses() {
        for l in clause {
            let _ = write!(out, "{} ", l.to_dimacs());
        }
        let _ = writeln!(out, "0");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, Outcome, SolverOptions};

    #[test]
    fn parse_rejects_missing_header() {
        assert!(matches!(
            parse_dimacs("1 2 0\n"),
            Err(SatError::MalformedHeader { .. })
        ));
    }

    #[test]
    fn parse_rejects_bad_literal() {
        assert!(matches!(
            parse_dimacs("p cnf 2 1\n1 x 0\n"),
            Err(SatError::MalformedLiteral { .. })
        ));
    }

    #[test]
    fn parse_rejects_out_of_range() {
        assert!(matches!(
            parse_dimacs("p cnf 2 1\n3 0\n"),
            Err(SatError::VariableOutOfRange {
                variable: 3,
                declared: 2
            })
        ));
    }

    #[test]
    fn clause_may_span_lines() {
        let f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n").unwrap();
        assert_eq!(f.clause_count(), 1);
        assert_eq!(f.clauses().next().unwrap().len(), 3);
    }

    #[test]
    fn trailing_clause_without_zero_is_kept() {
        let f = parse_dimacs("p cnf 2 1\n1 2\n").unwrap();
        assert_eq!(f.clause_count(), 1);
    }

    #[test]
    fn round_trip_preserves_satisfiability() {
        let f = parse_dimacs("p cnf 3 3\n1 -2 0\n2 -3 0\n-1 3 0\n").unwrap();
        let g = parse_dimacs(&write_dimacs(&f)).unwrap();
        let a = solve(&f, SolverOptions::default());
        let b = solve(&g, SolverOptions::default());
        assert!(matches!(
            (a, b),
            (Outcome::Satisfiable(_), Outcome::Satisfiable(_))
        ));
    }
}
