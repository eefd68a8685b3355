//! Berkeley PLA format (`.pla`) import/export for single-output covers —
//! the interchange format of espresso itself.

use std::fmt::Write as _;

use crate::{Cover, Cube, LogicError};

/// Serialises a single-output cover as espresso's `.pla` format: `.i`,
/// `.o 1`, one `<input-cube> 1` row per product term, `.e`.
///
/// ```
/// use modsyn_logic::{write_pla, Cover, Cube};
/// let f = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(0, true)])]);
/// let text = write_pla(&f);
/// assert!(text.contains(".i 2"));
/// assert!(text.contains("1- 1"));
/// ```
pub fn write_pla(cover: &Cover) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".i {}", cover.num_vars());
    let _ = writeln!(out, ".o 1");
    let _ = writeln!(out, ".p {}", cover.cube_count());
    for cube in cover.cubes() {
        let _ = writeln!(out, "{cube} 1");
    }
    let _ = writeln!(out, ".e");
    out
}

/// Parses a single-output `.pla` document into `(on_set, dc_set)` covers.
///
/// Rows with output `1` go to the ON-set, `-`/`2` to the don't-care set,
/// and `0`/`~` rows are ignored (OFF-set rows are implied).
///
/// # Errors
///
/// Returns [`LogicError::ParsePla`] on malformed or repeated headers, rows
/// of the wrong width, or unknown characters.
pub fn parse_pla(input: &str) -> Result<(Cover, Cover), LogicError> {
    let mut num_inputs: Option<usize> = None;
    let mut on: Vec<Cube> = Vec::new();
    let mut dc: Vec<Cube> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: &str| LogicError::ParsePla {
            line: lineno + 1,
            message: message.to_string(),
        };
        if let Some(rest) = line.strip_prefix(".i") {
            if let Some(rest) = rest.strip_prefix('l') {
                // .ilb: input labels, ignored.
                let _ = rest;
                continue;
            }
            if num_inputs.is_some() {
                return Err(err("repeated .i"));
            }
            num_inputs = Some(rest.trim().parse().map_err(|_| err("bad .i count"))?);
        } else if let Some(rest) = line.strip_prefix(".o") {
            if rest.starts_with('b') {
                continue; // .ob output labels
            }
            let outs: usize = rest.trim().parse().map_err(|_| err("bad .o count"))?;
            if outs != 1 {
                return Err(err("only single-output PLAs are supported"));
            }
        } else if line.starts_with(".p") || line.starts_with(".e") || line.starts_with(".type") {
            continue;
        } else if line.starts_with('.') {
            return Err(err("unknown directive"));
        } else {
            let n = num_inputs.ok_or_else(|| err("row before .i"))?;
            let mut parts = line.split_whitespace();
            let in_part = parts.next().ok_or_else(|| err("empty row"))?;
            let out_part = parts.next().ok_or_else(|| err("row missing output"))?;
            if in_part.len() != n {
                return Err(err("row width does not match .i"));
            }
            let mut cube = Cube::full(n);
            for (v, ch) in in_part.chars().enumerate() {
                match ch {
                    '1' => cube.set_literal(v, Some(true)),
                    '0' => cube.set_literal(v, Some(false)),
                    '-' | '2' => {}
                    _ => return Err(err("unknown input character")),
                }
            }
            match out_part {
                "1" | "4" => on.push(cube),
                "-" | "2" => dc.push(cube),
                "0" | "~" => {}
                _ => return Err(err("unknown output character")),
            }
        }
    }
    let n = num_inputs.ok_or(LogicError::ParsePla {
        line: 0,
        message: "missing .i".into(),
    })?;
    Ok((Cover::from_cubes(n, on), Cover::from_cubes(n, dc)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize;

    #[test]
    fn round_trip_preserves_semantics() {
        let f = Cover::from_cubes(
            3,
            vec![
                Cube::from_literals(3, &[(0, true), (1, false)]),
                Cube::from_literals(3, &[(2, true)]),
            ],
        );
        let (on, dc) = parse_pla(&write_pla(&f)).unwrap();
        assert!(dc.is_empty());
        assert!(on.semantically_equals(&f));
    }

    #[test]
    fn parses_dont_care_rows() {
        let (on, dc) = parse_pla(".i 2\n.o 1\n11 1\n00 -\n.e\n").unwrap();
        assert_eq!(on.cube_count(), 1);
        assert_eq!(dc.cube_count(), 1);
        // And the pair feeds straight into minimize.
        let r = minimize(&on, &dc);
        assert!(r.cover.covers_minterm(&[true, true]));
    }

    #[test]
    fn rejects_multi_output() {
        assert!(matches!(
            parse_pla(".i 2\n.o 2\n11 10\n.e\n"),
            Err(LogicError::ParsePla { .. })
        ));
    }

    #[test]
    fn rejects_bad_rows() {
        assert!(parse_pla(".i 2\n.o 1\n1 1\n").is_err()); // wrong width
        assert!(parse_pla(".i 2\n.o 1\n1x 1\n").is_err()); // bad char
        assert!(parse_pla("11 1\n").is_err()); // row before .i
    }

    #[test]
    fn rejects_a_repeated_input_count() {
        assert_eq!(
            parse_pla(".i 2\n.o 1\n10 1\n.i 3\n.e\n"),
            Err(LogicError::ParsePla {
                line: 4,
                message: "repeated .i".into(),
            })
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let (on, _) = parse_pla("# header\n.i 1\n.o 1\n\n1 1 # term\n.e\n").unwrap();
        assert_eq!(on.cube_count(), 1);
    }
}
