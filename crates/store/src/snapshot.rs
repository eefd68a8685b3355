//! Snapshot (de)serialization: the checkpoint generations of the durable
//! store.
//!
//! A snapshot is one deterministic JSON document: the format version, the
//! journal watermark it covers, and every live entry least recently used
//! first, each encoded exactly as its journal frame payload
//! ([`StoreMutation::to_json`]): module keys as 16 hex digits, response
//! keys as 32, and `Quat` assignment values packed as one character each
//! (`0`, `1`, `u`, `d`). Restoring the entries in order rebuilds the
//! store's recency order, and re-applies its byte bound.

use modsyn_obs::Json;
use modsyn_sat::SolverStats;
use modsyn_sg::{Quat, StateSignalAssignment};

use crate::provenance::{ClauseFamilies, FormulaStat, ModuleEntry, Provenance, SynthRecord};
use crate::store::SynthStore;
use crate::wal::StoreMutation;

/// Snapshot format version; bump on breaking layout changes. A generation
/// of another version does not load, so recovery falls back past it.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Recovered store state, decoded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotData {
    /// Entries in restore order: a snapshot's, least recently used first,
    /// then the journal suffix replayed over it.
    pub entries: Vec<StoreMutation>,
    /// Highest journal sequence number this state covers. Recovery
    /// replays only journal frames *above* a snapshot's watermark.
    pub wal_seq: u64,
}

/// Renders entries to a snapshot document recording that every journal
/// frame with `seq <= wal_seq` is folded in, so recovery replays only the
/// suffix.
pub fn snapshot_doc(entries: &[StoreMutation], wal_seq: u64) -> Json {
    Json::obj([
        ("version", Json::from(SNAPSHOT_VERSION)),
        ("wal_seq", Json::from(wal_seq)),
        (
            "entries",
            Json::Arr(entries.iter().map(StoreMutation::to_json).collect()),
        ),
    ])
}

/// Decodes a snapshot document produced by [`snapshot_doc`].
///
/// # Errors
///
/// Returns a human-readable message on version mismatch or any missing /
/// mistyped field.
pub fn snapshot_from_json(doc: &Json) -> Result<SnapshotData, String> {
    let version = uint(doc, "version")?;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        ));
    }
    Ok(SnapshotData {
        entries: arr(doc, "entries")?
            .iter()
            .map(StoreMutation::from_json)
            .collect::<Result<_, _>>()?,
        wal_seq: uint(doc, "wal_seq")?,
    })
}

/// Loads recovered entries into a live store, in order, under its bound.
pub fn restore_into(store: &SynthStore, data: &SnapshotData) {
    for entry in &data.entries {
        store.insert(entry.clone());
    }
}

pub(crate) fn module_to_json(key: u64, entry: &ModuleEntry) -> Json {
    Json::obj([
        ("key", Json::Str(format!("{key:016x}"))),
        (
            "assignments",
            Json::Arr(entry.assignments.iter().map(assignment_to_json).collect()),
        ),
        (
            "formulas",
            Json::Arr(entry.formulas.iter().map(formula_to_json).collect()),
        ),
        (
            "provenance",
            Json::Arr(entry.provenance.iter().map(provenance_to_json).collect()),
        ),
    ])
}

pub(crate) fn module_from_json(doc: &Json) -> Result<ModuleEntry, String> {
    Ok(ModuleEntry {
        assignments: arr(doc, "assignments")?
            .iter()
            .map(assignment_from_json)
            .collect::<Result<_, _>>()?,
        formulas: arr(doc, "formulas")?
            .iter()
            .map(formula_from_json)
            .collect::<Result<_, _>>()?,
        provenance: arr(doc, "provenance")?
            .iter()
            .map(provenance_from_json)
            .collect::<Result<_, _>>()?,
    })
}

pub(crate) fn record_to_json(key: u128, record: &SynthRecord) -> Json {
    Json::obj([
        ("key", Json::Str(format!("{key:032x}"))),
        ("benchmark", Json::Str(record.benchmark.clone())),
        (
            "inserted",
            Json::Arr(
                record
                    .inserted
                    .iter()
                    .map(|s| Json::Str(s.clone()))
                    .collect(),
            ),
        ),
        (
            "provenance",
            Json::Arr(record.provenance.iter().map(provenance_to_json).collect()),
        ),
        ("body", Json::Str(record.body.clone())),
    ])
}

pub(crate) fn record_from_json(doc: &Json) -> Result<SynthRecord, String> {
    Ok(SynthRecord {
        benchmark: str_field(doc, "benchmark")?.to_string(),
        inserted: arr(doc, "inserted")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "inserted entries must be strings".to_string())
            })
            .collect::<Result<_, _>>()?,
        provenance: arr(doc, "provenance")?
            .iter()
            .map(provenance_from_json)
            .collect::<Result<_, _>>()?,
        body: str_field(doc, "body")?.to_string(),
    })
}

fn assignment_to_json(a: &StateSignalAssignment) -> Json {
    let values: String = a
        .values
        .iter()
        .map(|q| match q {
            Quat::Zero => '0',
            Quat::One => '1',
            Quat::Up => 'u',
            Quat::Down => 'd',
        })
        .collect();
    Json::obj([
        ("name", Json::Str(a.name.clone())),
        ("values", Json::Str(values)),
    ])
}

fn assignment_from_json(doc: &Json) -> Result<StateSignalAssignment, String> {
    let values = str_field(doc, "values")?
        .chars()
        .map(|c| match c {
            '0' => Ok(Quat::Zero),
            '1' => Ok(Quat::One),
            'u' => Ok(Quat::Up),
            'd' => Ok(Quat::Down),
            other => Err(format!("bad quat character `{other}`")),
        })
        .collect::<Result<_, _>>()?;
    Ok(StateSignalAssignment {
        name: str_field(doc, "name")?.to_string(),
        values,
    })
}

/// Field order here is the wire contract; `solver_from_json` reads the same
/// nine [`SolverStats`] counters back.
fn formula_to_json(f: &FormulaStat) -> Json {
    Json::obj([
        ("state_signals", Json::from(f.state_signals)),
        ("clauses", Json::from(f.clauses)),
        ("variables", Json::from(f.variables)),
        ("satisfiable", Json::from(f.satisfiable)),
        (
            "solver",
            Json::obj([
                ("decisions", Json::from(f.solver.decisions)),
                ("propagations", Json::from(f.solver.propagations)),
                ("backtracks", Json::from(f.solver.backtracks)),
                ("conflicts", Json::from(f.solver.conflicts)),
                ("learned_clauses", Json::from(f.solver.learned_clauses)),
                ("learned_literals", Json::from(f.solver.learned_literals)),
                ("restarts", Json::from(f.solver.restarts)),
                ("peak_clauses", Json::from(f.solver.peak_clauses)),
                ("max_level", Json::from(f.solver.max_level)),
            ]),
        ),
    ])
}

fn formula_from_json(doc: &Json) -> Result<FormulaStat, String> {
    let solver = doc
        .get("solver")
        .ok_or_else(|| "formula missing `solver`".to_string())?;
    Ok(FormulaStat {
        state_signals: uint(doc, "state_signals")? as usize,
        clauses: uint(doc, "clauses")? as usize,
        variables: uint(doc, "variables")? as usize,
        satisfiable: bool_field(doc, "satisfiable")?,
        solver: SolverStats {
            decisions: uint(solver, "decisions")?,
            propagations: uint(solver, "propagations")?,
            backtracks: uint(solver, "backtracks")?,
            conflicts: uint(solver, "conflicts")?,
            learned_clauses: uint(solver, "learned_clauses")?,
            learned_literals: uint(solver, "learned_literals")?,
            restarts: uint(solver, "restarts")?,
            peak_clauses: uint(solver, "peak_clauses")? as usize,
            max_level: uint(solver, "max_level")? as usize,
        },
    })
}

fn provenance_to_json(p: &Provenance) -> Json {
    Json::obj([
        ("signal", Json::Str(p.signal.clone())),
        ("module_output", Json::Str(p.module_output.clone())),
        ("module_key", Json::Str(format!("{:016x}", p.module_key))),
        (
            "resolved_pairs",
            Json::Arr(
                p.resolved_pairs
                    .iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::from(a), Json::from(b)]))
                    .collect(),
            ),
        ),
        ("state_signals", Json::from(p.state_signals)),
        ("variables", Json::from(p.variables)),
        ("clauses", Json::from(p.clauses)),
        (
            "families",
            Json::obj([
                ("consistency", Json::from(p.families.consistency)),
                ("persistence", Json::from(p.families.persistence)),
                ("usc", Json::from(p.families.usc)),
                ("resolution", Json::from(p.families.resolution)),
            ]),
        ),
    ])
}

fn provenance_from_json(doc: &Json) -> Result<Provenance, String> {
    let families = doc
        .get("families")
        .ok_or_else(|| "provenance missing `families`".to_string())?;
    Ok(Provenance {
        signal: str_field(doc, "signal")?.to_string(),
        module_output: str_field(doc, "module_output")?.to_string(),
        module_key: hex64(doc, "module_key")?,
        resolved_pairs: arr(doc, "resolved_pairs")?
            .iter()
            .map(|pair| {
                let items = pair
                    .as_arr()
                    .ok_or_else(|| "resolved pair must be an array".to_string())?;
                match items {
                    [a, b] => Ok((
                        a.as_f64().ok_or("bad pair index")? as usize,
                        b.as_f64().ok_or("bad pair index")? as usize,
                    )),
                    _ => Err("resolved pair must have two indices".to_string()),
                }
            })
            .collect::<Result<_, _>>()?,
        state_signals: uint(doc, "state_signals")? as usize,
        variables: uint(doc, "variables")? as usize,
        clauses: uint(doc, "clauses")? as usize,
        families: ClauseFamilies {
            consistency: uint(families, "consistency")? as usize,
            persistence: uint(families, "persistence")? as usize,
            usc: uint(families, "usc")? as usize,
            resolution: uint(families, "resolution")? as usize,
        },
    })
}

fn arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array `{key}`"))
}

pub(crate) fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn uint(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool `{key}`")),
    }
}

pub(crate) fn hex64(doc: &Json, key: &str) -> Result<u64, String> {
    let text = str_field(doc, key)?;
    u64::from_str_radix(text, 16).map_err(|_| format!("bad hex `{key}`: `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_key;
    use modsyn_obs::parse_json;

    fn sample_store() -> SynthStore {
        let store = SynthStore::new();
        store.put_module(
            0xdead_beef,
            ModuleEntry {
                assignments: vec![StateSignalAssignment {
                    name: "csc0".into(),
                    values: vec![Quat::Zero, Quat::Up, Quat::One, Quat::Down],
                }],
                formulas: vec![FormulaStat {
                    state_signals: 1,
                    clauses: 42,
                    variables: 8,
                    satisfiable: true,
                    solver: SolverStats {
                        decisions: 3,
                        propagations: 17,
                        backtracks: 1,
                        conflicts: 1,
                        learned_clauses: 1,
                        learned_literals: 2,
                        restarts: 0,
                        peak_clauses: 44,
                        max_level: 5,
                    },
                }],
                provenance: vec![Provenance {
                    signal: "csc0".into(),
                    module_output: "y".into(),
                    module_key: 0xdead_beef,
                    resolved_pairs: vec![(0, 2)],
                    state_signals: 1,
                    variables: 8,
                    clauses: 42,
                    families: ClauseFamilies {
                        consistency: 30,
                        persistence: 4,
                        usc: 6,
                        resolution: 2,
                    },
                }],
            },
        );
        store.put_record(
            record_key(0x1234, 1),
            SynthRecord {
                benchmark: "vbe-ex1".into(),
                inserted: vec!["csc0".into()],
                provenance: Vec::new(),
                body: "{\"certified\":true}\n".into(),
            },
        );
        store
    }

    #[test]
    fn snapshot_round_trips_through_json_text() {
        let store = sample_store();
        let text = snapshot_doc(&store.entries(), 7).to_string();
        let data = snapshot_from_json(&parse_json(&text).unwrap()).unwrap();

        assert_eq!(data.wal_seq, 7);
        assert_eq!(data.entries, store.entries(), "bit-for-bit, in order");
        match &data.entries[1] {
            StoreMutation::Record { key, record } => {
                assert_eq!(*key, record_key(0x1234, 1));
                assert_eq!(record.body, "{\"certified\":true}\n");
            }
            other => panic!("the record is the most recent entry: {other:?}"),
        }

        // Restoring into a fresh store reproduces the same snapshot text.
        let fresh = SynthStore::new();
        restore_into(&fresh, &data);
        assert_eq!(text, snapshot_doc(&fresh.entries(), 7).to_string());
        assert_eq!(fresh.bytes(), store.bytes());
    }

    #[test]
    fn version_and_field_errors_are_reported() {
        let doc = parse_json("{\"version\": 99}").unwrap();
        let err = snapshot_from_json(&doc).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        let doc = parse_json("{\"version\": 1, \"wal_seq\": 0, \"entries\": []}").unwrap();
        assert!(
            snapshot_from_json(&doc).is_err(),
            "older formats do not load"
        );
        let doc = parse_json("{\"version\": 2, \"wal_seq\": 0, \"entries\": [{}]}").unwrap();
        assert!(snapshot_from_json(&doc).is_err());
    }
}
