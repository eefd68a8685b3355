//! Incremental-synthesis measurements: seeded single-edit perturbations of
//! the Table-1 rows, replayed through the synthesis store.
//!
//! Per row the harness runs the paper's modular flow three times:
//!
//! 1. **Cold** — the unedited row against an empty [`SynthStore`],
//!    populating it with every module solve (all misses).
//! 2. **Full** — the *edited* row from scratch with no store attached: the
//!    from-scratch baseline wall clock and the byte-identity oracle.
//! 3. **Incremental** — the edited row against the warm store: hits replay
//!    recorded modules, misses are the dirty set that had to be re-solved.
//!
//! The incremental result must be **byte-identical** to the full re-run
//! (compared on the serving layer's canonical JSON rendering) and is
//! independently certified by the `modsyn-check` oracle; the store can only
//! change where answers come from, never what they are.
//!
//! Edits come from [`choose_edit`]: a behavioural [`pulse_edit`] whose
//! first-selected module is provably untouched (so the warm run must hit at
//! least once), or — when no such pulse exists for the row — a pure
//! [`rename_edit`], which moves the STG digest while leaving every module
//! quotient identical (zero dirty modules by construction).

use std::sync::Arc;
use std::time::Instant;

use modsyn::{
    certify_report, determine_input_set, synthesize, InputSet, Method, StoreLink, StoreSession,
    SynthStore, SynthesisOptions, SynthesisReport,
};
use modsyn_obs::Json;
use modsyn_sat::SolverOptions;
use modsyn_sg::{derive, StateGraph};
use modsyn_stg::{benchmarks, output_module_digests, stg_digest, write_g, Stg};
use modsyn_store::{graph_key_text, pulse_edit, rename_edit};
use modsyn_svc::render_report;

use crate::TABLE1_BACKTRACK_LIMIT;

/// Pulse candidates probed per row before falling back to a rename edit.
/// Each probe costs one state-graph derivation plus one module-selection
/// pass, so the cap keeps the chooser cheap on the large rows.
const MAX_PULSE_PROBES: usize = 4;

/// One chosen single-edit perturbation of a benchmark STG.
pub struct Edit {
    /// The edited STG (same model name for pulses, suffixed for renames).
    pub stg: Stg,
    /// Deterministic human-readable description, e.g. `pulse y (seed 0)`.
    pub description: String,
    /// `"pulse"` or `"rename"`.
    pub kind: &'static str,
}

/// One row's incremental-synthesis measurement (see [`run_incr_row`]).
pub struct IncrMeasurement {
    /// Benchmark name.
    pub benchmark: String,
    /// Edit description ([`Edit::description`]).
    pub edit: String,
    /// Edit kind ([`Edit::kind`]).
    pub edit_kind: String,
    /// Module solves in the cold (store-populating) run.
    pub base_modules: u64,
    /// Module solves in the incremental run (hits + dirty).
    pub total_modules: u64,
    /// Module solves the incremental run answered from the store.
    pub store_hits: u64,
    /// Module solves the incremental run had to re-run — the dirty set.
    pub dirty_modules: u64,
    /// Output modules whose STG-level projection digest changed
    /// ([`output_module_digests`]) — the edit's predicted blast radius.
    pub changed_modules: usize,
    /// Wall clock of the from-scratch synthesis of the edited STG.
    pub wall_full_s: f64,
    /// Wall clock of the incremental synthesis of the edited STG.
    pub wall_incr_s: f64,
}

/// The Table-1 synthesis options ([`crate::run_row`]'s), modular method.
fn table1_options() -> SynthesisOptions {
    let mut options = SynthesisOptions::for_method(Method::Modular);
    options.solver = SolverOptions {
        max_backtracks: Some(TABLE1_BACKTRACK_LIMIT),
        ..SolverOptions::default()
    };
    options
}

/// The exact rendering of the module the modular flow would solve *first*
/// on `stg`, or `None` when no module has locally-resolvable conflicts
/// (residual-only rows). Ranks as `modular_resolve` does, on
/// [`InputSet::conflicts`]: minimum over the outputs in signal order, first
/// wins, and only the winner's quotient is built.
///
/// Two STGs that agree on this text agree on the first module solve's
/// content key (same scope, same zero name offset, same solver options),
/// so a warm incremental run is guaranteed at least one store hit.
fn first_module_text(stg: &Stg, options: &SynthesisOptions) -> Option<String> {
    let graph = derive(stg, &options.derive).ok()?;
    let mut best: Option<InputSet> = None;
    for output in 0..graph.signals().len() {
        if !graph.signals()[output].kind.is_non_input() {
            continue;
        }
        let set = determine_input_set(&graph, output);
        if set.conflicts > 0 && best.as_ref().is_none_or(|b| set.conflicts < b.conflicts) {
            best = Some(set);
        }
    }
    let quotient = graph.hide_signals(&best?.hidden).ok()?;
    Some(graph_key_text(&quotient.graph))
}

/// The deterministic rename fallback for `stg`: digest moves, behaviour
/// (and with it every module quotient) stays identical.
fn rename_fallback(stg: &Stg, seed: usize) -> Edit {
    Edit {
        stg: rename_edit(stg, &format!("-r{seed}")),
        description: format!("rename -r{seed}"),
        kind: "rename",
    }
}

/// Picks a deterministic single edit for `stg`, steered by `seed`.
///
/// Preference order: a [`pulse_edit`] on a non-input signal (rotated by
/// `seed`) that leaves the first-selected module's exact quotient rendering
/// unchanged — a genuine behavioural change the store can still partially
/// absorb — then the [`rename_edit`] fallback, which always guarantees a
/// fully-warm incremental run.
pub fn choose_edit(stg: &Stg, seed: usize) -> Edit {
    let options = table1_options();
    if let Some(base_text) = first_module_text(stg, &options) {
        let signals: Vec<String> = stg
            .non_input_signals()
            .into_iter()
            .map(|s| stg.signal(s).name().to_string())
            .collect();
        let mut probed = 0;
        for k in 0..signals.len() {
            if probed >= MAX_PULSE_PROBES {
                break;
            }
            let name = &signals[(seed + k) % signals.len()];
            let Some(edited) = pulse_edit(stg, name, seed) else {
                continue;
            };
            probed += 1;
            if first_module_text(&edited, &options).as_deref() == Some(base_text.as_str()) {
                return Edit {
                    stg: edited,
                    description: format!("pulse {name} (seed {seed})"),
                    kind: "pulse",
                };
            }
        }
    }
    rename_fallback(stg, seed)
}

/// From-scratch synthesis of `stg` (no store), certified by the oracle.
/// Returns the report and its wall clock, or `None` when synthesis or
/// certification fails — a pulse edit can push a row outside the solvable
/// envelope, in which case the caller falls back to a rename edit.
fn full_certified(stg: &Stg, options: &SynthesisOptions) -> Option<(SynthesisReport, f64)> {
    let spec = derive(stg, &options.derive).ok()?;
    let started = Instant::now();
    let report = synthesize(stg, options).ok()?;
    let wall = started.elapsed().as_secs_f64();
    certify_report(Some(&spec), &report).ok()?;
    Some((report, wall))
}

/// Runs the cold → edit → full → incremental measurement for one Table-1
/// row with the standard limits. See the module docs for the protocol.
///
/// # Panics
///
/// Panics if `name` is not a known benchmark, if the unedited row fails to
/// synthesise, or if any incremental invariant is violated (result not
/// byte-identical to the from-scratch run, certification failure, zero
/// store hits, or dirty count not strictly below the module total).
pub fn run_incr_row(name: &str, seed: usize) -> IncrMeasurement {
    let base = benchmarks::by_name(name).expect("known benchmark");
    let options = table1_options();

    // Cold pass: populate the store from the unedited row.
    let store = Arc::new(SynthStore::new());
    let cold_session = StoreSession::new(Arc::clone(&store));
    let mut cold_options = options.clone();
    cold_options.store = StoreLink::to(Arc::clone(&cold_session));
    synthesize(&base, &cold_options).expect("Table-1 row synthesises");
    let base_modules = cold_session.total();

    // The edit, and the from-scratch baseline on the edited STG. A pulse
    // that no longer synthesises (or certifies) degrades to a rename,
    // which inherits solvability from the unedited row.
    let mut edit = choose_edit(&base, seed);
    let (full_report, wall_full_s) = match full_certified(&edit.stg, &options) {
        Some(full) => full,
        None => {
            assert_eq!(edit.kind, "pulse", "rename edits preserve solvability");
            edit = rename_fallback(&base, seed);
            full_certified(&edit.stg, &options).expect("renamed row synthesises")
        }
    };
    assert_ne!(
        stg_digest(&base),
        stg_digest(&edit.stg),
        "the edit must move the content digest"
    );

    // Incremental pass: the edited STG against the warm store.
    let incr_session = StoreSession::new(Arc::clone(&store));
    let mut incr_options = options.clone();
    incr_options.store = StoreLink::to(Arc::clone(&incr_session));
    let started = Instant::now();
    let incr_report = synthesize(&edit.stg, &incr_options).expect("incremental run synthesises");
    let wall_incr_s = started.elapsed().as_secs_f64();

    // The three incremental invariants: certified, byte-identical to the
    // from-scratch run, strictly cheaper than re-solving everything.
    let spec = derive(&edit.stg, &options.derive).expect("edited STG derives");
    certify_report(Some(&spec), &incr_report).expect("oracle certifies the incremental result");
    assert_eq!(
        render_report(&incr_report),
        render_report(&full_report),
        "incremental result must be byte-identical to from-scratch synthesis"
    );
    let store_hits = incr_session.hits();
    let dirty_modules = incr_session.misses();
    let total_modules = incr_session.total();
    assert!(
        store_hits >= 1,
        "incremental run must reuse at least one module"
    );
    assert!(
        dirty_modules < total_modules,
        "dirty set must be strictly smaller than the module total"
    );

    let changed_modules = changed_module_count(&base, &edit.stg);
    IncrMeasurement {
        benchmark: name.to_string(),
        edit: edit.description,
        edit_kind: edit.kind.to_string(),
        base_modules,
        total_modules,
        store_hits,
        dirty_modules,
        changed_modules,
        wall_full_s,
        wall_incr_s,
    }
}

/// How many output-module projection digests the edit changed — the
/// STG-level blast-radius prediction (0 for renames by construction).
fn changed_module_count(base: &Stg, edited: &Stg) -> usize {
    let before = output_module_digests(base);
    let after = output_module_digests(edited);
    after
        .iter()
        .filter(|(name, digest)| {
            before
                .iter()
                .find(|(n, _)| n == name)
                .is_none_or(|(_, d)| d != digest)
        })
        .count()
        + before
            .iter()
            .filter(|(name, _)| !after.iter().any(|(n, _)| n == name))
            .count()
}

/// The `.g` renderings of a row and its chosen edit — the CI smoke test
/// feeds these to a live daemon (`/synth` then `/synth/incr`).
///
/// # Panics
///
/// Panics if `name` is not a known benchmark.
pub fn edit_specs(name: &str, seed: usize) -> (String, String) {
    let base = benchmarks::by_name(name).expect("known benchmark");
    let edit = choose_edit(&base, seed);
    (write_g(&base), write_g(&edit.stg))
}

/// `BENCH_incr.json`: deterministic per-row records (wall clocks are
/// informational; everything else is exact), no timestamps.
pub fn incr_json(seed: usize, rows: &[IncrMeasurement]) -> Json {
    let records: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("benchmark", Json::from(r.benchmark.as_str())),
                ("edit", Json::from(r.edit.as_str())),
                ("edit_kind", Json::from(r.edit_kind.as_str())),
                ("base_modules", Json::from(r.base_modules)),
                ("total_modules", Json::from(r.total_modules)),
                ("store_hits", Json::from(r.store_hits)),
                ("dirty_modules", Json::from(r.dirty_modules)),
                ("changed_modules", Json::from(r.changed_modules as u64)),
                ("wall_full_s", Json::from(r.wall_full_s)),
                ("wall_incr_s", Json::from(r.wall_incr_s)),
            ])
        })
        .collect();
    Json::obj([
        ("suite", Json::from("incr")),
        ("seed", Json::from(seed as u64)),
        ("backtrack_limit", Json::from(TABLE1_BACKTRACK_LIMIT)),
        ("rows", Json::Arr(records)),
    ])
}

/// Re-exported for the smoke tests: the state graph a certification needs.
///
/// # Errors
///
/// Propagates derivation failures from [`derive()`].
pub fn derive_spec(stg: &Stg) -> Result<StateGraph, modsyn_sg::SgError> {
    derive(stg, &table1_options().derive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chooser_is_deterministic() {
        let stg = benchmarks::by_name("vbe-ex2").unwrap();
        let a = choose_edit(&stg, 3);
        let b = choose_edit(&stg, 3);
        assert_eq!(a.description, b.description);
        assert_eq!(write_g(&a.stg), write_g(&b.stg));
    }

    #[test]
    fn rename_fallback_moves_digest_only() {
        let stg = benchmarks::by_name("vbe-ex1").unwrap();
        let edit = rename_fallback(&stg, 7);
        assert_eq!(edit.kind, "rename");
        assert_ne!(stg_digest(&stg), stg_digest(&edit.stg));
        assert_eq!(changed_module_count(&stg, &edit.stg), 0);
    }

    #[test]
    fn incr_row_smoke() {
        let m = run_incr_row("vbe-ex2", 0);
        assert_eq!(m.benchmark, "vbe-ex2");
        assert!(m.store_hits >= 1);
        assert!(m.dirty_modules < m.total_modules);
    }

    #[test]
    fn incr_json_has_no_timestamps() {
        let m = run_incr_row("vbe-ex1", 1);
        let json = incr_json(1, &[m]).pretty();
        assert!(json.contains("\"suite\": \"incr\""));
        assert!(!json.contains("time_unix"));
        assert!(!json.contains("timestamp"));
    }
}
