//! Determinism self-tests: two runs of each workload at the same seed agree
//! exactly on every deterministic figure, and every run reports correct
//! outputs — on `serve` that includes every repeat being a byte-identical
//! cache hit of its cold post.
//!
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use std::path::PathBuf;
use std::process::Command;

use modsyn_obs::{parse_json, Json};

/// End-to-end figures that must repeat exactly.
const UNTRACED: [&str; 3] = ["literals", "state_signals", "ok_ratio"];
/// Per-layer figures that must repeat exactly.
const TRACED: [&str; 5] = [
    "sat.conflicts",
    "sat.clauses",
    "logic.cubes_out",
    "core.modules",
    "store.wal_appends",
];

/// One single-pass run's result line; the run must report correct outputs.
fn run(workload: &str, trace: bool) -> Json {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism-{workload}"));
    std::fs::create_dir_all(&dir).expect("a directory for the run's output");
    let trace = if trace { "1" } else { "0" };
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.001"])
        .args(["--trace", trace])
        .current_dir(&dir)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result =
        parse_json(stdout.lines().last().expect("a result line")).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}:\n{stdout}"
    );
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|metrics| metrics.get(name))
        .and_then(|metric| metric.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

fn assert_repeats(workload: &str) {
    for (trace, names) in [(false, &UNTRACED[..]), (true, &TRACED[..])] {
        let (a, b) = (run(workload, trace), run(workload, trace));
        for name in names {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload}: {name}");
        }
    }
}

#[test]
fn table1_repeats_at_a_seed() {
    assert_repeats("table1");
}

#[test]
fn corpus_repeats_at_a_seed() {
    assert_repeats("corpus");
}

#[test]
fn serve_repeats_at_a_seed() {
    assert_repeats("serve");
}
