//! CLI contract tests: stdout carries only machine-consumable output; the
//! observability options write to stderr and files.

use std::process::Command;

fn modsyn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_modsyn"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn stats_go_to_stderr_and_never_contaminate_stdout() {
    let out = modsyn(&["benchmark:vbe-ex1", "--quiet", "--pla", "--stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();

    // stdout: only function and PLA lines, no `#` summary, no span tree.
    assert!(!stdout.is_empty());
    for line in stdout.lines() {
        assert!(
            line.contains('=')
                || line.starts_with('.')
                || line.chars().next().is_some_and(|c| "01-".contains(c)),
            "unexpected stdout line: {line:?}"
        );
    }
    assert!(!stdout.contains('#'), "summary leaked into stdout");
    assert!(!stdout.contains("├─"), "span tree leaked into stdout");

    // stderr: the span tree with the pipeline stages.
    assert!(stderr.contains("synthesize"), "stderr: {stderr}");
    assert!(stderr.contains("modular"));
    assert!(stderr.contains("sat.solve"));
}

#[test]
fn lavagno_solves_are_traced_under_a_lavagno_span() {
    let args = ["benchmark:vbe-ex2", "--method", "lavagno", "--quiet"];
    let plain = modsyn(&args);
    let traced = modsyn(&[&args[..], &["--stats"]].concat());
    assert!(plain.status.success() && traced.status.success());
    assert_eq!(traced.stdout, plain.stdout, "tracing changed stdout");
    let stderr = String::from_utf8(traced.stderr).unwrap();
    let lines: Vec<&str> = stderr.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains("─ lavagno "))
        .unwrap_or_else(|| panic!("no lavagno span: {stderr}"));
    // The span's first child is the first formula's solve.
    let solve = lines.get(at + 1).copied().unwrap_or_default();
    assert!(
        solve.contains("─ sat.solve ") && solve.contains("conflicts="),
        "stderr: {stderr}"
    );
}

#[test]
fn trace_json_file_is_well_formed() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("modsyn-cli-trace-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let out = modsyn(&[
        "benchmark:vbe-ex2",
        "--method",
        "direct",
        "--trace-json",
        path_str,
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let parsed = modsyn_obs::parse_json(&text).expect("valid JSON");
    let spans = parsed.get("spans").unwrap().as_arr().unwrap();
    assert_eq!(spans[0].get("name").unwrap().as_str(), Some("synthesize"));
}

#[test]
fn unwritable_trace_json_path_fails_the_run() {
    let out = modsyn(&[
        "benchmark:vbe-ex1",
        "--trace-json",
        "/nonexistent-dir/trace.json",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot write"), "stderr: {stderr}");
}

#[test]
fn without_observability_flags_stderr_stays_empty() {
    let out = modsyn(&["benchmark:vbe-ex1"]);
    assert!(out.status.success());
    assert!(out.stderr.is_empty(), "unexpected stderr output");
}

#[test]
fn usage_mentions_the_observability_flags() {
    // --help is an informational success: usage on stdout, exit 0.
    let out = modsyn(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("--stats"));
    assert!(stdout.contains("--trace-json"));
    assert!(stdout.contains("exit codes:"), "stdout: {stdout}");
}

#[test]
fn version_flag_prints_the_crate_version() {
    let out = modsyn(&["--version"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.trim(),
        format!("modsyn {}", env!("CARGO_PKG_VERSION"))
    );
}

#[test]
fn failure_classes_map_to_distinct_exit_codes() {
    // 1: usage error (unknown flag), stderr explains.
    let out = modsyn(&["benchmark:vbe-ex1", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(1));
    // 1: usage error (unknown engine), stderr names the engines there are.
    let out = modsyn(&["benchmark:atod", "--engine", "cnc"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown engine"), "{stderr}");
    assert!(
        stderr.contains("dpll") && stderr.contains("cdcl"),
        "{stderr}"
    );
    // 1: usage error (unknown method), stderr names the bad value.
    let out = modsyn(&["benchmark:vbe-ex1", "--method", "bogus"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown method \"bogus\""), "{stderr}");
    // 2: input error (unknown benchmark).
    let out = modsyn(&["benchmark:no-such-benchmark"]);
    assert_eq!(out.status.code(), Some(2));
    // 3: synthesis failure (lavagno rejects the non-free-choice row).
    let out = modsyn(&["benchmark:alex-nonfc", "--method", "lavagno"]);
    assert_eq!(out.status.code(), Some(3));
    // 4: aborted by --timeout-ms.
    let out = modsyn(&["benchmark:mr0", "--method", "direct", "--timeout-ms", "1"]);
    assert_eq!(out.status.code(), Some(4));
}
