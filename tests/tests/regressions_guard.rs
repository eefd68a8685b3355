//! Coverage guard for proptest regression seeds.
//!
//! Nothing replays the `.proptest-regressions` seed files: no manifest
//! names proptest, and the property suites are seeded loops of their own.
//! That is why each recorded seed is promoted to a named `regression_*`
//! unit test in the sibling test file. This guard keeps that promotion
//! honest: every `cc` entry must be matched by at least as many named
//! regression tests, and every entry must carry its `# shrinks to`
//! documentation so the promoted test can reproduce the minimal case
//! without proptest.

use std::fs;
use std::path::Path;

/// A parsed `.proptest-regressions` file next to its sibling test source.
struct SeedFile {
    name: String,
    seeds: usize,
    undocumented: Vec<String>,
    named_tests: usize,
}

fn scan() -> Vec<SeedFile> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let mut out = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("tests directory is readable")
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let is_seed_file = path
            .extension()
            .is_some_and(|ext| ext == "proptest-regressions");
        if !is_seed_file {
            continue;
        }
        let text = fs::read_to_string(&path).expect("seed file is readable");
        let cc_lines: Vec<&str> = text
            .lines()
            .filter(|line| line.trim_start().starts_with("cc "))
            .collect();
        let undocumented = cc_lines
            .iter()
            .filter(|line| !line.contains("# shrinks to"))
            .map(|line| line.to_string())
            .collect();
        let sibling = path.with_extension("rs");
        let source = fs::read_to_string(&sibling).unwrap_or_else(|_| {
            panic!(
                "{} has no sibling test file {}",
                path.display(),
                sibling.display()
            )
        });
        let named_tests = source.matches("fn regression_").count();
        out.push(SeedFile {
            name: path
                .file_name()
                .expect("seed file has a name")
                .to_string_lossy()
                .into_owned(),
            seeds: cc_lines.len(),
            undocumented,
            named_tests,
        });
    }
    out
}

#[test]
fn every_regression_seed_is_promoted_to_a_named_test() {
    let files = scan();
    assert!(
        !files.is_empty(),
        "expected at least one .proptest-regressions file under tests/tests"
    );
    for file in &files {
        assert!(
            file.named_tests >= file.seeds,
            "{}: {} recorded seed(s) but only {} named regression_* test(s); \
             promote each seed to an ungated unit test in the sibling .rs file",
            file.name,
            file.seeds,
            file.named_tests,
        );
    }
}

#[test]
fn every_regression_seed_documents_its_shrunk_case() {
    for file in scan() {
        assert!(
            file.undocumented.is_empty(),
            "{}: seed entries without `# shrinks to` documentation: {:?}",
            file.name,
            file.undocumented,
        );
    }
}
