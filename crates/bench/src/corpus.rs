//! Shared harness for the corpus sweep: the `corpus` binary, the
//! `benchguard --corpus-only` guard and the CI smoke job all go through
//! [`run_corpus`] + [`corpus_json`], so their numbers agree.
//!
//! Everything aggregated here except the wall clocks is deterministic:
//! the corpus stream is seeded, the solver is deterministic, and parallel
//! runs return their cases in seed order — so `BENCH_corpus.json` counts
//! are exact-comparable against the committed baseline.

use std::time::Instant;

use modsyn_corpus::{
    corpus_case, evaluate_case, CaseReport, EvalOptions, Expectation, Rejection, Verdict,
};
use modsyn_obs::Json;
use modsyn_par::{par_map, unwrap_or_resume};

/// One corpus sweep: per-case reports (in seed order) plus the overall
/// wall clock.
pub struct CorpusRun {
    /// First seed of the sweep.
    pub start: u64,
    /// Number of consecutive seeds evaluated.
    pub count: u64,
    /// Per-case evaluation reports, ordered by seed.
    pub reports: Vec<CaseReport>,
    /// Overall wall clock, informational only.
    pub wall_s: f64,
}

impl CorpusRun {
    /// Every violating line across the run: case-level violations plus
    /// per-method violation verdicts, prefixed with the case name.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for report in &self.reports {
            for v in &report.violations {
                out.push(format!("{}: {v}", report.name));
            }
            for o in &report.outcomes {
                if let Verdict::Violation(v) = &o.verdict {
                    out.push(format!("{}/{}: {v}", report.name, o.method));
                }
            }
        }
        out
    }

    /// `true` when every case satisfied the three-valued contract.
    pub fn passed(&self) -> bool {
        self.reports.iter().all(CaseReport::ok)
    }
}

/// Evaluates seeds `start..start + count` of the corpus stream on up to
/// `jobs` threads through [`par_map`], which returns the cases in seed
/// order, so the reports (and every aggregate built from them) are
/// identical to a sequential run — only the wall clock changes.
pub fn run_corpus(start: u64, count: u64, jobs: usize, eval: &EvalOptions) -> CorpusRun {
    let started = Instant::now();
    let seeds: Vec<u64> = (start..start + count).collect();
    let reports = par_map(jobs, &seeds, |_, &seed| {
        let (stg, expectation) = corpus_case(seed);
        evaluate_case(&stg, expectation, eval)
    })
    .into_iter()
    .map(unwrap_or_resume)
    .collect();
    CorpusRun {
        start,
        count,
        reports,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// The size tiers of the corpus report, bounded by specification state
/// count. Used for the per-tier sections of `BENCH_corpus.json`.
pub const CORPUS_TIERS: [(&str, usize); 4] = [
    ("xs", 20),
    ("small", 50),
    ("medium", 120),
    ("large", usize::MAX),
];

fn tier_of(states: usize) -> &'static str {
    CORPUS_TIERS
        .iter()
        .find(|(_, bound)| states < *bound)
        .map(|(name, _)| *name)
        .unwrap_or("large")
}

/// min/total/max summary of one size dimension across the run.
fn size_json(values: impl Iterator<Item = usize> + Clone) -> Json {
    Json::obj([
        ("min", Json::from(values.clone().min().unwrap_or(0))),
        ("max", Json::from(values.clone().max().unwrap_or(0))),
        ("total", Json::from(values.sum::<usize>())),
    ])
}

/// The full `BENCH_corpus.json` document for one sweep.
pub fn corpus_json(run: &CorpusRun, eval: &EvalOptions) -> Json {
    let reports = &run.reports;
    let violations = run.violations();

    let expect = |e: Expectation| reports.iter().filter(|r| r.expectation == e).count();
    let outcomes = || reports.iter().flat_map(|r| r.outcomes.iter());
    let totals = Json::obj([
        ("cases", Json::from(reports.len())),
        ("in_theory", Json::from(expect(Expectation::InTheory))),
        (
            "beyond_theory",
            Json::from(expect(Expectation::BeyondTheory)),
        ),
        ("method_runs", Json::from(outcomes().count())),
        (
            "certified",
            Json::from(
                outcomes()
                    .filter(|o| o.verdict == Verdict::Certified)
                    .count(),
            ),
        ),
        (
            "rejected",
            Json::from(
                outcomes()
                    .filter(|o| matches!(o.verdict, Verdict::Rejected(_)))
                    .count(),
            ),
        ),
        ("violations", Json::from(violations.len())),
    ]);

    let sizes = Json::obj([
        ("signals", size_json(reports.iter().map(|r| r.signals))),
        ("places", size_json(reports.iter().map(|r| r.places))),
        (
            "transitions",
            size_json(reports.iter().map(|r| r.transitions)),
        ),
        ("states", size_json(reports.iter().map(|r| r.states))),
    ]);

    let tiers: Vec<Json> = CORPUS_TIERS
        .iter()
        .map(|(name, _)| {
            let of_tier = || reports.iter().filter(|r| tier_of(r.states) == *name);
            Json::obj([
                ("tier", Json::from(*name)),
                ("cases", Json::from(of_tier().count())),
                (
                    "in_theory",
                    Json::from(
                        of_tier()
                            .filter(|r| r.expectation == Expectation::InTheory)
                            .count(),
                    ),
                ),
                (
                    "beyond_theory",
                    Json::from(
                        of_tier()
                            .filter(|r| r.expectation == Expectation::BeyondTheory)
                            .count(),
                    ),
                ),
                (
                    "wall_s",
                    Json::from(
                        of_tier()
                            .flat_map(|r| r.outcomes.iter().map(|o| o.wall_s))
                            .sum::<f64>(),
                    ),
                ),
            ])
        })
        .collect();

    // Per method: every method string the run produced, in first-seen
    // order, with its certified count and its rejection taxonomy.
    let mut method_names: Vec<String> = Vec::new();
    for o in outcomes() {
        let name = o.method.to_string();
        if !method_names.contains(&name) {
            method_names.push(name);
        }
    }
    let methods: Vec<Json> = method_names
        .iter()
        .map(|name| {
            let of_method = || outcomes().filter(|o| o.method.to_string() == *name);
            let rejections: Vec<(&'static str, Json)> = Rejection::all()
                .iter()
                .filter_map(|r| {
                    let n = of_method()
                        .filter(|o| o.verdict == Verdict::Rejected(*r))
                        .count();
                    (n > 0).then_some((r.tag(), Json::from(n)))
                })
                .collect();
            Json::obj([
                ("method", Json::from(name.as_str())),
                ("runs", Json::from(of_method().count())),
                (
                    "certified",
                    Json::from(
                        of_method()
                            .filter(|o| o.verdict == Verdict::Certified)
                            .count(),
                    ),
                ),
                (
                    "literals_total",
                    Json::from(of_method().map(|o| o.literals).sum::<usize>()),
                ),
                (
                    "final_signals_total",
                    Json::from(of_method().map(|o| o.final_signals).sum::<usize>()),
                ),
                ("rejections", Json::obj(rejections)),
                (
                    "wall_s",
                    Json::from(of_method().map(|o| o.wall_s).sum::<f64>()),
                ),
            ])
        })
        .collect();

    Json::obj([
        ("version", Json::from(1u64)),
        (
            "config",
            Json::obj([
                ("start", Json::from(run.start)),
                ("count", Json::from(run.count)),
                ("backtrack_limit", Json::from(eval.backtrack_limit)),
                (
                    "comparator_backtrack_limit",
                    Json::from(eval.comparator_backtrack_limit),
                ),
                ("direct_state_cap", Json::from(eval.direct_state_cap)),
                (
                    "equivalence_state_cap",
                    Json::from(eval.equivalence_state_cap),
                ),
            ]),
        ),
        ("totals", totals),
        ("sizes", sizes),
        ("tiers", Json::Arr(tiers)),
        ("methods", Json::Arr(methods)),
        (
            "violations",
            Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
        ),
        ("passed", Json::from(run.passed())),
        ("wall_s", Json::from(run.wall_s)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run(jobs: usize) -> CorpusRun {
        // Seeds 16..24 cover a sync product, articulations, a bare leaf
        // and one beyond-theory probe (seed 23) while staying cheap.
        run_corpus(16, 8, jobs, &EvalOptions::default())
    }

    #[test]
    fn corpus_json_counts_are_consistent() {
        let run = small_run(1);
        assert!(run.passed(), "{:?}", run.violations());
        let doc = corpus_json(&run, &EvalOptions::default());
        let parsed = modsyn_obs::parse_json(&doc.pretty()).unwrap();
        let totals = parsed.get("totals").unwrap();
        assert_eq!(totals.get("cases").unwrap().as_f64(), Some(8.0));
        assert_eq!(totals.get("beyond_theory").unwrap().as_f64(), Some(1.0));
        assert_eq!(totals.get("violations").unwrap().as_f64(), Some(0.0));
        let tier_cases: f64 = parsed
            .get("tiers")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|t| t.get("cases").unwrap().as_f64().unwrap())
            .sum();
        assert_eq!(tier_cases, 8.0);
        let methods = parsed.get("methods").unwrap().as_arr().unwrap();
        let modular = methods
            .iter()
            .find(|m| m.get("method").unwrap().as_str() == Some("modular"))
            .expect("modular section");
        // Modular certifies every in-theory case; the probe may go either
        // way, so certified is at least the in-theory count.
        assert!(modular.get("certified").unwrap().as_f64().unwrap() >= 7.0);
        assert!(parsed.get("passed").unwrap().as_bool() == Some(true));
    }

    #[test]
    fn pooled_run_matches_sequential_aggregates() {
        let (seq, pooled) = (small_run(1), small_run(4));
        let eval = EvalOptions::default();
        let strip_walls = |doc: Json| {
            // Re-render with wall clocks zeroed out by parsing and
            // comparing only deterministic scalars.
            let parsed = modsyn_obs::parse_json(&doc.pretty()).unwrap();
            (
                parsed.get("totals").unwrap().pretty(),
                parsed.get("sizes").unwrap().pretty(),
                parsed.get("methods").unwrap().pretty().len(),
            )
        };
        let a = strip_walls(corpus_json(&seq, &eval));
        let b = strip_walls(corpus_json(&pooled, &eval));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
