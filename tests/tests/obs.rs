//! Cross-crate observability integration: a traced modular run produces the
//! span tree the paper's complexity argument is about, and the JSON dump
//! round-trips.

use modsyn::{synthesize_traced, Method, SynthesisOptions};
use modsyn_obs::{parse_json, Tracer};
use modsyn_stg::benchmarks;

#[test]
fn modular_mmu0_trace_has_one_span_per_module() {
    let tracer = Tracer::enabled();
    let report = synthesize_traced(
        &benchmarks::mmu0(),
        &SynthesisOptions::for_method(Method::Modular),
        &tracer,
    )
    .unwrap();
    let trace = tracer.report();

    // One `module:<output>` span per module the flow solved, each carrying a
    // non-zero formula size — the per-module SAT instances of Section 3.
    let module_spans = trace.spans_with_prefix("module:");
    assert_eq!(module_spans.len(), report.csc.modules.len());
    assert!(!module_spans.is_empty(), "mmu0 must decompose into modules");
    for span in &module_spans {
        assert!(span.gauge("clauses").unwrap() > 0.0, "{}", span.name);
        assert!(span.gauge("vars").unwrap() > 0.0, "{}", span.name);
        assert!(
            !span.spans_where(&|s| s.name == "csc.attempt").is_empty(),
            "{} solved no formula",
            span.name
        );
    }

    // The paper's E2 shape: every modular formula is far smaller than the
    // direct encoding over the complete graph would be (O(states * m) vars).
    let complete_states = report.initial_states as f64;
    for span in &module_spans {
        assert!(
            span.gauge("module_states").unwrap() < complete_states / 2.0,
            "{} is not a real decomposition",
            span.name
        );
    }

    // The stage spans all appear, nested under the root.
    assert_eq!(trace.roots.len(), 1);
    assert_eq!(trace.roots[0].name, "synthesize");
    for stage in ["sg.derive", "modular", "logic"] {
        assert_eq!(
            trace.spans_where(&|s| s.name == stage).len(),
            1,
            "missing stage span {stage}"
        );
    }
    assert!(!trace.spans_where(&|s| s.name == "espresso").is_empty());

    // Machine-readable dump round-trips through the hand-rolled parser.
    let json_text = trace.to_json().pretty();
    let parsed = parse_json(&json_text).unwrap();
    assert_eq!(parsed.get("version").unwrap().as_f64(), Some(1.0));
    let spans = parsed.get("spans").unwrap().as_arr().unwrap();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].get("name").unwrap().as_str(), Some("synthesize"));
}

#[test]
fn direct_trace_contrasts_with_modular() {
    let stg = benchmarks::mmu1();
    let modular = Tracer::enabled();
    synthesize_traced(
        &stg,
        &SynthesisOptions::for_method(Method::Modular),
        &modular,
    )
    .unwrap();
    let direct = Tracer::enabled();
    synthesize_traced(&stg, &SynthesisOptions::for_method(Method::Direct), &direct).unwrap();

    // Only the per-module formulas — the residual cleanup runs on the
    // complete graph and is legitimately direct-sized.
    let modular_report = modular.report();
    let largest_modular = modular_report
        .spans_with_prefix("module:")
        .iter()
        .flat_map(|m| m.spans_where(&|s| s.name == "csc.attempt"))
        .filter_map(|s| s.gauge("clauses"))
        .fold(0.0f64, f64::max);
    let largest_direct = direct
        .report()
        .spans_with_prefix("csc.attempt")
        .iter()
        .filter_map(|s| s.gauge("clauses"))
        .fold(0.0f64, f64::max);
    assert!(
        largest_direct > 2.0 * largest_modular,
        "direct {largest_direct} vs modular {largest_modular}: decomposition should shrink formulas"
    );
}

#[test]
fn disabled_tracer_changes_nothing() {
    let stg = benchmarks::vbe_ex2();
    let options = SynthesisOptions::for_method(Method::Modular);
    let plain = modsyn::synthesize(&stg, &options).unwrap();
    let tracer = Tracer::disabled();
    let traced = synthesize_traced(&stg, &options, &tracer).unwrap();
    assert_eq!(plain.final_signals(), traced.final_signals());
    assert_eq!(plain.literals, traced.literals);
    assert!(tracer.events().is_empty());
}
