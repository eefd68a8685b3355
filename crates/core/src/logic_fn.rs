//! Logic function derivation (paper Section 3.5).
//!
//! Once the expanded state graph satisfies CSC, every non-input signal gets
//! a next-state function: in each state its required output is the *implied
//! value* (flipped when excited). Unreachable codes are don't-cares; the
//! prime-irredundant cover comes from the espresso loop and its literal
//! count is the paper's area metric.

use modsyn_logic::{complement, minimize_exact, minimize_traced, Cover, Cube, ExactLimits, Sop};
use modsyn_obs::Tracer;
use modsyn_par::{par_map, unwrap_or_resume};
use modsyn_sg::StateGraph;

use crate::SynthesisError;

/// Minimisation mode for [`derive_logic_jobs_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinimizeMode {
    /// Heuristic espresso loop (prime and irredundant, not provably
    /// minimum). Fast at any size.
    #[default]
    Heuristic,
    /// Exact minimum covers where the instance fits
    /// [`ExactLimits::default`] — the `espresso -Dso -S1` fidelity of the
    /// paper's area numbers — falling back to the heuristic loop beyond.
    Exact,
}

/// The synthesised two-level function of one non-input signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalFunction {
    /// Signal name.
    pub name: String,
    /// Prime-irredundant sum-of-products over all graph signals.
    pub sop: Sop,
    /// Literal count of the unfactored cover.
    pub literals: usize,
}

/// [`derive_logic_jobs_traced`] inline (`jobs` = 1), untraced, in
/// [`MinimizeMode::Heuristic`].
///
/// # Errors
///
/// As [`derive_logic_jobs_traced`].
pub fn derive_logic(graph: &StateGraph) -> Result<Vec<SignalFunction>, SynthesisError> {
    derive_logic_jobs_traced(graph, MinimizeMode::Heuristic, 1, &Tracer::disabled())
}

/// Derives minimised logic for every non-input signal of a CSC-satisfying
/// state graph, minimising up to `jobs` signals concurrently.
///
/// The per-signal minimisations are independent; the ordered parallel map
/// keeps the returned functions identical (content and order) for every
/// `jobs` value. The stage runs under a `logic` observability span: one
/// `logic:<signal>` child per derived function (nesting the `espresso` span
/// in heuristic mode) plus a `literals` gauge with the total area metric.
/// With `jobs > 1` the `logic:<signal>` spans root on their worker threads.
///
/// # Errors
///
/// Returns [`SynthesisError::CscUnresolved`] if the graph still violates
/// CSC (the functions would be ill-defined).
pub fn derive_logic_jobs_traced(
    graph: &StateGraph,
    mode: MinimizeMode,
    jobs: usize,
    tracer: &Tracer,
) -> Result<Vec<SignalFunction>, SynthesisError> {
    let _span = tracer.span("logic");
    let analysis = graph.csc_analysis();
    if !analysis.satisfies_csc() {
        return Err(SynthesisError::CscUnresolved {
            remaining_conflicts: analysis.csc_pairs.len(),
        });
    }
    let n = graph.signals().len();
    let names: Vec<String> = graph.signals().iter().map(|s| s.name.clone()).collect();
    let dc = unreachable_codes(graph);

    let targets: Vec<usize> = (0..n)
        .filter(|&k| graph.signals()[k].kind.is_non_input())
        .collect();
    let names_ref = &names;
    let dc_ref = &dc;
    let functions: Vec<SignalFunction> = par_map(jobs, &targets, |_, &k| {
        let on = code_cover(graph, |s| graph.implied_value(s, k));
        let signal_span = tracer.span(&format!("logic:{}", names_ref[k]));
        let result = match mode {
            MinimizeMode::Heuristic => minimize_traced(&on, dc_ref, tracer),
            MinimizeMode::Exact => minimize_exact(&on, dc_ref, &ExactLimits::default()),
        };
        let literals = result.cover.literal_count();
        tracer.gauge("literals", literals as f64);
        drop(signal_span);
        let sop =
            Sop::new(names_ref.clone(), result.cover).expect("names match the cover universe");
        SignalFunction {
            name: names_ref[k].clone(),
            sop,
            literals,
        }
    })
    .into_iter()
    .map(unwrap_or_resume)
    .collect();
    tracer.gauge("total_literals", total_literals(&functions) as f64);
    Ok(functions)
}

/// The cover of the distinct codes of the states `keep` selects: one
/// minterm cube per code, in ascending code order.
fn code_cover(graph: &StateGraph, keep: impl Fn(usize) -> bool) -> Cover {
    let n = graph.signals().len();
    let mut codes: Vec<u64> = (0..graph.state_count())
        .filter(|&s| keep(s))
        .map(|s| graph.code(s))
        .collect();
    codes.sort_unstable();
    codes.dedup();
    Cover::from_cubes(
        n,
        codes.into_iter().map(|code| {
            let mut cube = Cube::full(n);
            for k in 0..n {
                cube.set_literal(k, Some(code >> k & 1 == 1));
            }
            cube
        }),
    )
}

/// The don't-care set of a graph's logic: every code no reachable state
/// carries.
pub(crate) fn unreachable_codes(graph: &StateGraph) -> Cover {
    complement(&code_cover(graph, |_| true))
}

/// Total literal count over all functions — Table 1's "2level Area
/// literals" column.
pub fn total_literals(functions: &[SignalFunction]) -> usize {
    functions.iter().map(|f| f.literals).sum()
}

/// The shared-PLA implementation of the whole controller: one
/// multi-output cover with product terms shared between the non-input
/// signals (beyond the paper's per-output `-Dso` metric). Returns the
/// cover plus the output names in mask-bit order.
///
/// # Errors
///
/// Returns [`SynthesisError::CscUnresolved`] if the graph still violates
/// CSC.
pub fn derive_logic_shared(
    graph: &StateGraph,
) -> Result<(modsyn_logic::MultiCover, Vec<String>), SynthesisError> {
    let analysis = graph.csc_analysis();
    if !analysis.satisfies_csc() {
        return Err(SynthesisError::CscUnresolved {
            remaining_conflicts: analysis.csc_pairs.len(),
        });
    }
    let dc_shared = unreachable_codes(graph);
    let mut ons: Vec<Cover> = Vec::new();
    let mut dcs: Vec<Cover> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (k, signal) in graph.signals().iter().enumerate() {
        if !signal.kind.is_non_input() {
            continue;
        }
        ons.push(code_cover(graph, |s| graph.implied_value(s, k)));
        dcs.push(dc_shared.clone());
        names.push(signal.name.clone());
    }
    Ok((modsyn_logic::minimize_multi(&ons, &dcs), names))
}

/// Checks that each function reproduces the implied value in every state —
/// the correctness condition of the derived circuit.
pub fn verify_logic(graph: &StateGraph, functions: &[SignalFunction]) -> bool {
    let n = graph.signals().len();
    for f in functions {
        let Some(k) = graph.signal_index(&f.name) else {
            return false;
        };
        for s in 0..graph.state_count() {
            let values: Vec<bool> = (0..n).map(|i| graph.value(s, i)).collect();
            if f.sop.cover().covers_minterm(&values) != graph.implied_value(s, k) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::modular_resolve;
    use crate::solve::CscSolveOptions;
    use modsyn_sg::{derive, DeriveOptions};
    use modsyn_stg::{benchmarks, parse_g};

    #[test]
    fn handshake_logic_is_a_wire() {
        // b follows a: f_b = a.
        let stg = parse_g(
            ".model hs\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
        )
        .unwrap();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let functions = derive_logic(&sg).unwrap();
        assert_eq!(functions.len(), 1);
        assert_eq!(functions[0].literals, 1);
        assert_eq!(functions[0].sop.to_string(), "a");
        assert!(verify_logic(&sg, &functions));
    }

    #[test]
    fn celement_logic_has_majority_shape() {
        let stg = parse_g(
            ".model c\n.inputs a b\n.outputs c\n.graph\na+ c+\nb+ c+\nc+ a- b-\na- c-\nb- c-\nc- a+ b+\n.marking { <c-,a+> <c-,b+> }\n.end\n",
        )
        .unwrap();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let functions = derive_logic(&sg).unwrap();
        // Majority gate: ab + ac + bc (6 literals) on full care set; the
        // unreachable codes allow espresso to do no better than 5.
        assert!(functions[0].literals <= 6, "got {}", functions[0].literals);
        assert!(verify_logic(&sg, &functions));
    }

    #[test]
    fn conflicting_graph_is_rejected() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        assert!(matches!(
            derive_logic(&sg),
            Err(SynthesisError::CscUnresolved { .. })
        ));
    }

    #[test]
    fn parallel_logic_derivation_matches_sequential() {
        let stg = benchmarks::nouse();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let out = modular_resolve(&sg, &CscSolveOptions::default()).unwrap();
        let tracer = Tracer::disabled();
        let seq =
            derive_logic_jobs_traced(&out.graph, MinimizeMode::Heuristic, 1, &tracer).unwrap();
        let par =
            derive_logic_jobs_traced(&out.graph, MinimizeMode::Heuristic, 4, &tracer).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn resolved_benchmark_logic_verifies() {
        for name in ["vbe-ex1", "nouse", "fifo", "wrdata"] {
            let stg = benchmarks::by_name(name).unwrap();
            let sg = derive(&stg, &DeriveOptions::default()).unwrap();
            let out = modular_resolve(&sg, &CscSolveOptions::default()).unwrap();
            let functions = derive_logic(&out.graph).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(verify_logic(&out.graph, &functions), "{name}");
            assert!(total_literals(&functions) > 0, "{name}");
            // Every non-input signal (including inserted ones) has logic.
            let non_inputs = out
                .graph
                .signals()
                .iter()
                .filter(|s| s.kind.is_non_input())
                .count();
            assert_eq!(functions.len(), non_inputs, "{name}");
        }
    }
}
