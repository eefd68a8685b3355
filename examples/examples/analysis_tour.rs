//! A tour of the analysis substrates on one benchmark: Petri-net
//! structure, state-graph conflicts, modular synthesis, shared-PLA logic
//! and Verilog output.
//!
//! Run with: `cargo run --release -p modsyn-examples --example analysis_tour [benchmark]`

use modsyn::{derive_logic, derive_logic_shared, modular_resolve, to_verilog, CscSolveOptions};
use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "wrdata".to_string());
    let stg = benchmarks::by_name(&name).ok_or_else(|| format!("unknown benchmark {name:?}"))?;
    println!("== {name} ==\n{stg}");

    // Structural layer: classification.
    let report = stg.net().structural_report();
    println!(
        "\nstructure: {} ({} choice places, {} synchronisations)",
        report.class, report.choice_places, report.merge_transitions
    );

    // Behavioural layer: state graph and conflicts.
    let sg = derive(&stg, &DeriveOptions::default())?;
    let csc = sg.csc_analysis();
    println!(
        "\nstate graph: {} states / {} edges; {} CSC conflicts (lower bound {})",
        sg.state_count(),
        sg.edge_count(),
        csc.csc_pairs.len(),
        csc.lower_bound
    );

    // Synthesis layer.
    let out = modular_resolve(&sg, &CscSolveOptions::default())?;
    let functions = derive_logic(&out.graph)?;
    let so_literals: usize = functions.iter().map(|f| f.literals).sum();
    let (shared, _names) = derive_logic_shared(&out.graph)?;
    println!(
        "\nsynthesis: {} state signals; per-output {} literals / {} terms; shared PLA {} literals / {} terms",
        out.inserted.len(),
        so_literals,
        functions.iter().map(|f| f.sop.cover().cube_count()).sum::<usize>(),
        shared.input_literal_count(),
        shared.term_count(),
    );

    println!("\n{}", to_verilog(&name, &out.graph, &functions));
    Ok(())
}
