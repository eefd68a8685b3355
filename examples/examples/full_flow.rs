//! The complete production flow on one benchmark: minimum-area synthesis
//! (BDD-backed), static-hazard removal, and a closed-loop check of the
//! resulting gate network against the specification (the oracle's
//! speed-independence judgement: conformance and persistence).
//!
//! Run with: `cargo run --release -p modsyn-examples --example full_flow [benchmark]`

use modsyn::{
    derive_logic, gate_netlist, hazard_report, modular_resolve, remove_static_hazards,
    CscSolveOptions,
};
use modsyn_check::check_speed_independence;
use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "nak-pa".to_string());
    let stg = benchmarks::by_name(&name).ok_or_else(|| format!("unknown benchmark {name:?}"))?;
    println!("specification: {stg}");

    // 1. Resolve CSC with the BDD-backed minimum-excitation extraction.
    let sg = derive(&stg, &DeriveOptions::default())?;
    let options = CscSolveOptions {
        min_area: true,
        ..Default::default()
    };
    let resolved = modular_resolve(&sg, &options)?;
    println!(
        "resolved: {} state signal(s) inserted, {} -> {} states",
        resolved.inserted.len(),
        sg.state_count(),
        resolved.graph.state_count()
    );

    // 2. Derive and minimise the logic.
    let functions = derive_logic(&resolved.graph)?;
    let area: usize = functions.iter().map(|f| f.literals).sum();
    println!("logic: {} functions, {area} literals", functions.len());

    // 3. Hazard post-processing (the paper's Section 3.5 step).
    let hazards = hazard_report(&resolved.graph, &functions);
    println!(
        "static-1 hazards on specification transitions: {}",
        hazards.total_hazards()
    );
    let repaired = remove_static_hazards(&resolved.graph, &functions);
    let after = hazard_report(&resolved.graph, &repaired);
    let area_after: usize = repaired.iter().map(|f| f.literals).sum();
    println!(
        "after consensus insertion: {} hazards, {area_after} literals",
        after.total_hazards()
    );

    // 4. Run the gate network in closed loop with the specification.
    let verdict =
        check_speed_independence(&gate_netlist(&resolved.graph, &repaired), &resolved.graph);
    println!(
        "# closed-loop check: {} states, {} transitions, conforming: {}",
        resolved.graph.state_count(),
        resolved.graph.edge_count(),
        verdict.is_ok()
    );

    println!("\nhazard-free implementation:");
    for f in &repaired {
        println!("  {:8} = {}", f.name, f.sop);
    }
    Ok(())
}
