//! A1: decomposition ablation as a Criterion bench — time to solve the
//! modular formula set vs the single direct formula, per benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use modsyn::{determine_input_set, encode_csc, modular_resolve, CscSolveOptions};
use modsyn_sat::{Solver, SolverOptions};
use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::benchmarks;

fn bench_input_set_derivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("input-set");
    for name in ["mmu0", "mr0"] {
        let stg = benchmarks::by_name(name).expect("known");
        let sg = derive(&stg, &DeriveOptions::default()).expect("derives");
        let output = (0..sg.signals().len())
            .find(|&s| sg.signals()[s].kind.is_non_input())
            .expect("has outputs");
        group.bench_function(name, |b| b.iter(|| determine_input_set(&sg, output)));
    }
    group.finish();
}

fn bench_modular_vs_direct_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolve");
    group.sample_size(10);
    for name in ["mmu1", "vbe4a", "mmu0"] {
        let stg = benchmarks::by_name(name).expect("known");
        let sg = derive(&stg, &DeriveOptions::default()).expect("derives");
        group.bench_function(format!("modular/{name}"), |b| {
            b.iter(|| modular_resolve(&sg, &CscSolveOptions::default()).expect("resolves"))
        });
        let analysis = sg.csc_analysis();
        let encoding = encode_csc(&sg, &analysis, analysis.lower_bound.max(1));
        group.bench_function(format!("direct-first-formula/{name}"), |b| {
            b.iter(|| {
                Solver::new(
                    &encoding.formula,
                    SolverOptions {
                        max_backtracks: Some(modsyn_bench::TABLE1_BACKTRACK_LIMIT),
                        ..SolverOptions::default()
                    },
                )
                .solve()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_input_set_derivation,
    bench_modular_vs_direct_solve
);
criterion_main!(benches);
