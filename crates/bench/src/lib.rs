//! Shared harness for the Table-1 reproduction binaries and benches.
//!
//! [`PAPER_TABLE1`] transcribes the paper's Table 1 verbatim (the reference
//! the binaries print next to our measurements); [`run_row`] executes one
//! benchmark × method with the standard limits; [`run_rows`] produces the
//! comparison for any set of rows.

pub mod corpus;
pub mod incr;

use std::time::Instant;

use modsyn::{synthesize, FormulaStat, Method, SynthesisError, SynthesisOptions};
use modsyn_obs::Json;
use modsyn_par::par_map;
use modsyn_sat::{SolverOptions, SolverStats};
use modsyn_stg::benchmarks;

/// A comparator's result for one Table-1 row as printed in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PaperOutcome {
    /// Solved: final signals, two-level literals, CPU seconds.
    Solved {
        /// "Final no. of signal" column.
        final_signals: usize,
        /// "2level Area literals" column.
        literals: usize,
        /// "CPU time sec." column.
        cpu: f64,
    },
    /// "SAT Backtrack Limit" abort, with the CPU seconds spent.
    BacktrackLimit {
        /// Seconds before the abort (`None` for "> 3600").
        cpu: Option<f64>,
    },
    /// "Internal State Error" (missing state splitting in SIS).
    InternalStateError,
    /// "Non-Free-Choice STG".
    NonFreeChoice,
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Benchmark name.
    pub name: &'static str,
    /// "Initial no. of states".
    pub initial_states: usize,
    /// "Initial no. of signal".
    pub initial_signals: usize,
    /// Our method: (final states, final signals, literals, cpu).
    pub ours: (usize, usize, usize, f64),
    /// Vanbekbergen et al. (direct, no decomposition).
    pub direct: PaperOutcome,
    /// Lavagno and Moon et al.
    pub lavagno: PaperOutcome,
}

use PaperOutcome::{BacktrackLimit, InternalStateError, NonFreeChoice, Solved};

/// The paper's Table 1, transcribed.
pub const PAPER_TABLE1: [PaperRow; 23] = [
    PaperRow {
        name: "mr0",
        initial_states: 302,
        initial_signals: 11,
        ours: (469, 14, 41, 2.80),
        direct: BacktrackLimit { cpu: None },
        lavagno: Solved {
            final_signals: 13,
            literals: 86,
            cpu: 1084.5,
        },
    },
    PaperRow {
        name: "mr1",
        initial_states: 190,
        initial_signals: 8,
        ours: (373, 12, 55, 1.73),
        direct: BacktrackLimit { cpu: Some(872.9) },
        lavagno: Solved {
            final_signals: 10,
            literals: 53,
            cpu: 237.5,
        },
    },
    PaperRow {
        name: "mmu0",
        initial_states: 174,
        initial_signals: 8,
        ours: (441, 11, 49, 0.87),
        direct: BacktrackLimit { cpu: Some(406.3) },
        lavagno: InternalStateError,
    },
    PaperRow {
        name: "mmu1",
        initial_states: 82,
        initial_signals: 8,
        ours: (131, 10, 50, 0.37),
        direct: BacktrackLimit { cpu: Some(101.3) },
        lavagno: Solved {
            final_signals: 10,
            literals: 37,
            cpu: 47.8,
        },
    },
    PaperRow {
        name: "sbuf-ram-write",
        initial_states: 58,
        initial_signals: 10,
        ours: (93, 12, 59, 0.36),
        direct: Solved {
            final_signals: 12,
            literals: 74,
            cpu: 5.21,
        },
        lavagno: Solved {
            final_signals: 12,
            literals: 35,
            cpu: 54.6,
        },
    },
    PaperRow {
        name: "vbe4a",
        initial_states: 58,
        initial_signals: 6,
        ours: (106, 8, 37, 0.19),
        direct: Solved {
            final_signals: 8,
            literals: 40,
            cpu: 0.25,
        },
        lavagno: Solved {
            final_signals: 8,
            literals: 41,
            cpu: 5.5,
        },
    },
    PaperRow {
        name: "nak-pa",
        initial_states: 56,
        initial_signals: 9,
        ours: (59, 10, 25, 0.20),
        direct: Solved {
            final_signals: 10,
            literals: 32,
            cpu: 0.08,
        },
        lavagno: Solved {
            final_signals: 10,
            literals: 41,
            cpu: 20.8,
        },
    },
    PaperRow {
        name: "pe-rcv-ifc-fc",
        initial_states: 46,
        initial_signals: 8,
        ours: (50, 9, 48, 0.24),
        direct: Solved {
            final_signals: 9,
            literals: 50,
            cpu: 0.13,
        },
        lavagno: Solved {
            final_signals: 9,
            literals: 62,
            cpu: 14.3,
        },
    },
    PaperRow {
        name: "ram-read-sbuf",
        initial_states: 36,
        initial_signals: 10,
        ours: (44, 11, 28, 0.15),
        direct: Solved {
            final_signals: 11,
            literals: 44,
            cpu: 0.06,
        },
        lavagno: Solved {
            final_signals: 11,
            literals: 23,
            cpu: 65.2,
        },
    },
    PaperRow {
        name: "alex-nonfc",
        initial_states: 24,
        initial_signals: 6,
        ours: (31, 7, 26, 0.05),
        direct: Solved {
            final_signals: 7,
            literals: 22,
            cpu: 0.03,
        },
        lavagno: NonFreeChoice,
    },
    PaperRow {
        name: "sbuf-send-pkt2",
        initial_states: 21,
        initial_signals: 6,
        ours: (26, 7, 20, 0.04),
        direct: Solved {
            final_signals: 7,
            literals: 29,
            cpu: 0.04,
        },
        lavagno: Solved {
            final_signals: 7,
            literals: 14,
            cpu: 8.6,
        },
    },
    PaperRow {
        name: "sbuf-send-ctl",
        initial_states: 20,
        initial_signals: 6,
        ours: (32, 8, 33, 0.09),
        direct: Solved {
            final_signals: 8,
            literals: 35,
            cpu: 0.03,
        },
        lavagno: Solved {
            final_signals: 8,
            literals: 43,
            cpu: 3.4,
        },
    },
    PaperRow {
        name: "atod",
        initial_states: 20,
        initial_signals: 6,
        ours: (26, 7, 15, 0.02),
        direct: Solved {
            final_signals: 7,
            literals: 16,
            cpu: 0.01,
        },
        lavagno: Solved {
            final_signals: 7,
            literals: 19,
            cpu: 2.9,
        },
    },
    PaperRow {
        name: "pa",
        initial_states: 18,
        initial_signals: 4,
        ours: (34, 6, 18, 0.12),
        direct: Solved {
            final_signals: 6,
            literals: 22,
            cpu: 0.06,
        },
        lavagno: InternalStateError,
    },
    PaperRow {
        name: "alloc-outbound",
        initial_states: 17,
        initial_signals: 7,
        ours: (29, 9, 33, 0.09),
        direct: Solved {
            final_signals: 9,
            literals: 27,
            cpu: 0.04,
        },
        lavagno: Solved {
            final_signals: 9,
            literals: 23,
            cpu: 2.5,
        },
    },
    PaperRow {
        name: "wrdata",
        initial_states: 16,
        initial_signals: 4,
        ours: (20, 5, 17, 0.03),
        direct: Solved {
            final_signals: 5,
            literals: 18,
            cpu: 0.01,
        },
        lavagno: Solved {
            final_signals: 5,
            literals: 21,
            cpu: 0.9,
        },
    },
    PaperRow {
        name: "fifo",
        initial_states: 16,
        initial_signals: 4,
        ours: (23, 5, 15, 0.03),
        direct: Solved {
            final_signals: 5,
            literals: 17,
            cpu: 0.02,
        },
        lavagno: Solved {
            final_signals: 5,
            literals: 15,
            cpu: 0.7,
        },
    },
    PaperRow {
        name: "sbuf-read-ctl",
        initial_states: 14,
        initial_signals: 6,
        ours: (18, 7, 16, 0.06),
        direct: Solved {
            final_signals: 7,
            literals: 20,
            cpu: 0.01,
        },
        lavagno: Solved {
            final_signals: 7,
            literals: 15,
            cpu: 1.5,
        },
    },
    PaperRow {
        name: "nouse",
        initial_states: 12,
        initial_signals: 3,
        ours: (16, 4, 12, 0.01),
        direct: Solved {
            final_signals: 4,
            literals: 12,
            cpu: 0.01,
        },
        lavagno: Solved {
            final_signals: 4,
            literals: 14,
            cpu: 0.5,
        },
    },
    PaperRow {
        name: "vbe-ex2",
        initial_states: 8,
        initial_signals: 2,
        ours: (12, 4, 18, 0.08),
        direct: Solved {
            final_signals: 4,
            literals: 18,
            cpu: 0.03,
        },
        lavagno: Solved {
            final_signals: 4,
            literals: 21,
            cpu: 0.5,
        },
    },
    PaperRow {
        name: "nousc-ser",
        initial_states: 8,
        initial_signals: 3,
        ours: (10, 4, 9, 0.02),
        direct: Solved {
            final_signals: 4,
            literals: 9,
            cpu: 0.01,
        },
        lavagno: Solved {
            final_signals: 4,
            literals: 11,
            cpu: 0.4,
        },
    },
    PaperRow {
        name: "sendr-done",
        initial_states: 7,
        initial_signals: 3,
        ours: (10, 4, 8, 0.02),
        direct: Solved {
            final_signals: 4,
            literals: 8,
            cpu: 0.01,
        },
        lavagno: Solved {
            final_signals: 4,
            literals: 6,
            cpu: 0.4,
        },
    },
    PaperRow {
        name: "vbe-ex1",
        initial_states: 5,
        initial_signals: 2,
        ours: (8, 3, 7, 0.01),
        direct: Solved {
            final_signals: 3,
            literals: 7,
            cpu: 0.01,
        },
        lavagno: Solved {
            final_signals: 3,
            literals: 7,
            cpu: 0.3,
        },
    },
];

/// The backtrack limit playing the role of the paper's 3600-second SIS
/// budget in Table-1 runs: a deterministic stand-in chosen just above the
/// largest search any Table-1 row needs with the default CDCL engine.
///
/// Re-audited for the CDCL core (`modsyn_sat::Cdcl`) (the previous 40 k was set
/// just above the classic engine's hardest *modular* search). Per-row CDCL
/// conflict needs, measured at an effectively unbounded limit (worst
/// single SAT attempt per row; full audit table in `EXPERIMENTS.md`):
/// `mr1` direct 250 k (`m = 3` UNSAT proof), `mr1` modular 38 k, `mr0`
/// direct 21 k (modular 14 k), `mmu0` direct 18 k, `mmu1` direct 1.5 k,
/// every other row ≤ 5 k. 300 k covers the table's hardest proof with ~20 % headroom, so
/// the direct method now completes every row — including `mr1`, the
/// classic engine's one remaining abort — while a genuine search
/// regression (a blow-up past 300 k conflicts) still aborts the row.
pub const TABLE1_BACKTRACK_LIMIT: u64 = 300_000;

/// Our measured outcome for one benchmark × method.
#[derive(Debug, Clone)]
pub enum Measured {
    /// Synthesis succeeded.
    Solved {
        /// Final state count of the expanded graph.
        final_states: usize,
        /// Final signal count.
        final_signals: usize,
        /// Total two-level literals.
        literals: usize,
        /// Wall-clock seconds.
        cpu: f64,
        /// Every SAT formula attempted, with its solver counters.
        formulas: Vec<FormulaStat>,
    },
    /// The solver hit the Table-1 backtrack limit.
    BacktrackLimit {
        /// Seconds before the abort.
        cpu: f64,
    },
    /// Restricted method rejected the input.
    NotFreeChoice,
    /// Race-free assignment impossible — the internal-state-error analogue.
    StateSplittingRequired,
    /// Any other failure.
    Failed(String),
}

impl Measured {
    /// Literals if solved.
    pub fn literals(&self) -> Option<usize> {
        match self {
            Measured::Solved { literals, .. } => Some(*literals),
            _ => None,
        }
    }

    /// CPU seconds if meaningful.
    pub fn cpu(&self) -> Option<f64> {
        match self {
            Measured::Solved { cpu, .. } | Measured::BacktrackLimit { cpu } => Some(*cpu),
            _ => None,
        }
    }

    /// Short cell text for tables.
    pub fn cell(&self) -> String {
        match self {
            Measured::Solved {
                final_signals,
                literals,
                cpu,
                ..
            } => {
                format!("{final_signals} sig / {literals} lit / {cpu:.2}s")
            }
            Measured::BacktrackLimit { cpu } => format!("SAT Backtrack Limit ({cpu:.2}s)"),
            Measured::NotFreeChoice => "Non-Free-Choice STG".to_string(),
            Measured::StateSplittingRequired => "Internal State Error*".to_string(),
            Measured::Failed(e) => format!("failed: {e}"),
        }
    }
}

/// Runs one benchmark with one method under the Table-1 limits.
///
/// # Panics
///
/// Panics if `name` is not a known benchmark.
pub fn run_row(name: &str, method: Method, backtrack_limit: u64) -> Measured {
    let stg = benchmarks::by_name(name).expect("known benchmark");
    let mut options = SynthesisOptions::for_method(method);
    options.solver = SolverOptions {
        max_backtracks: Some(backtrack_limit),
        ..SolverOptions::default()
    };
    let started = std::time::Instant::now();
    match synthesize(&stg, &options) {
        Ok(report) => Measured::Solved {
            final_states: report.final_states(),
            final_signals: report.final_signals(),
            literals: report.literals,
            cpu: report.cpu_seconds,
            formulas: report.csc.formulas,
        },
        Err(SynthesisError::BacktrackLimit { .. }) => Measured::BacktrackLimit {
            cpu: started.elapsed().as_secs_f64(),
        },
        Err(SynthesisError::NotFreeChoice) => Measured::NotFreeChoice,
        Err(SynthesisError::StateSplittingRequired) => Measured::StateSplittingRequired,
        Err(e) => Measured::Failed(e.to_string()),
    }
}

/// The paper row for a benchmark name.
pub fn paper_row(name: &str) -> Option<&'static PaperRow> {
    PAPER_TABLE1.iter().find(|r| r.name == name)
}

/// The Table-1 rows with fewer than 80 initial states — everything except
/// `mr0`, `mr1`, `mmu0` and `mmu1`, whose direct and Lavagno-style runs
/// dominate the table's wall clock at the standard limit. The CI parallel
/// smoke job runs on this subset.
pub fn small_rows() -> Vec<PaperRow> {
    PAPER_TABLE1
        .iter()
        .copied()
        .filter(|r| r.initial_states < 80)
        .collect()
}

/// A timed table run: the measurements plus wall-clock accounting, produced
/// by [`run_rows`].
#[derive(Debug, Clone)]
pub struct TimedTable {
    /// Per-row measurements of the modular, direct and Lavagno-style
    /// methods, in input order.
    pub rows: Vec<(&'static str, Measured, Measured, Measured)>,
    /// Per-row wall clock: the summed duration of the row's three method
    /// runs. Comparable between sequential and parallel runs (it is time
    /// *spent on* the row, not time-to-completion under interleaving).
    pub row_wall_s: Vec<f64>,
    /// Overall wall clock of the whole run.
    pub total_wall_s: f64,
}

/// Runs the three methods on every row of `rows`, timing every benchmark ×
/// method execution.
///
/// The runs fan out over up to `jobs` threads through [`par_map`], which
/// returns them in input order, so the rows are identical for every `jobs`
/// value; only the wall clocks differ. `jobs <= 1` runs inline. A run that
/// panics becomes [`Measured::Failed`] in either mode.
pub fn run_rows(backtrack_limit: u64, jobs: usize, rows: &[PaperRow]) -> TimedTable {
    let started = Instant::now();
    let runs: Vec<(&'static str, Method)> = rows
        .iter()
        .flat_map(|row| [Method::Modular, Method::Direct, Method::Lavagno].map(|m| (row.name, m)))
        .collect();
    let mut timed = par_map(jobs, &runs, |_, &(name, method)| {
        let started = Instant::now();
        let measured = run_row(name, method, backtrack_limit);
        (measured, started.elapsed().as_secs_f64())
    })
    .into_iter()
    .map(|run| run.unwrap_or_else(|p| (Measured::Failed(p.to_string()), 0.0)));
    let mut out = Vec::with_capacity(rows.len());
    let mut row_wall_s = Vec::with_capacity(rows.len());
    for row in rows {
        let (modular, tm) = timed.next().expect("three runs per row");
        let (direct, td) = timed.next().expect("three runs per row");
        let (lavagno, tl) = timed.next().expect("three runs per row");
        out.push((row.name, modular, direct, lavagno));
        row_wall_s.push(tm + td + tl);
    }
    TimedTable {
        rows: out,
        row_wall_s,
        total_wall_s: started.elapsed().as_secs_f64(),
    }
}

/// The `parallel` section of `BENCH_table1.json`: per-row and total wall
/// clocks of a jobs = 1 run next to a jobs = N run of the same rows.
pub fn parallel_json(jobs: usize, sequential: &TimedTable, pooled: &TimedTable) -> Json {
    let rows: Vec<Json> = sequential
        .rows
        .iter()
        .zip(&sequential.row_wall_s)
        .zip(&pooled.row_wall_s)
        .map(|(((name, ..), &seq), &par)| {
            Json::obj([
                ("benchmark", Json::from(*name)),
                ("sequential_s", Json::from(seq)),
                ("parallel_s", Json::from(par)),
            ])
        })
        .collect();
    Json::obj([
        ("jobs", Json::from(jobs)),
        ("sequential_total_s", Json::from(sequential.total_wall_s)),
        ("parallel_total_s", Json::from(pooled.total_wall_s)),
        (
            "speedup",
            Json::from(sequential.total_wall_s / pooled.total_wall_s.max(1e-9)),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

fn solver_stats_json(s: &SolverStats) -> Json {
    Json::obj([
        ("decisions", Json::from(s.decisions)),
        ("propagations", Json::from(s.propagations)),
        ("backtracks", Json::from(s.backtracks)),
        ("conflicts", Json::from(s.conflicts)),
        ("learned_clauses", Json::from(s.learned_clauses)),
        ("learned_literals", Json::from(s.learned_literals)),
        ("restarts", Json::from(s.restarts)),
        ("peak_clauses", Json::from(s.peak_clauses)),
        ("max_level", Json::from(s.max_level)),
    ])
}

fn formula_json(f: &FormulaStat) -> Json {
    Json::obj([
        ("state_signals", Json::from(f.state_signals)),
        ("variables", Json::from(f.variables)),
        ("clauses", Json::from(f.clauses)),
        ("satisfiable", Json::from(f.satisfiable)),
        ("solver", solver_stats_json(&f.solver)),
    ])
}

/// One machine-readable record for a benchmark × method measurement — the
/// rows of `BENCH_table1.json`.
pub fn measured_record(benchmark: &str, method: Method, measured: &Measured) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![
        ("benchmark", Json::from(benchmark)),
        ("method", Json::from(method.to_string())),
    ];
    match measured {
        Measured::Solved {
            final_states,
            final_signals,
            literals,
            cpu,
            formulas,
        } => {
            let peak_vars = formulas.iter().map(|f| f.variables).max().unwrap_or(0);
            let peak_clauses = formulas.iter().map(|f| f.clauses).max().unwrap_or(0);
            let mut total = SolverStats::default();
            for f in formulas {
                total.decisions += f.solver.decisions;
                total.propagations += f.solver.propagations;
                total.backtracks += f.solver.backtracks;
                total.conflicts += f.solver.conflicts;
                total.learned_clauses += f.solver.learned_clauses;
                total.learned_literals += f.solver.learned_literals;
                total.restarts += f.solver.restarts;
                total.peak_clauses = total.peak_clauses.max(f.solver.peak_clauses);
                total.max_level = total.max_level.max(f.solver.max_level);
            }
            fields.extend([
                ("outcome", Json::from("solved")),
                ("wall_s", Json::from(*cpu)),
                ("final_states", Json::from(*final_states)),
                ("final_signals", Json::from(*final_signals)),
                ("literals", Json::from(*literals)),
                ("peak_vars", Json::from(peak_vars)),
                ("peak_clauses", Json::from(peak_clauses)),
                ("solver", solver_stats_json(&total)),
                (
                    "formulas",
                    Json::Arr(formulas.iter().map(formula_json).collect()),
                ),
            ]);
        }
        Measured::BacktrackLimit { cpu } => {
            fields.extend([
                ("outcome", Json::from("backtrack-limit")),
                ("wall_s", Json::from(*cpu)),
            ]);
        }
        Measured::NotFreeChoice => fields.push(("outcome", Json::from("non-free-choice"))),
        Measured::StateSplittingRequired => {
            fields.push(("outcome", Json::from("state-splitting-required")));
        }
        Measured::Failed(e) => {
            fields.extend([
                ("outcome", Json::from("failed")),
                ("error", Json::from(e.as_str())),
            ]);
        }
    }
    Json::obj(fields)
}

/// The full `BENCH_table1.json` document: one record per benchmark × method,
/// the run configuration, and an optional `parallel` section (see
/// [`parallel_json`]) recording jobs = 1 vs jobs = N wall clocks.
pub fn table1_json_with_parallel(
    backtrack_limit: u64,
    rows: &[(&'static str, Measured, Measured, Measured)],
    parallel: Option<Json>,
) -> Json {
    let mut records = Vec::with_capacity(3 * rows.len());
    for (name, modular, direct, lavagno) in rows {
        records.push(measured_record(name, Method::Modular, modular));
        records.push(measured_record(name, Method::Direct, direct));
        records.push(measured_record(name, Method::Lavagno, lavagno));
    }
    let mut fields = vec![
        ("version", Json::from(1u64)),
        ("backtrack_limit", Json::from(backtrack_limit)),
        ("records", Json::Arr(records)),
    ];
    if let Some(parallel) = parallel {
        fields.push(("parallel", parallel));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_covers_every_benchmark() {
        assert_eq!(PAPER_TABLE1.len(), 23);
        for row in &PAPER_TABLE1 {
            assert!(
                modsyn_stg::benchmarks::by_name(row.name).is_some(),
                "{} has no generator",
                row.name
            );
        }
    }

    #[test]
    fn run_row_solves_a_small_benchmark() {
        let m = run_row("vbe-ex1", Method::Modular, TABLE1_BACKTRACK_LIMIT);
        assert!(matches!(m, Measured::Solved { .. }), "{}", m.cell());
        assert!(m.literals().unwrap() > 0);
    }

    #[test]
    fn run_row_reports_non_free_choice() {
        let m = run_row("alex-nonfc", Method::Lavagno, TABLE1_BACKTRACK_LIMIT);
        assert!(matches!(m, Measured::NotFreeChoice));
        assert_eq!(m.literals(), None);
    }

    #[test]
    fn measured_record_round_trips_through_json() {
        let m = run_row("vbe-ex1", Method::Modular, TABLE1_BACKTRACK_LIMIT);
        let record = measured_record("vbe-ex1", Method::Modular, &m);
        let parsed = modsyn_obs::parse_json(&record.pretty()).unwrap();
        assert_eq!(parsed.get("benchmark").unwrap().as_str(), Some("vbe-ex1"));
        assert_eq!(parsed.get("outcome").unwrap().as_str(), Some("solved"));
        assert!(parsed.get("peak_clauses").unwrap().as_f64().unwrap() > 0.0);
        let formulas = parsed.get("formulas").unwrap().as_arr().unwrap();
        assert!(!formulas.is_empty());
        let sat = formulas.last().unwrap();
        assert!(sat.get("solver").unwrap().get("propagations").is_some());
    }

    #[test]
    fn small_rows_exclude_the_four_large_benchmarks() {
        let names: Vec<&str> = small_rows().iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 19);
        for big in ["mr0", "mr1", "mmu0", "mmu1"] {
            assert!(!names.contains(&big), "{big} should be filtered out");
        }
        assert!(names.contains(&"vbe-ex1"));
    }

    #[test]
    fn pooled_rows_match_the_sequential_ones() {
        let rows: Vec<PaperRow> = ["vbe-ex1", "sendr-done", "nousc-ser"]
            .iter()
            .map(|n| *paper_row(n).unwrap())
            .collect();
        let seq = run_rows(TABLE1_BACKTRACK_LIMIT, 1, &rows);
        let pooled = run_rows(TABLE1_BACKTRACK_LIMIT, 3, &rows);
        assert_eq!(seq.rows.len(), pooled.rows.len());
        assert_eq!(seq.row_wall_s.len(), rows.len());
        for ((sn, sm, sd, sl), (pn, pm, pd, pl)) in seq.rows.iter().zip(&pooled.rows) {
            assert_eq!(sn, pn);
            for (s, p) in [(sm, pm), (sd, pd), (sl, pl)] {
                assert_eq!(std::mem::discriminant(s), std::mem::discriminant(p), "{sn}");
                assert_eq!(s.literals(), p.literals(), "{sn}");
            }
        }
    }

    #[test]
    fn parallel_section_round_trips_through_json() {
        let rows: Vec<PaperRow> = vec![*paper_row("vbe-ex1").unwrap()];
        let seq = run_rows(TABLE1_BACKTRACK_LIMIT, 1, &rows);
        let pooled = run_rows(TABLE1_BACKTRACK_LIMIT, 2, &rows);
        let doc = table1_json_with_parallel(
            TABLE1_BACKTRACK_LIMIT,
            &seq.rows,
            Some(parallel_json(2, &seq, &pooled)),
        );
        let parsed = modsyn_obs::parse_json(&doc.pretty()).unwrap();
        let parallel = parsed.get("parallel").unwrap();
        assert_eq!(parallel.get("jobs").unwrap().as_f64(), Some(2.0));
        assert!(parallel.get("speedup").unwrap().as_f64().unwrap() > 0.0);
        let rows = parallel.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("benchmark").unwrap().as_str(), Some("vbe-ex1"));
        assert!(rows[0].get("sequential_s").unwrap().as_f64().is_some());
        assert!(rows[0].get("parallel_s").unwrap().as_f64().is_some());
    }

    #[test]
    fn failure_records_carry_their_outcome() {
        let record = measured_record("alex-nonfc", Method::Lavagno, &Measured::NotFreeChoice);
        let parsed = modsyn_obs::parse_json(&record.to_string()).unwrap();
        assert_eq!(
            parsed.get("outcome").unwrap().as_str(),
            Some("non-free-choice")
        );
        assert!(parsed.get("literals").is_none());
    }
}
