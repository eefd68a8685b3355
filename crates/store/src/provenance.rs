//! What the store remembers about *why* a state signal exists.
//!
//! Every inserted state signal is the output of one SAT-CSC solve over one
//! module (or the final residual pass). The [`Provenance`] record ties the
//! signal back to the conflict pairs it resolves and the clause families of
//! the formula that forced it — the "explain" chain served by
//! `GET /explain` and `modsyn --explain`.

use modsyn_sat::SolverStats;
use modsyn_sg::StateSignalAssignment;

/// Clause counts of the winning CSC formula, split by the paper's families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClauseFamilies {
    /// Family 1: edge consistency / semi-modularity clauses.
    pub consistency: usize,
    /// Family 1.5: persistence clauses over concurrency diamonds.
    pub persistence: usize,
    /// Family 3: no-new-conflict clauses on USC pairs.
    pub usc: usize,
    /// Family 2: CSC resolution clauses for the targeted conflict pairs.
    pub resolution: usize,
}

impl ClauseFamilies {
    /// Total clauses across the four families.
    pub fn total(&self) -> usize {
        self.consistency + self.persistence + self.usc + self.resolution
    }
}

/// Why one inserted state signal exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Name of the inserted state signal (e.g. `csc0`).
    pub signal: String,
    /// Output signal whose module inserted it, or `"<residual>"` for the
    /// final complete-graph cleanup pass.
    pub module_output: String,
    /// Content key of the module solve that produced it (0 when the run
    /// had no store attached).
    pub module_key: u64,
    /// The CSC conflict pairs (module-local state indices) this signal
    /// resolves: both states stable with opposite values.
    pub resolved_pairs: Vec<(usize, usize)>,
    /// State signals (`m`) in the winning formula.
    pub state_signals: usize,
    /// Variables in the winning formula.
    pub variables: usize,
    /// Clauses in the winning formula.
    pub clauses: usize,
    /// Winning formula's clause counts by family.
    pub families: ClauseFamilies,
}

/// Statistics of one formula solved during CSC satisfaction. `modsyn`
/// reports these per attempt (it re-exports this type as
/// `modsyn::FormulaStat`), and a cached module solve replays them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormulaStat {
    /// Number of state signals attempted.
    pub state_signals: usize,
    /// Clauses in the formula.
    pub clauses: usize,
    /// Variables in the formula.
    pub variables: usize,
    /// Whether this formula was satisfiable.
    pub satisfiable: bool,
    /// SAT solver counters for the attempt (all zero on the BDD path,
    /// which never runs the solver).
    pub solver: SolverStats,
}

/// One cached module solve: everything `modular_resolve` needs to skip the
/// SAT call and still produce a byte-identical outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleEntry {
    /// The state-signal assignments over the module's quotient states.
    pub assignments: Vec<StateSignalAssignment>,
    /// Formula statistics of every attempt (replayed into the report).
    pub formulas: Vec<FormulaStat>,
    /// Provenance of each inserted signal.
    pub provenance: Vec<Provenance>,
}

/// One certified synthesis response, keyed by the STG's content digest and
/// method ([`crate::record_key`]): the body the service answers hits with,
/// plus the provenance behind `GET /explain?digest=…`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthRecord {
    /// Benchmark (STG model) name.
    pub benchmark: String,
    /// Inserted state signals, in insertion order.
    pub inserted: Vec<String>,
    /// Provenance of every inserted signal.
    pub provenance: Vec<Provenance>,
    /// The certified response body, verbatim.
    pub body: String,
}
