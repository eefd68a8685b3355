//! Signal hiding and state merging — the modular state graph construction.
//!
//! Hiding a signal labels all its transitions ε and merges ε-connected
//! states (paper Section 3.3, "similar to the conversion of a finite
//! automaton with ε transitions to one without"). [`StateGraph::hide_signals`]
//! builds the merged graph; [`HidingScorer`] computes only the two figures
//! the input-set search compares, on the state partition the merge induces.

use std::collections::HashMap;

use crate::{EdgeLabel, SgError, SignalMeta, StateGraph};

/// Result of hiding signals: the merged graph plus the cover maps needed to
/// propagate assignments back (paper Section 3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quotient {
    /// The modular (merged) state graph over the kept signals.
    pub graph: StateGraph,
    /// For every original state, the quotient state that covers it
    /// (`cover(M)` in the paper).
    pub state_map: Vec<usize>,
    /// For every original signal index, its index in the quotient graph
    /// (`None` for hidden signals).
    pub signal_map: Vec<Option<usize>>,
}

#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn union_all(&mut self, pairs: &[(usize, usize)]) {
        for &(a, b) in pairs {
            self.union(a, b);
        }
    }
}

impl StateGraph {
    /// Hides the given signals: their transitions become ε and ε-connected
    /// states merge into single quotient states. Pre-existing ε edges merge
    /// as well.
    ///
    /// # Errors
    ///
    /// Returns [`SgError::TooManySignals`] only in the degenerate case of a
    /// malformed signal list (cannot normally happen when shrinking).
    ///
    /// # Panics
    ///
    /// Panics if a hidden index is out of range.
    pub fn hide_signals(&self, hidden: &[usize]) -> Result<Quotient, SgError> {
        let hidden_mask: u64 = hidden
            .iter()
            .map(|&s| {
                assert!(s < self.signals().len(), "hidden signal out of range");
                1u64 << s
            })
            .fold(0, |a, b| a | b);

        let is_hidden_label = |label: EdgeLabel| match label {
            EdgeLabel::Epsilon => true,
            EdgeLabel::Signal { signal, .. } => hidden_mask >> signal & 1 == 1,
        };

        // Merge ε-connected states.
        let mut uf = UnionFind::new(self.state_count());
        for e in self.edges() {
            if is_hidden_label(e.label) {
                uf.union(e.from, e.to);
            }
        }

        // Compact signal universe.
        let mut signal_map: Vec<Option<usize>> = Vec::with_capacity(self.signals().len());
        let mut kept_signals: Vec<SignalMeta> = Vec::new();
        for (i, meta) in self.signals().iter().enumerate() {
            if hidden_mask >> i & 1 == 1 {
                signal_map.push(None);
            } else {
                signal_map.push(Some(kept_signals.len()));
                kept_signals.push(meta.clone());
            }
        }
        let mut graph = StateGraph::new(kept_signals)?;

        // Restrict a code to the kept signals.
        let restrict = |code: u64| -> u64 {
            let mut out = 0u64;
            for (i, mapped) in signal_map.iter().enumerate() {
                if let Some(j) = mapped {
                    if code >> i & 1 == 1 {
                        out |= 1 << j;
                    }
                }
            }
            out
        };

        // Allocate quotient states per union-find class.
        let mut class_to_state: HashMap<usize, usize> = HashMap::new();
        let mut state_map = vec![0usize; self.state_count()];
        #[allow(clippy::needless_range_loop)] // `s` is also fed to `uf.find`/`self.code`
        for s in 0..self.state_count() {
            let root = uf.find(s);
            let q = *class_to_state
                .entry(root)
                .or_insert_with(|| graph.add_state(restrict(self.code(s))));
            state_map[s] = q;
            debug_assert_eq!(
                graph.code(q),
                restrict(self.code(s)),
                "merged states must agree on kept-signal values"
            );
        }
        graph.set_initial(state_map[self.initial()]);

        // Surviving edges, deduplicated.
        let mut seen: HashMap<(usize, usize, EdgeLabel), ()> = HashMap::new();
        for e in self.edges() {
            if is_hidden_label(e.label) {
                continue;
            }
            let EdgeLabel::Signal { signal, polarity } = e.label else {
                continue;
            };
            let label = EdgeLabel::Signal {
                signal: signal_map[signal].expect("kept signal maps"),
                polarity,
            };
            let key = (state_map[e.from], state_map[e.to], label);
            if seen.insert(key, ()).is_none() {
                graph.add_edge(key.0, key.1, label);
            }
        }

        Ok(Quotient {
            graph,
            state_map,
            signal_map,
        })
    }
}

/// The two figures the input-set search compares between hiding trials
/// (paper Figure 2), for the modular graph of one hidden signal set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HidingScore {
    /// CSC pairs of the modular graph that are structurally resolvable
    /// ([`StateGraph::csc_pair_structurally_resolvable`]).
    pub conflicts: usize,
    /// The modular graph's state-signal lower bound, `ceil(log2 Max_csc)`
    /// ([`crate::CscAnalysis::lower_bound`]).
    pub lower_bound: usize,
}

/// Scores signal-hiding trials on a state partition instead of a quotient
/// graph.
///
/// The scorer keeps the union-find partition that hiding the current
/// signal set induces on the states, with the graph's ε edges merged from
/// the start. A trial copies the partition and merges only the trial
/// signal's edges, which are bucketed by signal once per graph. The score
/// is then read off the classes: each class's code and non-input
/// excitation with the hidden signals masked out, and reachability over
/// the class edges of the kept inputs. These are the numbers
/// [`StateGraph::hide_signals`] followed by [`StateGraph::csc_analysis`]
/// and [`StateGraph::unresolvable_csc_pairs`] give on the quotient, without
/// building it.
///
/// ```
/// use modsyn_sg::{derive, DeriveOptions, HidingScorer};
/// use modsyn_stg::benchmarks;
///
/// # fn main() -> Result<(), modsyn_sg::SgError> {
/// let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default())?;
/// let trial = HidingScorer::new(&sg).score_hiding(0);
/// let q = sg.hide_signals(&[0])?;
/// let a = q.graph.csc_analysis();
/// let resolvable = a.csc_pairs.len() - q.graph.unresolvable_csc_pairs(&a).len();
/// assert_eq!((trial.conflicts, trial.lower_bound), (resolvable, a.lower_bound));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HidingScorer<'g> {
    graph: &'g StateGraph,
    /// Edge endpoints by label signal, in edge order.
    edges_by_signal: Vec<Vec<(usize, usize)>>,
    /// [`StateGraph::non_input_excitation`] of every state.
    excitation: Vec<u64>,
    /// Bit per input signal.
    inputs: u64,
    /// States merged by the ε edges and the hidden signals' edges.
    partition: UnionFind,
    /// Bit per hidden signal.
    hidden: u64,
}

impl<'g> HidingScorer<'g> {
    /// A scorer for `graph` with no signal hidden yet.
    pub fn new(graph: &'g StateGraph) -> Self {
        let mut edges_by_signal = vec![Vec::new(); graph.signals().len()];
        let mut partition = UnionFind::new(graph.state_count());
        for e in graph.edges() {
            match e.label {
                EdgeLabel::Epsilon => partition.union(e.from, e.to),
                EdgeLabel::Signal { signal, .. } => edges_by_signal[signal].push((e.from, e.to)),
            }
        }
        let inputs = graph
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, meta)| !meta.kind.is_non_input())
            .fold(0, |mask, (i, _)| mask | 1 << i);
        HidingScorer {
            graph,
            edges_by_signal,
            excitation: (0..graph.state_count())
                .map(|s| graph.non_input_excitation(s))
                .collect(),
            inputs,
            partition,
            hidden: 0,
        }
    }

    /// Hides `signal` for every later score.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn hide(&mut self, signal: usize) {
        self.partition.union_all(&self.edges_by_signal[signal]);
        self.hidden |= 1 << signal;
    }

    /// The score of the signals hidden so far.
    pub fn score(&self) -> HidingScore {
        self.score_partition(self.partition.clone(), self.hidden)
    }

    /// The score of hiding `signal` on top of the signals hidden so far;
    /// the scorer itself is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn score_hiding(&self, signal: usize) -> HidingScore {
        let mut partition = self.partition.clone();
        partition.union_all(&self.edges_by_signal[signal]);
        self.score_partition(partition, self.hidden | 1 << signal)
    }

    fn score_partition(&self, mut partition: UnionFind, hidden: u64) -> HidingScore {
        let kept = self.graph.full_mask() & !hidden;
        let n = self.graph.state_count();

        // Number the classes in order of their first state; like a quotient
        // state, a class takes the code of its first state.
        let mut class_of_root = vec![usize::MAX; n];
        let mut codes: Vec<u64> = Vec::new();
        let mut excitation: Vec<u64> = Vec::new();
        let state_class: Vec<usize> = (0..n)
            .map(|s| {
                let root = partition.find(s);
                if class_of_root[root] == usize::MAX {
                    class_of_root[root] = codes.len();
                    codes.push(self.graph.code(s) & kept);
                    excitation.push(0);
                }
                let class = class_of_root[root];
                excitation[class] |= self.excitation[s] & kept;
                class
            })
            .collect();
        let classes = codes.len();

        // Group the classes by code, and each group by excitation. A group
        // with several excitations holds CSC pairs; Max_csc is the largest
        // number of excitations in one group.
        let mut order: Vec<usize> = (0..classes).collect();
        order.sort_unstable_by_key(|&c| (codes[c], excitation[c]));
        let mut max_csc = 1;
        let mut conflicting: Vec<Vec<&[usize]>> = Vec::new();
        for group in order.chunk_by(|&a, &b| codes[a] == codes[b]) {
            let runs: Vec<&[usize]> = group
                .chunk_by(|&a, &b| excitation[a] == excitation[b])
                .collect();
            max_csc = max_csc.max(runs.len());
            if runs.len() > 1 {
                conflicting.push(runs);
            }
        }
        let lower_bound = usize::BITS as usize - (max_csc - 1).leading_zeros() as usize;
        if conflicting.is_empty() {
            return HidingScore {
                conflicts: 0,
                lower_bound,
            };
        }

        // Class edges of the kept input signals, as adjacency ranges.
        let input_edges = || {
            (0..self.edges_by_signal.len())
                .filter(|&sig| (kept & self.inputs) >> sig & 1 == 1)
                .flat_map(|sig| &self.edges_by_signal[sig])
                .map(|&(from, to)| (state_class[from], state_class[to]))
        };
        let mut start = vec![0usize; classes + 1];
        for (from, _) in input_edges() {
            start[from + 1] += 1;
        }
        for c in 0..classes {
            start[c + 1] += start[c];
        }
        let mut fill = start.clone();
        let mut targets = vec![0usize; start[classes]];
        for (from, to) in input_edges() {
            targets[fill[from]] = to;
            fill[from] += 1;
        }

        // One reachability bitset per class that appears in a CSC pair.
        let words = classes.div_ceil(64);
        let mut row = vec![usize::MAX; classes];
        let mut reach: Vec<u64> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for &c in conflicting.iter().flatten().copied().flatten() {
            row[c] = reach.len() / words;
            let base = reach.len();
            reach.resize(base + words, 0);
            let set = &mut reach[base..];
            set[c / 64] |= 1 << (c % 64);
            stack.push(c);
            while let Some(x) = stack.pop() {
                for &y in &targets[start[x]..start[x + 1]] {
                    if set[y / 64] >> (y % 64) & 1 == 0 {
                        set[y / 64] |= 1 << (y % 64);
                        stack.push(y);
                    }
                }
            }
        }
        let reaches = |a: usize, b: usize| reach[row[a] * words + b / 64] >> (b % 64) & 1 == 1;

        // A pair is resolvable unless either class reaches the other
        // through input edges alone.
        let mut conflicts = 0;
        for runs in &conflicting {
            for (i, run) in runs.iter().enumerate() {
                for other in &runs[i + 1..] {
                    for &a in *run {
                        conflicts += other
                            .iter()
                            .filter(|&&b| !reaches(a, b) && !reaches(b, a))
                            .count();
                    }
                }
            }
        }
        HidingScore {
            conflicts,
            lower_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{derive, DeriveOptions};
    use modsyn_stg::parse_g;

    fn double_pulse() -> StateGraph {
        let stg = parse_g(
            ".model dp\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ b-\nb- a-\na- b+/2\nb+/2 b-/2\nb-/2 a+\n.marking { <b-/2,a+> }\n.end\n",
        )
        .unwrap();
        derive(&stg, &DeriveOptions::default()).unwrap()
    }

    #[test]
    fn hiding_a_signal_merges_its_transitions() {
        let sg = double_pulse();
        assert_eq!(sg.state_count(), 6);
        let a = sg.signal_index("a").unwrap();
        let q = sg.hide_signals(&[a]).unwrap();
        // a+ and a- edges collapse: 6 states -> 4.
        assert_eq!(q.graph.state_count(), 4);
        assert_eq!(q.graph.signals().len(), 1);
        assert_eq!(q.signal_map[a], None);
        // Cover map is total and surjective.
        assert_eq!(q.state_map.len(), 6);
        let mut covered: Vec<usize> = q.state_map.clone();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), q.graph.state_count());
    }

    #[test]
    fn merged_codes_restrict_to_kept_signals() {
        let sg = double_pulse();
        let a = sg.signal_index("a").unwrap();
        let b = sg.signal_index("b").unwrap();
        let q = sg.hide_signals(&[a]).unwrap();
        for s in 0..sg.state_count() {
            let orig_b = sg.value(s, b);
            let quot_b = q.graph.value(q.state_map[s], 0);
            assert_eq!(orig_b, quot_b, "state {s}");
        }
    }

    #[test]
    fn hiding_nothing_is_identity_up_to_iso() {
        let sg = double_pulse();
        let q = sg.hide_signals(&[]).unwrap();
        assert_eq!(q.graph.state_count(), sg.state_count());
        assert_eq!(q.graph.edge_count(), sg.edge_count());
    }

    #[test]
    fn hiding_everything_collapses_to_one_state() {
        let sg = double_pulse();
        let q = sg.hide_signals(&[0, 1]).unwrap();
        assert_eq!(q.graph.state_count(), 1);
        assert_eq!(q.graph.edge_count(), 0);
    }

    #[test]
    fn quotient_preserves_initial_state() {
        let sg = double_pulse();
        let a = sg.signal_index("a").unwrap();
        let q = sg.hide_signals(&[a]).unwrap();
        assert_eq!(q.graph.initial(), q.state_map[sg.initial()]);
    }

    #[test]
    fn parallel_edges_are_deduplicated() {
        let sg = double_pulse();
        let b = sg.signal_index("b").unwrap();
        let q = sg.hide_signals(&[b]).unwrap();
        // Only a's 2 edges survive; the merged graph has 2 states.
        assert_eq!(q.graph.state_count(), 2);
        assert!(q.graph.edge_count() <= 2);
    }
}
