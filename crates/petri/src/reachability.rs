//! Exhaustive marking enumeration (the reachability graph).

use std::collections::HashMap;

use crate::{Marking, PetriError, PetriNet, TransitionId};

/// Limits applied while exploring the marking space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityOptions {
    /// Abort once this many distinct markings have been found. Protects
    /// against unbounded nets and state-space blow-ups.
    pub max_markings: usize,
    /// Per-place token capacity; exceeding it means the net is not
    /// `capacity`-bounded. STG work uses 1-safe nets, but 2 leaves headroom
    /// to detect safety violations rather than mask them.
    pub capacity: u32,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_markings: 1_000_000,
            capacity: 1,
        }
    }
}

/// One edge of the reachability graph: marking `from` fires `transition`
/// reaching marking `to` (indices into [`ReachabilityGraph::markings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReachedEdge {
    /// Index of the source marking.
    pub from: usize,
    /// The fired transition.
    pub transition: TransitionId,
    /// Index of the target marking.
    pub to: usize,
}

/// The reachability graph of a net: every reachable marking plus the firing
/// edges between them. Index 0 is always the initial marking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityGraph {
    /// All distinct reachable markings; index 0 is the initial marking.
    pub markings: Vec<Marking>,
    /// All firing edges between markings.
    pub edges: Vec<ReachedEdge>,
}

impl ReachabilityGraph {
    /// Whether every reachable marking is 1-safe.
    pub fn is_safe(&self) -> bool {
        self.markings.iter().all(|m| m.max_tokens_on_a_place() <= 1)
    }

    /// Indices of markings with no outgoing edge (deadlocks).
    pub fn deadlocks(&self) -> Vec<usize> {
        let mut has_out = vec![false; self.markings.len()];
        for e in &self.edges {
            has_out[e.from] = true;
        }
        has_out
            .iter()
            .enumerate()
            .filter_map(|(i, &h)| (!h).then_some(i))
            .collect()
    }
}

impl PetriNet {
    /// Enumerates all reachable markings by breadth-first search.
    ///
    /// # Errors
    ///
    /// * [`PetriError::EmptyInitialMarking`] / [`PetriError::SourceTransition`]
    ///   if the net fails [`PetriNet::validate`].
    /// * [`PetriError::MarkingBudgetExceeded`] if more than
    ///   `options.max_markings` markings are reachable.
    /// * [`PetriError::CapacityExceeded`] if any place exceeds
    ///   `options.capacity` tokens.
    pub fn reachability(
        &self,
        options: &ReachabilityOptions,
    ) -> Result<ReachabilityGraph, PetriError> {
        self.validate()?;
        let initial = self.initial_marking();
        let mut index: HashMap<Marking, usize> = HashMap::new();
        let mut markings = vec![initial.clone()];
        index.insert(initial, 0);
        let mut edges = Vec::new();
        let mut frontier = 0usize;

        while frontier < markings.len() {
            let m = markings[frontier].clone();
            for t in self.transition_ids() {
                let Some(next) = m.fire(self, t) else {
                    continue;
                };
                if next.max_tokens_on_a_place() > options.capacity {
                    let place = next
                        .as_slice()
                        .iter()
                        .position(|&tok| tok > options.capacity)
                        .map(crate::PlaceId::from_index)
                        .expect("some place exceeded capacity");
                    return Err(PetriError::CapacityExceeded {
                        place,
                        capacity: options.capacity,
                    });
                }
                let to = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        if markings.len() >= options.max_markings {
                            return Err(PetriError::MarkingBudgetExceeded {
                                budget: options.max_markings,
                            });
                        }
                        let i = markings.len();
                        markings.push(next.clone());
                        index.insert(next, i);
                        i
                    }
                };
                edges.push(ReachedEdge {
                    from: frontier,
                    transition: t,
                    to,
                });
            }
            frontier += 1;
        }

        Ok(ReachabilityGraph { markings, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlaceId;

    /// Two independent 2-cycles: 2 x 2 = 4 reachable markings.
    fn two_independent_cycles() -> PetriNet {
        let mut net = PetriNet::new();
        for i in 0..2 {
            let a = net.add_place(format!("a{i}"));
            let b = net.add_place(format!("b{i}"));
            let up = net.add_transition(format!("s{i}+"));
            let dn = net.add_transition(format!("s{i}-"));
            net.add_arc_place_to_transition(a, up).unwrap();
            net.add_arc_transition_to_place(up, b).unwrap();
            net.add_arc_place_to_transition(b, dn).unwrap();
            net.add_arc_transition_to_place(dn, a).unwrap();
            net.set_initial_tokens(a, 1).unwrap();
        }
        net
    }

    #[test]
    fn concurrent_cycles_multiply_states() {
        let net = two_independent_cycles();
        let g = net.reachability(&ReachabilityOptions::default()).unwrap();
        assert_eq!(g.markings.len(), 4);
        assert_eq!(g.edges.len(), 8); // 2 enabled transitions per marking
        assert!(g.is_safe());
        assert!(g.deadlocks().is_empty());
    }

    #[test]
    fn initial_marking_is_index_zero() {
        let net = two_independent_cycles();
        let g = net.reachability(&ReachabilityOptions::default()).unwrap();
        assert_eq!(g.markings[0], net.initial_marking());
    }

    #[test]
    fn budget_is_enforced() {
        let net = two_independent_cycles();
        let err = net
            .reachability(&ReachabilityOptions {
                max_markings: 2,
                capacity: 1,
            })
            .unwrap_err();
        assert_eq!(err, PetriError::MarkingBudgetExceeded { budget: 2 });
    }

    #[test]
    fn unsafe_net_is_detected() {
        // t pumps tokens into p without bound: p0 -> t -> p0 + p1.
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let t = net.add_transition("t");
        net.add_arc_place_to_transition(p0, t).unwrap();
        net.add_arc_transition_to_place(t, p0).unwrap();
        net.add_arc_transition_to_place(t, p1).unwrap();
        net.set_initial_tokens(p0, 1).unwrap();
        let err = net
            .reachability(&ReachabilityOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            PetriError::CapacityExceeded {
                place: PlaceId::from_index(1),
                capacity: 1
            }
        );
    }

    #[test]
    fn deadlock_is_reported() {
        // One-shot: p0 -> t -> p1, nothing leaves p1.
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let t = net.add_transition("t");
        net.add_arc_place_to_transition(p0, t).unwrap();
        net.add_arc_transition_to_place(t, p1).unwrap();
        net.set_initial_tokens(p0, 1).unwrap();
        let g = net.reachability(&ReachabilityOptions::default()).unwrap();
        assert_eq!(g.markings.len(), 2);
        assert_eq!(g.deadlocks(), vec![1]);
    }
}
