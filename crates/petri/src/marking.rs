//! Markings and the token-game firing rule.

use std::fmt;

use crate::{PetriNet, PlaceId, TransitionId};

/// A marking: the number of tokens on every place of a net.
///
/// Markings are value types (hashable, comparable) so they can key the
/// visited-set during reachability analysis.
///
/// ```
/// use modsyn_petri::{Marking, PetriNet};
///
/// # fn main() -> Result<(), modsyn_petri::PetriError> {
/// let mut net = PetriNet::new();
/// let p = net.add_place("p");
/// let t = net.add_transition("t");
/// net.add_arc_place_to_transition(p, t)?;
/// net.add_arc_transition_to_place(t, p)?;
/// net.set_initial_tokens(p, 1)?;
///
/// let m = net.initial_marking();
/// assert!(m.enables(&net, t));
/// let m2 = m.fire(&net, t).expect("enabled");
/// assert_eq!(m, m2); // self-loop: firing returns to the same marking
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Marking {
    tokens: Vec<u32>,
}

impl Marking {
    /// Builds a marking from per-place token counts (place order).
    pub fn from_tokens(tokens: impl IntoIterator<Item = u32>) -> Self {
        Marking {
            tokens: tokens.into_iter().collect(),
        }
    }

    /// Tokens on `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range for the net this marking belongs to.
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.tokens[place.index()]
    }

    /// Total number of tokens in the marking.
    pub fn total_tokens(&self) -> u32 {
        self.tokens.iter().sum()
    }

    /// Whether transition `t` is enabled: every fan-in place is marked.
    pub fn enables(&self, net: &PetriNet, t: TransitionId) -> bool {
        net.transition(t)
            .fanin()
            .iter()
            .all(|p| self.tokens[p.index()] > 0)
    }

    /// All transitions enabled in this marking, in id order.
    pub fn enabled_transitions(&self, net: &PetriNet) -> Vec<TransitionId> {
        net.transition_ids()
            .filter(|&t| self.enables(net, t))
            .collect()
    }

    /// Fires `t`, producing the successor marking, or `None` if `t` is not
    /// enabled. Firing removes one token from each fan-in place and deposits
    /// one token in each fan-out place.
    pub fn fire(&self, net: &PetriNet, t: TransitionId) -> Option<Marking> {
        if !self.enables(net, t) {
            return None;
        }
        let mut next = self.clone();
        for p in net.transition(t).fanin() {
            next.tokens[p.index()] -= 1;
        }
        for p in net.transition(t).fanout() {
            next.tokens[p.index()] += 1;
        }
        Some(next)
    }

    /// Maximum token count on any single place (1 for safe nets).
    pub fn max_tokens_on_a_place(&self) -> u32 {
        self.tokens.iter().copied().max().unwrap_or(0)
    }

    /// Raw per-place token vector.
    pub fn as_slice(&self) -> &[u32] {
        &self.tokens
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// p0 -> t0 -> p1 -> t1 -> p0, concurrent branch p2 -> t2 -> p2.
    fn net_with_choice() -> (PetriNet, Vec<PlaceId>, Vec<TransitionId>) {
        let mut net = PetriNet::new();
        let p: Vec<_> = (0..3).map(|i| net.add_place(format!("p{i}"))).collect();
        let t: Vec<_> = (0..3)
            .map(|i| net.add_transition(format!("t{i}")))
            .collect();
        net.add_arc_place_to_transition(p[0], t[0]).unwrap();
        net.add_arc_transition_to_place(t[0], p[1]).unwrap();
        net.add_arc_place_to_transition(p[1], t[1]).unwrap();
        net.add_arc_transition_to_place(t[1], p[0]).unwrap();
        net.add_arc_place_to_transition(p[2], t[2]).unwrap();
        net.add_arc_transition_to_place(t[2], p[2]).unwrap();
        net.set_initial_tokens(p[0], 1).unwrap();
        net.set_initial_tokens(p[2], 1).unwrap();
        (net, p, t)
    }

    #[test]
    fn enabled_transitions_reflect_marking() {
        let (net, _p, t) = net_with_choice();
        let m = net.initial_marking();
        assert_eq!(m.enabled_transitions(&net), vec![t[0], t[2]]);
    }

    #[test]
    fn fire_moves_tokens() {
        let (net, p, t) = net_with_choice();
        let m = net.initial_marking();
        let m2 = m.fire(&net, t[0]).unwrap();
        assert_eq!(m2.tokens(p[0]), 0);
        assert_eq!(m2.tokens(p[1]), 1);
        assert_eq!(m2.tokens(p[2]), 1);
        assert!(m2.enables(&net, t[1]));
        assert!(!m2.enables(&net, t[0]));
    }

    #[test]
    fn fire_disabled_returns_none() {
        let (net, _p, t) = net_with_choice();
        let m = net.initial_marking();
        assert!(m.fire(&net, t[1]).is_none());
    }

    #[test]
    fn firing_cycle_returns_to_initial() {
        let (net, _p, t) = net_with_choice();
        let m = net.initial_marking();
        let back = m.fire(&net, t[0]).unwrap().fire(&net, t[1]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn totals_and_max() {
        let (net, ..) = net_with_choice();
        let m = net.initial_marking();
        assert_eq!(m.total_tokens(), 2);
        assert_eq!(m.max_tokens_on_a_place(), 1);
        assert_eq!(m.to_string(), "[1 0 1]");
    }
}
