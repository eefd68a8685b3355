//! Seeded random generation of live, safe, free-choice STGs.
//!
//! A generated STG is described by a [`StgRecipe`] — a phase list drawn
//! from a small grammar (see [`GenPhase`]) and compiled through the
//! [`modsyn_stg::StgBuilder`] DSL, which produces 1-safe live cyclic nets
//! by construction:
//!
//! ```text
//! stg     ::= cycle( prelude ; phase* )
//! prelude ::= handshake(i0, o_) ; … ; pulse(o0) ; pulse(o1) ; …
//! phase   ::= pulse(o)                          -- o+ o-        (o output)
//!           | handshake(a, o)                   -- a+ o+ a- o-  (o output)
//!           | par(oa, ob) ; pulse(oc)           -- (oa ∥ ob) pulses
//!           | choice(i, j)                      -- i, j inputs: input-led
//!                                               --   free choice branches
//! ```
//!
//! Choices are always *input-led* (each branch starts with a distinct
//! input edge), keeping the specification inside the speed-independent
//! class: only the environment resolves choices, outputs stay persistent.
//!
//! Input transitions never fire back to back: a bare `i+ i-` pulse leaves
//! the states before and after it with equal codes separated by input
//! edges only, a CSC conflict *no* signal insertion can resolve (the
//! inserted signal would have to fire on an input edge, delaying the
//! environment). The grammar therefore always interleaves output activity
//! with input edges — inputs appear only as handshake or choice heads —
//! so generated conflicts stay within the insertion-solvable class and
//! the differ exercises full synthesis runs, not just typed give-ups.
//!
//! Recipes shrink by dropping phases ([`StgRecipe::shrink`]), so a differ
//! failure can be reduced to a minimal phase list while staying inside the
//! grammar.

use modsyn_stg::{Frag, SignalId, SignalKind, Stg, StgBuilder};

use modsyn_fault::SplitMix64;

/// Size class of a generated STG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// 1 input + 2 outputs, 1–4 random phases — solves in milliseconds.
    Small,
    /// 2 inputs + 3 outputs, 2–6 random phases — exercises concurrency
    /// blow-up and input choice.
    Medium,
}

impl Profile {
    /// `(inputs, outputs)` signal counts of the profile.
    pub fn signals(self) -> (usize, usize) {
        match self {
            Profile::Small => (1, 2),
            Profile::Medium => (2, 3),
        }
    }

    fn phase_budget(self, rng: &mut SplitMix64) -> usize {
        match self {
            Profile::Small => 1 + rng.below(4),
            Profile::Medium => 2 + rng.below(5),
        }
    }
}

/// One phase of a recipe. Signal operands are raw draws reduced modulo the
/// signal (or input) count at build time, so dropping phases during
/// shrinking never invalidates the remaining ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenPhase {
    /// `o+ o-` where `o` is the operand reduced into the *outputs*.
    Pulse(u8),
    /// `a+ o+ a- o-` where `a` ranges over all signals and `o` over the
    /// outputs (degrades to a pulse when both land on the same signal).
    /// With `a` an input this is the classic input-led handshake.
    Handshake(u8, u8),
    /// `(oa+ oa- ∥ ob+ ob-) ; oc+ oc-` over outputs, with `oc` chosen
    /// deterministically from `oa` (degrades to a pulse on collision).
    ParPulses(u8, u8),
    /// Free choice between two input-led branches
    /// `i+ ; out-pulse ; i-  []  j+ ; out-pulse ; j-` (degrades to a
    /// handshake when the profile has fewer than two inputs or the heads
    /// collide).
    InputChoice(u8, u8),
}

/// A reproducible generated-STG description: seed, profile and phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StgRecipe {
    /// The seed this recipe was generated from (kept for naming/reporting;
    /// shrunk recipes inherit it).
    pub seed: u64,
    /// The size profile.
    pub profile: Profile,
    /// The phase list (the prelude is implicit).
    pub phases: Vec<GenPhase>,
}

impl StgRecipe {
    /// Compiles the recipe into an STG named `gen-<seed>[-sN]`.
    pub fn build(&self) -> Stg {
        let mut b = StgBuilder::new(format!("gen-{}", self.seed));
        let ids = self
            .declare_signals(&mut b, "")
            .expect("generated names are unique");
        b.cycle(self.body(&ids))
            .expect("grammar only emits single-exit cycle bodies")
    }

    /// Declares this recipe's signals on an external builder, each name
    /// prefixed with `prefix`, and returns them in the order [`Self::body`]
    /// expects. This is the composition hook: a corpus engine can declare
    /// several recipes side by side (distinct prefixes keep the namespaces
    /// apart) and embed their bodies in one larger cycle.
    ///
    /// # Errors
    ///
    /// Returns [`modsyn_stg::StgError::DuplicateSignal`] if a prefixed name
    /// collides with one already declared on the builder.
    pub fn declare_signals(
        &self,
        b: &mut StgBuilder,
        prefix: &str,
    ) -> Result<Vec<SignalId>, modsyn_stg::StgError> {
        let (inputs, outputs) = self.profile.signals();
        (0..inputs + outputs)
            .map(|i| {
                if i < inputs {
                    b.signal(format!("{prefix}i{i}"), SignalKind::Input)
                } else {
                    b.signal(format!("{prefix}o{}", i - inputs), SignalKind::Output)
                }
            })
            .collect()
    }

    /// The recipe's cycle body over `ids` (as returned by
    /// [`Self::declare_signals`]): the implicit prelude followed by the
    /// phase list. The fragment is single-exit, so it can be used as a
    /// cycle body directly or sequenced into a composed cycle.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is shorter than the profile's signal count.
    pub fn body(&self, ids: &[SignalId]) -> Frag {
        let (inputs, outputs) = self.profile.signals();
        let total = inputs + outputs;
        assert!(ids.len() >= total, "recipe needs {total} signals");
        let pulse = |s: usize| Frag::seq([Frag::rise(ids[s]), Frag::fall(ids[s])]);
        // Reduces a raw operand into the output signals.
        let out = |raw: usize| inputs + raw % outputs;

        // Prelude: every input runs one input-led handshake and every
        // output pulses once, so initial values are always inferable,
        // every signal appears in the cycle, and no input fires twice in
        // a row (see the module docs on solvability).
        let mut frags: Vec<Frag> = Vec::new();
        for k in 0..inputs {
            let o = ids[out(k)];
            frags.push(Frag::seq([
                Frag::rise(ids[k]),
                Frag::rise(o),
                Frag::fall(ids[k]),
                Frag::fall(o),
            ]));
        }
        frags.extend((0..outputs).map(|o| pulse(inputs + o)));
        for &phase in &self.phases {
            let frag = match phase {
                GenPhase::Pulse(a) => pulse(out(a as usize)),
                GenPhase::Handshake(a, b) => {
                    let (a, b) = (a as usize % total, out(b as usize));
                    if a == b {
                        pulse(a)
                    } else {
                        Frag::seq([
                            Frag::rise(ids[a]),
                            Frag::rise(ids[b]),
                            Frag::fall(ids[a]),
                            Frag::fall(ids[b]),
                        ])
                    }
                }
                GenPhase::ParPulses(a, b) => {
                    let (a, b) = (out(a as usize), out(b as usize));
                    if a == b {
                        pulse(a)
                    } else {
                        Frag::seq([Frag::par([pulse(a), pulse(b)]), pulse(out(a + 1))])
                    }
                }
                GenPhase::InputChoice(i, j) => {
                    let (i, j) = (i as usize % inputs.max(1), j as usize % inputs.max(1));
                    if inputs < 2 || i == j {
                        // No real choice available: degrade to a handshake
                        // between the head and some output.
                        let o = ids[out(i + j)];
                        Frag::seq([
                            Frag::rise(ids[i]),
                            Frag::rise(o),
                            Frag::fall(ids[i]),
                            Frag::fall(o),
                        ])
                    } else {
                        let branch = |head: usize, o: usize| {
                            Frag::seq([Frag::rise(ids[head]), pulse(o), Frag::fall(ids[head])])
                        };
                        Frag::choice([branch(i, out(i)), branch(j, out(j))])
                    }
                }
            };
            frags.push(frag);
        }
        Frag::seq(frags)
    }

    /// All one-phase-smaller recipes, for shrinking a failing case. The
    /// implicit prelude is not shrinkable, so the minimum is the bare
    /// prelude cycle.
    pub fn shrink(&self) -> Vec<StgRecipe> {
        (0..self.phases.len())
            .map(|drop| {
                let mut phases = self.phases.clone();
                phases.remove(drop);
                StgRecipe {
                    seed: self.seed,
                    profile: self.profile,
                    phases,
                }
            })
            .collect()
    }
}

/// Draws a recipe for `seed` under `profile`. Deterministic: equal
/// arguments give equal recipes.
pub fn gen_recipe(seed: u64, profile: Profile) -> StgRecipe {
    let mut rng = SplitMix64::new(seed);
    let budget = profile.phase_budget(&mut rng);
    let phases = (0..budget)
        .map(|_| {
            let a = rng.below(256) as u8;
            let b = rng.below(256) as u8;
            match rng.below(100) {
                0..=34 => GenPhase::Pulse(a),
                35..=59 => GenPhase::Handshake(a, b),
                60..=84 => GenPhase::ParPulses(a, b),
                _ => GenPhase::InputChoice(a, b),
            }
        })
        .collect();
    StgRecipe {
        seed,
        profile,
        phases,
    }
}

/// Generates the STG for `seed` under `profile`:
/// `gen_recipe(seed, profile).build()`.
pub fn gen_stg(seed: u64, profile: Profile) -> Stg {
    gen_recipe(seed, profile).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_petri::ReachabilityOptions;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            assert_eq!(
                gen_recipe(seed, Profile::Small),
                gen_recipe(seed, Profile::Small)
            );
            let a = gen_stg(seed, Profile::Medium);
            let b = gen_stg(seed, Profile::Medium);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn generated_nets_are_live_and_safe() {
        for seed in 0..30 {
            for profile in [Profile::Small, Profile::Medium] {
                let stg = gen_stg(seed, profile);
                let g = stg
                    .net()
                    .reachability(&ReachabilityOptions::default())
                    .unwrap_or_else(|e| panic!("seed {seed} {profile:?}: {e}"));
                assert!(g.is_safe(), "seed {seed} {profile:?} not safe");
                assert!(
                    g.deadlocks().is_empty(),
                    "seed {seed} {profile:?} deadlocks"
                );
            }
        }
    }

    #[test]
    fn profiles_set_signal_counts() {
        let small = gen_stg(3, Profile::Small);
        assert_eq!(small.signal_count(), 3);
        let medium = gen_stg(3, Profile::Medium);
        assert_eq!(medium.signal_count(), 5);
    }

    #[test]
    fn shrinking_drops_exactly_one_phase() {
        let recipe = gen_recipe(11, Profile::Medium);
        let shrunk = recipe.shrink();
        assert_eq!(shrunk.len(), recipe.phases.len());
        for s in &shrunk {
            assert_eq!(s.phases.len(), recipe.phases.len() - 1);
            // Every shrunk recipe still builds a valid net.
            let stg = s.build();
            assert!(stg.signal_count() >= 3);
        }
    }

    #[test]
    fn seed_is_embedded_in_the_model_name() {
        assert_eq!(gen_stg(42, Profile::Small).name(), "gen-42");
    }
}
