//! Seeded asymmetric-choice probes: live safe STGs just *beyond* the
//! free-choice class.
//!
//! Wimmel's asymmetric-choice class (every two conflicting places have
//! nested successor sets) is the first structural tier outside the
//! free-choice theory the paper's comparators assume. The probe family here
//! places a free choice directly after a fork/join: the DSL then gives each
//! parallel exit its own choice place, and every branch head consumes *all*
//! of them — branch heads get fan-in > 1 while the choice places keep
//! fan-out > 1. The conflicting places have identical successor sets
//! (trivially nested), so the net is asymmetric-choice but not free-choice,
//! while the DSL's cycle construction keeps it 1-safe, live and consistent.
//!
//! These probes exist to be *rejected, typed*: the corpus pipeline asserts
//! that every theory-scoped method maps them to
//! [`modsyn::SynthesisError::NotFreeChoice`]-style errors — no panics, no
//! silent wrong answers (see [`crate::Rejection`]).

use modsyn_fault::SplitMix64;
use modsyn_petri::NetClass;
use modsyn_stg::{Frag, SignalKind, Stg, StgBuilder};

/// A reproducible asymmetric-choice probe description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsymRecipe {
    /// The seed the probe was drawn from.
    pub seed: u64,
    /// Parallel branches feeding the choice (2–3): the choice entry's
    /// fan-in width, and each branch head's fan-in.
    pub width: usize,
    /// Choice alternatives (2–3), each headed by a distinct input.
    pub branches: usize,
}

impl AsymRecipe {
    /// Compiles the probe into an STG named `asym-<seed>`.
    ///
    /// Layout: `d+ ; (w0± ∥ … ∥ w<width>±) ; [ ck+ bk± ck- ]k ; d-` — a
    /// done-signal rise forks `width` worker output pulses, then an
    /// input-led choice over `branches` alternatives, closed by the done
    /// fall. The choice-after-par seam is what pushes the net beyond free
    /// choice: each worker exit gets its own choice place, and every
    /// branch head consumes all of them.
    pub fn build(&self) -> Stg {
        let mut b = StgBuilder::new(format!("asym-{}", self.seed));
        let pulse = |b: &mut StgBuilder, name: String| {
            let s = b.signal(name, SignalKind::Output).expect("unique names");
            Frag::seq([Frag::rise(s), Frag::fall(s)])
        };
        let done = b
            .signal("d".to_string(), SignalKind::Output)
            .expect("unique names");
        let workers: Vec<Frag> = (0..self.width)
            .map(|k| pulse(&mut b, format!("w{k}")))
            .collect();
        let alternatives: Vec<Frag> = (0..self.branches)
            .map(|k| {
                let head = b
                    .signal(format!("c{k}"), SignalKind::Input)
                    .expect("unique names");
                let body = pulse(&mut b, format!("b{k}"));
                Frag::seq([Frag::rise(head), body, Frag::fall(head)])
            })
            .collect();
        b.cycle(Frag::seq([
            Frag::rise(done),
            Frag::par(workers),
            Frag::choice(alternatives),
            Frag::fall(done),
        ]))
        .expect("probe bodies are single-exit")
    }

    /// Smaller probes (fewer branches, then narrower fork), for failure
    /// minimisation. The minimum — width 2, branches 2 — is the smallest
    /// shape that is still beyond free choice.
    pub fn shrink(&self) -> Vec<AsymRecipe> {
        let mut out = Vec::new();
        if self.branches > 2 {
            out.push(AsymRecipe {
                branches: self.branches - 1,
                ..*self
            });
        }
        if self.width > 2 {
            out.push(AsymRecipe {
                width: self.width - 1,
                ..*self
            });
        }
        out
    }
}

/// Draws an asymmetric-choice probe for `seed`. Deterministic; every
/// drawn probe classifies strictly beyond [`NetClass::FreeChoice`].
pub fn gen_asym(seed: u64) -> AsymRecipe {
    let mut rng = SplitMix64::new(seed ^ 0xa5_11);
    AsymRecipe {
        seed,
        width: 2 + rng.below(2),
        branches: 2 + rng.below(2),
    }
}

/// `true` when `stg` sits exactly in the asymmetric-choice tier — beyond
/// free choice, but with only one-sided confusion.
pub fn is_asymmetric_choice(stg: &Stg) -> bool {
    stg.net().classify() == NetClass::AsymmetricChoice
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_petri::ReachabilityOptions;
    use modsyn_sg::{derive, DeriveOptions};

    #[test]
    fn probes_are_asymmetric_choice_live_and_safe() {
        for seed in 0..25 {
            let stg = gen_asym(seed).build();
            assert!(
                is_asymmetric_choice(&stg),
                "seed {seed}: classified {}",
                stg.net().classify()
            );
            let g = stg
                .net()
                .reachability(&ReachabilityOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(g.is_safe(), "seed {seed} not safe");
            assert!(g.deadlocks().is_empty(), "seed {seed} deadlocks");
        }
    }

    #[test]
    fn probes_are_consistent() {
        for seed in 0..10 {
            let stg = gen_asym(seed).build();
            let sg = derive(&stg, &DeriveOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            modsyn_check::check_consistency(&sg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic_and_in_range() {
        for seed in 0..50 {
            let a = gen_asym(seed);
            assert_eq!(a, gen_asym(seed));
            assert!((2..=3).contains(&a.width));
            assert!((2..=3).contains(&a.branches));
        }
    }

    #[test]
    fn nested_choice_pairs_are_reported() {
        let report = gen_asym(3).build().net().structural_report();
        assert_eq!(report.class, NetClass::AsymmetricChoice);
        assert!(report.nested_choice_pairs >= 1);
    }

    #[test]
    fn shrinking_reaches_the_minimal_probe() {
        let mut probe = AsymRecipe {
            seed: 9,
            width: 3,
            branches: 3,
        };
        let mut steps = 0;
        while let Some(next) = probe.shrink().into_iter().next() {
            assert!(
                is_asymmetric_choice(&next.build()),
                "shrunk probe left class"
            );
            probe = next;
            steps += 1;
            assert!(steps < 10, "shrinking must terminate");
        }
        assert_eq!((probe.width, probe.branches), (2, 2));
    }
}
