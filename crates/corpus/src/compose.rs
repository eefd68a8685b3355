//! The composition engine: growing large STGs from small certified leaves.
//!
//! Following Devillers' composition results, two structure-level operators
//! build big nets whose behavioural properties are inherited from the
//! leaves rather than re-proved from scratch:
//!
//! * **Articulation** — sequential glue: the leaves' cycle bodies run one
//!   after another, each wrapped in the rise/fall of a fresh *articulation
//!   output*. The articulation transitions are cut vertices of the composed
//!   net: every path between two leaves passes through them, so liveness,
//!   1-safety, consistency and the structural class of each leaf carry
//!   over; the seams are *output-separated* (fresh output edges between any
//!   two leaf events), keeping CSC conflicts within the insertion-solvable
//!   class, and the wrapping signal doubles as a phase bit that already
//!   distinguishes the leaves' state-code ranges.
//! * **Synchronous product** — the rendezvous form: the leaves' bodies run
//!   concurrently (fork from the articulation point) and a fresh *sync
//!   output* pulse joins all of them, the shared synchronisation event of
//!   the product. The join transition is a plain marked-graph join
//!   (singleton-fanout places), so free-choiceness is preserved.
//!
//! Each composed case carries a [`Certificate`] recording its derivation
//! and the claimed properties; [`check_certificate`] spot-checks the claims
//! against reachability, the structural classifier and the
//! `modsyn-check` consistency oracle — the engine never asks anyone to
//! trust the construction blindly.

use modsyn_check::{gen_recipe, Profile, StgRecipe};
use modsyn_fault::SplitMix64;
use modsyn_petri::{NetClass, ReachabilityOptions};
use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::{Frag, SignalId, SignalKind, Stg, StgBuilder, StgError};

use crate::skeleton::Skeleton;

/// A corpus leaf: a generated recipe or a program-skeleton template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unit {
    /// A seeded free-choice recipe from the `modsyn-check` grammar.
    Gen(StgRecipe),
    /// A concurrent-program handshake template.
    Skel(Skeleton),
}

impl Unit {
    /// Leaf name for derivation strings.
    pub fn name(&self) -> String {
        match self {
            Unit::Gen(r) => format!("gen-{}/{}p", r.seed, r.phases.len()),
            Unit::Skel(s) => format!("skel-{}", s.name()),
        }
    }

    /// The tightest structural class the leaf is guaranteed to stay within.
    fn class_bound(&self) -> NetClass {
        match self {
            // The gen grammar and the mutex template draw free choices;
            // everything else is choice-free. FreeChoice is a safe upper
            // bound for all of them (the classifier may report lower).
            Unit::Gen(_) => NetClass::FreeChoice,
            Unit::Skel(Skeleton::MutexPair) => NetClass::FreeChoice,
            Unit::Skel(_) => NetClass::MarkedGraph,
        }
    }

    fn declare(&self, b: &mut StgBuilder, prefix: &str) -> Result<Vec<SignalId>, StgError> {
        match self {
            Unit::Gen(r) => r.declare_signals(b, prefix),
            Unit::Skel(s) => s.declare_signals(b, prefix),
        }
    }

    fn body(&self, ids: &[SignalId]) -> Frag {
        match self {
            Unit::Gen(r) => r.body(ids),
            Unit::Skel(s) => s.body(ids),
        }
    }
}

/// A composition tree over corpus leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusNode {
    /// A single leaf.
    Unit(Unit),
    /// Sequential articulation of the children (≥ 2), glued by fresh
    /// articulation-output pulses.
    Articulate(Vec<CorpusNode>),
    /// Synchronous product of the children (≥ 2): concurrent bodies joined
    /// by a fresh sync-output pulse.
    Sync(Vec<CorpusNode>),
}

impl CorpusNode {
    /// Number of leaves in the tree.
    pub fn leaves(&self) -> usize {
        match self {
            CorpusNode::Unit(_) => 1,
            CorpusNode::Articulate(cs) | CorpusNode::Sync(cs) => {
                cs.iter().map(CorpusNode::leaves).sum()
            }
        }
    }

    /// Human-readable derivation, e.g. `art(gen-3/2p,sync(skel-chan,gen-9/1p))`.
    pub fn derivation(&self) -> String {
        match self {
            CorpusNode::Unit(u) => u.name(),
            CorpusNode::Articulate(cs) => {
                let inner: Vec<String> = cs.iter().map(CorpusNode::derivation).collect();
                format!("art({})", inner.join(","))
            }
            CorpusNode::Sync(cs) => {
                let inner: Vec<String> = cs.iter().map(CorpusNode::derivation).collect();
                format!("sync({})", inner.join(","))
            }
        }
    }

    /// The claimed class bound: composition preserves the maximum of the
    /// leaf bounds (both operators add only marked-graph structure).
    pub fn class_bound(&self) -> NetClass {
        match self {
            CorpusNode::Unit(u) => u.class_bound(),
            CorpusNode::Articulate(cs) | CorpusNode::Sync(cs) => cs
                .iter()
                .map(CorpusNode::class_bound)
                .max()
                .unwrap_or(NetClass::MarkedGraph),
        }
    }

    fn compile(
        &self,
        b: &mut StgBuilder,
        leaf: &mut usize,
        glue: &mut usize,
    ) -> Result<Frag, StgError> {
        match self {
            CorpusNode::Unit(u) => {
                let prefix = format!("m{leaf}_");
                *leaf += 1;
                let ids = u.declare(b, &prefix)?;
                Ok(u.body(&ids))
            }
            CorpusNode::Articulate(children) => {
                // g0+ ; child0 ; g0- ; g1+ ; child1 ; g1- ; … — each child
                // runs inside its articulation output's rise/fall, so the
                // glue transitions are the cut vertices between leaves AND
                // the glue signal is a free phase bit: wrapping (instead of
                // a bare `g+ g-` pulse between leaves) adds no equal-code
                // state pair of its own, keeping insertion costs at the
                // leaves' standalone level.
                let mut frags = Vec::new();
                for child in children {
                    let g = b.signal(format!("g{glue}"), SignalKind::Output)?;
                    *glue += 1;
                    frags.push(Frag::seq([
                        Frag::rise(g),
                        child.compile(b, leaf, glue)?,
                        Frag::fall(g),
                    ]));
                }
                Ok(Frag::seq(frags))
            }
            CorpusNode::Sync(children) => {
                let bodies = children
                    .iter()
                    .map(|c| c.compile(b, leaf, glue))
                    .collect::<Result<Vec<_>, _>>()?;
                // The sync output wraps the product: its rise is the
                // rendezvous entry (a proper transition-level fork, even
                // when the product opens the cycle) and its fall joins
                // every branch exit — the shared event all components
                // agree on.
                let s = b.signal(format!("g{glue}"), SignalKind::Output)?;
                *glue += 1;
                Ok(Frag::seq([Frag::rise(s), Frag::par(bodies), Frag::fall(s)]))
            }
        }
    }
}

/// A reproducible composed-corpus case description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusRecipe {
    /// The seed the recipe was drawn from (shrunk recipes inherit it).
    pub seed: u64,
    /// The composition tree.
    pub node: CorpusNode,
}

/// Structure-level proof sketch attached to every composed case: what was
/// composed, and which properties the construction guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The derivation string ([`CorpusNode::derivation`]).
    pub derivation: String,
    /// Number of leaves composed.
    pub leaves: usize,
    /// Claimed upper bound on the structural class.
    pub class_bound: NetClass,
    /// Claimed: every reachable marking is 1-safe.
    pub safe: bool,
    /// Claimed: the reachability graph has no deadlock.
    pub live: bool,
}

impl CorpusRecipe {
    /// Compiles the recipe into an STG named `corpus-<seed>` plus its
    /// certificate.
    ///
    /// # Panics
    ///
    /// Panics if the tree is malformed (duplicate signal prefixes cannot
    /// occur for trees built by [`gen_corpus`] or [`CorpusRecipe::shrink`]).
    pub fn build(&self) -> (Stg, Certificate) {
        let mut b = StgBuilder::new(format!("corpus-{}", self.seed));
        let (mut leaf, mut glue) = (0usize, 0usize);
        let body = self
            .node
            .compile(&mut b, &mut leaf, &mut glue)
            .expect("leaf prefixes and glue names are unique");
        let stg = b.cycle(body).expect("composition emits single-exit bodies");
        let certificate = Certificate {
            derivation: self.node.derivation(),
            leaves: self.node.leaves(),
            class_bound: self.node.class_bound(),
            safe: true,
            live: true,
        };
        (stg, certificate)
    }

    /// One-step-smaller recipes for failure minimisation: drop a child of
    /// a composition (or collapse a binary composition to either child),
    /// or shrink one generated leaf by a phase.
    pub fn shrink(&self) -> Vec<CorpusRecipe> {
        shrink_node(&self.node)
            .into_iter()
            .map(|node| CorpusRecipe {
                seed: self.seed,
                node,
            })
            .collect()
    }
}

fn shrink_node(node: &CorpusNode) -> Vec<CorpusNode> {
    match node {
        CorpusNode::Unit(Unit::Gen(r)) => r
            .shrink()
            .into_iter()
            .map(|r| CorpusNode::Unit(Unit::Gen(r)))
            .collect(),
        CorpusNode::Unit(Unit::Skel(_)) => Vec::new(),
        CorpusNode::Articulate(cs) | CorpusNode::Sync(cs) => {
            let rebuild = |children: Vec<CorpusNode>| match node {
                CorpusNode::Articulate(_) => CorpusNode::Articulate(children),
                _ => CorpusNode::Sync(children),
            };
            let mut out = Vec::new();
            if cs.len() > 2 {
                // Drop one child, keeping the operator.
                for drop in 0..cs.len() {
                    let mut children = cs.clone();
                    children.remove(drop);
                    out.push(rebuild(children));
                }
            } else {
                // Collapse to either child.
                out.extend(cs.iter().cloned());
            }
            // Shrink one child in place.
            for (i, c) in cs.iter().enumerate() {
                for s in shrink_node(c) {
                    let mut children = cs.clone();
                    children[i] = s;
                    out.push(rebuild(children));
                }
            }
            out
        }
    }
}

/// Violation found by [`check_certificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateViolation(pub String);

impl std::fmt::Display for CertificateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "certificate violated: {}", self.0)
    }
}

/// Spot-checks a certificate's claims against the built net: 1-safety and
/// deadlock freedom over the full reachability graph, the structural class
/// bound, and STG consistency via the independent oracle. Returns the
/// reachable state count on success.
///
/// # Errors
///
/// The first claim the net falsifies, as a [`CertificateViolation`].
pub fn check_certificate(
    stg: &Stg,
    certificate: &Certificate,
) -> Result<usize, CertificateViolation> {
    let graph = stg
        .net()
        .reachability(&ReachabilityOptions::default())
        .map_err(|e| CertificateViolation(format!("reachability failed: {e}")))?;
    if certificate.safe && !graph.is_safe() {
        return Err(CertificateViolation("claimed 1-safe, is not".into()));
    }
    if certificate.live && !graph.deadlocks().is_empty() {
        return Err(CertificateViolation(format!(
            "claimed deadlock-free, found {} deadlocks",
            graph.deadlocks().len()
        )));
    }
    let class = stg.net().classify();
    if class > certificate.class_bound {
        return Err(CertificateViolation(format!(
            "claimed class ≤ {}, classified {class}",
            certificate.class_bound
        )));
    }
    let sg = derive(stg, &DeriveOptions::default())
        .map_err(|e| CertificateViolation(format!("derivation failed: {e}")))?;
    modsyn_check::check_consistency(&sg)
        .map_err(|e| CertificateViolation(format!("inconsistent: {e}")))?;
    Ok(sg.state_count())
}

/// Gen-stream sub-seeds (small profile) whose recipes the modular flow
/// certifies within the Table-1 budgets.
///
/// "In-theory" for the corpus means more than live safe free-choice: the
/// modular flow must actually *certify* the case, so the leaves themselves
/// have to be CSC-insertion-solvable. The raw gen stream is not — roughly
/// one recipe in ten packs so many equal-code pairs into so few states
/// that resolution needs more insertion signals than the cap (or a search
/// past the Table-1 backtrack budget). These pools are the *certified
/// seeds* the composition grows from: scanned once with the full
/// evaluate/certify pipeline (`examples/certify_pool.rs`), and
/// re-certified continuously because every corpus run re-evaluates each
/// entry it draws and fails on any regression.
const CERTIFIED_SMALL_SEEDS: [u64; 64] = [
    1, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 28,
    29, 30, 32, 33, 34, 35, 36, 37, 38, 40, 41, 42, 43, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55,
    56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 68, 69, 70, 72,
];

/// Gen-stream sub-seeds (medium profile) certified like
/// [`CERTIFIED_SMALL_SEEDS`].
const CERTIFIED_MEDIUM_SEEDS: [u64; 32] = [
    1, 2, 3, 4, 6, 7, 10, 11, 12, 13, 15, 16, 17, 19, 20, 21, 22, 24, 25, 26, 27, 28, 33, 34, 35,
    36, 37, 39, 40, 41, 42, 44,
];

/// Ordered skeleton pairs whose synchronous product the modular flow
/// certifies cheaply. Products involving [`Skeleton::ForkJoin`] stack the
/// template's own concurrency diamond on the product's and exhaust the
/// insertion signal cap, and `(pipe4, pipe2)` — though `(pipe2, pipe4)`
/// solves — falls over to heuristic ordering; both are excluded, as are
/// the certifiable-but-slow deep-pipeline squares that would dominate a
/// thousand-case run's wall clock.
const CERTIFIED_SYNC_PAIRS: [(Skeleton, Skeleton); 16] = [
    (Skeleton::Channel, Skeleton::Channel),
    (Skeleton::Channel, Skeleton::Pipeline(2)),
    (Skeleton::Channel, Skeleton::Pipeline(3)),
    (Skeleton::Channel, Skeleton::Pipeline(4)),
    (Skeleton::Channel, Skeleton::MutexPair),
    (Skeleton::Pipeline(2), Skeleton::Channel),
    (Skeleton::Pipeline(2), Skeleton::Pipeline(2)),
    (Skeleton::Pipeline(2), Skeleton::Pipeline(3)),
    (Skeleton::Pipeline(2), Skeleton::MutexPair),
    (Skeleton::Pipeline(3), Skeleton::Channel),
    (Skeleton::Pipeline(3), Skeleton::Pipeline(2)),
    (Skeleton::Pipeline(3), Skeleton::MutexPair),
    (Skeleton::Pipeline(4), Skeleton::Channel),
    (Skeleton::MutexPair, Skeleton::Channel),
    (Skeleton::MutexPair, Skeleton::Pipeline(2)),
    (Skeleton::MutexPair, Skeleton::MutexPair),
];

/// The subset of [`CERTIFIED_SYNC_PAIRS`] that also certifies when the
/// product is *articulated with a further leaf*. `sync(pipe2,mutex)` and
/// `sync(pipe3,mutex)` certify standalone but fail inside every
/// articulation (the projection obstruction again: the neighbour leaf's
/// window projects to ε in the product's modules, stranding the mutex
/// choice's equal-code pairs) — the mirrored `sync(mutex,pipeN)` orders
/// are fine, so those stay.
const ARTICULABLE_SYNC_PAIRS: [(Skeleton, Skeleton); 14] = [
    (Skeleton::Channel, Skeleton::Channel),
    (Skeleton::Channel, Skeleton::Pipeline(2)),
    (Skeleton::Channel, Skeleton::Pipeline(3)),
    (Skeleton::Channel, Skeleton::Pipeline(4)),
    (Skeleton::Channel, Skeleton::MutexPair),
    (Skeleton::Pipeline(2), Skeleton::Channel),
    (Skeleton::Pipeline(2), Skeleton::Pipeline(2)),
    (Skeleton::Pipeline(2), Skeleton::Pipeline(3)),
    (Skeleton::Pipeline(3), Skeleton::Channel),
    (Skeleton::Pipeline(3), Skeleton::Pipeline(2)),
    (Skeleton::Pipeline(4), Skeleton::Channel),
    (Skeleton::MutexPair, Skeleton::Channel),
    (Skeleton::MutexPair, Skeleton::Pipeline(2)),
    (Skeleton::MutexPair, Skeleton::MutexPair),
];

/// Draws a composed in-theory corpus recipe for `seed`. Deterministic.
///
/// The shape distribution keeps cases cheap enough for thousand-case runs:
/// about a quarter are single leaves, half are articulations of 2–4 units,
/// and the rest are synchronous products of two certified skeleton pairs
/// (sometimes articulated with a third unit).
pub fn gen_corpus(seed: u64) -> CorpusRecipe {
    // Offset the stream so leaf sub-seeds differ from the raw gen_stg
    // stream at the same seed.
    let mut rng = SplitMix64::new(seed ^ 0xc0_95);
    let node = match rng.below(100) {
        0..=24 => CorpusNode::Unit(draw_unit(&mut rng, false)),
        25..=69 => {
            // 2–3 units, all drawn small. Medium recipes certify standalone
            // but can fail *inside* articulations: the other leaves' windows
            // project to ε in their per-output modules, which leaves the
            // medium leaf's denser conflict structure with in-module
            // equal-code pairs that only inputs separate (seed 0's
            // art(gen-4 medium,…) draws no-solution at any budget while the
            // all-small variant solves). Small leaves keep composed cases
            // inside modular's insertion budget.
            let n = 2 + rng.below(2);
            CorpusNode::Articulate(
                (0..n)
                    .map(|_| CorpusNode::Unit(draw_unit(&mut rng, true)))
                    .collect(),
            )
        }
        70..=89 => draw_sync(&mut rng, &CERTIFIED_SYNC_PAIRS),
        _ => CorpusNode::Articulate(vec![
            draw_sync(&mut rng, &ARTICULABLE_SYNC_PAIRS),
            CorpusNode::Unit(draw_unit(&mut rng, true)),
        ]),
    };
    CorpusRecipe { seed, node }
}

/// Draws one leaf. `small` restricts generated recipes to the small
/// profile, keeping composed signal counts in the milliseconds-per-case
/// range. Generated leaves draw their sub-seeds from the certified pools.
fn draw_unit(rng: &mut SplitMix64, small: bool) -> Unit {
    if rng.below(100) < 55 {
        let (pool, profile): (&[u64], Profile) = if small || rng.below(100) < 60 {
            (&CERTIFIED_SMALL_SEEDS, Profile::Small)
        } else {
            (&CERTIFIED_MEDIUM_SEEDS, Profile::Medium)
        };
        let sub_seed = pool[rng.below(pool.len())];
        Unit::Gen(gen_recipe(sub_seed, profile))
    } else {
        Unit::Skel(draw_skel(rng))
    }
}

/// Draws a skeleton template (any of the four families).
fn draw_skel(rng: &mut SplitMix64) -> Skeleton {
    match rng.below(6) {
        0 => Skeleton::Channel,
        1 => Skeleton::Pipeline(2 + rng.below(3) as u8),
        2 => Skeleton::MutexPair,
        3 => Skeleton::ForkJoin(2 + rng.below(2) as u8),
        4 => Skeleton::Pipeline(2),
        _ => Skeleton::Channel,
    }
}

/// Draws a synchronous product over one of the given certified ordered
/// skeleton pairs.
fn draw_sync(rng: &mut SplitMix64, pairs: &[(Skeleton, Skeleton)]) -> CorpusNode {
    let (a, b) = pairs[rng.below(pairs.len())];
    CorpusNode::Sync(vec![
        CorpusNode::Unit(Unit::Skel(a)),
        CorpusNode::Unit(Unit::Skel(b)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            assert_eq!(gen_corpus(seed), gen_corpus(seed));
            let (a, _) = gen_corpus(seed).build();
            let (b, _) = gen_corpus(seed).build();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn certificates_hold_over_a_seed_sweep() {
        for seed in 0..40 {
            let recipe = gen_corpus(seed);
            let (stg, cert) = recipe.build();
            let states = check_certificate(&stg, &cert)
                .unwrap_or_else(|e| panic!("seed {seed} ({}): {e}", cert.derivation));
            assert!(states >= 2, "seed {seed}");
            assert!(cert.class_bound <= NetClass::FreeChoice, "seed {seed}");
        }
    }

    #[test]
    fn articulation_concatenates_and_stays_certified() {
        let recipe = CorpusRecipe {
            seed: 7,
            node: CorpusNode::Articulate(vec![
                CorpusNode::Unit(Unit::Skel(Skeleton::Channel)),
                CorpusNode::Unit(Unit::Skel(Skeleton::MutexPair)),
            ]),
        };
        let (stg, cert) = recipe.build();
        assert_eq!(cert.derivation, "art(skel-chan,skel-mutex)");
        assert_eq!(cert.leaves, 2);
        // 1 + 4 leaf signals + 2 glue outputs.
        assert_eq!(stg.signal_count(), 8);
        check_certificate(&stg, &cert).unwrap();
    }

    #[test]
    fn sync_product_multiplies_states() {
        let single = CorpusRecipe {
            seed: 1,
            node: CorpusNode::Unit(Unit::Skel(Skeleton::ForkJoin(2))),
        };
        let product = CorpusRecipe {
            seed: 1,
            node: CorpusNode::Sync(vec![
                CorpusNode::Unit(Unit::Skel(Skeleton::ForkJoin(2))),
                CorpusNode::Unit(Unit::Skel(Skeleton::ForkJoin(2))),
            ]),
        };
        let (s, sc) = single.build();
        let (p, pc) = product.build();
        let single_states = check_certificate(&s, &sc).unwrap();
        let product_states = check_certificate(&p, &pc).unwrap();
        assert!(
            product_states > 2 * single_states,
            "{product_states} vs {single_states}: expected product blow-up"
        );
    }

    #[test]
    fn shrinking_reduces_leaf_or_phase_count() {
        let recipe = gen_corpus(13);
        let weight = |r: &CorpusRecipe| {
            fn phases(n: &CorpusNode) -> usize {
                match n {
                    CorpusNode::Unit(Unit::Gen(r)) => 1 + r.phases.len(),
                    CorpusNode::Unit(Unit::Skel(_)) => 1,
                    CorpusNode::Articulate(cs) | CorpusNode::Sync(cs) => {
                        cs.iter().map(phases).sum()
                    }
                }
            }
            phases(&r.node)
        };
        for s in recipe.shrink() {
            assert!(weight(&s) < weight(&recipe), "shrink did not reduce");
            assert_eq!(s.seed, recipe.seed);
            let (stg, cert) = s.build();
            check_certificate(&stg, &cert).unwrap();
        }
    }

    #[test]
    fn leaf_namespaces_do_not_collide() {
        // Two identical leaves compose fine: prefixes keep names apart.
        let recipe = CorpusRecipe {
            seed: 2,
            node: CorpusNode::Sync(vec![
                CorpusNode::Unit(Unit::Skel(Skeleton::Channel)),
                CorpusNode::Unit(Unit::Skel(Skeleton::Channel)),
            ]),
        };
        let (stg, cert) = recipe.build();
        check_certificate(&stg, &cert).unwrap();
        assert_eq!(stg.signal_count(), 5);
    }
}
