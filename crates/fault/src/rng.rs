//! A tiny deterministic PRNG for seeded decisions, and the one content
//! hash.
//!
//! SplitMix64, the one generator the workspace draws from: fault plans,
//! `modsyn-check`'s STG generator, the corpus recipes, the seeded tests and
//! the daemon's fresh trace ids. It is full-period, statistically solid,
//! and — crucially for chaos certification and differential testing — the
//! same seed produces the same sequence on every platform and every run, so
//! a failing plan or seed printed in CI reproduces locally with no further
//! state. [`fnv1a64`] is the one 64-bit FNV-1a.

/// A seeded SplitMix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds yield equal sequences.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..bound` (`bound` must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0)");
        // Multiply-shift mapping; bias is < 2^-53 for the tiny bounds here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// A bool that is true with probability `num/denom`.
    pub fn chance(&mut self, num: usize, denom: usize) -> bool {
        self.below(denom) < num
    }
}

/// 64-bit FNV-1a over a byte string: the workspace's one content hash. It
/// gives every fault site its own sub-stream of the plan seed, and keys STG
/// digests, module keys and journal checksums.
///
/// ```
/// use modsyn_fault::fnv1a64;
/// // Published FNV-1a test vectors.
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
/// assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
/// assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(7);
        for bound in 1..20 {
            for _ in 0..50 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn chance_is_deterministic_and_in_range() {
        let mut r = SplitMix64::new(7);
        let hits = (0..1000).filter(|_| r.chance(1, 4)).count();
        assert!(hits > 150 && hits < 350, "{hits}");
    }

    #[test]
    fn fnv_vectors() {
        // Reference vectors from the FNV specification draft.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_distinguishes_sites() {
        assert_ne!(fnv1a64(b"sat.abort"), fnv1a64(b"svc.synth-panic"));
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
