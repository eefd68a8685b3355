//! Log-scale fixed-bucket latency histograms (HDR-style).
//!
//! A [`Histogram`] is a fixed array of `u64` buckets covering the full
//! `u64` range with bounded relative error: values below `SUB_BUCKETS`
//! (32) land in exact unit buckets, larger values are grouped by
//! magnitude (position of the most significant bit) and split into
//! `SUB_BUCKETS` sub-buckets per power of two, so any recorded value is
//! reconstructed to within `1 / SUB_BUCKETS` (≈3%) of its true magnitude.
//! Recording never allocates. [`Histogram::percentile`] walks the
//! cumulative counts to a bucket midpoint.
//!
//! A [`HistogramRegistry`] names histograms on demand so call sites can
//! record by string key without plumbing handles. Every observation takes
//! the registry mutex and records in place under it; a snapshot clones
//! every histogram under the same lock.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Sub-buckets per power of two; also the count of exact unit buckets at
/// the bottom of the range. Must be a power of two.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Total bucket count: `SUB_BUCKETS` exact unit buckets plus one group of
/// `SUB_BUCKETS` for each magnitude (MSB position) from `SUB_BITS` to 63
/// inclusive.
const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// Maps a value to its bucket index. Total over all of `u64`.
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS
    let group = (msb - SUB_BITS) as usize;
    // Keep the SUB_BITS bits below the MSB; the MSB itself contributes
    // the implicit `SUB_BUCKETS` offset subtracted here.
    let sub = ((value >> (msb - SUB_BITS)) as usize) - SUB_BUCKETS;
    SUB_BUCKETS + group * SUB_BUCKETS + sub
}

/// The smallest value that maps to bucket `index` (inverse of
/// [`bucket_index`] on bucket lower bounds).
fn bucket_floor(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let group = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
    ((SUB_BUCKETS + sub) as u64) << group
}

/// The representative value reported for bucket `index`: its midpoint
/// (exact for the unit buckets at the bottom).
fn bucket_mid(index: usize) -> u64 {
    let floor = bucket_floor(index);
    if index + 1 >= BUCKETS {
        return floor;
    }
    let width = bucket_floor(index + 1) - floor;
    floor + width / 2
}

/// A log-scale histogram: plain `u64` counts. See the module docs for
/// the bucket scheme; share one through a [`HistogramRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the observation of rank `ceil(q · count)` (the exact value
    /// for small observations, within ≈3% above). Returns 0 when empty;
    /// `q >= 1` reports the exact recorded max.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report beyond the recorded max (the top bucket's
                // midpoint may overshoot it).
                return bucket_mid(i).min(self.max);
            }
        }
        self.max
    }
}

/// A shared name → [`Histogram`] map. Clones share the map;
/// [`HistogramRegistry::record`] takes its mutex for every observation.
#[derive(Debug, Clone, Default)]
pub struct HistogramRegistry {
    inner: Arc<Mutex<BTreeMap<String, Histogram>>>,
}

impl HistogramRegistry {
    /// An empty registry.
    pub fn new() -> HistogramRegistry {
        HistogramRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Histogram>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers `name` with an empty histogram if it is absent, so a
    /// snapshot lists it before its first observation.
    pub fn register(&self, name: &str) {
        self.lock().entry(name.to_string()).or_default();
    }

    /// Records one observation into the named histogram, registering it
    /// on first use.
    pub fn record(&self, name: &str, value: u64) {
        let mut map = self.lock();
        match map.get_mut(name) {
            Some(h) => h.record(value),
            None => map.entry(name.to_string()).or_default().record(value),
        }
    }

    /// A copy of every registered histogram, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, Histogram)> {
        self.lock()
            .iter()
            .map(|(name, h)| (name.clone(), h.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn bucket_floor_inverts_bucket_index() {
        // Every bucket's floor maps back to that bucket, and floors are
        // strictly increasing.
        let mut prev = None;
        for i in 0..BUCKETS {
            let f = bucket_floor(i);
            assert_eq!(bucket_index(f), i, "floor of bucket {i}");
            if let Some(p) = prev {
                assert!(f > p, "floors not increasing at {i}");
            }
            prev = Some(f);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // A pseudo-random sweep over magnitudes: the reported midpoint is
        // within one sub-bucket width (1/SUB_BUCKETS) of the true value.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x >> (x % 60); // spread across magnitudes
            let mid = bucket_mid(bucket_index(v));
            let err = mid.abs_diff(v) as f64;
            let bound = (v as f64) / SUB_BUCKETS as f64 + 1.0;
            assert!(err <= bound, "v={v} mid={mid} err={err} bound={bound}");
        }
    }

    #[test]
    fn extremes_do_not_panic() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        for (q, want) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let got = h.percentile(q);
            let slack = want / SUB_BUCKETS as u64 + 1;
            assert!(
                got.abs_diff(want) <= slack,
                "p{q}: got {got}, want {want}±{slack}"
            );
        }
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn registry_names_and_snapshots() {
        let reg = HistogramRegistry::new();
        reg.record("b", 10);
        reg.record("a", 20);
        reg.record("a", 30);
        let snaps = reg.snapshot();
        let names: Vec<&str> = snaps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"], "sorted by name");
        assert_eq!(snaps[0].1.count(), 2);
        assert_eq!(snaps[1].1.count(), 1);
        // `register` lists an empty histogram and leaves a recorded one
        // as it is.
        reg.register("c");
        reg.register("a");
        let snaps = reg.snapshot();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].1.count(), 2);
        assert_eq!(snaps[2].1, Histogram::new());
    }
}
