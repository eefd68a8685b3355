//! Log-scale fixed-bucket latency histograms (HDR-style).
//!
//! A [`Histogram`] is a fixed array of `AtomicU64` buckets covering the
//! full `u64` range with bounded relative error: values below
//! [`SUB_BUCKETS`] land in exact unit buckets, larger values are grouped
//! by magnitude (position of the most significant bit) and split into
//! [`SUB_BUCKETS`] sub-buckets per power of two, so any recorded value is
//! reconstructed to within `1 / SUB_BUCKETS` (≈3%) of its true magnitude.
//! Recording is lock-free — one `fetch_add` on the bucket plus three
//! bookkeeping atomics — and never allocates, which is what lets the
//! serving path keep request-latency distributions always on.
//!
//! [`HistogramSnapshot`] is the frozen, mergeable form: snapshots from
//! different histograms (or scrape intervals) add bucket-wise, and
//! [`HistogramSnapshot::percentile`] walks the cumulative counts to a
//! bucket midpoint. A [`HistogramRegistry`] names histograms on demand so
//! call sites can record by string key without plumbing handles, at the
//! cost of one registry lock per observation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Sub-buckets per power of two; also the count of exact unit buckets at
/// the bottom of the range. Must be a power of two.
pub const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Total bucket count: `SUB_BUCKETS` exact unit buckets plus one group of
/// `SUB_BUCKETS` for each magnitude (MSB position) from `SUB_BITS` to 63
/// inclusive.
pub const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// Maps a value to its bucket index. Total over all of `u64`.
pub fn bucket_index(value: u64) -> usize {
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
pub fn bucket_floor(index: usize) -> u64 {
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

/// A concurrent log-scale histogram. See the module docs for the bucket
/// scheme. All methods are lock-free; `record` is safe to call from any
/// number of threads.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freezes the current contents. Concurrent `record` calls may or may
    /// not be included; the snapshot is internally consistent enough for
    /// reporting (counts are read bucket-by-bucket, not torn).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram: plain `u64` counts, mergeable and queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// Adds `other` bucket-wise. Merging snapshots from two histograms is
    /// equivalent to having recorded every observation into one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
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

    /// The standard quantile summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("max", Json::from(self.max)),
            ("p50", Json::from(self.percentile(0.50))),
            ("p90", Json::from(self.percentile(0.90))),
            ("p99", Json::from(self.percentile(0.99))),
        ])
    }
}

/// A shared name → [`Histogram`] map. [`HistogramRegistry::record`] takes
/// the registry mutex on every call to find (or create) the named
/// histogram, then records into its atomic buckets outside the lock. A
/// caller that keeps the `Arc` from [`HistogramRegistry::handle`] records
/// without the lock.
#[derive(Debug, Clone, Default)]
pub struct HistogramRegistry {
    inner: Arc<Mutex<BTreeMap<String, Arc<Histogram>>>>,
}

impl HistogramRegistry {
    /// An empty registry.
    pub fn new() -> HistogramRegistry {
        HistogramRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<Histogram>>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The histogram registered under `name`, created empty if absent.
    /// Hot paths should call this once and keep the `Arc`.
    pub fn handle(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.lock();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Records one observation into the named histogram.
    pub fn record(&self, name: &str, value: u64) {
        self.handle(name).record(value);
    }

    /// Snapshots every registered histogram, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.lock()
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
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
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), u64::MAX);
        assert_eq!(s.percentile(1.0), u64::MAX);
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        for (q, want) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let got = s.percentile(q);
            let slack = want / SUB_BUCKETS as u64 + 1;
            assert!(
                got.abs_diff(want) <= slack,
                "p{q}: got {got}, want {want}±{slack}"
            );
        }
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.percentile(1.0), 1000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        let mut x = 7u64;
        for i in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = x >> 40;
            if i % 2 == 0 { &a } else { &b }.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
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
        // `handle` returns the same histogram for the same name.
        let h = reg.handle("a");
        h.record(40);
        assert_eq!(reg.handle("a").count(), 3);
    }

    #[test]
    fn snapshot_json_has_the_quantile_summary() {
        let h = Histogram::new();
        for v in [5u64, 10, 15] {
            h.record(v);
        }
        let json = h.snapshot().to_json();
        assert_eq!(json.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(json.get("max").and_then(Json::as_f64), Some(15.0));
        assert!(json.get("p50").is_some() && json.get("p99").is_some());
    }
}
