//! Lock-free metric cells and the named registry over them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Number of histogram buckets: bucket `0` for the value `0`, then one
/// bucket per power of two up to `u64::MAX` (bucket `b` covers
/// `[2^(b-1), 2^b - 1]`).
pub const HIST_BUCKETS: usize = 65;

/// The bucket index holding `value`.
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `bucket` (the value a quantile
/// readout reports when the rank lands in that bucket).
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b if b >= 64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// A monotonically increasing counter. Handles are cheap clones of one
/// shared cell; incrementing is a single relaxed atomic add.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A standalone (unregistered) counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (queue depth, live connections).
/// Handles are cheap clones of one shared cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A standalone (unregistered) gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero (a late decrement never wraps
    /// the gauge to `u64::MAX`).
    pub fn sub(&self, n: u64) {
        let mut current = self.cell.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self.cell.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log-bucketed (power-of-two) latency/size histogram. Recording is
/// three relaxed atomic adds — no locks, no allocation — and handles
/// are cheap clones of one shared cell block.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    /// A standalone (unregistered) histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
        self.cells.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (saturating at `u64::MAX`).
    pub fn record_duration_us(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_micros()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the cells. Under concurrent recording
    /// the copy can be mid-update (count a hair ahead of the bucket
    /// totals); quantile readout therefore trusts the bucket totals,
    /// never the count field.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.cells.count.load(Ordering::Relaxed),
            sum: self.cells.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|b| self.cells.buckets[b].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time histogram copy: plain data, mergeable element-wise.
/// Merging is associative and commutative (it is `u64` addition per
/// cell), so cluster-level aggregation is order-independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// The all-zero snapshot (the merge identity).
    pub fn empty() -> Self {
        HistogramSnapshot::default()
    }

    /// Adds `other`'s cells into `self`. The `sum` cell wraps on
    /// overflow — matching the atomic `fetch_add` on the live cells —
    /// so merging snapshots is *exactly* recording the concatenated
    /// observation streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Total observations according to the bucket cells (the
    /// authoritative total for quantile readout).
    pub fn bucket_total(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, b| acc.saturating_add(*b))
    }

    /// The value at quantile `q` (clamped to `[0, 1]`): the upper
    /// bound of the bucket holding the observation of rank
    /// `ceil(q * total)`. Returns 0 for an empty histogram. The answer
    /// never under-reports: it is `>=` the true quantile and `< 2x`
    /// above it (one bucket's width).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.bucket_total();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without going through floats for the rank itself.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (bucket, cell) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(*cell);
            if cumulative >= rank {
                return bucket_upper_bound(bucket);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named registry of metric cells. Registration (get-or-create by
/// name) and snapshotting take the registry mutex; the returned
/// handles touch only their own atomic cells, so the instrumented hot
/// paths resolve their handles once at construction and never lock.
///
/// Naming scheme (documented in the README): `eilid_<layer>_<what>`
/// with `_total` for counters, `_us` for microsecond histograms,
/// plain nouns for gauges — lowercase `[a-z0-9_]` only, so both
/// renderers can emit names verbatim.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The registry's maps, whether or not another thread panicked
    /// while holding the lock: they hold only whole entries (a name
    /// and a handle to its atomic cell), so a poisoned lock must not
    /// turn every later registration and scrape into a panic too.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter named `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.lock();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.lock();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, creating it empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.lock();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole registry: plain data, renderable
/// ([`RegistrySnapshot::to_prometheus`] / [`RegistrySnapshot::to_json`])
/// and mergeable. Merge semantics: counters and gauges sum by name
/// (a cluster-level gauge is the fleet total), histograms merge
/// element-wise; names present on either side survive. Like the
/// histogram merge this is associative and commutative, so
/// cluster-level aggregation is well-defined regardless of gateway
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// The empty snapshot (the merge identity).
    pub fn empty() -> Self {
        RegistrySnapshot::default()
    }

    /// Adds `other` into `self` (see the type docs for semantics).
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, value) in &other.counters {
            let cell = self.counters.entry(name.clone()).or_insert(0);
            *cell = cell.saturating_add(*value);
        }
        for (name, value) in &other.gauges {
            let cell = self.gauges.entry(name.clone()).or_insert(0);
            *cell = cell.saturating_add(*value);
        }
        for (name, hist) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(hist);
        }
    }

    /// Injects (or overwrites) a counter value — how external atomics
    /// that predate the registry (e.g. the gateway's reactor counters)
    /// join a snapshot at scrape time.
    pub fn put_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Injects (or overwrites) a gauge value.
    pub fn put_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Sum of every counter (used by the cluster merge test: merged
    /// counter totals must equal the per-gateway sums).
    pub fn counter_total(&self) -> u64 {
        self.counters
            .values()
            .fold(0u64, |acc, v| acc.saturating_add(*v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for value in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let b = bucket_of(value);
            assert!(value <= bucket_upper_bound(b));
            if b > 0 {
                assert!(value > bucket_upper_bound(b - 1));
            }
        }
    }

    #[test]
    fn quantiles_read_bucket_upper_bounds() {
        let h = Histogram::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.p50(), 1);
        assert_eq!(snap.p90(), 1);
        // rank ceil(0.99 * 10) = 10 → the 1000 observation's bucket.
        assert_eq!(snap.p99(), bucket_upper_bound(bucket_of(1000)));
    }

    #[test]
    fn registry_hands_out_shared_cells() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("eilid_test_total");
        let b = registry.counter("eilid_test_total");
        a.inc();
        b.add(2);
        assert_eq!(registry.snapshot().counters["eilid_test_total"], 3);
    }

    #[test]
    fn gauge_sub_saturates() {
        let g = Gauge::new();
        g.set(1);
        g.sub(5);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn merge_is_identity_on_empty() {
        let registry = MetricsRegistry::new();
        registry.counter("c").add(7);
        registry.histogram("h").record(3);
        let snap = registry.snapshot();
        let mut merged = RegistrySnapshot::empty();
        merged.merge(&snap);
        assert_eq!(merged, snap);
    }

    #[test]
    fn a_poisoned_registry_still_counts_and_snapshots() {
        let registry = MetricsRegistry::new();
        registry.counter("c").add(1);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = registry.inner.lock().unwrap();
                    panic!("a metrics user panics under the registry lock");
                })
                .join()
                .is_err()
        });
        assert!(panicked && registry.inner.is_poisoned());
        registry.counter("c").add(2);
        assert_eq!(registry.snapshot().counters.get("c"), Some(&3));
    }
}
