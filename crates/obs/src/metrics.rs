//! Atomic counters and log2-bucketed latency histograms: lock-free on the
//! hot path (incrementing a counter or recording a sample touches only
//! relaxed atomics). They are plain fields of the struct that owns them
//! (`WalStats`, `IoStats`, the transaction counters of a durable engine),
//! so every engine keeps its own.

use crate::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and bench warm-up only).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds zeros, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The bucket index a value lands in.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of a bucket (`2^i - 1`; bucket 0 is exactly 0).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
        if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1) —
    /// an upper estimate with log2 resolution.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_upper_bound(i);
            }
        }
        Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// JSON form: count, sum, mean, and the non-empty buckets as
    /// `{"le": upper_bound, "n": count}` entries.
    pub fn to_json(&self) -> json::Value {
        let mut buckets = json::Value::array();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                buckets.push(
                    json::Value::object().with("le", Histogram::bucket_upper_bound(i)).with("n", c),
                );
            }
        }
        json::Value::object()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("mean", self.mean())
            .with("buckets", buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exactly zero; bucket i covers [2^(i-1), 2^i).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(11), 2047);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // Every power of two starts a fresh bucket.
        for i in 1..64u32 {
            let v = 1u64 << i;
            assert_eq!(Histogram::bucket_index(v), Histogram::bucket_index(v - 1) + 1);
        }
    }

    #[test]
    fn histogram_record_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1105);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[2], 1);
        assert!((s.mean() - 1105.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.quantile_upper_bound(0.0), 0);
        assert_eq!(s.quantile_upper_bound(1.0), 1023);
    }

    #[test]
    fn concurrent_increments_from_many_threads() {
        let c = Counter::default();
        let h = Histogram::default();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(i % 17);
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
        let snap = h.snapshot();
        assert_eq!(snap.count, threads * per_thread);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }
}
