//! Fixed-bucket log-linear latency histogram.
//!
//! The serving layer ([`crate::serve`]) records one latency sample per
//! request from several worker threads at once; a recorder on that path
//! must be cheap and contention-free. [`LatencyHistogram`] is an
//! HdrHistogram-style **log-linear** histogram over a fixed bucket array of
//! atomics: recording a sample is one index computation plus two relaxed
//! `fetch_add`s — the sample's bucket and the running sum — and a
//! `fetch_max` only when the sample exceeds the maximum so far; no locks,
//! no allocation, no resizing. The sample count is not stored: `count()`
//! and percentile extraction (`p50`/`p99`/`p999`) sum and scan the buckets,
//! done only when a report is built.
//!
//! # Bucket layout
//!
//! Values below `2^SUB_BITS` get one bucket each (exact). Above that, every
//! power-of-two octave `[2^e, 2^(e+1))` is split into `2^SUB_BITS` equal
//! linear sub-buckets, so the relative width of any bucket is at most
//! `2^-SUB_BITS` (≈3% with `SUB_BITS = 5`). The full `u64` range maps into
//! `(64 - SUB_BITS + 1) * 2^SUB_BITS = 1920` buckets — 15 KiB of counters,
//! small enough to sit per-scheduler without per-thread sharding.
//!
//! Percentiles are reported as the **inclusive upper edge** of the bucket
//! holding the target rank, so a reported quantile never understates the
//! true one by more than the bucket width.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave, as a power of two. 5 ⇒ 32 sub-buckets
/// ⇒ ≤3.1% relative bucket width.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (`2^SUB_BITS`).
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Octave groups above the exact range: exponents `SUB_BITS..=63`.
const GROUPS: usize = (64 - SUB_BITS) as usize;
/// Total bucket count: the exact group plus `GROUPS` log-linear groups.
const NUM_BUCKETS: usize = (SUB_BUCKETS as usize) * (GROUPS + 1);

/// Bucket index for a value. Exact below `SUB_BUCKETS`; log-linear above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS here
    let group = (exp - SUB_BITS + 1) as usize;
    // Top SUB_BITS+1 bits of the value; subtracting SUB_BUCKETS leaves the
    // linear position within the octave in 0..SUB_BUCKETS.
    let sub = ((v >> (exp - SUB_BITS)) - SUB_BUCKETS) as usize;
    group * SUB_BUCKETS as usize + sub
}

/// Largest value mapping to bucket `i` (the inclusive upper edge).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    let group = i / SUB_BUCKETS as usize;
    let sub = (i % SUB_BUCKETS as usize) as u64;
    if group == 0 {
        return sub;
    }
    let shift = (group - 1) as u32;
    // Lower edge plus (width - 1); summed in this order so the top bucket
    // lands exactly on u64::MAX without overflowing.
    ((SUB_BUCKETS + sub) << shift) + ((1u64 << shift) - 1)
}

/// A lock-free log-linear histogram of `u64` samples (typically
/// nanoseconds). Recording is two relaxed `fetch_add`s (bucket, sum) and
/// a rare `fetch_max`; reads are approximate snapshots (exact once
/// recording has quiesced).
///
/// ```
/// use sosd_core::hist::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(0.50);
/// assert!((490..=520).contains(&p50), "p50 = {p50}");
/// assert!(h.percentile(0.999) >= h.percentile(0.99));
/// ```
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the boxed array through a Vec to
        // keep the 15 KiB off the stack.
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets = v.into_boxed_slice().try_into().expect("bucket count is fixed");
        LatencyHistogram { buckets, sum: AtomicU64::new(0), max: AtomicU64::new(0) }
    }

    /// Record one sample. Lock-free: a relaxed `fetch_add` on the bucket
    /// and one on the sum; the exact maximum costs a `fetch_max` only when
    /// the sample raises it (a plain load otherwise).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Samples recorded: the sum of the buckets, computed on read.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Mean of all samples (0 when empty). The sum wraps at `u64::MAX`,
    /// unreachable for realistic latency totals.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), as the inclusive
    /// upper edge of the bucket holding that rank — so the estimate can
    /// overstate by at most ~3%, never understate by more than the bucket
    /// width. Returns 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        // One pass over the buckets serves both the total and the scan, so
        // the rank is always reachable even while samples are being recorded.
        let snapshot: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        let holding = snapshot.iter().position(|&n| {
            seen += n;
            seen >= target
        });
        bucket_upper(holding.expect("the buckets sum to total >= target"))
    }

    /// Largest sample recorded — exact (not bucket-quantized), which is
    /// what makes one-off tails like cold-start page faults visible when
    /// every percentile still looks healthy. Returns 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Median (`percentile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Reset every bucket to zero.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut probes: Vec<u64> = (0..256).collect();
        for shift in 0..64u32 {
            for off in [0u64, 1, 3] {
                probes.push((1u64 << shift).saturating_add(off << shift.saturating_sub(3)));
            }
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut last = 0usize;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} for {v}");
            assert!(i >= last, "monotone at {v}");
            last = i;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_its_members() {
        for v in (0..10_000u64).chain([1 << 20, u64::MAX / 3, u64::MAX]) {
            let i = bucket_index(v);
            assert!(bucket_upper(i) >= v, "upper({i}) >= {v}");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "previous bucket ends below {v}");
            }
        }
    }

    #[test]
    fn exact_range_is_exact() {
        let h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), SUB_BUCKETS - 1);
        assert_eq!(h.p50(), SUB_BUCKETS / 2 - 1);
    }

    #[test]
    fn percentiles_are_within_bucket_error() {
        let h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 50_000f64), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.percentile(q) as f64;
            assert!(got >= exact * 0.999, "q={q}: {got} vs {exact}");
            assert!(got <= exact * 1.04, "q={q}: {got} vs {exact} (≤3.2% bucket width)");
        }
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn empty_and_reset() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(7);
        h.record(1 << 40);
        assert_eq!(h.count(), 2);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn max_is_exact_not_bucketed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.max(), 0);
        for v in [5u64, 1_000_003, 12] {
            h.record(v);
        }
        // A one-off spike must be reported exactly, even though its bucket
        // upper edge is ~3% above it.
        assert_eq!(h.max(), 1_000_003);
        assert!(h.percentile(1.0) >= 1_000_003);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }
}
