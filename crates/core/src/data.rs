//! The sorted in-memory dataset every index is built over.

use crate::error::DataError;
use crate::key::Key;
use crate::util::splitmix64;

/// A sorted (non-decreasing) array of keys with one 8-byte payload per key.
///
/// This is the "dense sorted array" of the paper: data is stored separately
/// from any index, indexes map keys to positions in this array, and lookups
/// are validated by summing payloads (Section 4.1.2).
#[derive(Debug, Clone)]
pub struct SortedData<K: Key> {
    keys: Vec<K>,
    payloads: Vec<u64>,
    /// No key occurs twice (recorded by the sortedness check).
    duplicate_free: bool,
}

impl<K: Key> SortedData<K> {
    /// Build from keys, generating deterministic pseudo-random payloads.
    ///
    /// Duplicate keys are allowed (the `wiki` dataset has them); unsorted or
    /// empty input is rejected.
    pub fn new(keys: Vec<K>) -> Result<Self, DataError> {
        let payloads = (0..keys.len() as u64).map(splitmix64).collect();
        Self::with_payloads(keys, payloads)
    }

    /// Build from explicit key/payload pairs.
    pub fn with_payloads(keys: Vec<K>, payloads: Vec<u64>) -> Result<Self, DataError> {
        if keys.is_empty() {
            return Err(DataError::Empty);
        }
        if keys.len() != payloads.len() {
            return Err(DataError::LengthMismatch { keys: keys.len(), payloads: payloads.len() });
        }
        let mut duplicate_free = true;
        for i in 1..keys.len() {
            if keys[i] < keys[i - 1] {
                return Err(DataError::Unsorted(i));
            }
            duplicate_free &= keys[i] != keys[i - 1];
        }
        Ok(SortedData { keys, payloads, duplicate_free })
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Always false: construction rejects empty data.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted key array.
    #[inline]
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The payload array (parallel to `keys`).
    #[inline]
    pub fn payloads(&self) -> &[u64] {
        &self.payloads
    }

    /// Key at position `i`.
    #[inline]
    pub fn key(&self, i: usize) -> K {
        self.keys[i]
    }

    /// Payload at position `i`.
    #[inline]
    pub fn payload(&self, i: usize) -> u64 {
        self.payloads[i]
    }

    /// True when no key occurs twice, so every key's `get` answer is its
    /// one payload and it counts one entry in an engine's `len()`.
    #[inline]
    pub(crate) fn is_duplicate_free(&self) -> bool {
        self.duplicate_free
    }

    /// Smallest key.
    #[inline]
    pub fn min_key(&self) -> K {
        self.keys[0]
    }

    /// Largest key.
    #[inline]
    pub fn max_key(&self) -> K {
        *self.keys.last().expect("non-empty by construction")
    }

    /// The ground-truth lower bound `LB(x)`: position of the first key `>= x`,
    /// or `len()` when every key is smaller than `x`.
    #[inline]
    pub fn lower_bound(&self, x: K) -> usize {
        self.keys.partition_point(|&k| k < x)
    }

    /// Sum of payloads of all keys equal to `x` starting at its lower bound —
    /// the per-lookup work the paper's harness performs to validate results.
    /// Returns 0 when `x` is absent.
    #[inline]
    pub fn payload_sum_at(&self, x: K) -> u64 {
        self.payload_sum_from(x, self.lower_bound(x)).unwrap_or(0)
    }

    /// Sum of payloads of all keys equal to `x` starting at `pos` (which
    /// must be `x`'s lower bound), or `None` when `x` is not stored there —
    /// the single definition of the duplicate-sum `get` contract every
    /// engine and harness shares.
    #[inline]
    pub fn payload_sum_from(&self, x: K, pos: usize) -> Option<u64> {
        if pos >= self.keys.len() || self.keys[pos] != x {
            return None;
        }
        let mut sum = 0u64;
        let mut i = pos;
        while i < self.keys.len() && self.keys[i] == x {
            sum = sum.wrapping_add(self.payloads[i]);
            i += 1;
        }
        Some(sum)
    }

    /// Evenly spaced `(key, relative position)` samples of the empirical CDF,
    /// as plotted in Figure 6 of the paper.
    pub fn cdf_samples(&self, count: usize) -> Vec<(K, f64)> {
        let count = count.max(2).min(self.len());
        let n = self.len();
        (0..count)
            .map(|i| {
                let pos = if count == 1 { 0 } else { i * (n - 1) / (count - 1) };
                (self.keys[pos], pos as f64 / (n.max(2) - 1) as f64)
            })
            .collect()
    }

    /// Total heap footprint of keys + payloads in bytes (the "data" the
    /// indexes sit beside; not counted in any index's size).
    pub fn data_size_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<K>() + self.payloads.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> SortedData<u64> {
        SortedData::new(vec![1, 3, 9, 12, 56, 57, 58, 95, 98, 99]).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(SortedData::<u64>::new(vec![]).unwrap_err(), DataError::Empty);
    }

    #[test]
    fn rejects_unsorted() {
        assert_eq!(SortedData::new(vec![3u64, 1, 2]).unwrap_err(), DataError::Unsorted(1));
    }

    #[test]
    fn rejects_length_mismatch() {
        assert!(matches!(
            SortedData::with_payloads(vec![1u64, 2], vec![0]),
            Err(DataError::LengthMismatch { keys: 2, payloads: 1 })
        ));
    }

    #[test]
    fn allows_duplicates() {
        let d = SortedData::new(vec![1u64, 1, 1, 2]).unwrap();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn records_whether_keys_repeat() {
        assert!(data().is_duplicate_free());
        assert!(SortedData::new(vec![7u64]).unwrap().is_duplicate_free());
        assert!(!SortedData::new(vec![1u64, 2, 2, 3]).unwrap().is_duplicate_free());
        assert!(!SortedData::new(vec![1u64, 2, 3, 3]).unwrap().is_duplicate_free());
    }

    #[test]
    fn lower_bound_matches_paper_example() {
        // Figure 1 of the paper: lookup key 72 over this exact array has
        // lower bound 95, at position 7.
        let d = data();
        assert_eq!(d.lower_bound(72), 7);
        assert_eq!(d.key(d.lower_bound(72)), 95);
    }

    #[test]
    fn lower_bound_edges() {
        let d = data();
        assert_eq!(d.lower_bound(0), 0);
        assert_eq!(d.lower_bound(1), 0);
        assert_eq!(d.lower_bound(99), 9);
        assert_eq!(d.lower_bound(100), 10); // past the end => n
        assert_eq!(d.lower_bound(u64::MAX), 10);
    }

    #[test]
    fn lower_bound_on_duplicates_returns_first() {
        let d = SortedData::new(vec![5u64, 7, 7, 7, 9]).unwrap();
        assert_eq!(d.lower_bound(7), 1);
    }

    #[test]
    fn payload_sum_covers_duplicates() {
        let d = SortedData::with_payloads(vec![5u64, 7, 7, 9], vec![1, 10, 100, 1000]).unwrap();
        assert_eq!(d.payload_sum_at(7), 110);
        assert_eq!(d.payload_sum_at(6), 0);
        assert_eq!(d.payload_sum_at(9), 1000);
    }

    #[test]
    fn cdf_samples_span_unit_interval() {
        let d = data();
        let s = d.cdf_samples(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], (1, 0.0));
        assert_eq!(s[4].1, 1.0);
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn payloads_are_deterministic() {
        let a = SortedData::new(vec![1u64, 2, 3]).unwrap();
        let b = SortedData::new(vec![1u64, 2, 3]).unwrap();
        assert_eq!(a.payloads(), b.payloads());
    }
}
