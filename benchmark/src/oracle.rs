//! The benchmark's own correctness oracle. It never calls the program: a
//! sorted slice plus `partition_point` answers point reads (summing the
//! payloads of a duplicate-key group, as `QueryEngine::get` is specified
//! to), and a `BTreeMap` mirror replays `mixed-rw`. Expected answers are
//! computed before the clock starts; every operation is compared after it
//! stops.

use crate::gen::{mix, Op};
use std::collections::BTreeMap;

/// What an operation returns, in one comparable shape: the payload for a
/// `get`, the previous payload for an `insert`/`remove`, and
/// `Some(range_digest)` for a `range`.
pub type Answer = Option<u64>;

/// Order-dependent digest of a range result, length included.
pub fn range_digest(entries: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let (h, n) = entries.into_iter().fold((0u64, 0u64), |(h, n), (k, v)| (mix(h ^ k) ^ v, n + 1));
    mix(h ^ n)
}

/// Point-read oracle over a sorted key column and its payload column.
#[derive(Debug, Clone, Copy)]
pub struct SortedOracle<'a> {
    keys: &'a [u64],
    payloads: &'a [u64],
}

impl<'a> SortedOracle<'a> {
    pub fn new(keys: &'a [u64], payloads: &'a [u64]) -> Self {
        assert_eq!(keys.len(), payloads.len());
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        SortedOracle { keys, payloads }
    }

    /// Wrapping sum of the payloads of every record equal to `key`, or
    /// `None` when there is none.
    pub fn get(&self, key: u64) -> Answer {
        let start = self.keys.partition_point(|&k| k < key);
        let group = self.keys[start..].iter().take_while(|&&k| k == key).count();
        (group > 0).then(|| {
            self.payloads[start..start + group].iter().fold(0u64, |s, &p| s.wrapping_add(p))
        })
    }

    /// Expected answers of a read-only stream, computed on `threads`
    /// threads (set-up is the only place the benchmark uses both cores for
    /// its own work).
    pub fn expected(&self, ops: &[Op], threads: usize) -> Vec<Answer> {
        let chunk = ops.len().div_ceil(threads.max(1)).max(1);
        let mut out = vec![None; ops.len()];
        std::thread::scope(|s| {
            for (ops, out) in ops.chunks(chunk).zip(out.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (op, slot) in ops.iter().zip(out) {
                        let Op::Get(key) = *op else { panic!("read-only stream holds {op:?}") };
                        *slot = self.get(key);
                    }
                });
            }
        });
        out
    }
}

/// `BTreeMap` mirror of an updatable stack with unique keys.
#[derive(Debug, Clone, Default)]
pub struct Mirror(BTreeMap<u64, u64>);

impl Mirror {
    pub fn bulk(keys: &[u64], payloads: &[u64]) -> Self {
        Mirror(keys.iter().copied().zip(payloads.iter().copied()).collect())
    }

    pub fn apply(&mut self, op: Op) -> Answer {
        match op {
            Op::Get(k) => self.0.get(&k).copied(),
            Op::Insert(k, v) => self.0.insert(k, v),
            Op::Remove(k) => self.0.remove(&k),
            Op::Range(lo, hi) => Some(range_digest(self.0.range(lo..hi).map(|(&k, &v)| (k, v)))),
        }
    }

    /// Expected answers of a whole stream, in order.
    pub fn expected(&mut self, ops: &[Op]) -> Vec<Answer> {
        ops.iter().map(|&op| self.apply(op)).collect()
    }
}

/// Number of positions where `got` differs from `want`.
pub fn mismatches(got: &[Answer], want: &[Answer]) -> u64 {
    assert_eq!(got.len(), want.len());
    got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_oracle_sums_duplicate_groups() {
        let keys = [1u64, 3, 3, 3, 8, u64::MAX];
        let payloads = [5u64, 6, 7, u64::MAX, 9, 2];
        let o = SortedOracle::new(&keys, &payloads);
        assert_eq!(o.get(0), None);
        assert_eq!(o.get(1), Some(5));
        assert_eq!(o.get(3), Some(12)); // 6 + 7 + MAX wraps
        assert_eq!(o.get(4), None);
        assert_eq!(o.get(u64::MAX), Some(2));
        let ops: Vec<Op> = [3u64, 4, 8, 1, 0].into_iter().map(Op::Get).collect();
        let want = vec![Some(12), None, Some(9), Some(5), None];
        assert_eq!(o.expected(&ops, 1), want);
        assert_eq!(o.expected(&ops, 2), want);
        assert_eq!(o.expected(&ops, 8), want);
    }

    #[test]
    fn mirror_tracks_writes_and_ranges() {
        let mut m = Mirror::bulk(&[10, 20, 30], &[1, 2, 3]);
        assert_eq!(m.apply(Op::Insert(15, 99)), None);
        assert_eq!(m.apply(Op::Insert(20, 7)), Some(2));
        assert_eq!(m.apply(Op::Remove(30)), Some(3));
        assert_eq!(m.apply(Op::Remove(30)), None);
        assert_eq!(m.apply(Op::Get(15)), Some(99));
        assert_eq!(m.apply(Op::Range(10, 21)), Some(range_digest([(10, 1), (15, 99), (20, 7)])));
        assert_ne!(range_digest([(10, 1)]), range_digest([(10, 1), (0, 0)]));
        assert_ne!(range_digest([]), range_digest([(0, 0)]));
    }

    #[test]
    fn mismatches_counts_every_difference() {
        assert_eq!(mismatches(&[Some(1), None, Some(3)], &[Some(1), Some(2), None]), 2);
    }
}
