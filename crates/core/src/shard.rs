//! Key-range sharded serving: many small engines behind one
//! [`QueryEngine`].
//!
//! A shared-everything loop (every thread probing one big index) is how the
//! paper's Figure 16 measures multithreaded throughput, but it is not how a
//! serving system scales: production deployments partition the key space
//! and give each partition its own index, trading a cheap router probe for
//! smaller per-partition structures (shallower trees, better cache
//! residency) and embarrassingly parallel batch execution. SOSD's
//! multithreaded follow-ups and the LSM learned-index studies both observe
//! that single-index numbers stop predicting system behavior exactly at
//! this boundary.
//!
//! [`ShardedEngine`] is that partitioned layer: a [`SortedData`] is cut
//! into `S` contiguous key ranges (duplicate runs never straddle a cut, so
//! the payload-sum contract of [`QueryEngine::get`] holds per shard), one
//! inner engine is built per range by an arbitrary factory, and queries are
//! routed through a fence-key array — a binary search over `S - 1` keys.
//! Point queries touch one shard, ordered queries stitch across the
//! boundary shards, and batches are regrouped per shard so each inner
//! engine's interleaved-prefetch path still sees a contiguous run of keys.
//! Its [`QueryEngine::par_get_batch`] additionally fans the grouped batch
//! across per-call scoped threads — balanced by key count, capped at host
//! parallelism, with a work floor so small batches never pay spawn cost.
//! It is the trait method, so compositors above (cache, write-behind,
//! snapshots) and harnesses reach the fan-out through any
//! `&dyn QueryEngine` without knowing the concrete shape.

use crate::data::SortedData;
use crate::engine::QueryEngine;
use crate::error::{BuildError, DataError};
use crate::key::Key;

/// Minimum lookups per worker before a [`ShardedEngine`]'s
/// [`QueryEngine::par_get_batch`] spawns threads: below this, thread
/// dispatch (tens of microseconds per spawn) outweighs the per-shard lookup
/// work and the grouped batch runs serially instead.
pub const PAR_MIN_KEYS_PER_WORKER: usize = 4096;

/// Positions at which to cut `keys` into (at most) `shards` contiguous,
/// non-empty segments of roughly equal size, never splitting a run of equal
/// keys.
///
/// Returns the interior cut positions, strictly increasing and strictly
/// inside `(0, keys.len())`; segment `i` spans `[cuts[i-1], cuts[i])` with
/// the implicit outer boundaries `0` and `keys.len()`. Heavy duplicate runs
/// can swallow cut points, so the result may hold fewer than `shards - 1`
/// cuts.
///
/// ```
/// use sosd_core::partition_points;
///
/// let keys: Vec<u64> = (0..100).collect();
/// assert_eq!(partition_points(&keys, 4), vec![25, 50, 75]);
/// // A duplicate run across a natural cut slides the cut past the run.
/// let dups = vec![0u64, 1, 5, 5, 5, 5, 5, 9];
/// assert_eq!(partition_points(&dups, 2), vec![7]);
/// ```
pub fn partition_points<K: Key>(keys: &[K], shards: usize) -> Vec<usize> {
    let n = keys.len();
    let shards = shards.max(1).min(n.max(1));
    let mut cuts = Vec::with_capacity(shards.saturating_sub(1));
    for i in 1..shards {
        let mut p = i * n / shards;
        // Slide forward past a duplicate run so equal keys stay together in
        // the left segment (fences are then strictly increasing distinct
        // keys and `get`'s duplicate sum never crosses a shard).
        while p < n && p > 0 && keys[p] == keys[p - 1] {
            p += 1;
        }
        if p < n && cuts.last().is_none_or(|&last| p > last) && p > 0 {
            cuts.push(p);
        }
    }
    cuts
}

/// A key-range sharded [`QueryEngine`]: `S` inner engines over contiguous
/// partitions of one [`SortedData`], routed by a fence-key array.
///
/// Shard `i` serves keys in `[fences[i-1], fences[i])` (with implicit
/// outer bounds `MIN_KEY` and infinity); `fences[i]` is the smallest key of
/// shard `i + 1`. Construction keeps duplicate runs within one shard, so
/// every [`QueryEngine`] contract — including the duplicate payload sum of
/// `get` — holds shard-locally.
///
/// ```
/// use sosd_core::testutil::MirrorIndex;
/// use sosd_core::{QueryEngine, ShardedEngine, SortedData, StaticEngine};
/// use std::sync::Arc;
///
/// let data = SortedData::new((0..1_000u64).collect()).unwrap();
/// let engine = ShardedEngine::build_with(&data, 4, |part| {
///     let idx = MirrorIndex::over(&part);
///     Ok(Box::new(StaticEngine::new(idx, Arc::new(part))))
/// })
/// .unwrap();
/// assert_eq!(engine.num_shards(), 4);
/// assert_eq!(engine.fences(), &[250, 500, 750]);
/// assert_eq!(engine.get(251), Some(data.payload_sum_at(251))); // routed
/// assert_eq!(engine.range(249, 252).len(), 3); // stitched across the cut
/// ```
pub struct ShardedEngine<K: Key> {
    shards: Vec<Box<dyn QueryEngine<K>>>,
    /// Smallest key of each shard but the first; `len() == shards.len() - 1`.
    fences: Vec<K>,
}

impl<K: Key> ShardedEngine<K> {
    /// Partition `data` into (at most) `shards` key ranges and build one
    /// inner engine per range with `make_engine`.
    ///
    /// The factory receives each shard's own [`SortedData`] partition; heavy
    /// duplicate runs or tiny datasets can reduce the effective shard count
    /// (see [`partition_points`]) — inspect [`ShardedEngine::num_shards`].
    pub fn build_with<F>(
        data: &SortedData<K>,
        shards: usize,
        mut make_engine: F,
    ) -> Result<Self, BuildError>
    where
        F: FnMut(SortedData<K>) -> Result<Box<dyn QueryEngine<K>>, BuildError>,
    {
        if shards == 0 {
            return Err(BuildError::InvalidConfig("shard count must be >= 1".into()));
        }
        let keys = data.keys();
        let payloads = data.payloads();
        let cuts = partition_points(keys, shards);
        let mut engines = Vec::with_capacity(cuts.len() + 1);
        let mut fences = Vec::with_capacity(cuts.len());
        let mut start = 0usize;
        for end in cuts.iter().copied().chain(std::iter::once(keys.len())) {
            let part =
                SortedData::with_payloads(keys[start..end].to_vec(), payloads[start..end].to_vec())
                    .map_err(BuildError::Data)?;
            engines.push(make_engine(part)?);
            if end < keys.len() {
                fences.push(keys[end]);
            }
            start = end;
        }
        Ok(ShardedEngine { shards: engines, fences })
    }

    /// Wrap pre-built engines with their fence keys (`fences[i]` must be
    /// the smallest key served by `engines[i + 1]`, strictly increasing).
    pub fn from_engines(
        engines: Vec<Box<dyn QueryEngine<K>>>,
        fences: Vec<K>,
    ) -> Result<Self, BuildError> {
        if engines.is_empty() {
            return Err(BuildError::Data(DataError::Empty));
        }
        if fences.len() + 1 != engines.len() {
            return Err(BuildError::InvalidConfig(format!(
                "{} engines need {} fences, got {}",
                engines.len(),
                engines.len() - 1,
                fences.len()
            )));
        }
        if fences.windows(2).any(|w| w[0] >= w[1]) {
            return Err(BuildError::InvalidConfig("fence keys must strictly increase".into()));
        }
        Ok(ShardedEngine { shards: engines, fences })
    }

    /// Number of shards actually built.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The fence keys: the smallest key of every shard but the first.
    pub fn fences(&self) -> &[K] {
        &self.fences
    }

    /// The shard whose key range contains `key`.
    #[inline]
    pub fn shard_of(&self, key: K) -> usize {
        self.fences.partition_point(|f| *f <= key)
    }

    /// Group `keys` by destination shard: returns per-shard group offsets
    /// (`offsets[j]..offsets[j + 1]` is shard `j`'s group, `S + 1` entries)
    /// plus the keys and their original batch positions permuted into that
    /// grouped order (a counting sort — stable within each shard, so inner
    /// batch paths see keys in submission order).
    fn group_by_shard(&self, keys: &[K]) -> (Vec<usize>, Vec<K>, Vec<usize>) {
        let s = self.shards.len();
        let mut shard_ids = Vec::with_capacity(keys.len());
        let mut offsets = vec![0usize; s + 1];
        for &k in keys {
            let j = self.shard_of(k);
            shard_ids.push(j);
            offsets[j + 1] += 1;
        }
        for j in 0..s {
            offsets[j + 1] += offsets[j];
        }
        let mut grouped_keys = vec![K::default(); keys.len()];
        let mut positions = vec![0usize; keys.len()];
        let mut cursor = offsets.clone();
        for (pos, (&k, &j)) in keys.iter().zip(&shard_ids).enumerate() {
            let slot = cursor[j];
            cursor[j] += 1;
            grouped_keys[slot] = k;
            positions[slot] = pos;
        }
        (offsets, grouped_keys, positions)
    }

    /// Execute every non-empty shard group serially through the inner
    /// batch paths, scattering results into `out[base..]` at their original
    /// positions. The single execution engine behind both
    /// [`QueryEngine::get_batch`] and the small-batch fallback of
    /// [`QueryEngine::par_get_batch`].
    fn exec_groups_serial(
        &self,
        offsets: &[usize],
        grouped_keys: &[K],
        positions: &[usize],
        base: usize,
        out: &mut [Option<u64>],
    ) {
        let mut tmp = Vec::new();
        for (j, shard) in self.shards.iter().enumerate() {
            let (lo, hi) = (offsets[j], offsets[j + 1]);
            if lo == hi {
                continue;
            }
            tmp.clear();
            shard.get_batch(&grouped_keys[lo..hi], &mut tmp);
            for (r, &pos) in tmp.iter().zip(&positions[lo..hi]) {
                out[base + pos] = *r;
            }
        }
    }
}

impl<K: Key> QueryEngine<K> for ShardedEngine<K> {
    fn name(&self) -> String {
        format!("sharded{}x[{}]", self.shards.len(), self.shards[0].name())
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn size_bytes(&self) -> usize {
        let router = self.fences.len() * std::mem::size_of::<K>();
        router + self.shards.iter().map(|s| s.size_bytes()).sum::<usize>()
    }

    fn get(&self, key: K) -> Option<u64> {
        self.shards[self.shard_of(key)].get(key)
    }

    fn lower_bound(&self, key: K) -> Option<(K, u64)> {
        // Only the routed shard can be exhausted below `key` (every later
        // shard's smallest key is a fence above it), so at most one
        // fall-through probe runs.
        let j = self.shard_of(key);
        self.shards[j..].iter().find_map(|s| s.lower_bound(key))
    }

    fn range(&self, lo: K, hi: K) -> Vec<(K, u64)> {
        if hi <= lo {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Shards outside [shard_of(lo), shard_of(hi)] cannot intersect the
        // window; the boundary shards clamp it themselves.
        for shard in &self.shards[self.shard_of(lo)..=self.shard_of(hi)] {
            out.extend(shard.range(lo, hi));
        }
        out
    }

    fn range_sum(&self, lo: K, hi: K) -> u64 {
        if hi <= lo {
            return 0;
        }
        self.shards[self.shard_of(lo)..=self.shard_of(hi)]
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.range_sum(lo, hi)))
    }

    /// Regroup the batch per shard (one counting sort), run each shard's
    /// group through its inner batch path — keys stay contiguous, so
    /// interleaved-prefetch overrides still fire — and scatter results back
    /// into submission order.
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        if keys.is_empty() {
            return;
        }
        if self.shards.len() == 1 {
            return self.shards[0].get_batch(keys, out);
        }
        let base = out.len();
        out.resize(base + keys.len(), None);
        let (offsets, grouped_keys, positions) = self.group_by_shard(keys);
        self.exec_groups_serial(&offsets, &grouped_keys, &positions, base, out);
    }

    /// Batched lookups with the shard groups executed **concurrently** on
    /// scoped threads, then scattered back into submission order.
    /// Observably identical to [`QueryEngine::get_batch`].
    ///
    /// Threads are spawned per call (scoped — nothing outlives the batch)
    /// and the *grouped key array* is split into equal contiguous spans,
    /// one per worker — workers are balanced by key count, not by shard
    /// count, so a single hot shard's group is shared between workers
    /// instead of serializing the batch. Spawning costs tens of
    /// microseconds, so the worker count is capped at both the host's
    /// available parallelism and one worker per
    /// [`PAR_MIN_KEYS_PER_WORKER`] lookups; batches too small for two
    /// workers (and single-core hosts) run the serial grouped path with no
    /// spawns at all.
    fn par_get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        if keys.is_empty() {
            return;
        }
        if self.shards.len() == 1 {
            return self.shards[0].get_batch(keys, out);
        }
        let (offsets, grouped_keys, positions) = self.group_by_shard(keys);
        let base = out.len();
        out.resize(base + keys.len(), None);
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        let pool = cores.min(keys.len() / PAR_MIN_KEYS_PER_WORKER);
        if pool <= 1 {
            return self.exec_groups_serial(&offsets, &grouped_keys, &positions, base, out);
        }
        // Worker w owns grouped_keys[bounds[w]..bounds[w + 1]] — spans may
        // cut through a shard group; each sub-span still goes to its own
        // shard's batch path.
        let total = keys.len();
        let bounds: Vec<usize> = (0..=pool).map(|w| w * total / pool).collect();
        let offsets_ref = &offsets;
        let grouped_ref = &grouped_keys;
        let span_results: Vec<Vec<(usize, Vec<Option<u64>>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .windows(2)
                .map(|w| {
                    let (a, b) = (w[0], w[1]);
                    scope.spawn(move || {
                        let mut parts = Vec::new();
                        // Last shard whose group starts at or before `a`.
                        let mut j = offsets_ref.partition_point(|&o| o <= a).saturating_sub(1);
                        while j < self.shards.len() && offsets_ref[j] < b {
                            let lo = offsets_ref[j].max(a);
                            let hi = offsets_ref[j + 1].min(b);
                            if lo < hi {
                                let mut res = Vec::with_capacity(hi - lo);
                                self.shards[j].get_batch(&grouped_ref[lo..hi], &mut res);
                                parts.push((lo, res));
                            }
                            j += 1;
                        }
                        parts
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard batch worker")).collect()
        });
        for parts in span_results {
            for (lo, res) in parts {
                for (i, r) in res.iter().enumerate() {
                    out[base + positions[lo + i]] = *r;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::SearchBound;
    use crate::engine::StaticEngine;
    use crate::index::{Capabilities, Index, IndexKind};
    use std::sync::Arc;

    /// Trivial always-valid index: full-array bounds.
    struct FullScan {
        n: usize,
    }

    impl Index<u64> for FullScan {
        fn name(&self) -> &'static str {
            "FullScan"
        }
        fn size_bytes(&self) -> usize {
            8
        }
        fn search_bound(&self, _key: u64) -> SearchBound {
            SearchBound::full(self.n)
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities { updates: false, ordered: true, kind: IndexKind::BinarySearch }
        }
    }

    fn full_scan_factory(part: SortedData<u64>) -> Result<Box<dyn QueryEngine<u64>>, BuildError> {
        let n = part.len();
        Ok(Box::new(StaticEngine::new(FullScan { n }, Arc::new(part))))
    }

    fn sharded(keys: Vec<u64>, shards: usize) -> ShardedEngine<u64> {
        let data = SortedData::new(keys).unwrap();
        ShardedEngine::build_with(&data, shards, full_scan_factory).unwrap()
    }

    /// `par_get_batch` into a fresh vector.
    fn par(e: &ShardedEngine<u64>, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        e.par_get_batch(keys, &mut out);
        out
    }

    fn oracle(keys: Vec<u64>) -> StaticEngine<u64, FullScan> {
        let data = SortedData::new(keys).unwrap();
        let n = data.len();
        StaticEngine::new(FullScan { n }, Arc::new(data))
    }

    #[test]
    fn partition_points_are_balanced_and_interior() {
        let keys: Vec<u64> = (0..100).collect();
        let cuts = partition_points(&keys, 4);
        assert_eq!(cuts, vec![25, 50, 75]);
        assert!(partition_points(&keys, 1).is_empty());
    }

    #[test]
    fn partition_points_never_split_duplicate_runs() {
        // 40 copies of the same key around every natural cut position.
        let mut keys: Vec<u64> = (0..30).collect();
        keys.extend(std::iter::repeat_n(30u64, 40));
        keys.extend(31..60);
        let cuts = partition_points(&keys, 4);
        for &c in &cuts {
            assert!(keys[c] != keys[c - 1], "cut at {c} splits a duplicate run");
        }
    }

    #[test]
    fn partition_points_clamp_to_distinct_structure() {
        // All-equal data cannot be cut at all.
        let keys = vec![7u64; 50];
        assert!(partition_points(&keys, 8).is_empty());
        // More shards than keys degrade gracefully.
        let tiny = vec![1u64, 2, 3];
        let cuts = partition_points(&tiny, 10);
        assert!(cuts.len() <= 2);
    }

    #[test]
    fn routing_matches_fences() {
        let e = sharded((0..1000u64).collect(), 4);
        assert_eq!(e.num_shards(), 4);
        assert_eq!(e.fences(), &[250, 500, 750]);
        assert_eq!(e.shard_of(0), 0);
        assert_eq!(e.shard_of(249), 0);
        assert_eq!(e.shard_of(250), 1);
        assert_eq!(e.shard_of(999), 3);
        assert_eq!(e.shard_of(u64::MAX), 3);
    }

    #[test]
    fn sharded_agrees_with_oracle_on_point_and_ordered_queries() {
        let keys: Vec<u64> = (0..2000u64).map(|i| i * 3).collect();
        let e = sharded(keys.clone(), 7);
        let o = oracle(keys);
        assert_eq!(e.len(), o.len());
        for probe in (0..6100u64).step_by(7).chain([0, 5997, 5998, u64::MAX]) {
            assert_eq!(e.get(probe), o.get(probe), "get({probe})");
            assert_eq!(e.lower_bound(probe), o.lower_bound(probe), "lower_bound({probe})");
        }
    }

    #[test]
    fn ranges_stitch_across_shard_boundaries() {
        let keys: Vec<u64> = (0..500u64).collect();
        let e = sharded(keys.clone(), 5);
        let o = oracle(keys);
        for (lo, hi) in [(0, 500), (99, 101), (0, 1), (100, 400), (499, 500), (250, 250)] {
            assert_eq!(e.range(lo, hi), o.range(lo, hi), "range [{lo}, {hi})");
            assert_eq!(e.range_sum(lo, hi), o.range_sum(lo, hi), "range_sum [{lo}, {hi})");
        }
        // Inverted and empty windows.
        assert!(e.range(400, 100).is_empty());
        assert_eq!(e.range_sum(400, 100), 0);
    }

    #[test]
    fn duplicates_stay_whole_within_one_shard() {
        // A duplicate run exactly where a cut would land: get must still sum
        // every copy.
        let mut keys: Vec<u64> = (0..100).collect();
        keys.extend(std::iter::repeat_n(100u64, 60));
        keys.extend(101..200);
        let e = sharded(keys.clone(), 4);
        let o = oracle(keys);
        assert_eq!(e.get(100), o.get(100), "duplicate payload sum crosses no shard");
        assert_eq!(e.lower_bound(100), o.lower_bound(100));
        assert_eq!(e.range_sum(99, 102), o.range_sum(99, 102));
    }

    #[test]
    fn batch_groups_by_shard_and_restores_order() {
        let keys: Vec<u64> = (0..3000u64).map(|i| i * 2).collect();
        let e = sharded(keys, 6);
        // Deliberately shard-interleaved probe order, misses included.
        let probes: Vec<u64> = (0..700u64).map(|i| (i * 4919) % 6100).collect();
        let batched = e.lookup_batch(&probes);
        let fanned = par(&e, &probes);
        assert_eq!(batched.len(), probes.len());
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(batched[i], e.get(p), "get_batch diverges at {p}");
            assert_eq!(fanned[i], e.get(p), "par_get_batch diverges at {p}");
        }
    }

    #[test]
    fn par_batch_above_the_spawn_floor_agrees_with_serial() {
        // Enough keys that every worker clears PAR_MIN_KEYS_PER_WORKER, so
        // on multi-core hosts this drives the actual spawn branch.
        let e = sharded((0..50_000u64).collect(), 8);
        let probes: Vec<u64> =
            (0..(PAR_MIN_KEYS_PER_WORKER * 8) as u64).map(|i| (i * 31) % 60_000).collect();
        assert_eq!(par(&e, &probes), e.lookup_batch(&probes));
    }

    #[test]
    fn par_batch_splits_hot_shard_groups_across_workers() {
        // ~95% of the batch routes to the lowest shard: the span split must
        // divide that one group between workers and still scatter exactly.
        let e = sharded((0..50_000u64).collect(), 8);
        let probes: Vec<u64> = (0..(PAR_MIN_KEYS_PER_WORKER * 4) as u64)
            .map(|i| if i % 20 == 0 { 40_000 + (i % 10_000) } else { i % 6_000 })
            .collect();
        assert_eq!(par(&e, &probes), e.lookup_batch(&probes));
    }

    #[test]
    fn empty_batches_and_single_shard_pass_through() {
        let e = sharded((0..100u64).collect(), 1);
        assert_eq!(e.num_shards(), 1);
        assert!(e.lookup_batch(&[]).is_empty());
        assert!(par(&e, &[]).is_empty());
        assert_eq!(par(&e, &[50, 1000]), vec![Some(e.get(50).unwrap()), None]);
    }

    #[test]
    fn more_shards_than_keys_degrades_gracefully() {
        let e = sharded(vec![10, 20, 30], 16);
        assert!(e.num_shards() <= 3);
        assert_eq!(e.len(), 3);
        assert_eq!(e.get(20), oracle(vec![10, 20, 30]).get(20));
        assert_eq!(e.lower_bound(31), None);
    }

    #[test]
    fn metadata_aggregates_across_shards() {
        let e = sharded((0..100u64).collect(), 4);
        assert_eq!(e.len(), 100);
        assert!(!e.is_empty());
        assert!(e.name().starts_with("sharded4x["));
        // 4 FullScan indexes at 8 bytes each + 3 fence keys.
        assert_eq!(e.size_bytes(), 4 * 8 + 3 * 8);
    }

    #[test]
    fn from_engines_validates_shape() {
        // Explicit payloads: `SortedData::new` derives payloads from local
        // positions, which would disagree across hand-cut shards.
        let mk = |keys: Vec<u64>| {
            let payloads = keys.iter().map(|&k| k * 11).collect();
            full_scan_factory(SortedData::with_payloads(keys, payloads).unwrap()).unwrap()
        };
        assert!(ShardedEngine::<u64>::from_engines(vec![], vec![]).is_err());
        assert!(ShardedEngine::from_engines(vec![mk(vec![1]), mk(vec![5])], vec![]).is_err());
        assert!(ShardedEngine::from_engines(
            vec![mk(vec![1]), mk(vec![5]), mk(vec![9])],
            vec![5, 5] // not strictly increasing
        )
        .is_err());
        let ok = ShardedEngine::from_engines(vec![mk(vec![1]), mk(vec![5, 6])], vec![5]).unwrap();
        assert_eq!(ok.get(6), Some(66));
        assert_eq!(ok.get(1), Some(11));
        assert_eq!(ok.get(4), None);
    }

    #[test]
    fn zero_shards_is_rejected() {
        let data = SortedData::new(vec![1u64, 2, 3]).unwrap();
        assert!(ShardedEngine::build_with(&data, 0, full_scan_factory).is_err());
    }
}
