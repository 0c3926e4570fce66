//! Hot-key result caching over any engine.
//!
//! The paper's read benchmarks draw lookup keys uniformly, but serving
//! traffic is skewed: a small set of hot keys absorbs most reads (the Zipf
//! mixes in `sosd-datasets::mixed` model exactly this). Every engine below
//! this layer pays its full lookup cost per probe regardless of how often
//! the key repeats; [`CachedEngine`] puts a bounded **result cache** in
//! front of any [`QueryEngine`] so the hot tail of the distribution is
//! answered by one hash probe instead of a model inference plus last-mile
//! search.
//!
//! # Design
//!
//! * **Lock striping.** The cache is split into power-of-two stripes, each
//!   an independently locked table, with keys routed by a mixed hash. Point
//!   probes from concurrent serving threads only contend when they collide
//!   on a stripe, and no probe ever takes more than one stripe lock.
//! * **CLOCK eviction.** Each stripe evicts with the CLOCK (second-chance)
//!   policy: a hit only sets a reference bit, and the fill path sweeps a
//!   hand that demotes referenced entries before evicting an unreferenced
//!   one. CLOCK is chosen over segmented LRU because it approximates LRU's
//!   hit rate while keeping the *hit* path O(1) with no list surgery under
//!   the stripe lock — hits are the whole point of the cache, so they must
//!   stay at one hash probe plus one bit store.
//! * **Misses fall through.** A miss consults the inner engine and
//!   populates the cache. [`CachedEngine::get_batch`] partitions hits from
//!   misses and hands the *whole miss set* to the inner engine's own
//!   `get_batch`, so a `StaticEngine` base still runs its
//!   interleaved-prefetch path over the keys that actually need it.
//!   `par_get_batch` does the same partitioning and hands the miss set to
//!   the inner engine's `par_get_batch`, so over a sharded inner cached
//!   keys never reach the shard threads.
//! * **Negative caching is opt-in.** By default absent keys are never
//!   cached (absence is cheap to re-verify, and nonexistent probes would
//!   evict hot results); [`CachedEngine::with_negative`] flips a miss on
//!   an absent key into a **negative entry** that answers later probes of
//!   that key from the cache — the right trade for miss-heavy serving
//!   traffic. Negative entries ride the same slots, CLOCK policy, and
//!   version-fenced invalidation as values, so an insert of a
//!   negatively-cached key invalidates the entry exactly like a payload
//!   overwrite (rule 1 below) and a racing fill of stale absence is
//!   discarded (rule 2).
//! * **A non-filling [`CachedEngine::peek`]** answers "is this key cached
//!   right now" without falling through — the probe the serving layer's
//!   hit-fast path (`sosd_core::serve`) runs at submit time so a cache
//!   hit never waits behind a wave of misses.
//! * **Ranges bypass.** `lower_bound`, `range`, and `range_sum` delegate
//!   straight to the inner engine: a point-result cache cannot answer an
//!   ordered query without an order-preserving directory, and caching
//!   materialized ranges would let one wide scan evict the entire hot set.
//!
//! # Write invalidation (no stale hits)
//!
//! A result cache over an updatable inner engine (a
//! [`WriteBehindEngine`]) must never serve a payload the inner engine no
//! longer holds. Two rules guarantee it:
//!
//! 1. **Writers invalidate after the write.** [`CachedEngine::insert`]
//!    forwards to the inner write path *first*, then removes the key from
//!    its stripe and bumps the stripe's **version counter** — so once the
//!    insert returns, no cached copy of the old payload exists.
//! 2. **Fills are version-checked.** A miss records its stripe's version
//!    *before* probing the inner engine and re-checks it under the lock
//!    when filling; a concurrent invalidation in between (version bumped)
//!    discards the fill. Without the check, a reader could probe the inner
//!    engine, lose the CPU, and fill a payload that a racing writer
//!    overwrote and invalidated in the meantime — the classic stale-fill
//!    race. The version bumps on *every* invalidation, cached or not,
//!    because the endangered fill is precisely for a key that is not in
//!    the cache yet.
//!
//! Background merges need no invalidation at all: a write-behind merge
//! folds the delta into a rebuilt base without changing the visible
//! key→payload mapping, so every cached result stays correct across the
//! epoch swap (`tests/cached_engine.rs` proves both properties against a
//! `BTreeMap` oracle under interleaved inserts and background merges).

use crate::engine::QueryEngine;
use crate::error::BuildError;
use crate::key::Key;
use crate::util::splitmix64;
use crate::writebehind::WriteBehindEngine;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cheap multiply-mix hasher for the per-stripe index (keys are already
/// integers; SipHash would dominate the hit path). Not DoS-resistant —
/// cache keys come from the workload, not an adversary.
#[derive(Default)]
pub struct MixHasher {
    state: u64,
}

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = splitmix64(self.state ^ b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = splitmix64(self.state ^ v);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type MixBuild = BuildHasherDefault<MixHasher>;

/// One CLOCK ring entry. `value` is the cached `get` result: `Some` a
/// payload sum, `None` a **negative entry** (key known absent; only stored
/// when negative caching is enabled).
///
/// Aligned to its size, so no slot straddles a cache line: a `Vec`
/// allocation is only 16-byte aligned, and at a 32-byte stride from there
/// every other slot has `value` on one line and `referenced` on the next —
/// one more miss per cold hit (`mixed-rw` `get_ns_p50` 192 → 220 ns in 10
/// of 10 A/B pairs without the attribute, level with it).
#[repr(align(32))]
struct Slot<K> {
    key: K,
    value: Option<u64>,
    /// The CLOCK second-chance bit: set on hit, cleared by the sweeping
    /// hand, which evicts the first entry it finds already clear.
    referenced: bool,
}

/// One independently locked cache partition.
struct StripeState<K> {
    /// Key → slot index in `slots`.
    map: HashMap<K, usize, MixBuild>,
    /// The CLOCK ring (grows up to the stripe capacity, then recycles).
    slots: Vec<Slot<K>>,
    /// The CLOCK hand: next eviction candidate.
    hand: usize,
    /// Bumped on every invalidation; fills recorded under an older version
    /// are discarded (see the module docs on the stale-fill race).
    version: u64,
}

impl<K: Key> StripeState<K> {
    /// Cached `get` result for `key`: outer `None` = not cached, inner
    /// `None` = negative entry (known absent).
    fn probe(&mut self, key: K) -> Option<Option<u64>> {
        let &i = self.map.get(&key)?;
        self.slots[i].referenced = true;
        Some(self.slots[i].value)
    }

    /// Insert `key → value`, evicting via CLOCK when at `cap`.
    fn fill(&mut self, key: K, value: Option<u64>, cap: usize) {
        if let Some(&i) = self.map.get(&key) {
            // A racing reader of the same key filled first; the values are
            // identical (same stripe version ⇒ same inner state).
            self.slots[i].value = value;
            return;
        }
        if self.slots.len() < cap {
            self.map.insert(key, self.slots.len());
            self.slots.push(Slot { key, value, referenced: false });
            return;
        }
        // CLOCK sweep: clear reference bits until an unreferenced victim
        // is found (at most one revolution plus one step).
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if self.slots[i].referenced {
                self.slots[i].referenced = false;
            } else {
                self.map.remove(&self.slots[i].key);
                self.map.insert(key, i);
                self.slots[i] = Slot { key, value, referenced: false };
                return;
            }
        }
    }

    /// Drop `key` if cached; always bump the version so in-flight fills
    /// for this stripe (cached or not) are discarded.
    fn invalidate(&mut self, key: K) {
        self.version = self.version.wrapping_add(1);
        let Some(i) = self.map.remove(&key) else {
            return;
        };
        self.slots.swap_remove(i);
        if i < self.slots.len() {
            self.map.insert(self.slots[i].key, i);
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
    }
}

/// A bounded, lock-striped hot-key result cache in front of any
/// [`QueryEngine`] — the serving stack's answer to Zipf-skewed read
/// traffic. See the module docs for the design and the no-stale-hit
/// protocol.
///
/// Point lookups consult the cache first and fall through on a miss;
/// batches partition hits from misses so the inner engine's prefetch path
/// serves the miss set; ordered queries bypass the cache entirely.
///
/// ```
/// use sosd_core::cache::CachedEngine;
/// use sosd_core::testutil::MirrorIndex;
/// use sosd_core::{QueryEngine, SortedData, StaticEngine};
/// use std::sync::Arc;
///
/// let data = Arc::new(SortedData::new((0..1000u64).map(|i| i * 2).collect()).unwrap());
/// let inner = StaticEngine::new(MirrorIndex::over(&data), Arc::clone(&data));
/// let cached = CachedEngine::new(inner, 64, 4).unwrap();
///
/// assert_eq!(cached.get(10), Some(data.payload(5))); // miss: filled
/// assert_eq!(cached.get(10), Some(data.payload(5))); // hit
/// assert_eq!(cached.hits(), 1);
/// assert_eq!(cached.misses(), 1);
/// assert_eq!(cached.range(0, 6), cached.inner().range(0, 6)); // bypass
/// ```
pub struct CachedEngine<K: Key, E: QueryEngine<K> = Box<dyn QueryEngine<K>>> {
    inner: E,
    stripes: Vec<Mutex<StripeState<K>>>,
    /// Per-stripe entry budget (total capacity split evenly).
    stripe_cap: usize,
    /// Whether misses on absent keys fill negative entries.
    negative: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Key, E: QueryEngine<K>> CachedEngine<K, E> {
    /// Wrap `inner` with a cache of ~`capacity` entries split over
    /// `stripes` lock partitions (rounded up to a power of two, capped so
    /// each stripe holds at least one entry; the effective capacity —
    /// [`CachedEngine::capacity`] — rounds `capacity` up to a multiple of
    /// the stripe count). `capacity` and `stripes` must both be at least
    /// 1. Negative caching is off; see [`CachedEngine::with_negative`].
    pub fn new(inner: E, capacity: usize, stripes: usize) -> Result<Self, BuildError> {
        Self::with_negative(inner, capacity, stripes, false)
    }

    /// Like [`CachedEngine::new`], with **negative caching** opt-in: when
    /// `negative` is true, a miss whose inner lookup returns `None` fills
    /// a negative entry, so repeated probes of an absent key are answered
    /// by the cache instead of re-verifying absence through the engine —
    /// miss-heavy open-loop traffic is exactly where this pays. Negative
    /// entries obey the same version-fenced invalidation as values: a
    /// later `insert` of the key drops the entry and fences in-flight
    /// fills, so absence can never shadow a new write. Off by default
    /// because each negative entry occupies a slot a hot *present* key
    /// could use.
    pub fn with_negative(
        inner: E,
        capacity: usize,
        stripes: usize,
        negative: bool,
    ) -> Result<Self, BuildError> {
        if capacity == 0 {
            return Err(BuildError::InvalidConfig("cache capacity must be >= 1".into()));
        }
        if stripes == 0 {
            return Err(BuildError::InvalidConfig("cache stripes must be >= 1".into()));
        }
        let stripes = stripes.min(capacity).next_power_of_two();
        let stripe_cap = capacity.div_ceil(stripes);
        let stripes = (0..stripes)
            .map(|_| {
                Mutex::new(StripeState {
                    map: HashMap::with_hasher(MixBuild::default()),
                    slots: Vec::new(),
                    hand: 0,
                    version: 0,
                })
            })
            .collect();
        Ok(CachedEngine {
            inner,
            stripes,
            stripe_cap,
            negative,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Whether absent-key results are cached as negative entries.
    pub fn negative_enabled(&self) -> bool {
        self.negative
    }

    /// Total entry budget across all stripes.
    pub fn capacity(&self) -> usize {
        self.stripe_cap * self.stripes.len()
    }

    /// Number of lock stripes (a power of two).
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Entries currently cached.
    pub fn cached_len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().expect("cache stripe").slots.len()).sum()
    }

    /// Cache hits served since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses (probes that fell through to the inner engine).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits as a fraction of all point probes (0 when nothing was probed).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }

    /// Drop `key`'s cached result (if any) and fence concurrent fills of
    /// this stripe — the writer half of the no-stale-hit protocol. Call
    /// *after* the inner engine's write is visible.
    pub fn invalidate(&self, key: K) {
        self.stripe(key).lock().expect("cache stripe").invalidate(key);
    }

    /// Drop every cached entry (and fence all in-flight fills).
    pub fn clear(&self) {
        for s in &self.stripes {
            let mut st = s.lock().expect("cache stripe");
            st.version = st.version.wrapping_add(1);
            st.map.clear();
            st.slots.clear();
            st.hand = 0;
        }
    }

    /// Reset the hit/miss counters (e.g. between a warmup and a timed
    /// pass); cached entries are kept.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn stripe(&self, key: K) -> &Mutex<StripeState<K>> {
        // Mix before masking (dataset keys are often sequential), and
        // route on bits 32.. of the mix: the per-stripe `HashMap` derives
        // its bucket index from the *low* bits of the same `splitmix64`
        // (via `MixHasher`), so selecting stripes from the low bits would
        // pin every key in stripe `r` to bucket indexes `≡ r (mod
        // stripes)` — clustering the table the hit path probes. Disjoint
        // bit ranges keep the two placements independent.
        let h = splitmix64(key.to_u64());
        &self.stripes[(h >> 32) as usize & (self.stripes.len() - 1)]
    }

    /// Cache probe: `Ok(result)` on a hit (`Ok(None)` = negative entry),
    /// `Err(version)` on a miss (the stripe version to hand back to
    /// [`CachedEngine::fill_checked`]).
    #[inline]
    fn probe(&self, key: K) -> Result<Option<u64>, u64> {
        let mut st = self.stripe(key).lock().expect("cache stripe");
        match st.probe(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Err(st.version)
            }
        }
    }

    /// Non-filling, non-falling-through probe: `Some(result)` if `key` is
    /// cached (`Some(None)` = cached absence), `None` if not — without
    /// consulting the inner engine. A hit counts toward [`hits`]; a lookup
    /// that finds nothing is **not** counted as a miss, because the caller
    /// (the serving fast path — `sosd_core::serve`) re-probes through the
    /// normal `get_batch` path, which counts it.
    ///
    /// [`hits`]: CachedEngine::hits
    #[inline]
    pub fn peek(&self, key: K) -> Option<Option<u64>> {
        let mut st = self.stripe(key).lock().expect("cache stripe");
        let r = st.probe(key);
        if r.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Fill after a miss, discarded when the stripe version moved past
    /// `version` (a writer invalidated between the probe and this fill).
    /// `value = None` (a negative entry) is only stored in negative mode.
    #[inline]
    fn fill_checked(&self, key: K, value: Option<u64>, version: u64) {
        if value.is_none() && !self.negative {
            return;
        }
        let mut st = self.stripe(key).lock().expect("cache stripe");
        if st.version == version {
            st.fill(key, value, self.stripe_cap);
        }
    }

    /// The hit/miss-partitioned batch shared by [`QueryEngine::get_batch`]
    /// and [`QueryEngine::par_get_batch`]: hits (including negative
    /// entries) answer from the stripes, and the whole miss set goes to
    /// the inner engine through `exec` in one call.
    fn get_batch_via(
        &self,
        keys: &[K],
        out: &mut Vec<Option<u64>>,
        exec: impl FnOnce(&E, &[K], &mut Vec<Option<u64>>),
    ) {
        if keys.is_empty() {
            return;
        }
        let start = out.len();
        out.resize(start + keys.len(), None);
        let mut miss_keys = Vec::new();
        let mut miss_meta = Vec::new(); // (output slot, stripe version at probe)
        for (i, &k) in keys.iter().enumerate() {
            match self.probe(k) {
                Ok(v) => out[start + i] = v,
                Err(version) => {
                    miss_keys.push(k);
                    miss_meta.push((i, version));
                }
            }
        }
        if miss_keys.is_empty() {
            return;
        }
        let mut miss_results = Vec::with_capacity(miss_keys.len());
        exec(&self.inner, &miss_keys, &mut miss_results);
        for ((r, &k), &(i, version)) in miss_results.iter().zip(&miss_keys).zip(&miss_meta) {
            out[start + i] = *r;
            self.fill_checked(k, *r, version);
        }
    }
}

impl<K: Key> CachedEngine<K, WriteBehindEngine<K>> {
    /// Write-through insert for the cached write-behind composition:
    /// forward to the [`WriteBehindEngine`] write path, then invalidate the
    /// cached result — in that order, so a probe after this returns can
    /// never resurrect the old payload (see the module docs).
    pub fn insert(&self, key: K, payload: u64) -> Option<u64> {
        let prev = self.inner.insert(key, payload);
        self.invalidate(key);
        prev
    }

    /// Write-through remove: forward the tombstoning remove to the
    /// [`WriteBehindEngine`] write path, then invalidate the cached result
    /// — same ordering as [`CachedEngine::insert`], so a probe after this
    /// returns can never resurrect the removed payload from the cache.
    pub fn remove(&self, key: K) -> Option<u64> {
        let prev = self.inner.remove(key);
        self.invalidate(key);
        prev
    }

    /// Pin a consistent point-in-time view of the inner
    /// [`WriteBehindEngine`] (see [`WriteBehindEngine::snapshot`]). The
    /// cache is deliberately bypassed: a
    /// [`PinnedView`](crate::writebehind::PinnedView) answers from its
    /// frozen tiers only, while the cache tracks the *live* mapping —
    /// serving pinned reads through it would either pollute it with
    /// historical payloads or let live fills leak into the pinned past.
    pub fn snapshot(&self) -> crate::writebehind::PinnedView<K> {
        self.inner.snapshot()
    }
}

impl<K: Key, E: QueryEngine<K>> QueryEngine<K> for CachedEngine<K, E> {
    fn name(&self) -> String {
        format!("cached[{}]", self.inner.name())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn size_bytes(&self) -> usize {
        // Inner structure plus the cache's own footprint: ring slots and
        // roughly one (key, index) pair per map entry.
        let slot = std::mem::size_of::<Slot<K>>();
        let map_entry = std::mem::size_of::<K>() + std::mem::size_of::<usize>();
        self.inner.size_bytes() + self.cached_len() * (slot + map_entry)
    }

    /// Cache first; a miss falls through to the inner engine and fills.
    /// By default only present keys fill (absence is cheap to re-verify
    /// and caching it would let nonexistent probes evict hot results);
    /// [`CachedEngine::with_negative`] opts absent keys in too.
    fn get(&self, key: K) -> Option<u64> {
        match self.probe(key) {
            Ok(v) => v,
            Err(version) => {
                let r = self.inner.get(key);
                self.fill_checked(key, r, version);
                r
            }
        }
    }

    /// Bypasses the cache (ordered query).
    fn lower_bound(&self, key: K) -> Option<(K, u64)> {
        self.inner.lower_bound(key)
    }

    /// Bypasses the cache (ordered query).
    fn range(&self, lo: K, hi: K) -> Vec<(K, u64)> {
        self.inner.range(lo, hi)
    }

    /// Bypasses the cache (ordered query).
    fn range_sum(&self, lo: K, hi: K) -> u64 {
        self.inner.range_sum(lo, hi)
    }

    /// Hit/miss partitioned batch: hits are answered from the stripes, and
    /// the whole miss set goes to the inner engine's own `get_batch` in one
    /// call, so its interleaved-prefetch override still fires.
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        self.get_batch_via(keys, out, |inner, miss, res| inner.get_batch(miss, res));
    }

    /// The same partition, with the miss set handed to the inner engine's
    /// own `par_get_batch` — a sharded inner fans it out across cores, and
    /// under skewed traffic most keys never reach its worker threads.
    fn par_get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        self.get_batch_via(keys, out, |inner, miss, res| inner.par_get_batch(miss, res));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SortedData;
    use crate::engine::StaticEngine;
    use crate::shard::ShardedEngine;
    use crate::testutil::MirrorIndex;
    use std::sync::Arc;

    fn engine(
        n: u64,
        capacity: usize,
        stripes: usize,
    ) -> CachedEngine<u64, Box<dyn QueryEngine<u64>>> {
        let data = Arc::new(SortedData::new((0..n).map(|i| i * 2).collect()).unwrap());
        let inner: Box<dyn QueryEngine<u64>> =
            Box::new(StaticEngine::new(MirrorIndex::over(&data), Arc::clone(&data)));
        CachedEngine::new(inner, capacity, stripes).unwrap()
    }

    #[test]
    fn zero_capacity_and_zero_stripes_are_rejected() {
        let data = Arc::new(SortedData::new(vec![1u64]).unwrap());
        let inner = StaticEngine::new(MirrorIndex::over(&data), Arc::clone(&data));
        assert!(CachedEngine::new(inner, 0, 4).is_err());
        let inner = StaticEngine::new(MirrorIndex::over(&data), data);
        assert!(CachedEngine::new(inner, 4, 0).is_err());
    }

    #[test]
    fn stripes_round_to_power_of_two_and_respect_capacity() {
        let e = engine(100, 16, 3);
        assert_eq!(e.num_stripes(), 4);
        assert_eq!(e.capacity(), 16);
        // More stripes than capacity: clamped so every stripe can hold one.
        let e = engine(100, 3, 64);
        assert!(e.num_stripes() <= 4);
        assert!(e.capacity() >= 3);
    }

    #[test]
    fn get_matches_inner_and_counts_hits() {
        let e = engine(1_000, 64, 4);
        for probe in 0..40u64 {
            assert_eq!(e.get(probe), e.inner().get(probe), "probe {probe}");
        }
        let misses_after_first = e.misses();
        assert_eq!(e.hits(), 0);
        // Re-probe: every present key is now a hit, absent keys miss again.
        for probe in 0..40u64 {
            assert_eq!(e.get(probe), e.inner().get(probe), "re-probe {probe}");
        }
        assert_eq!(e.hits(), 20, "present keys hit on the second pass");
        assert_eq!(e.misses(), misses_after_first + 20, "absent keys are never cached");
        assert!(e.hit_rate() > 0.0 && e.hit_rate() < 1.0);
    }

    #[test]
    fn batch_partitions_hits_from_misses_and_matches_get() {
        let e = engine(1_000, 128, 4);
        // Warm half the probe set.
        for k in (0..100u64).step_by(4) {
            e.get(k);
        }
        let probes: Vec<u64> = (0..120).collect();
        let batched = e.lookup_batch(&probes);
        for (&p, got) in probes.iter().zip(&batched) {
            assert_eq!(*got, e.inner().get(p), "batch probe {p}");
        }
        // Second batch: every present key must be served from the cache
        // (the miss set was filled by the first batch)...
        let (h0, m0) = (e.hits(), e.misses());
        let again = e.lookup_batch(&probes);
        assert_eq!(again, batched);
        assert_eq!(e.hits() - h0, 60, "all present keys hit");
        assert_eq!(e.misses() - m0, 60, "absent keys still miss");
    }

    #[test]
    fn eviction_keeps_cache_at_capacity() {
        let e = engine(10_000, 32, 1);
        for k in 0..2_000u64 {
            e.get(k * 2);
        }
        assert_eq!(e.cached_len(), 32, "cache never exceeds capacity");
        assert_eq!(e.capacity(), 32);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        // One stripe for a deterministic ring.
        let e = engine(10_000, 8, 1);
        for k in 0..8u64 {
            e.get(k * 2); // fill all 8 slots
        }
        assert_eq!(e.cached_len(), 8);
        // Touch the even slots: their reference bits are now set.
        let hot: Vec<u64> = (0..8u64).filter(|k| k % 2 == 0).map(|k| k * 2).collect();
        let h0 = e.hits();
        for &k in &hot {
            e.get(k);
        }
        assert_eq!(e.hits() - h0, hot.len() as u64);
        // Four new fills must evict the four untouched entries, not the hot
        // ones (CLOCK demotes the referenced slots instead of evicting them).
        for k in 100..104u64 {
            e.get(k * 2);
        }
        let h1 = e.hits();
        for &k in &hot {
            e.get(k);
        }
        assert_eq!(e.hits() - h1, hot.len() as u64, "hot entries survived the sweep");
    }

    #[test]
    fn invalidate_discards_and_version_fences_fills() {
        let e = engine(1_000, 64, 1);
        assert_eq!(e.get(10), Some(e.inner().get(10).unwrap()));
        let (h0, len0) = (e.hits(), e.cached_len());
        e.invalidate(10);
        assert_eq!(e.cached_len(), len0 - 1);
        assert_eq!(e.get(10), e.inner().get(10), "invalidate must not lose the key");
        assert_eq!(e.hits(), h0, "probe after invalidate is a miss");
        // A fill recorded under a pre-invalidation version is discarded.
        let version = match e.probe(9999) {
            Err(v) => v,
            Ok(_) => panic!("absent key cannot hit"),
        };
        e.invalidate(42); // bumps the (single) stripe's version
        e.fill_checked(9999, Some(123), version);
        assert!(e.probe(9999).is_err(), "stale fill must be discarded");
    }

    fn negative_engine(
        n: u64,
        capacity: usize,
        stripes: usize,
    ) -> CachedEngine<u64, Box<dyn QueryEngine<u64>>> {
        let data = Arc::new(SortedData::new((0..n).map(|i| i * 2).collect()).unwrap());
        let inner: Box<dyn QueryEngine<u64>> =
            Box::new(StaticEngine::new(MirrorIndex::over(&data), Arc::clone(&data)));
        CachedEngine::with_negative(inner, capacity, stripes, true).unwrap()
    }

    #[test]
    fn negative_mode_caches_absence() {
        let e = negative_engine(1_000, 64, 4);
        assert!(e.negative_enabled());
        assert_eq!(e.get(11), None); // miss: negative entry filled
        let (h0, m0) = (e.hits(), e.misses());
        assert_eq!(e.get(11), None, "absence answered from the cache");
        assert_eq!(e.hits() - h0, 1, "second probe of an absent key is a hit");
        assert_eq!(e.misses(), m0);
        // Batches serve negative entries too, and fill new ones.
        let probes: Vec<u64> = (0..40).collect();
        let first = e.lookup_batch(&probes);
        for (&p, got) in probes.iter().zip(&first) {
            assert_eq!(*got, e.inner().get(p), "batch probe {p}");
        }
        let m1 = e.misses();
        assert_eq!(e.lookup_batch(&probes), first);
        assert_eq!(e.misses(), m1, "every key — present or absent — now hits");
    }

    #[test]
    fn negative_entries_are_version_fenced_and_invalidated() {
        let e = negative_engine(1_000, 64, 1);
        assert_eq!(e.get(11), None);
        assert!(matches!(e.probe(11), Ok(None)), "negative entry present");
        // The writer half: invalidating (what a cached write path does
        // after an insert of key 11 lands) must drop the negative entry…
        e.invalidate(11);
        assert!(e.probe(11).is_err(), "insert invalidates cached absence");
        // …and fence a concurrent fill of the now-stale absence.
        let version = match e.probe(12_345) {
            Err(v) => v,
            Ok(_) => panic!("absent key cannot hit before fill"),
        };
        e.invalidate(42); // bumps the (single) stripe's version
        e.fill_checked(12_345, None, version);
        assert!(e.probe(12_345).is_err(), "stale negative fill must be discarded");
    }

    #[test]
    fn default_mode_still_never_caches_absence() {
        let e = engine(1_000, 64, 4);
        assert_eq!(e.get(11), None);
        assert_eq!(e.get(11), None);
        assert_eq!(e.hits(), 0, "absent keys never hit without negative mode");
        assert_eq!(e.cached_len(), 0);
    }

    #[test]
    fn peek_reports_cached_state_without_filling() {
        let e = negative_engine(1_000, 64, 4);
        assert_eq!(e.peek(10), None, "cold key: no fast answer");
        assert_eq!(e.misses(), 0, "peek never counts a miss");
        assert_eq!(e.cached_len(), 0, "peek never fills");
        e.get(10); // present: fills Some
        e.get(11); // absent: fills negative
        let h0 = e.hits();
        assert_eq!(e.peek(10), Some(Some(e.inner().get(10).unwrap())));
        assert_eq!(e.peek(11), Some(None), "cached absence is a fast answer");
        assert_eq!(e.hits() - h0, 2, "peek hits count as hits");
    }

    #[test]
    fn ordered_queries_bypass_the_cache() {
        let e = engine(1_000, 64, 4);
        assert_eq!(e.lower_bound(5), e.inner().lower_bound(5));
        assert_eq!(e.range(10, 30), e.inner().range(10, 30));
        assert_eq!(e.range_sum(10, 30), e.inner().range_sum(10, 30));
        assert_eq!(e.hits() + e.misses(), 0, "ordered queries never touch the stripes");
    }

    /// `par_get_batch` into a fresh vector.
    fn par<E: QueryEngine<u64> + ?Sized>(e: &E, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        e.par_get_batch(keys, &mut out);
        out
    }

    #[test]
    fn par_get_batch_partitions_hits_before_the_shard_fanout() {
        let data = SortedData::new((0..4_000u64).map(|i| i * 2).collect()).unwrap();
        let sharded = ShardedEngine::build_with(&data, 4, |part| {
            let part = Arc::new(part);
            Ok(Box::new(StaticEngine::new(MirrorIndex::over(&part), part)))
        })
        .unwrap();
        // Capacity comfortably above the probe set so the second pass
        // cannot re-miss through eviction.
        let e = CachedEngine::with_negative(sharded, 1024, 4, true).unwrap();
        // Warm a third of the probe set (present and absent keys).
        for k in (0..300u64).step_by(3) {
            e.get(k);
        }
        let probes: Vec<u64> = (0..400).rev().collect();
        let serial = e.inner().lookup_batch(&probes);
        assert_eq!(par(&e, &probes), serial, "cache-aware parallel batch matches the inner engine");
        // Everything is cached now: the next parallel batch must not fall
        // through at all.
        let m0 = e.misses();
        assert_eq!(par(&e, &probes), serial);
        assert_eq!(e.misses(), m0, "fully-warm parallel batch sends no key to the shards");
    }

    /// Forwards to a static engine and records every `par_get_batch` call's
    /// keys, so a test can see what reaches the inner parallel path.
    struct ParSpy {
        inner: StaticEngine<u64, MirrorIndex>,
        par_calls: Arc<Mutex<Vec<Vec<u64>>>>,
    }

    impl QueryEngine<u64> for ParSpy {
        fn name(&self) -> String {
            "spy".into()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn size_bytes(&self) -> usize {
            self.inner.size_bytes()
        }
        fn get(&self, key: u64) -> Option<u64> {
            self.inner.get(key)
        }
        fn lower_bound(&self, key: u64) -> Option<(u64, u64)> {
            self.inner.lower_bound(key)
        }
        fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
            self.inner.range(lo, hi)
        }
        fn par_get_batch(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
            self.par_calls.lock().unwrap().push(keys.to_vec());
            self.inner.get_batch(keys, out)
        }
    }

    #[test]
    fn boxed_inner_par_get_batch_sends_only_misses_to_the_inner_parallel_path() {
        let data = Arc::new(SortedData::new((0..1_000u64).map(|i| i * 2).collect()).unwrap());
        let par_calls = Arc::new(Mutex::new(Vec::new()));
        let spy = ParSpy {
            inner: StaticEngine::new(MirrorIndex::over(&data), Arc::clone(&data)),
            par_calls: Arc::clone(&par_calls),
        };
        let e: CachedEngine<u64> = CachedEngine::new(Box::new(spy) as _, 256, 4).unwrap();
        for k in (0..40u64).step_by(4) {
            e.get(k); // warm every other even key
        }
        let probes: Vec<u64> = (0..40).collect();
        let erased: &dyn QueryEngine<u64> = &e;
        assert_eq!(par(erased, &probes), e.inner().lookup_batch(&probes));
        let misses: Vec<u64> = probes.iter().copied().filter(|k| k % 4 != 0).collect();
        assert_eq!(*par_calls.lock().unwrap(), vec![misses], "one inner call, misses only");
    }

    #[test]
    fn clear_empties_every_stripe() {
        let e = engine(1_000, 64, 4);
        for k in 0..50u64 {
            e.get(k * 2);
        }
        assert!(e.cached_len() > 0);
        e.clear();
        assert_eq!(e.cached_len(), 0);
        assert_eq!(e.get(10), e.inner().get(10));
    }

    #[test]
    fn metadata_reflects_cache_and_inner() {
        let e = engine(1_000, 64, 4);
        assert_eq!(e.len(), 1_000);
        assert!(e.name().starts_with("cached["));
        let before = e.size_bytes();
        for k in 0..50u64 {
            e.get(k * 2);
        }
        assert!(e.size_bytes() > before, "cached entries must show in size_bytes");
        // What `size_bytes` charges per entry: key, result and the CLOCK
        // bit, nothing else.
        assert!(std::mem::size_of::<Slot<u64>>() <= 32);
        e.reset_stats();
        assert_eq!(e.hits() + e.misses(), 0);
    }
}
