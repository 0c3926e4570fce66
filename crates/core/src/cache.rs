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
//! * **Seqlock sets.** The cache is one preallocated table of 128-byte
//!   sets, six ways each; a key's set is `splitmix64(key)` multiplied and
//!   shifted over the set count. Readers never lock: a probe loads the
//!   set's sequence number, reads the ways, and re-reads the sequence,
//!   retrying if a writer (a fill, an invalidation, `clear`) held the set
//!   meanwhile — writers hold a set by making its sequence odd. So a hit
//!   executes no locked instruction and writes nothing shared except a
//!   clear reference bit, and a probe cannot return one fill's key with
//!   another fill's payload. Hits and misses are counted in per-thread
//!   slots on their own cache lines and summed on read.
//! * **CLOCK eviction, per set.** Each set evicts with the CLOCK
//!   (second-chance) policy over its ways: a hit only sets a reference
//!   bit, and a fill into a full set sweeps the set's hand, demoting
//!   referenced ways before evicting an unreferenced one. CLOCK keeps the
//!   *hit* path at one set probe plus at most one bit store — hits are the
//!   whole point of the cache.
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
//!   traffic. Negative entries ride the same ways, CLOCK policy, and
//!   fenced invalidation as values, so an insert of a negatively-cached
//!   key invalidates the entry exactly like a payload overwrite (rule 1
//!   below) and a racing fill of stale absence is discarded (rule 2).
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
//!    forwards to the inner write path *first*, then, holding the key's
//!    set, removes the key and bumps the set's **fence** — so once the
//!    insert returns, no cached copy of the old payload exists.
//! 2. **Fills are fence-checked.** A miss returns the fence it read in the
//!    same consistent snapshot of the set as the lookup, *before* probing
//!    the inner engine, and the fill re-checks it while holding the set; a
//!    concurrent invalidation in between (fence bumped) discards the fill.
//!    Without the check, a reader could probe the inner engine, lose the
//!    CPU, and fill a payload that a racing writer overwrote and
//!    invalidated in the meantime — the classic stale-fill race. The fence
//!    bumps on *every* invalidation, cached or not, because the endangered
//!    fill is precisely for a key that is not in the cache yet.
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
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize};

/// Entries per set: the most that fit a 128-byte set beside its header
/// (21.3 bytes per entry).
const WAYS: usize = 6;

/// One cache set: [`WAYS`] entries behind a sequence lock. Everything a
/// reader loads is atomic, so an optimistic read that overlaps a writer is
/// a retry, never undefined behaviour. Aligned to the adjacent-line pair,
/// so a probe touches no other set's lines.
#[repr(C, align(128))]
#[derive(Default)]
struct Set {
    /// Odd while a writer holds the set; every write section bumps it by 2.
    seq: AtomicU32,
    /// Bumped by every invalidation; a fill recorded under an older fence
    /// is discarded (see the module docs on the stale-fill race).
    fence: AtomicU32,
    /// Bit `w`: way `w` holds an entry.
    valid: AtomicU8,
    /// Bit `w`: way `w` is a **negative entry** (key known absent; only
    /// stored when negative caching is enabled).
    negative: AtomicU8,
    /// The CLOCK hand: next eviction candidate (writers only).
    hand: AtomicU8,
    /// The CLOCK second-chance bits: set on hit, cleared by the sweeping
    /// hand, which evicts the first way it finds already clear.
    referenced: [AtomicBool; WAYS],
    keys: [AtomicU64; WAYS],
    payloads: [AtomicU64; WAYS],
}

/// Spin briefly, then yield: a writer holding a set may have lost its CPU.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Set {
    /// The valid way holding `key`, if any.
    #[inline]
    fn way(&self, valid: u8, key: u64) -> Option<usize> {
        (0..WAYS).find(|&w| valid >> w & 1 == 1 && self.keys[w].load(Relaxed) == key)
    }

    /// Optimistic probe: `Ok(result)` on a hit (`Ok(None)` = negative
    /// entry), `Err(fence)` on a miss, read in one consistent snapshot.
    ///
    /// Ordering: the writer's `fence(Release)` after making `seq` odd pairs
    /// with this `fence(Acquire)`, so a read that saw any store of a write
    /// section re-reads an odd or newer `seq` and retries; the writer's
    /// closing `Release` store of `seq` pairs with the first `Acquire` load
    /// here, so a read that starts after a section sees all of its stores.
    #[inline]
    fn read(&self, key: u64) -> Result<Option<u64>, u32> {
        let mut spins = 0;
        loop {
            let seq = self.seq.load(Acquire);
            if seq & 1 == 0 {
                let r = match self.way(self.valid.load(Relaxed), key) {
                    Some(w) => Ok((w, self.payloads[w].load(Relaxed), self.negative.load(Relaxed))),
                    None => Err(self.fence.load(Relaxed)),
                };
                fence(Acquire);
                if self.seq.load(Relaxed) == seq {
                    return r.map(|(w, payload, negative)| {
                        if !self.referenced[w].load(Relaxed) {
                            self.referenced[w].store(true, Relaxed);
                        }
                        (negative >> w & 1 == 0).then_some(payload)
                    });
                }
            }
            backoff(&mut spins);
        }
    }

    /// Run `f` holding the set: readers retry until it returns.
    fn write(&self, f: impl FnOnce(&Set)) {
        let mut spins = 0;
        let seq = loop {
            let seq = self.seq.load(Relaxed);
            if seq & 1 == 0
                && self.seq.compare_exchange_weak(seq, seq + 1, Acquire, Relaxed).is_ok()
            {
                break seq;
            }
            backoff(&mut spins);
        };
        fence(Release);
        f(self);
        self.seq.store(seq.wrapping_add(2), Release);
    }

    /// Insert `key → value` unless the fence moved past `fence`, evicting
    /// via CLOCK when every way is full.
    fn fill(&self, key: u64, value: Option<u64>, fence: u32) {
        self.write(|s| {
            if s.fence.load(Relaxed) != fence {
                return;
            }
            let valid = s.valid.load(Relaxed);
            // A racing reader of the same key may have filled first; the
            // values are identical (same fence ⇒ same inner state).
            let w = s.way(valid, key).unwrap_or_else(|| {
                let w = (0..WAYS).find(|&w| valid >> w & 1 == 0).unwrap_or_else(|| s.victim());
                s.referenced[w].store(false, Relaxed);
                s.keys[w].store(key, Relaxed);
                w
            });
            s.payloads[w].store(value.unwrap_or(0), Relaxed);
            let (bit, negative) = (1u8 << w, s.negative.load(Relaxed));
            s.negative
                .store(if value.is_none() { negative | bit } else { negative & !bit }, Relaxed);
            s.valid.store(valid | bit, Relaxed);
        });
    }

    /// CLOCK sweep of a full set: clear reference bits until an
    /// unreferenced way is found (at most one revolution plus one step).
    fn victim(&self) -> usize {
        loop {
            let w = self.hand.load(Relaxed) as usize;
            self.hand.store(((w + 1) % WAYS) as u8, Relaxed);
            if !self.referenced[w].load(Relaxed) {
                return w;
            }
            self.referenced[w].store(false, Relaxed);
        }
    }

    /// Drop `key` if cached, or every way when `key` is `None`; always bump
    /// the fence so in-flight fills for this set (cached or not) are
    /// discarded.
    fn invalidate(&self, key: Option<u64>) {
        self.write(|s| {
            s.fence.store(s.fence.load(Relaxed).wrapping_add(1), Relaxed);
            let valid = s.valid.load(Relaxed);
            match key {
                Some(key) => {
                    if let Some(w) = s.way(valid, key) {
                        s.valid.store(valid & !(1 << w), Relaxed);
                    }
                }
                None => s.valid.store(0, Relaxed),
            }
        });
    }
}

/// One counter slot's hit and miss counts, padded to the adjacent-line pair
/// so threads in different slots never write the same line.
#[repr(align(128))]
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
}

thread_local! {
    /// This thread's counter slot (before masking), dealt round robin.
    static COUNTER_SLOT: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Relaxed)
    };
}

/// A bounded, set-associative hot-key result cache in front of any
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
    sets: Box<[Set]>,
    /// Hit/miss counter slots (a power of two; threads pick one by
    /// [`COUNTER_SLOT`]).
    counters: Box<[Counters]>,
    /// Whether misses on absent keys fill negative entries.
    negative: bool,
    key: PhantomData<fn(K)>,
}

impl<K: Key, E: QueryEngine<K>> CachedEngine<K, E> {
    /// Wrap `inner` with a cache of ~`capacity` entries. The effective
    /// capacity — [`CachedEngine::capacity`] — rounds `capacity` up to a
    /// whole number of six-way sets. `stripes` only sizes the hit/miss
    /// counter slots (clamped to `capacity`, then rounded up to a power of
    /// two). `capacity` and `stripes` must both be at least 1. Negative
    /// caching is off; see [`CachedEngine::with_negative`].
    pub fn new(inner: E, capacity: usize, stripes: usize) -> Result<Self, BuildError> {
        Self::with_negative(inner, capacity, stripes, false)
    }

    /// Like [`CachedEngine::new`], with **negative caching** opt-in: when
    /// `negative` is true, a miss whose inner lookup returns `None` fills
    /// a negative entry, so repeated probes of an absent key are answered
    /// by the cache instead of re-verifying absence through the engine —
    /// miss-heavy open-loop traffic is exactly where this pays. Negative
    /// entries obey the same fenced invalidation as values: a later
    /// `insert` of the key drops the entry and fences in-flight fills, so
    /// absence can never shadow a new write. Off by default because each
    /// negative entry occupies a way a hot *present* key could use.
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
        let sets = (0..capacity.div_ceil(WAYS)).map(|_| Set::default()).collect();
        let slots = stripes.min(capacity).next_power_of_two();
        let counters = (0..slots).map(|_| Counters::default()).collect();
        Ok(CachedEngine { inner, sets, counters, negative, key: PhantomData })
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Whether absent-key results are cached as negative entries.
    pub fn negative_enabled(&self) -> bool {
        self.negative
    }

    /// Total entry budget: every way of every set.
    pub fn capacity(&self) -> usize {
        self.sets.len() * WAYS
    }

    /// Number of hit/miss counter slots (a power of two).
    pub fn num_stripes(&self) -> usize {
        self.counters.len()
    }

    /// Entries currently cached.
    pub fn cached_len(&self) -> usize {
        self.sets.iter().map(|s| s.valid.load(Relaxed).count_ones() as usize).sum()
    }

    /// Cache hits served since construction.
    pub fn hits(&self) -> u64 {
        self.counters.iter().map(|c| c.hits.load(Relaxed)).sum()
    }

    /// Misses (probes that fell through to the inner engine).
    pub fn misses(&self) -> u64 {
        self.counters.iter().map(|c| c.misses.load(Relaxed)).sum()
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
    /// its set — the writer half of the no-stale-hit protocol. Call
    /// *after* the inner engine's write is visible.
    pub fn invalidate(&self, key: K) {
        self.set(key).invalidate(Some(key.to_u64()));
    }

    /// Drop every cached entry (and fence all in-flight fills).
    pub fn clear(&self) {
        for s in self.sets.iter() {
            s.invalidate(None);
        }
    }

    /// Reset the hit/miss counters (e.g. between a warmup and a timed
    /// pass); cached entries are kept.
    pub fn reset_stats(&self) {
        for c in self.counters.iter() {
            c.hits.store(0, Relaxed);
            c.misses.store(0, Relaxed);
        }
    }

    #[inline]
    fn set(&self, key: K) -> &Set {
        // Mix first (dataset keys are often sequential), then map the mix
        // onto the set count with a multiply-shift instead of a modulo.
        let h = splitmix64(key.to_u64()) as u128;
        &self.sets[((h * self.sets.len() as u128) >> 64) as usize]
    }

    /// This thread's counter slot.
    #[inline]
    fn counters(&self) -> &Counters {
        &self.counters[COUNTER_SLOT.with(|&i| i) & (self.counters.len() - 1)]
    }

    /// Cache probe: `Ok(result)` on a hit (`Ok(None)` = negative entry),
    /// `Err(fence)` on a miss (the set fence to hand back to
    /// [`CachedEngine::fill_checked`]).
    #[inline]
    fn probe(&self, key: K) -> Result<Option<u64>, u32> {
        let r = self.set(key).read(key.to_u64());
        let c = self.counters();
        let count = if r.is_ok() { &c.hits } else { &c.misses };
        count.fetch_add(1, Relaxed);
        r
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
        let r = self.set(key).read(key.to_u64()).ok();
        if r.is_some() {
            self.counters().hits.fetch_add(1, Relaxed);
        }
        r
    }

    /// Fill after a miss, discarded when the set fence moved past `fence`
    /// (a writer invalidated between the probe and this fill).
    /// `value = None` (a negative entry) is only stored in negative mode.
    #[inline]
    fn fill_checked(&self, key: K, value: Option<u64>, fence: u32) {
        if value.is_some() || self.negative {
            self.set(key).fill(key.to_u64(), value, fence);
        }
    }

    /// The hit/miss-partitioned batch shared by [`QueryEngine::get_batch`]
    /// and [`QueryEngine::par_get_batch`]: hits (including negative
    /// entries) answer from the sets, and the whole miss set goes to the
    /// inner engine through `exec` in one call.
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
        let mut miss_meta = Vec::new(); // (output slot, set fence at probe)
        for (i, &k) in keys.iter().enumerate() {
            match self.probe(k) {
                Ok(v) => out[start + i] = v,
                Err(fence) => {
                    miss_keys.push(k);
                    miss_meta.push((i, fence));
                }
            }
        }
        if miss_keys.is_empty() {
            return;
        }
        let mut miss_results = Vec::with_capacity(miss_keys.len());
        exec(&self.inner, &miss_keys, &mut miss_results);
        for ((r, &k), &(i, fence)) in miss_results.iter().zip(&miss_keys).zip(&miss_meta) {
            out[start + i] = *r;
            self.fill_checked(k, *r, fence);
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
        // Inner structure plus the whole preallocated table, occupied or not.
        self.inner.size_bytes() + std::mem::size_of_val::<[Set]>(&self.sets)
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

    /// Hit/miss partitioned batch: hits are answered from the sets, and
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
    use std::sync::{Arc, Mutex};

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

    /// `capacity()` is the request rounded up to whole sets.
    fn assert_rounds_to_sets(e: &CachedEngine<u64>, requested: usize) {
        assert_eq!(e.capacity() % WAYS, 0, "whole sets");
        assert!(e.capacity() >= requested, "{} < {requested}", e.capacity());
        assert!(e.capacity() < requested + WAYS, "{} over {requested}", e.capacity());
    }

    /// A key other than `key` that lands in `key`'s set.
    fn same_set<E: QueryEngine<u64>>(e: &CachedEngine<u64, E>, key: u64) -> u64 {
        (0..).find(|&k| k != key && std::ptr::eq(e.set(k), e.set(key))).unwrap()
    }

    #[test]
    fn stripes_round_to_power_of_two_and_respect_capacity() {
        let e = engine(100, 16, 3);
        assert_eq!(e.num_stripes(), 4);
        assert_rounds_to_sets(&e, 16);
        // More stripes than capacity: clamped to the capacity first.
        let e = engine(100, 3, 64);
        assert!(e.num_stripes() <= 4);
        assert_rounds_to_sets(&e, 3);
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
        // Capacity far above the 60 present probe keys: a six-way set holds
        // at most six of them, so the headroom must cover the fullest set.
        let e = engine(1_000, 1024, 4);
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
        assert_eq!(e.cached_len(), e.capacity(), "cache never exceeds capacity");
        assert_rounds_to_sets(&e, 32);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        // One set for a deterministic ring.
        let e = engine(10_000, WAYS, 1);
        for k in 0..WAYS as u64 {
            e.get(k * 2); // fill every way
        }
        assert_eq!(e.cached_len(), WAYS);
        // Touch the even ways: their reference bits are now set.
        let hot: Vec<u64> = (0..WAYS as u64).filter(|k| k % 2 == 0).map(|k| k * 2).collect();
        let h0 = e.hits();
        for &k in &hot {
            e.get(k);
        }
        assert_eq!(e.hits() - h0, hot.len() as u64);
        // New fills must evict the untouched entries, not the hot ones
        // (CLOCK demotes the referenced ways instead of evicting them).
        for k in 100..100 + (WAYS - hot.len()) as u64 {
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
        // A fill recorded under a pre-invalidation fence is discarded.
        let fence = match e.probe(9999) {
            Err(f) => f,
            Ok(_) => panic!("absent key cannot hit"),
        };
        e.invalidate(same_set(&e, 9999)); // bumps the set's fence
        e.fill_checked(9999, Some(123), fence);
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
        // Headroom for the fullest set, as in the batch test above.
        let e = negative_engine(1_000, 1024, 4);
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
        let fence = match e.probe(12_345) {
            Err(f) => f,
            Ok(_) => panic!("absent key cannot hit before fill"),
        };
        e.invalidate(same_set(&e, 12_345)); // bumps the set's fence
        e.fill_checked(12_345, None, fence);
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
        assert_eq!(e.hits() + e.misses(), 0, "ordered queries never touch the sets");
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
        // cannot re-miss through eviction: ten times the 400 probe keys,
        // because a set overflows once more than six of them hash to it.
        let e = CachedEngine::with_negative(sharded, 4096, 4, true).unwrap();
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
        for k in 0..50u64 {
            e.get(k * 2);
        }
        // The whole preallocated table is charged, occupied or not, at no
        // more than 24 bytes per entry.
        let set = std::mem::size_of::<Set>();
        assert_eq!(e.size_bytes(), e.inner().size_bytes() + e.sets.len() * set);
        assert!(set / WAYS <= 24, "{set} B per set");
        e.reset_stats();
        assert_eq!(e.hits() + e.misses(), 0);
    }
}
