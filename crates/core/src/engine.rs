//! The serving-facing query API: one facade over both index worlds.
//!
//! The benchmark's two interfaces are deliberately minimal — the read-only
//! [`Index`] maps keys to [`SearchBound`]s over an external [`SortedData`],
//! and [`DynamicOrderedIndex`] owns its entries — which left every harness
//! and example re-implementing the last-mile search and payload gather. A
//! serving layer needs one ordered-map surface instead. [`QueryEngine`]
//! provides it: payload-returning point lookups, ordered lower-bound and
//! range queries, and a **batched** lookup entry point.
//!
//! Batching matters for the same reason the paper's cold-cache and
//! multithreaded figures do: a single lookup spends most of its time stalled
//! on cache misses, so executing a group of independent lookups in stages —
//! model inference for all, then last-mile search for all, with software
//! prefetches issued for the next lookup's bound window — overlaps those
//! stalls instead of serializing them. [`StaticEngine`] implements exactly
//! that; adapters that cannot prefetch simply inherit the default loop.
//!
//! Two adapters ship here:
//!
//! * [`StaticEngine`] — any [`Index`] plus its [`SortedData`], folding in
//!   the last-mile [`SearchStrategy`] so callers never see positions.
//! * [`DynamicEngine`] — any [`DynamicOrderedIndex`], which already speaks
//!   payloads natively.

use crate::bound::SearchBound;
use crate::data::SortedData;
use crate::dynamic::DynamicOrderedIndex;
use crate::error::BuildError;
use crate::index::Index;
use crate::key::Key;
use crate::search::SearchStrategy;
use crate::store::PagedData;
use std::sync::Arc;

/// Issue a best-effort prefetch of the cache line holding `ptr`.
///
/// A hint only: correctness never depends on it, and on architectures
/// without a stable prefetch intrinsic it compiles to nothing.
#[inline(always)]
fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(ptr as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// A unified, payload-returning ordered map over keys — the interface a
/// serving layer builds on, implemented by adapters over both the static
/// ([`Index`] + [`SortedData`]) and dynamic ([`DynamicOrderedIndex`])
/// worlds.
///
/// # Duplicate keys
///
/// The static world allows duplicate keys (the `wiki` dataset has them);
/// [`QueryEngine::get`] therefore returns the **sum of payloads of all
/// records equal to the key** — the same aggregate the paper's harness
/// checksums — which coincides with the single stored payload when keys are
/// unique (always true in the dynamic world).
///
/// # Deleted keys
///
/// Compositors with a write path may *tombstone* deletions (the
/// write-behind tier does: a removed key's records stay physically present
/// in the immutable tiers until a merge folds the tombstone onto them).
/// The read contract is in terms of **visible** entries only: a tombstoned
/// key answers `None` from [`QueryEngine::get`], is skipped by
/// [`QueryEngine::lower_bound`], appears in no [`QueryEngine::range`]
/// output, and counts zero toward [`QueryEngine::len`] — physically
/// retained shadowed records are an implementation detail no reader can
/// observe.
///
/// # Threading
///
/// Engines are `Send + Sync`: every method takes `&self`, so a serving
/// layer (or the multithreaded throughput harness) shares one engine across
/// worker threads instead of cloning per-thread state. Write paths on
/// dynamic structures stay behind `&mut` accessors outside this trait.
///
/// ```
/// use sosd_core::testutil::VecMap;
/// use sosd_core::{DynamicEngine, DynamicOrderedIndex, QueryEngine};
///
/// let mut m = VecMap::new();
/// for k in [10u64, 20, 30] {
///     m.insert(k, k * 7);
/// }
/// let engine: Box<dyn QueryEngine<u64>> = Box::new(DynamicEngine::new(m));
/// assert_eq!(engine.get(20), Some(140));
/// assert_eq!(engine.lower_bound(21), Some((30, 210)));
/// assert_eq!(engine.range(10, 30), vec![(10, 70), (20, 140)]);
/// assert_eq!(engine.lookup_batch(&[10, 11]), vec![Some(70), None]);
/// ```
pub trait QueryEngine<K: Key>: Send + Sync {
    /// Engine description for result tables (e.g. `"RMI+binary"`).
    fn name(&self) -> String;

    /// Number of stored records.
    fn len(&self) -> usize;

    /// True when no records are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-memory footprint of the index structure in bytes. For static
    /// engines this excludes the data array (matching
    /// [`Index::size_bytes`]); dynamic structures own their data and count
    /// it (matching [`DynamicOrderedIndex::size_bytes`]).
    fn size_bytes(&self) -> usize;

    /// Sum of payloads of all records equal to `key`, or `None` when the
    /// key is absent.
    fn get(&self, key: K) -> Option<u64>;

    /// The smallest stored entry with key `>= key`, or `None` when every
    /// stored key is smaller.
    fn lower_bound(&self, key: K) -> Option<(K, u64)>;

    /// All entries with `lo <= key < hi`, in key order (duplicates
    /// included).
    fn range(&self, lo: K, hi: K) -> Vec<(K, u64)>;

    /// Sum of payloads over `lo <= key < hi` without materializing the
    /// entries. Adapters override this with an allocation-free path.
    fn range_sum(&self, lo: K, hi: K) -> u64 {
        self.range(lo, hi).iter().fold(0u64, |acc, e| acc.wrapping_add(e.1))
    }

    /// Execute a batch of point lookups, appending one result per key to
    /// `out` (same contract as [`QueryEngine::get`], preserving order).
    ///
    /// The default implementation loops over [`QueryEngine::get`]; adapters
    /// may override it with interleaved/prefetching execution that amortizes
    /// cache-miss stalls across the batch. Overrides must stay observably
    /// identical to the loop.
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        out.reserve(keys.len());
        for &key in keys {
            out.push(self.get(key));
        }
    }

    /// Convenience wrapper over [`QueryEngine::get_batch`] returning a
    /// fresh vector.
    fn lookup_batch(&self, keys: &[K]) -> Vec<Option<u64>> {
        let mut out = Vec::with_capacity(keys.len());
        self.get_batch(keys, &mut out);
        out
    }

    /// Execute a batch of point lookups, parallelizing across threads when
    /// the engine can and the batch is large enough to amortize dispatch
    /// (same contract as [`QueryEngine::get_batch`], preserving order).
    ///
    /// The default implementation is the serial [`QueryEngine::get_batch`];
    /// engines with internal parallelism (a sharded layout) override it, so
    /// compositors above — snapshots included — can fan a batch out through
    /// a type-erased inner engine without knowing its concrete shape.
    fn par_get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        self.get_batch(keys, out)
    }
}

impl<K: Key, E: QueryEngine<K> + ?Sized> QueryEngine<K> for Box<E> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn get(&self, key: K) -> Option<u64> {
        (**self).get(key)
    }
    fn lower_bound(&self, key: K) -> Option<(K, u64)> {
        (**self).lower_bound(key)
    }
    fn range(&self, lo: K, hi: K) -> Vec<(K, u64)> {
        (**self).range(lo, hi)
    }
    fn range_sum(&self, lo: K, hi: K) -> u64 {
        (**self).range_sum(lo, hi)
    }
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        (**self).get_batch(keys, out)
    }
    fn lookup_batch(&self, keys: &[K]) -> Vec<Option<u64>> {
        (**self).lookup_batch(keys)
    }
    fn par_get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        (**self).par_get_batch(keys, out)
    }
}

/// Lookups interleaved per batch chunk: bounds for the whole chunk are
/// computed (and their windows prefetched) before any last-mile search
/// runs, so one lookup's model inference overlaps another's memory stalls.
/// Eight keeps the in-flight prefetches within typical L1 miss queues.
const BATCH_CHUNK: usize = 8;

/// [`QueryEngine`] adapter for the static world: any [`Index`] over a
/// shared [`SortedData`], with the last-mile search folded in.
///
/// The data array is held by `Arc` so many engines (one per index
/// configuration, as the registry builds them) share one copy.
///
/// ```
/// use sosd_core::testutil::MirrorIndex;
/// use sosd_core::{QueryEngine, SortedData, StaticEngine};
/// use std::sync::Arc;
///
/// // Duplicate keys are allowed in the static world: get() sums the group.
/// let data = Arc::new(SortedData::with_payloads(vec![1u64, 3, 3], vec![5, 6, 7]).unwrap());
/// let engine = StaticEngine::new(MirrorIndex::over(&data), Arc::clone(&data));
/// assert_eq!(engine.get(3), Some(13));
/// assert_eq!(engine.range_sum(0, u64::MAX), 18);
/// ```
pub struct StaticEngine<K: Key, I: Index<K>> {
    index: I,
    data: Arc<SortedData<K>>,
    strategy: SearchStrategy,
}

impl<K: Key, I: Index<K>> StaticEngine<K, I> {
    /// Wrap `index` (built over `data`) with binary last-mile search.
    pub fn new(index: I, data: Arc<SortedData<K>>) -> Self {
        Self::with_strategy(index, data, SearchStrategy::Binary)
    }

    /// Wrap with an explicit last-mile strategy.
    pub fn with_strategy(index: I, data: Arc<SortedData<K>>, strategy: SearchStrategy) -> Self {
        StaticEngine { index, data, strategy }
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The shared data array.
    pub fn data(&self) -> &Arc<SortedData<K>> {
        &self.data
    }

    /// The configured last-mile strategy.
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    /// Exact lower-bound position of `key` in the data array.
    #[inline]
    fn position(&self, key: K) -> usize {
        let bound = self.index.search_bound(key);
        self.strategy.find(self.data.keys(), key, bound)
    }

    /// Sum payloads of all records equal to `key` starting at `pos`
    /// (delegates to the shared [`SortedData::payload_sum_from`] contract).
    #[inline]
    fn payload_sum_from(&self, key: K, pos: usize) -> Option<u64> {
        self.data.payload_sum_from(key, pos)
    }
}

impl<K: Key, I: Index<K>> QueryEngine<K> for StaticEngine<K, I> {
    fn name(&self) -> String {
        format!("{}+{}", self.index.name(), self.strategy.label())
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn size_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    fn get(&self, key: K) -> Option<u64> {
        let pos = self.position(key);
        self.payload_sum_from(key, pos)
    }

    fn lower_bound(&self, key: K) -> Option<(K, u64)> {
        let pos = self.position(key);
        (pos < self.data.len()).then(|| (self.data.key(pos), self.data.payload(pos)))
    }

    fn range(&self, lo: K, hi: K) -> Vec<(K, u64)> {
        if hi <= lo {
            return Vec::new();
        }
        let start = self.position(lo);
        let end = self.position(hi);
        let keys = self.data.keys();
        let payloads = self.data.payloads();
        (start..end).map(|i| (keys[i], payloads[i])).collect()
    }

    fn range_sum(&self, lo: K, hi: K) -> u64 {
        if hi <= lo {
            return 0;
        }
        let start = self.position(lo);
        let end = self.position(hi);
        self.data.payloads()[start..end].iter().fold(0u64, |acc, &p| acc.wrapping_add(p))
    }

    /// Interleaved batched lookup: per chunk, run model inference for every
    /// key and prefetch each bound's probe window, then run the last-mile
    /// searches against lines already in flight.
    fn get_batch(&self, lookup_keys: &[K], out: &mut Vec<Option<u64>>) {
        let keys = self.data.keys();
        out.reserve(lookup_keys.len());
        let mut bounds = [SearchBound { lo: 0, hi: 0 }; BATCH_CHUNK];
        for chunk in lookup_keys.chunks(BATCH_CHUNK) {
            // Phase 1: inference + prefetch. The binary search's first probe
            // is the window midpoint; linear-ish finishes start at `lo`.
            for (slot, &x) in bounds.iter_mut().zip(chunk) {
                let bound = self.index.search_bound(x);
                let lo = bound.lo.min(keys.len().saturating_sub(1));
                let mid = (bound.lo + bound.len() / 2).min(keys.len().saturating_sub(1));
                unsafe {
                    prefetch_read(keys.as_ptr().add(mid));
                    prefetch_read(keys.as_ptr().add(lo));
                }
                *slot = bound;
            }
            // Phase 2: last-mile + payload gather.
            for (&bound, &x) in bounds.iter().zip(chunk) {
                let pos = self.strategy.find(keys, x, bound);
                out.push(self.payload_sum_from(x, pos));
            }
        }
    }
}

/// [`QueryEngine`] adapter for the storage world: an in-RAM index model
/// over a [`PagedData`] snapshot. The last-mile search window is
/// **page-granular** — a lookup fetches only the key pages its error bound
/// names (one contiguous batched read, every page checksum-validated),
/// searches the window in memory, then fetches the payload page(s) of the
/// duplicate group. Nothing else of the data array is resident.
///
/// This is the AirIndex-shaped division of labor: the model lives in RAM
/// (it is small), the base lives on storage, and the storage profile's
/// latency × the model's error bound decide the lookup cost.
///
/// # Corruption
///
/// Page validation failures on the serving path **panic** with the
/// checksum diagnosis rather than returning wrong answers — the read
/// contract is "right answer or loud failure", never garbage. Use
/// [`PagedData`]'s fallible accessors directly where an error value is
/// needed.
pub struct PagedEngine<K: Key> {
    index: Box<dyn Index<K>>,
    paged: Arc<PagedData<K>>,
    strategy: SearchStrategy,
}

impl<K: Key> PagedEngine<K> {
    /// Wrap an already-built index model over an open snapshot.
    pub fn new(index: Box<dyn Index<K>>, paged: Arc<PagedData<K>>) -> Self {
        Self::with_strategy(index, paged, SearchStrategy::Binary)
    }

    /// Wrap with an explicit last-mile strategy.
    pub fn with_strategy(
        index: Box<dyn Index<K>>,
        paged: Arc<PagedData<K>>,
        strategy: SearchStrategy,
    ) -> Self {
        PagedEngine { index, paged, strategy }
    }

    /// Cold-start an engine from an open snapshot: stream the key section
    /// once (validated, bandwidth-bound — this is the measured cold-start
    /// cost), hand the keys to `build` to reconstruct the in-RAM model,
    /// then drop them so serving reads stay page-granular.
    pub fn open_with<F>(
        paged: Arc<PagedData<K>>,
        strategy: SearchStrategy,
        build: F,
    ) -> Result<Self, BuildError>
    where
        F: FnOnce(&SortedData<K>) -> Result<Box<dyn Index<K>>, BuildError>,
    {
        let keys = paged
            .read_keys(0, paged.len())
            .map_err(|e| BuildError::Unbuildable(format!("snapshot key stream failed: {e}")))?;
        let n = keys.len();
        // Index builders map keys to positions; payload values are
        // irrelevant to the model, so the transient build copy uses zeros
        // instead of re-reading the payload section.
        let model_data = SortedData::with_payloads(keys, vec![0u64; n])?;
        let index = build(&model_data)?;
        Ok(PagedEngine { index, paged, strategy })
    }

    /// The open snapshot this engine serves from.
    pub fn paged(&self) -> &Arc<PagedData<K>> {
        &self.paged
    }

    /// The wrapped index model.
    pub fn index(&self) -> &dyn Index<K> {
        &*self.index
    }

    fn clamped_bound(&self, key: K) -> SearchBound {
        let n = self.paged.len();
        let b = self.index.search_bound(key);
        SearchBound { lo: b.lo.min(n), hi: b.hi.min(n) }
    }

    /// Exact lower-bound position of `key`: fetch the bound's key pages,
    /// search the window in memory.
    fn position(&self, key: K) -> usize {
        let bound = self.clamped_bound(key);
        if bound.is_empty() {
            return bound.hi;
        }
        let window = self
            .paged
            .read_keys(bound.lo, bound.hi)
            .unwrap_or_else(|e| panic!("paged last-mile read failed: {e}"));
        bound.lo + self.strategy.find(&window, key, SearchBound::full(window.len()))
    }

    /// Extent `[pos, end)` of the duplicate group of `key` at `pos`, or
    /// `None` when `key` is not stored at `pos`. Reads keys in small chunks
    /// starting at `pos` (the common case resolves in one).
    fn group_end(&self, key: K, pos: usize) -> Option<usize> {
        const GROUP_CHUNK: usize = 32;
        let n = self.paged.len();
        if pos >= n {
            return None;
        }
        let mut end = pos;
        loop {
            let hi = (end + GROUP_CHUNK).min(n);
            let keys = self
                .paged
                .read_keys(end, hi)
                .unwrap_or_else(|e| panic!("paged duplicate-group read failed: {e}"));
            if end == pos && keys.first() != Some(&key) {
                return None;
            }
            let run = keys.iter().take_while(|&&k| k == key).count();
            end += run;
            if run < keys.len() || end == n {
                return Some(end);
            }
        }
    }

    fn sum_payloads(&self, lo: usize, hi: usize) -> u64 {
        self.paged
            .read_payloads(lo, hi)
            .unwrap_or_else(|e| panic!("paged payload read failed: {e}"))
            .iter()
            .fold(0u64, |acc, &p| acc.wrapping_add(p))
    }
}

impl<K: Key> QueryEngine<K> for PagedEngine<K> {
    fn name(&self) -> String {
        format!("{}+{}+paged", self.index.name(), self.strategy.label())
    }

    fn len(&self) -> usize {
        self.paged.len()
    }

    /// The in-RAM footprint: the model only — the data array lives on the
    /// block store and is counted by [`PagedData::snapshot_bytes`].
    fn size_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    fn get(&self, key: K) -> Option<u64> {
        let pos = self.position(key);
        let end = self.group_end(key, pos)?;
        Some(self.sum_payloads(pos, end))
    }

    fn lower_bound(&self, key: K) -> Option<(K, u64)> {
        let pos = self.position(key);
        if pos >= self.paged.len() {
            return None;
        }
        let k =
            self.paged.read_keys(pos, pos + 1).unwrap_or_else(|e| panic!("paged read failed: {e}"))
                [0];
        let p = self
            .paged
            .read_payloads(pos, pos + 1)
            .unwrap_or_else(|e| panic!("paged read failed: {e}"))[0];
        Some((k, p))
    }

    fn range(&self, lo: K, hi: K) -> Vec<(K, u64)> {
        if hi <= lo {
            return Vec::new();
        }
        let start = self.position(lo);
        let end = self.position(hi);
        let keys = self
            .paged
            .read_keys(start, end)
            .unwrap_or_else(|e| panic!("paged range read failed: {e}"));
        let payloads = self
            .paged
            .read_payloads(start, end)
            .unwrap_or_else(|e| panic!("paged range read failed: {e}"));
        keys.into_iter().zip(payloads).collect()
    }

    fn range_sum(&self, lo: K, hi: K) -> u64 {
        if hi <= lo {
            return 0;
        }
        let start = self.position(lo);
        let end = self.position(hi);
        self.sum_payloads(start, end)
    }

    /// Batched paged lookups: run model inference for every key of the
    /// wave, fetch the union of all windows' key pages in **one**
    /// deduplicated `fetch_pages` call, resolve every last-mile search
    /// against that slab, then fetch the union of payload pages in a
    /// second batched read — two storage round trips per wave, not per
    /// key or per chunk. Wave size is the caller's batch; the serving
    /// front end already bounds it. Keys whose duplicate group escapes
    /// the fetched slab (rare) fall back to the single-lookup path.
    fn get_batch(&self, lookup_keys: &[K], out: &mut Vec<Option<u64>>) {
        let n = self.paged.len();
        out.reserve(lookup_keys.len());
        let mut pages: Vec<usize> = Vec::new();
        let mut bounds: Vec<SearchBound> = Vec::with_capacity(lookup_keys.len());
        // Phase 1: inference; collect every window's key pages (plus
        // the page of the position just past each window, so group
        // verification at `hi` resolves in-slab).
        for &x in lookup_keys {
            let b = self.clamped_bound(x);
            self.paged.key_window_pages(b.lo, (b.hi + 1).min(n), &mut pages);
            bounds.push(b);
        }
        pages.sort_unstable();
        pages.dedup();
        let slab = self
            .paged
            .fetch_pages(std::mem::take(&mut pages))
            .unwrap_or_else(|e| panic!("paged batch read failed: {e}"));
        // Phase 2: last-mile search per key against the shared slab;
        // record each hit's duplicate-group extent.
        let mut groups: Vec<Option<(usize, usize)>> = Vec::with_capacity(lookup_keys.len());
        let mut payload_pages: Vec<usize> = Vec::new();
        for (&x, &b) in lookup_keys.iter().zip(&bounds) {
            let mut window: Vec<K> = Vec::with_capacity(b.len());
            for i in b.lo..b.hi {
                window.push(self.paged.key_in(&slab, i).expect("window page in slab"));
            }
            let pos = b.lo + self.strategy.find(&window, x, SearchBound::full(window.len()));
            // Walk the duplicate group while it stays inside the slab.
            let mut end = pos;
            let mut resolved = true;
            loop {
                if end >= n {
                    break;
                }
                match self.paged.key_in(&slab, end) {
                    Some(k) if k == x => end += 1,
                    Some(_) => break,
                    None => {
                        resolved = false;
                        break;
                    }
                }
            }
            if !resolved {
                groups.push(None); // fall back below
            } else if end == pos {
                groups.push(Some((pos, pos))); // absent
            } else {
                // Rank-derived snapshots have no payload pages to fetch.
                payload_pages.extend(self.paged.payload_page_of(pos));
                payload_pages.extend(self.paged.payload_page_of(end - 1));
                groups.push(Some((pos, end)));
            }
        }
        // Phase 3: one batched payload fetch for every hit.
        payload_pages.sort_unstable();
        payload_pages.dedup();
        // Fill page gaps inside multi-page groups so every group
        // position resolves (groups are nearly always single-page).
        let payload_slab = self
            .paged
            .fetch_pages(payload_pages)
            .unwrap_or_else(|e| panic!("paged batch payload read failed: {e}"));
        for (&x, group) in lookup_keys.iter().zip(&groups) {
            out.push(match group {
                None => self.get(x),
                Some((pos, end)) if pos == end => None,
                Some((pos, end)) => {
                    let mut sum = 0u64;
                    let mut in_slab = true;
                    for i in *pos..*end {
                        match self.paged.payload_in(&payload_slab, i) {
                            Some(p) => sum = sum.wrapping_add(p),
                            None => {
                                in_slab = false;
                                break;
                            }
                        }
                    }
                    if in_slab {
                        Some(sum)
                    } else {
                        // A wide group spanning unfetched interior
                        // pages: resolve it alone.
                        Some(self.sum_payloads(*pos, *end))
                    }
                }
            });
        }
    }
}

/// [`QueryEngine`] adapter for the dynamic world: any
/// [`DynamicOrderedIndex`] already maps keys to payloads, so the adapter
/// only bridges the range queries.
///
/// ```
/// use sosd_core::testutil::VecMap;
/// use sosd_core::{DynamicEngine, DynamicOrderedIndex, QueryEngine};
///
/// let mut engine = DynamicEngine::new(VecMap::new());
/// engine.inner_mut().insert(5u64, 50); // writes reach through inner_mut
/// assert_eq!(engine.get(5), Some(50));
/// assert_eq!(engine.range(0, 10), vec![(5, 50)]);
/// ```
pub struct DynamicEngine<K: Key, D: DynamicOrderedIndex<K>> {
    index: D,
    _marker: std::marker::PhantomData<K>,
}

impl<K: Key, D: DynamicOrderedIndex<K>> DynamicEngine<K, D> {
    /// Wrap a dynamic index.
    pub fn new(index: D) -> Self {
        DynamicEngine { index, _marker: std::marker::PhantomData }
    }

    /// The wrapped index, for reads beyond the facade.
    pub fn inner(&self) -> &D {
        &self.index
    }

    /// Mutable access for the write path ([`DynamicOrderedIndex::insert`] /
    /// [`DynamicOrderedIndex::remove`]); the facade itself is read-only.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.index
    }
}

impl<K: Key, D: DynamicOrderedIndex<K>> QueryEngine<K> for DynamicEngine<K, D> {
    fn name(&self) -> String {
        self.index.name().to_string()
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn size_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    fn get(&self, key: K) -> Option<u64> {
        self.index.get(key)
    }

    fn lower_bound(&self, key: K) -> Option<(K, u64)> {
        self.index.lower_bound_entry(key)
    }

    /// Delegates to [`DynamicOrderedIndex::for_each_in`]: structures with a
    /// successor-walk override (the B+Tree's chained leaves) serve a scan
    /// with one descent plus a sequential walk; structures without one fall
    /// back to the trait's `O(m log n)` lower-bound bridge.
    fn range(&self, lo: K, hi: K) -> Vec<(K, u64)> {
        let mut out = Vec::new();
        self.index.for_each_in(lo, hi, &mut |k, v| out.push((k, v)));
        out
    }

    fn range_sum(&self, lo: K, hi: K) -> u64 {
        self.index.range_sum(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Capabilities, IndexKind};

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

    fn static_engine() -> StaticEngine<u64, FullScan> {
        let data =
            SortedData::with_payloads(vec![1u64, 3, 3, 9, 12], vec![10, 20, 30, 40, 50]).unwrap();
        let n = data.len();
        StaticEngine::new(FullScan { n }, Arc::new(data))
    }

    #[test]
    fn static_get_sums_duplicates() {
        let e = static_engine();
        assert_eq!(e.get(1), Some(10));
        assert_eq!(e.get(3), Some(50), "duplicate payloads are summed");
        assert_eq!(e.get(2), None);
        assert_eq!(e.get(100), None);
    }

    #[test]
    fn static_lower_bound_and_range() {
        let e = static_engine();
        assert_eq!(e.lower_bound(0), Some((1, 10)));
        assert_eq!(e.lower_bound(4), Some((9, 40)));
        assert_eq!(e.lower_bound(13), None);
        assert_eq!(e.range(3, 12), vec![(3, 20), (3, 30), (9, 40)]);
        assert_eq!(e.range(12, 3), vec![]);
        assert_eq!(e.range_sum(3, 12), 90);
        assert_eq!(e.range_sum(0, u64::MAX), 150);
    }

    #[test]
    fn static_batch_matches_get() {
        let e = static_engine();
        let probes: Vec<u64> = (0..40).collect();
        let batched = e.lookup_batch(&probes);
        for (&x, got) in probes.iter().zip(&batched) {
            assert_eq!(*got, e.get(x), "probe {x}");
        }
    }

    #[test]
    fn batch_chunks_longer_than_input_are_safe() {
        let e = static_engine();
        // Shorter than one chunk, exactly one chunk, and a partial tail.
        for n in [1usize, BATCH_CHUNK, BATCH_CHUNK * 2 + 3] {
            let probes: Vec<u64> = (0..n as u64).collect();
            assert_eq!(e.lookup_batch(&probes).len(), n);
        }
    }

    #[test]
    fn engine_reports_metadata() {
        let e = static_engine();
        assert_eq!(e.len(), 5);
        assert!(!e.is_empty());
        assert_eq!(e.size_bytes(), 8);
        assert_eq!(e.name(), "FullScan+binary");
    }

    /// Minimal dynamic index for adapter tests.
    struct VecMap<K: Key> {
        entries: Vec<(K, u64)>,
    }

    impl<K: Key> DynamicOrderedIndex<K> for VecMap<K> {
        fn name(&self) -> &'static str {
            "VecMap"
        }
        fn len(&self) -> usize {
            self.entries.len()
        }
        fn size_bytes(&self) -> usize {
            self.entries.capacity() * 16
        }
        fn insert(&mut self, key: K, payload: u64) -> Option<u64> {
            match self.entries.binary_search_by_key(&key, |e| e.0) {
                Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, payload)),
                Err(i) => {
                    self.entries.insert(i, (key, payload));
                    None
                }
            }
        }
        fn remove(&mut self, key: K) -> Option<u64> {
            self.entries.binary_search_by_key(&key, |e| e.0).ok().map(|i| self.entries.remove(i).1)
        }
        fn get(&self, key: K) -> Option<u64> {
            self.entries.binary_search_by_key(&key, |e| e.0).ok().map(|i| self.entries[i].1)
        }
        fn lower_bound_entry(&self, key: K) -> Option<(K, u64)> {
            let i = self.entries.partition_point(|e| e.0 < key);
            self.entries.get(i).copied()
        }
        fn range_sum(&self, lo: K, hi: K) -> u64 {
            self.entries
                .iter()
                .filter(|e| e.0 >= lo && e.0 < hi)
                .fold(0u64, |acc, e| acc.wrapping_add(e.1))
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities { updates: true, ordered: true, kind: IndexKind::BinarySearch }
        }
    }

    fn dynamic_engine() -> DynamicEngine<u64, VecMap<u64>> {
        let mut m = VecMap { entries: Vec::new() };
        for k in [2u64, 5, 8, u64::MAX] {
            m.insert(k, k.wrapping_mul(10));
        }
        DynamicEngine::new(m)
    }

    #[test]
    fn dynamic_adapter_delegates() {
        let e = dynamic_engine();
        assert_eq!(e.name(), "VecMap");
        assert_eq!(e.len(), 4);
        assert_eq!(e.get(5), Some(50));
        assert_eq!(e.get(6), None);
        assert_eq!(e.lower_bound(6), Some((8, 80)));
        assert_eq!(e.range_sum(2, 9), 150);
    }

    #[test]
    fn dynamic_range_iterates_and_stops_at_max_key() {
        let e = dynamic_engine();
        assert_eq!(e.range(3, 9), vec![(5, 50), (8, 80)]);
        // Range reaching the extreme key must terminate.
        let all = e.range(0, u64::MAX);
        assert_eq!(all, vec![(2, 20), (5, 50), (8, 80)], "hi is exclusive");
        let upper = e.lower_bound(u64::MAX);
        assert_eq!(upper, Some((u64::MAX, u64::MAX.wrapping_mul(10))));
    }

    /// An 8-bit key whose `from_u64` truncates instead of saturating — the
    /// overflow behavior `DynamicEngine::range`'s successor probe must not
    /// depend on. With a raw `from_u64(to_u64() + 1)` probe, stepping past
    /// the stored key 255 would wrap the probe back to 0 and re-scan the map
    /// from the start; `Key::successor` terminates instead.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
    struct Nib(u8);

    impl std::fmt::Display for Nib {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    impl Key for Nib {
        const BITS: u32 = 8;
        const MIN_KEY: Self = Nib(0);
        const MAX_KEY: Self = Nib(u8::MAX);

        fn to_u64(self) -> u64 {
            self.0 as u64
        }
        fn from_u64(v: u64) -> Self {
            Nib(v as u8) // deliberately truncating
        }
        fn to_f64(self) -> f64 {
            self.0 as f64
        }
        fn from_f64_clamped(v: f64) -> Self {
            Nib(if v.is_nan() || v <= 0.0 { 0 } else { (v as u64).min(u8::MAX as u64) as u8 })
        }
        fn saturating_sub_key(self, other: Self) -> Self {
            Nib(self.0.saturating_sub(other.0))
        }
    }

    #[test]
    fn dynamic_range_terminates_on_narrow_truncating_keys() {
        let mut m: VecMap<Nib> = VecMap { entries: Vec::new() };
        for k in [0u8, 7, 254, 255] {
            m.insert(Nib(k), k as u64 * 10);
        }
        let e = DynamicEngine::new(m);
        assert_eq!(Nib(255).successor(), None);
        // Spans reaching the width's extreme key must terminate and include
        // it exactly once when below `hi`.
        assert_eq!(
            e.range(Nib(0), Nib(255)),
            vec![(Nib(0), 0), (Nib(7), 70), (Nib(254), 2540)],
            "hi is exclusive"
        );
        assert_eq!(e.range(Nib(250), Nib::MAX_KEY), vec![(Nib(254), 2540)]);
        let lb = e.lower_bound(Nib(255));
        assert_eq!(lb, Some((Nib(255), 2550)));
    }

    #[test]
    fn dynamic_batch_default_loops() {
        let e = dynamic_engine();
        assert_eq!(e.lookup_batch(&[2, 3, 5]), vec![Some(20), None, Some(50)]);
    }

    #[test]
    fn write_path_reaches_through_inner_mut() {
        let mut e = dynamic_engine();
        e.inner_mut().insert(7, 70);
        assert_eq!(e.get(7), Some(70));
        assert_eq!(e.inner_mut().remove(2), Some(20));
        assert_eq!(e.get(2), None);
    }

    fn paged_engine_over(data: SortedData<u64>, page_size: usize) -> PagedEngine<u64> {
        use crate::store::{write_snapshot, MemStore, PagedData};
        let mut store = MemStore::new(page_size).unwrap();
        write_snapshot(&mut store, &data, &[]).unwrap();
        let paged = Arc::new(PagedData::<u64>::open(Arc::new(store)).unwrap());
        let n = data.len();
        PagedEngine::new(Box::new(FullScan { n }), paged)
    }

    #[test]
    fn paged_engine_matches_static_engine() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 2 + 10).collect();
        let data = SortedData::new(keys).unwrap();
        let n = data.len();
        let ram = StaticEngine::new(FullScan { n }, Arc::new(data.clone()));
        let paged = paged_engine_over(data, 128);
        assert_eq!(paged.len(), ram.len());
        let probes: Vec<u64> = (0..1200u64).collect();
        for &x in &probes {
            assert_eq!(paged.get(x), ram.get(x), "get({x})");
        }
        assert_eq!(paged.lookup_batch(&probes), ram.lookup_batch(&probes));
        assert_eq!(paged.lower_bound(0), ram.lower_bound(0));
        assert_eq!(paged.lower_bound(501), ram.lower_bound(501));
        assert_eq!(paged.lower_bound(u64::MAX), None);
        assert_eq!(paged.range(100, 140), ram.range(100, 140));
        assert_eq!(paged.range_sum(0, u64::MAX), ram.range_sum(0, u64::MAX));
    }

    #[test]
    fn paged_engine_sums_duplicate_groups_across_pages() {
        // 40 duplicates of one key: the group spans several 128-byte pages
        // (15 keys per page), exercising the chunked group walk and the
        // batched path's out-of-slab payload fallback.
        let mut keys = vec![1u64];
        keys.extend(std::iter::repeat_n(77u64, 40));
        keys.push(99);
        let data = SortedData::new(keys).unwrap();
        let expected: u64 = data
            .keys()
            .iter()
            .zip(data.payloads())
            .filter(|(k, _)| **k == 77)
            .fold(0u64, |acc, (_, p)| acc.wrapping_add(*p));
        let paged = paged_engine_over(data, 128);
        assert_eq!(paged.get(77), Some(expected));
        assert_eq!(paged.lookup_batch(&[77, 2, 99]), vec![Some(expected), None, paged.get(99)]);
    }

    #[test]
    fn paged_cold_open_rebuilds_model() {
        use crate::store::{write_snapshot, MemStore, PagedData};
        let data = SortedData::new((0..300u64).map(|i| i * 5).collect()).unwrap();
        let mut store = MemStore::new(256).unwrap();
        write_snapshot(&mut store, &data, &[]).unwrap();
        let paged = Arc::new(PagedData::<u64>::open(Arc::new(store)).unwrap());
        let engine = PagedEngine::open_with(paged, SearchStrategy::Binary, |model_data| {
            Ok(Box::new(FullScan { n: model_data.len() }))
        })
        .unwrap();
        for x in [0u64, 5, 7, 1495, 1500] {
            assert_eq!(engine.get(x), data.payload_sum_from(x, data.lower_bound(x)));
        }
    }

    #[test]
    fn boxed_engines_are_first_class() {
        let engines: Vec<Box<dyn QueryEngine<u64>>> =
            vec![Box::new(static_engine()), Box::new(dynamic_engine())];
        for e in &engines {
            assert!(!e.is_empty());
            assert!(e.lower_bound(0).is_some());
            let batch = e.lookup_batch(&[0, 2, 5]);
            assert_eq!(batch.len(), 3);
        }
    }
}
