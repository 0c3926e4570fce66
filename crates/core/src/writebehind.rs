//! Write-behind serving: an immutable base engine plus a bounded delta
//! buffer, merged in the background — with tombstoned deletes and an
//! optional LSM-style leveled run stack.
//!
//! The paper's updatable-index experiments show learned structures losing
//! to B-trees under writes because every insert disturbs the model;
//! LSM-style systems sidestep this by keeping learned indexes over
//! **immutable** sorted runs and absorbing writes in a small mutable tier.
//! [`WriteBehindEngine`] is that architecture as a [`QueryEngine`]:
//!
//! * **Writes** go to a mutable *delta* — any [`DynamicOrderedIndex`] —
//!   so the base index is never retrained on the write path. The delta
//!   stores *shadow entries* with `Option<u64>` payloads: an insert lands
//!   as `Some(payload)`, a [`WriteBehindEngine::remove`] lands as a
//!   **tombstone** (`None`) that hides every older record of its key.
//! * **Reads** merge delta-over-stack-over-base: point lookups stop at the
//!   newest shadow entry (a tombstone hit answers `None`), ordered queries
//!   stitch merges that drop tombstoned keys, and batched lookups partition
//!   keys so the base's interleaved-prefetch path still fires for the
//!   (usually large) non-shadowed majority. Everything below the delta is
//!   written once, as the read kernel on the immutable generation
//!   (`Generation::{get, get_batch, lower_bound, range}`); the live engine
//!   and a [`PinnedView`] both call it and differ only in where the
//!   delta's answer comes from, the lock they hold, and whether the
//!   kernel's run-stack tally is recorded.
//! * **Merges** follow the configured [`MergePolicy`]:
//!   * [`MergePolicy::Flat`] rebuilds the base from its [`SortedData`]
//!     plus the drained delta when the delta crosses a size threshold
//!     (tombstones delete their base records and are then dropped) —
//!     `O(n)` merged volume per cycle.
//!   * [`MergePolicy::Leveled`] freezes the threshold-crossing delta into
//!     an immutable sorted *run* — each run carries **its own engine**,
//!     built by the same base factory, so every frozen run is itself a
//!     learned index — stacked newest-first in levels. A level holding
//!     `fanout` runs is compacted into a single run one level down
//!     (bounded work: only that level's volume moves), and only when the
//!     *bottom* level overflows do its runs fold into the base — the one
//!     point where tombstones may be dropped, because nothing older can
//!     still hold their keys. Reads probe newest-to-oldest with per-run
//!     key-range pruning.
//!
//!   Either way the merge runs synchronously ([`MergeMode::Sync`]) or on a
//!   background thread ([`MergeMode::Background`]).
//!
//! # The epoch pointer
//!
//! Each merge step produces a new immutable *generation* — the base
//! (rebuilt data + engine) plus, under the leveled policy, the whole run
//! stack — held in an `Arc`. Readers snapshot the current generation with
//! one `Arc` clone and run against it lock-free; the merge builds the next
//! generation entirely outside any lock and publishes it with an O(1)
//! pointer swap. The pointer lives behind an `RwLock` (std has no atomic
//! `Arc` swap), but the write lock is held only for the O(1) pointer moves
//! of the cycle — the freeze handoff and each stack/base swap — never for
//! the drain, run build, or compaction, so readers can only ever block for
//! a pointer store, and a generation's memory is reclaimed when its last
//! in-flight reader drops its `Arc` (epoch-style reclamation by refcount).
//!
//! # Persistence (the snapshot spool)
//!
//! [`WriteBehindEngine::with_spool`] attaches a **snapshot spool**: a
//! directory into which every immutable tier is serialized as it is
//! created, in the checksummed page format of [`crate::store`]. The initial
//! base is written at construction; each frozen delta's run is written **at
//! freeze time** (tombstones ride in the snapshot's dead-key section);
//! every rebuilt base — flat merges and bottom-level folds — is written
//! before its swap, and because those folds drop tombstones first, a base
//! snapshot never carries a dead-key section. After each swap a versioned
//! manifest is committed (tmp-write + rename) pointing at exactly the
//! files of the live generation, and unreferenced snapshots are swept.
//! [`WriteBehindEngine::open_spool`] re-opens the whole stack cold:
//! checksum-verified loads, engines rebuilt by the base factory (models
//! are derived state), active delta empty — the durability boundary is
//! the freeze, so unmerged delta writes do not survive a restart.
//!
//! # Consistency
//!
//! A merge cycle touches the state lock O(1) times, O(1) each: the
//! *freeze* moves the whole active delta behind the frozen pointer (no
//! entry is copied under the lock; the drain into a sorted snapshot reads
//! the now-immutable frozen tier outside it) and installs a fresh active
//! delta; each *swap* installs a new generation — and the first one clears
//! the frozen pointer — in one critical section. A reader therefore always
//! observes one coherent tier assignment: old stack + frozen entries, or
//! new stack + empty frozen — never a window where drained entries are in
//! neither tier. Writes arriving mid-merge land in the fresh active delta
//! and survive every swap untouched. Compaction swaps never change the
//! *visible* mapping at all (they only fold already-shadowed records
//! away), so in-flight readers cannot observe a compaction.
//!
//! # Pinned snapshots and content hashes
//!
//! [`WriteBehindEngine::snapshot`] turns the epoch pointer into a
//! first-class handle: a [`PinnedView`] clones the current generation
//! `Arc` and copies the delta (active merged over frozen) once, so every
//! read through the handle — point, batch, ordered; the same generation
//! read kernel as the live engine, over the copied delta, with no lock and
//! nothing recorded — sees exactly the mapping that was visible at pin
//! time. Concurrent inserts, removes, merges, and compactions only ever
//! publish *newer* generations, which the pin never observes; the pinned
//! generation's memory is reclaimed by the same refcount rule as any
//! in-flight reader's, when its last holder drops
//! ([`WriteBehindEngine::active_pins`] counts outstanding pins).
//!
//! Every immutable tier also carries a deterministic **content hash** of
//! its logical entry stream ([`crate::store::content_hash_stream`]):
//! computed at freeze/rebuild time, stamped into the snapshot header and
//! the spool manifest (`hash <file> <hex>` lines), and re-derivable from
//! the persisted sections. Identical logical state hashes identically, so
//! [`WriteBehindEngine::verify_spool`] can audit a spool cold — catching
//! flipped bits, substituted files, and lying manifests — and
//! [`PinnedView::fingerprint`] folds the whole visible mapping into one
//! root hash for replica comparison and run dedupe.

use crate::advisor::{AccessMix, ObservabilityHub};
use crate::data::SortedData;
use crate::dynamic::DynamicOrderedIndex;
use crate::engine::QueryEngine;
use crate::error::BuildError;
use crate::filter::{BlockedBloom, FilterProbe, SNAPSHOT_KIND};
use crate::key::Key;
use crate::store::{
    content_hash_fold, content_hash_stream, snapshot_content_hash, write_snapshot_with_filter,
    FileStore, PagedData, StorageProfile, StoreError, CONTENT_HASH_SEED,
};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

/// Builds an immutable engine over a (rebuilt) data array — called once at
/// construction, once per base rebuild, and (under [`MergePolicy::Leveled`])
/// once per frozen run. Any [`QueryEngine`] works: a plain `StaticEngine`,
/// a `ShardedEngine`, or another compositor.
pub type BaseFactory<K> =
    Arc<dyn Fn(Arc<SortedData<K>>) -> Result<Box<dyn QueryEngine<K>>, BuildError> + Send + Sync>;

/// Creates an empty delta buffer — called at construction and every time
/// the active delta is frozen for a merge (twice each: the delta tier keeps
/// its live values and its tombstone set in two buffers of this family).
pub type DeltaFactory<K> = Arc<dyn Fn() -> Box<dyn DynamicOrderedIndex<K>> + Send + Sync>;

/// When the merge rebuild runs relative to the write that triggered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// The triggering write blocks until the new generation is installed —
    /// simple, deterministic, and the right choice for single-threaded
    /// harnesses and tests.
    Sync,
    /// The rebuild runs on a spawned thread; the triggering write returns
    /// immediately and readers keep serving from the old generation plus
    /// the frozen delta until the O(1) swap.
    Background,
}

/// How threshold-crossing deltas are folded into the immutable tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergePolicy {
    /// Every merge rebuilds the single flat base from scratch: one engine
    /// to probe on reads, `O(n)` merged volume per cycle.
    Flat,
    /// LSM-style leveled run stack: each merge freezes the delta into an
    /// immutable sorted run (with its own engine) at level 0; a level
    /// reaching `fanout` runs is compacted into one run at the next level;
    /// the bottom level (`max_levels - 1`) folds into the base instead.
    /// Bounded merge work per cycle, at the cost of read fan-out (up to
    /// `fanout * max_levels` run probes before the base answers — per-run
    /// Bloom filters claw most of that back on negative and cold keys).
    Leveled {
        /// Runs a level holds before compaction (>= 2).
        fanout: usize,
        /// Number of run levels above the base (>= 1).
        max_levels: usize,
    },
}

impl MergePolicy {
    /// The leveled policy of the given shape.
    pub const fn leveled(fanout: usize, max_levels: usize) -> MergePolicy {
        MergePolicy::Leveled { fanout, max_levels }
    }

    /// Validate the policy's parameters — the single definition of what a
    /// well-formed policy is, shared by [`WriteBehindEngine::with_policy`]
    /// and the bench registry's spec deserializer.
    pub fn validate(self) -> Result<(), BuildError> {
        if let MergePolicy::Leveled { fanout, max_levels } = self {
            if fanout < 2 {
                return Err(BuildError::InvalidConfig("leveled fanout must be >= 2".into()));
            }
            if max_levels == 0 {
                return Err(BuildError::InvalidConfig("leveled max_levels must be >= 1".into()));
            }
        }
        Ok(())
    }
}

/// One shadow entry: `Some(payload)` overwrites the key's older records,
/// `None` (a tombstone) hides them.
type Shadow<K> = (K, Option<u64>);

/// The mutable delta tier: live values and tombstones, kept in two buffers
/// of the configured delta family. Invariant: a key is present in at most
/// one of the two (writes move it between them under the state lock), so
/// ordered merges of the two buffers never see a key tie.
struct DeltaTier<K: Key> {
    values: Box<dyn DynamicOrderedIndex<K>>,
    /// Tombstoned keys; the stored payload is unused (always 0).
    tombs: Box<dyn DynamicOrderedIndex<K>>,
}

impl<K: Key> DeltaTier<K> {
    fn new(factory: &DeltaFactory<K>) -> Self {
        DeltaTier { values: factory(), tombs: factory() }
    }

    /// Shadow state of `key` in this tier, or `None` when the tier says
    /// nothing about it.
    fn state(&self, key: K) -> Option<Option<u64>> {
        if let Some(v) = self.values.get(key) {
            return Some(Some(v));
        }
        self.tombs.get(key).map(|_| None)
    }

    fn len(&self) -> usize {
        self.values.len() + self.tombs.len()
    }

    fn is_empty(&self) -> bool {
        self.values.is_empty() && self.tombs.is_empty()
    }

    fn size_bytes(&self) -> usize {
        self.values.size_bytes() + self.tombs.size_bytes()
    }

    /// Shadow entries in `[lo, hi)`, sorted by key (values and tombstones
    /// are key-disjoint, so this is a tie-free two-way merge).
    fn entries_in(&self, lo: K, hi: K) -> Vec<Shadow<K>> {
        let mut values = Vec::new();
        self.values.for_each_in(lo, hi, &mut |k, v| values.push((k, Some(v))));
        if self.tombs.is_empty() {
            return values;
        }
        let mut tombs = Vec::new();
        self.tombs.for_each_in(lo, hi, &mut |k, _| tombs.push((k, None)));
        merge_newer_over_older(&values, &tombs)
    }

    /// Every shadow entry, sorted — the merge drain. `for_each_in` is
    /// half-open, so the extreme key needs one explicit probe.
    fn drain_sorted(&self) -> Vec<Shadow<K>> {
        let mut out = self.entries_in(K::MIN_KEY, K::MAX_KEY);
        if let Some(v) = self.values.get(K::MAX_KEY) {
            out.push((K::MAX_KEY, Some(v)));
        } else if self.tombs.get(K::MAX_KEY).is_some() {
            out.push((K::MAX_KEY, None));
        }
        out
    }

    /// Smallest shadow entry with key `>= key`.
    fn lower_bound_entry(&self, key: K) -> Option<Shadow<K>> {
        let value = self.values.lower_bound_entry(key).map(|(k, v)| (k, Some(v)));
        let tomb = self.tombs.lower_bound_entry(key).map(|(k, _)| (k, None));
        min_entry(value, tomb)
    }
}

/// One immutable sorted run of shadow entries with its own engine (built by
/// the shared base factory — a learned index over the run's keys).
/// Tombstoned keys stay in the run's data (payload 0, ignored) so the
/// engine can route to them; `dead_keys` marks which they are.
struct Run<K: Key> {
    engine: Box<dyn QueryEngine<K>>,
    data: Arc<SortedData<K>>,
    /// Sorted keys of this run that are tombstones.
    dead_keys: Vec<K>,
    /// Membership filter over every key of the run, tombstones included
    /// (a probe must still find the tombstone so it can shadow older
    /// tiers). Consulted before any engine probe on point reads; may
    /// admit an absent key (one wasted probe) but never rejects a
    /// present one.
    filter: BlockedBloom,
    /// Cached key bounds (`data.min_key()`, `data.max_key()`): `prunes`
    /// runs once per run on every stack lookup, and reading the bounds
    /// off the run struct itself avoids two pointer chases into the key
    /// column.
    min_key: K,
    max_key: K,
    /// Snapshot file name inside the spool directory (`Some` exactly when
    /// the engine runs with a [`WriteBehindEngine::with_spool`] spool).
    file: Option<String>,
    /// Deterministic content hash of the run's logical shadow stream
    /// ([`content_hash_stream`] over its sorted entries, tombstones
    /// included) — computed once at build time, stamped into the run's
    /// snapshot header and spool manifest, and compared on cold re-open.
    /// Two runs frozen from identical logical state hash identically.
    content_hash: u64,
}

impl<K: Key> Run<K> {
    /// Build a run from sorted shadow entries (non-empty, unique keys);
    /// the filter and content hash are built in the same pass over the
    /// entry stream.
    fn build(entries: &[Shadow<K>], factory: &BaseFactory<K>) -> Result<Run<K>, BuildError> {
        let keys: Vec<K> = entries.iter().map(|e| e.0).collect();
        let payloads: Vec<u64> = entries.iter().map(|e| e.1.unwrap_or(0)).collect();
        let dead_keys: Vec<K> = entries.iter().filter(|e| e.1.is_none()).map(|e| e.0).collect();
        let filter = BlockedBloom::build(keys.iter().map(|k| k.to_u64()), keys.len());
        let content_hash = content_hash_stream(entries.iter().copied());
        let data = Arc::new(SortedData::with_payloads(keys, payloads).map_err(BuildError::Data)?);
        let engine = factory(Arc::clone(&data))?;
        let (min_key, max_key) = (data.min_key(), data.max_key());
        Ok(Run { engine, data, dead_keys, filter, min_key, max_key, file: None, content_hash })
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    /// Filter check: `false` proves the key is not in this run.
    #[inline]
    fn filter_admits(&self, key: K) -> bool {
        self.filter.may_contain(key.to_u64())
    }

    /// [`Run::filter_admits`] with the lookup key's hash work already
    /// done — stack read loops hash each key once, not once per run.
    #[inline]
    fn filter_admits_probe(&self, probe: &FilterProbe) -> bool {
        self.filter.may_contain_probe(probe)
    }

    #[inline]
    fn is_dead(&self, key: K) -> bool {
        self.dead_keys.binary_search(&key).is_ok()
    }

    /// Key-range prune: true when `key` cannot be in this run.
    #[inline]
    fn prunes(&self, key: K) -> bool {
        key < self.min_key || key > self.max_key
    }

    /// Shadow state of `key`, probed through the run's engine (the learned
    /// read path), or `None` when the run says nothing about it. The
    /// caller has already range-pruned and filter-checked the probe — the
    /// read loops do both explicitly so skipped probes can be counted.
    fn probe_unpruned(&self, key: K) -> Option<Option<u64>> {
        let v = self.engine.get(key)?;
        Some((!self.is_dead(key)).then_some(v))
    }

    /// Shadow state of `key`, probed directly against the run's data array
    /// (one binary search; the write path stays off every engine).
    fn probe_in_data(&self, key: K) -> Option<Option<u64>> {
        if self.prunes(key) {
            return None;
        }
        let pos = self.data.lower_bound(key);
        if pos >= self.data.len() || self.data.key(pos) != key {
            return None;
        }
        Some((!self.is_dead(key)).then(|| self.data.payload(pos)))
    }

    /// Smallest shadow entry with key `>= key` (tombstones included).
    fn lower_bound(&self, key: K) -> Option<Shadow<K>> {
        if key > self.data.max_key() {
            return None;
        }
        let (k, v) = self.engine.lower_bound(key)?;
        Some((k, (!self.is_dead(k)).then_some(v)))
    }

    /// Shadow entries in `[lo, hi)`, through the run's engine.
    fn entries_in(&self, lo: K, hi: K) -> Vec<Shadow<K>> {
        if hi <= self.data.min_key() || lo > self.data.max_key() {
            return Vec::new(); // whole window outside the run's key range
        }
        self.engine
            .range(lo, hi)
            .into_iter()
            .map(|(k, v)| (k, (!self.is_dead(k)).then_some(v)))
            .collect()
    }

    /// Every shadow entry, straight from the data array (merge input).
    fn all_entries(&self) -> Vec<Shadow<K>> {
        let keys = self.data.keys();
        let payloads = self.data.payloads();
        (0..keys.len())
            .map(|i| (keys[i], (!self.is_dead(keys[i])).then_some(payloads[i])))
            .collect()
    }

    fn size_bytes(&self) -> usize {
        self.engine.size_bytes()
            + self.data.data_size_bytes()
            + self.dead_keys.capacity() * std::mem::size_of::<K>()
    }
}

/// The base engine handle, shared across generations by `Arc`: a leveled
/// stack swap reuses the same base engine (only base folds rebuild it), so
/// the handle must be cloneable even though `Box<dyn QueryEngine>` is not.
type SharedBase<K> = Arc<Box<dyn QueryEngine<K>>>;

/// One immutable generation: the run stack (newest level first, newest run
/// first within a level; always empty under [`MergePolicy::Flat`]) over the
/// base engine and the data it was built from.
struct Generation<K: Key> {
    /// `levels[0]` holds the newest runs; within a level, index 0 is the
    /// newest run.
    levels: Vec<Vec<Arc<Run<K>>>>,
    /// Dense point-read index over the stack, newest first: each run's
    /// fence bounds and a clone of its filter, laid out contiguously so
    /// the hot read loop scans one flat array and touches a run's own
    /// allocation only after fence and filter both admit the probe.
    /// Derived from `levels` at construction; generations are immutable.
    probe_runs: Vec<ProbeEntry<K>>,
    base: SharedBase<K>,
    data: Arc<SortedData<K>>,
    /// Monotone generation counter (0 = the initial build).
    epoch: u64,
    /// Snapshot file name of the base inside the spool directory (`Some`
    /// exactly when a spool is attached). Shared by `Arc` because stack
    /// swaps reuse the base without rewriting its snapshot.
    base_file: Option<Arc<str>>,
    /// Content hash of the base's logical entry stream (every base entry
    /// is live — tombstones are folded away before a base rebuild).
    /// Computed once per base build and carried through stack swaps, like
    /// `base_file`.
    base_hash: u64,
}

/// One run's entry in [`Generation::probe_runs`].
struct ProbeEntry<K: Key> {
    min_key: K,
    max_key: K,
    filter: BlockedBloom,
    run: Arc<Run<K>>,
}

impl<K: Key> Generation<K> {
    /// Assemble a generation, deriving the dense probe index from the
    /// run stack.
    fn new(
        levels: Vec<Vec<Arc<Run<K>>>>,
        base: SharedBase<K>,
        data: Arc<SortedData<K>>,
        epoch: u64,
        base_file: Option<Arc<str>>,
        base_hash: u64,
    ) -> Generation<K> {
        let probe_runs = levels
            .iter()
            .flatten()
            .map(|run| ProbeEntry {
                min_key: run.min_key,
                max_key: run.max_key,
                filter: run.filter.clone(),
                run: Arc::clone(run),
            })
            .collect();
        Generation { levels, probe_runs, base, data, epoch, base_file, base_hash }
    }

    /// The next generation over the same base: a new run stack, the base
    /// engine, data, snapshot file and hash carried over by `Arc`.
    fn restacked(&self, levels: Vec<Vec<Arc<Run<K>>>>) -> Generation<K> {
        Generation::new(
            levels,
            Arc::clone(&self.base),
            Arc::clone(&self.data),
            self.epoch + 1,
            self.base_file.clone(),
            self.base_hash,
        )
    }

    /// Runs in shadowing order: newest first.
    fn runs_newest_first(&self) -> impl Iterator<Item = &Arc<Run<K>>> {
        self.levels.iter().flatten()
    }

    /// Total runs across all levels.
    fn run_count(&self) -> usize {
        self.probe_runs.len()
    }

    /// Newest shadow state of `key` in the run stack, or `None` when no
    /// run holds it: one newest-to-oldest walk that skips runs whose fence
    /// bounds prune the key or whose filter proves it absent, tallying the
    /// probes made and the filter skips. Forced inline, like
    /// [`Generation::get`]: each caller then compiles to what it was when
    /// it carried its own copy of this walk (with plain `#[inline]` the
    /// walk was outlined and `point-hot` measured 5% slower).
    #[inline(always)]
    fn run_state(&self, key: K, tally: &mut StackTally) -> Option<Option<u64>> {
        tally.lookups += 1;
        let fprobe = FilterProbe::new(key.to_u64());
        for entry in &self.probe_runs {
            if key < entry.min_key || key > entry.max_key {
                continue;
            }
            if !entry.filter.may_contain_probe(&fprobe) {
                tally.skips += 1;
                continue;
            }
            tally.probes += 1;
            if let Some(state) = entry.run.probe_unpruned(key) {
                return Some(state);
            }
        }
        None
    }

    /// Point lookup below the delta: the run stack (not consulted, and the
    /// key not hashed, when it is empty), then the base.
    #[inline(always)]
    fn get(&self, key: K, tally: &mut StackTally) -> Option<u64> {
        if !self.probe_runs.is_empty() {
            if let Some(state) = self.run_state(key, tally) {
                return state;
            }
        }
        self.base.get(key)
    }

    /// Batched lookup below the delta: `keys[i]` answers into
    /// `out[slots[i]]`. Run hits are resolved per key and compacted out of
    /// the batch in place; the remainder — the non-shadowed majority in a
    /// read-mostly workload — goes to the base in one batch, keeping its
    /// interleaved-prefetch override on the hot path (through its parallel
    /// path when `par`, so a sharded base fans out across cores).
    fn get_batch(
        &self,
        mut keys: Vec<K>,
        mut slots: Vec<usize>,
        out: &mut [Option<u64>],
        par: bool,
        tally: &mut StackTally,
    ) {
        if !self.probe_runs.is_empty() {
            let mut kept = 0;
            for i in 0..keys.len() {
                match self.run_state(keys[i], tally) {
                    Some(state) => out[slots[i]] = state,
                    None => {
                        (keys[kept], slots[kept]) = (keys[i], slots[i]);
                        kept += 1;
                    }
                }
            }
            keys.truncate(kept);
            slots.truncate(kept);
        }
        if keys.is_empty() {
            return;
        }
        let mut base_results = Vec::with_capacity(keys.len());
        if par {
            self.base.par_get_batch(&keys, &mut base_results);
        } else {
            self.base.get_batch(&keys, &mut base_results);
        }
        for (r, &slot) in base_results.iter().zip(&slots) {
            out[slot] = *r;
        }
    }

    /// Smallest visible entry `>= key`, with `delta(probe)` supplying the
    /// delta's smallest shadow entry `>= probe`. Candidates are gathered
    /// from every tier; on key ties the newest tier wins, and a winning
    /// tombstone advances the probe past its key (tombstones hide, they
    /// don't answer).
    fn lower_bound(&self, key: K, delta: impl Fn(K) -> Option<Shadow<K>>) -> Option<(K, u64)> {
        let mut probe = key;
        loop {
            let mut best = delta(probe);
            // Fold in run candidates newest-to-oldest, then the base; an
            // earlier (newer) candidate wins key ties, so `best` is always
            // the newest shadow state of the smallest candidate key.
            for entry in &self.probe_runs {
                best = min_entry(best, entry.run.lower_bound(probe));
            }
            best = min_entry(best, self.base.lower_bound(probe).map(|(k, v)| (k, Some(v))));
            match best {
                None => return None,
                Some((k, Some(v))) => return Some((k, v)),
                Some((k, None)) => match k.successor() {
                    Some(next) => probe = next,
                    None => return None,
                },
            }
        }
    }

    /// Visible entries in `[lo, hi)`: `shadows` (the delta's entries in
    /// the window) merged over each run's range, newest over older, then
    /// overlaid on the base range — a shadow value replaces the whole base
    /// duplicate group of its key, and a tombstone drops it.
    fn range(&self, mut shadows: Vec<Shadow<K>>, lo: K, hi: K) -> Vec<(K, u64)> {
        for run in self.runs_newest_first() {
            shadows = merge_newer_over_older(&shadows, &run.entries_in(lo, hi));
        }
        overlay_shadows(shadows, self.base.range(lo, hi))
    }
}

/// Run-stack work done by the point lookups of one read call, handed back
/// by the [`Generation`] read kernel: the live engine folds it into its
/// read-amp counters, a [`PinnedView`] drops it.
#[derive(Default)]
struct StackTally {
    /// Keys that consulted a non-empty run stack.
    lookups: u64,
    /// Run engine probes made, after fence pruning and filter checks.
    probes: u64,
    /// Run probes skipped because the run's filter proved the key absent.
    skips: u64,
}

/// Partition a batch by the delta: `out` grows by `keys.len()`, keys the
/// delta answers (values *and* tombstones) are written in place, and the
/// rest are returned with their slots in `out` for
/// [`Generation::get_batch`].
fn split_by_delta<K: Key>(
    keys: &[K],
    out: &mut Vec<Option<u64>>,
    delta: impl Fn(K) -> Option<Option<u64>>,
) -> (Vec<K>, Vec<usize>) {
    let start = out.len();
    out.resize(start + keys.len(), None);
    let (mut pending, mut slots) = (Vec::new(), Vec::new());
    for (i, &k) in keys.iter().enumerate() {
        match delta(k) {
            Some(state) => out[start + i] = state,
            None => {
                pending.push(k);
                slots.push(start + i);
            }
        }
    }
    (pending, slots)
}

/// Everything a reader needs one coherent view of: the current generation
/// pointer, the mutable active delta, and the frozen (mid-merge) delta.
struct State<K: Key> {
    generation: Arc<Generation<K>>,
    active: DeltaTier<K>,
    /// A previous active delta, moved here wholesale (an O(1) pointer
    /// handoff) when its merge began and not yet folded into the stack.
    /// `None` except while a merge is in flight. Shared with the merge
    /// thread, which drains it outside the state lock.
    frozen: Option<Arc<DeltaTier<K>>>,
}

impl<K: Key> State<K> {
    /// Shadow state visible for `key` in the delta tiers (active wins over
    /// frozen), or `None` when only the immutable tiers can answer.
    fn delta_state(&self, key: K) -> Option<Option<u64>> {
        self.active.state(key).or_else(|| self.frozen.as_ref().and_then(|f| f.state(key)))
    }

    /// Delta shadow entries in `[lo, hi)`, active merged over frozen,
    /// sorted and unique.
    fn delta_entries(&self, lo: K, hi: K) -> Vec<Shadow<K>> {
        let active = self.active.entries_in(lo, hi);
        let Some(frozen) = &self.frozen else {
            return active;
        };
        merge_newer_over_older(&active, &frozen.entries_in(lo, hi))
    }

    /// Smallest delta shadow entry with key `>= key`; active wins frozen
    /// on ties (it is newer).
    fn delta_lower_bound(&self, key: K) -> Option<Shadow<K>> {
        let frozen = self.frozen.as_ref().and_then(|f| f.lower_bound_entry(key));
        min_entry(self.active.lower_bound_entry(key), frozen)
    }
}

/// The smaller-keyed of two candidate shadow entries; `newer` wins a key
/// tie.
fn min_entry<K: Key>(newer: Option<Shadow<K>>, older: Option<Shadow<K>>) -> Option<Shadow<K>> {
    match (newer, older) {
        (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
        (a, b) => a.or(b),
    }
}

/// Merge two sorted unique runs; on equal keys the `newer` entry wins.
fn merge_newer_over_older<K: Key, V: Copy>(newer: &[(K, V)], older: &[(K, V)]) -> Vec<(K, V)> {
    if newer.is_empty() {
        return older.to_vec();
    }
    let mut out = Vec::with_capacity(newer.len() + older.len());
    let mut i = 0;
    for &(k, v) in newer {
        while i < older.len() && older[i].0 < k {
            out.push(older[i]);
            i += 1;
        }
        if i < older.len() && older[i].0 == k {
            i += 1;
        }
        out.push((k, v));
    }
    out.extend_from_slice(&older[i..]);
    out
}

/// Fold whole runs, given newest first, into one sorted unique shadow
/// stream — the compaction input, and a cold re-open's visible count.
fn fold_runs<'a, K: Key>(runs: impl IntoIterator<Item = &'a Arc<Run<K>>>) -> Vec<Shadow<K>> {
    let mut merged = Vec::new();
    for run in runs {
        merged = merge_newer_over_older(&merged, &run.all_entries());
    }
    merged
}

/// Merge sorted unique shadow entries over `base` records: a value entry
/// replaces the *whole duplicate group* of its key (matching the engine's
/// overwrite semantics, where a shadowed key's payload replaces the base's
/// duplicate sum) and a tombstone deletes the group — this is the one
/// place tombstones are dropped, so it must only run when nothing older
/// than `base` can still hold their keys. Returns `None` when tombstones
/// deleted every record — an empty `SortedData` is not representable, so
/// callers must keep the tombstones shadowing instead.
fn merge_shadows_over_base<K: Key>(
    base: &SortedData<K>,
    shadows: &[Shadow<K>],
) -> Option<SortedData<K>> {
    let bk = base.keys();
    let bp = base.payloads();
    let mut keys = Vec::with_capacity(bk.len() + shadows.len());
    let mut payloads = Vec::with_capacity(bk.len() + shadows.len());
    let mut i = 0;
    for &(dk, dv) in shadows {
        while i < bk.len() && bk[i] < dk {
            keys.push(bk[i]);
            payloads.push(bp[i]);
            i += 1;
        }
        while i < bk.len() && bk[i] == dk {
            i += 1; // shadowed duplicate group
        }
        if let Some(v) = dv {
            keys.push(dk);
            payloads.push(v);
        }
        // A tombstone emits nothing: the key and its group are gone.
    }
    keys.extend_from_slice(&bk[i..]);
    payloads.extend_from_slice(&bp[i..]);
    if keys.is_empty() {
        return None;
    }
    Some(SortedData::with_payloads(keys, payloads).expect("shadow merge preserves order"))
}

/// Overlay sorted unique shadow entries on a sorted base range result: a
/// value replaces the whole duplicate group of its key and a tombstone
/// drops it — the in-memory mirror of [`merge_shadows_over_base`], shared
/// by the live engine's and a pinned view's `range`.
fn overlay_shadows<K: Key>(shadows: Vec<Shadow<K>>, base: Vec<(K, u64)>) -> Vec<(K, u64)> {
    if shadows.is_empty() {
        return base;
    }
    let mut out = Vec::with_capacity(base.len() + shadows.len());
    let mut i = 0;
    for (dk, dv) in shadows {
        while i < base.len() && base[i].0 < dk {
            out.push(base[i]);
            i += 1;
        }
        while i < base.len() && base[i].0 == dk {
            i += 1; // shadowed duplicate group
        }
        if let Some(v) = dv {
            out.push((dk, v));
        }
    }
    out.extend_from_slice(&base[i..]);
    out
}

/// The snapshot spool: a directory the engine persists its immutable tiers
/// into as they are created, so the whole stack can be re-opened cold (see
/// the module docs for the durability boundary).
struct Spool {
    dir: PathBuf,
    page_size: usize,
    /// Monotone id for snapshot file names (`base-<id>.snap`,
    /// `run-<id>.snap`); never reused, so a crashed merge can leave only
    /// unreferenced garbage, which the next manifest commit sweeps.
    next_id: AtomicU64,
}

/// First line of a spool manifest — the version gate for cold re-open.
const MANIFEST_HEADER: &str = "sosd-writebehind v1";
/// Manifest file name inside the spool directory.
const MANIFEST_FILE: &str = "manifest";

impl Spool {
    fn next_name(&self, prefix: &str) -> String {
        format!("{prefix}-{}.snap", self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Serialize `data` (+ tombstoned keys + optional run filter) into a
    /// fresh snapshot file.
    fn write_data<K: Key>(
        &self,
        name: &str,
        data: &SortedData<K>,
        dead: &[K],
        filter: Option<&BlockedBloom>,
    ) -> Result<(), StoreError> {
        let mut store = FileStore::create(&self.dir.join(name), self.page_size)?;
        let filter_bytes = filter.map(BlockedBloom::to_bytes);
        let filter_section = filter_bytes.as_deref().map(|bytes| (SNAPSHOT_KIND, bytes));
        write_snapshot_with_filter(&mut store, data, dead, filter_section)?;
        crate::store::BlockStore::flush(&mut store)
    }

    /// Persist on the merge path. A failed persist panics: the caller asked
    /// for durability, and silently continuing would hand a later cold
    /// re-open a manifest that lies about what survived.
    fn persist<K: Key>(
        &self,
        prefix: &str,
        data: &SortedData<K>,
        dead: &[K],
        filter: Option<&BlockedBloom>,
    ) -> String {
        let name = self.next_name(prefix);
        if let Err(e) = self.write_data(&name, data, dead, filter) {
            panic!("[writebehind] spool persist of {name} failed: {e}");
        }
        name
    }

    /// Durably point the manifest at `generation` (tmp-write + rename),
    /// then sweep snapshot files the manifest no longer references. Runs
    /// only after the generation swap, so a crash at any point leaves a
    /// manifest describing one complete, re-openable stack. Every
    /// referenced file also gets a `hash <file> <hex>` line carrying its
    /// content hash, so a cold open (and
    /// [`WriteBehindEngine::verify_spool`]) can pin each snapshot to the
    /// exact logical stream this commit referenced — a structurally valid
    /// but substituted file fails the manifest, not just the page
    /// checksums.
    fn commit<K: Key>(&self, generation: &Generation<K>) {
        let base_file =
            generation.base_file.as_deref().expect("spooled generation carries a base file");
        let mut live: Vec<&str> = vec![base_file];
        let mut manifest = format!(
            "{MANIFEST_HEADER}\npage_size {}\nepoch {}\nbase {base_file}\n",
            self.page_size, generation.epoch
        );
        for level in &generation.levels {
            manifest.push_str("level");
            for run in level {
                let file = run.file.as_deref().expect("spooled run carries a file");
                manifest.push(' ');
                manifest.push_str(file);
                live.push(file);
            }
            manifest.push('\n');
        }
        manifest.push_str(&format!("hash {base_file} {:016x}\n", generation.base_hash));
        for run in generation.runs_newest_first() {
            let file = run.file.as_deref().expect("spooled run carries a file");
            manifest.push_str(&format!("hash {file} {:016x}\n", run.content_hash));
        }
        let tmp = self.dir.join("manifest.tmp");
        let commit = fs::write(&tmp, &manifest)
            .and_then(|()| fs::rename(&tmp, self.dir.join(MANIFEST_FILE)));
        if let Err(e) = commit {
            panic!("[writebehind] spool manifest commit failed: {e}");
        }
        // Best-effort garbage sweep; leftovers are unreferenced and swept
        // again on the next commit.
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.ends_with(".snap") && !live.contains(&name) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// A parsed spool manifest — the single definition of the manifest
/// protocol, shared by [`WriteBehindEngine::open_spool`] (cold re-open)
/// and [`WriteBehindEngine::verify_spool`] (offline audit).
struct SpoolManifest {
    page_size: usize,
    epoch: u64,
    base: String,
    /// Referenced run files per level, newest level first.
    levels: Vec<Vec<String>>,
    /// Content hash per referenced file, from the manifest's `hash`
    /// lines. Empty for manifests written before hashes existed — absent
    /// hashes mean "unverifiable", never "invalid".
    hashes: HashMap<String, u64>,
}

impl SpoolManifest {
    /// Read and parse the manifest inside `dir`.
    fn read(dir: &Path) -> Result<SpoolManifest, BuildError> {
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path).map_err(|e| {
            BuildError::Unbuildable(format!("spool manifest {}: {e}", path.display()))
        })?;
        SpoolManifest::parse(&text)
    }

    /// Parse the manifest text: the version header, then one directive
    /// per line (`page_size`, `epoch`, `base`, `level`, `hash`). Unknown
    /// directives are rejected — a manifest from a future format version
    /// must fail loudly, not be half-read.
    fn parse(text: &str) -> Result<SpoolManifest, BuildError> {
        let bad = |detail: String| BuildError::Unbuildable(format!("spool manifest: {detail}"));
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(bad(format!("expected header `{MANIFEST_HEADER}`")));
        }
        let mut page_size = 0usize;
        let mut epoch = 0u64;
        let mut base: Option<String> = None;
        let mut levels: Vec<Vec<String>> = Vec::new();
        let mut hashes: HashMap<String, u64> = HashMap::new();
        for line in lines {
            let mut fields = line.split_whitespace();
            match fields.next() {
                Some("page_size") => {
                    page_size = fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad page_size line".into()))?;
                }
                Some("epoch") => {
                    epoch = fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("bad epoch line".into()))?;
                }
                Some("base") => {
                    base =
                        Some(fields.next().ok_or_else(|| bad("bad base line".into()))?.to_string());
                }
                Some("level") => levels.push(fields.map(String::from).collect()),
                Some("hash") => {
                    let file = fields.next().ok_or_else(|| bad("bad hash line".into()))?;
                    let value = fields
                        .next()
                        .and_then(|v| u64::from_str_radix(v, 16).ok())
                        .ok_or_else(|| bad(format!("bad hash value for {file}")))?;
                    hashes.insert(file.to_string(), value);
                }
                None => {}
                Some(other) => return Err(bad(format!("unknown directive `{other}`"))),
            }
        }
        let base = base.ok_or_else(|| bad("no base line".into()))?;
        Ok(SpoolManifest { page_size, epoch, base, levels, hashes })
    }

    /// Every referenced snapshot file: the base, then each level's runs,
    /// newest level first.
    fn files(&self) -> impl Iterator<Item = &String> {
        std::iter::once(&self.base).chain(self.levels.iter().flatten())
    }

    /// The manifest's content hash for `file`, compared against `actual`;
    /// an absent line passes (older manifests carry no hashes).
    fn check_hash(&self, file: &str, actual: u64) -> Result<(), BuildError> {
        match self.hashes.get(file) {
            Some(&expected) if expected != actual => Err(BuildError::Unbuildable(format!(
                "spool snapshot {file}: manifest content hash {expected:#018x} does not match \
                 the file's hash {actual:#018x}"
            ))),
            _ => Ok(()),
        }
    }
}

/// The pieces shared between the engine handle and a background merge
/// thread.
struct Shared<K: Key> {
    state: RwLock<State<K>>,
    base_factory: BaseFactory<K>,
    delta_factory: DeltaFactory<K>,
    merge_threshold: usize,
    policy: MergePolicy,
    /// True while one merge (freeze → build → swaps) is in flight; at
    /// most one runs at a time.
    merging: AtomicBool,
    merges: AtomicU64,
    failed_merges: AtomicU64,
    /// Compaction steps completed (level folds and base folds).
    compactions: AtomicU64,
    /// Point lookups (`get` / `get_batch` keys) that consulted a non-empty
    /// run stack — the denominator of probes-per-lookup.
    stack_lookups: AtomicU64,
    /// Run engine probes actually performed by those lookups (after range
    /// pruning and filters) — the read-amplification numerator.
    stack_probes: AtomicU64,
    /// Run probes skipped because the run's filter proved the key absent
    /// (range-pruned probes are not counted; they were never candidates).
    filter_skips: AtomicU64,
    /// Total entries written into new immutable structures by merges and
    /// compactions — the merge write volume; `merged_entries / merges` is
    /// the per-cycle merged volume the leveled policy bounds.
    merged_entries: AtomicU64,
    /// Point-read keys served (`get` plus every `get_batch` key) — the
    /// read side of the access mix the index advisor consumes.
    reads: AtomicU64,
    /// Inserts/overwrites absorbed by the delta.
    writes: AtomicU64,
    /// Removes (tombstone writes, including no-op removes of absent keys).
    removes: AtomicU64,
    /// The snapshot spool, when persistence was requested at construction.
    spool: Option<Spool>,
    /// Outstanding [`PinnedView`] handles. Purely observability: the pins
    /// themselves keep their generation alive through its `Arc` (the same
    /// refcount rule as any in-flight reader), and this counter lets
    /// harnesses assert that pins drain ([`WriteBehindEngine::active_pins`]).
    /// Shared by `Arc` so a pin outliving its engine can still decrement.
    pins: Arc<AtomicUsize>,
    /// Exact number of entries a full range scan returns right now: a
    /// shadow value over a base duplicate group collapses the whole group
    /// to one visible entry, and a tombstone hides its key entirely.
    /// Updated incrementally on insert/remove, under the state write lock.
    /// Every merge swap leaves it untouched — folding shadow entries down
    /// the stack neither hides nor exposes entries.
    visible_len: AtomicUsize,
}

/// What the immutable tiers below the active delta currently say about a
/// key — the information a write needs to return the previous visible
/// payload and keep `visible_len` exact.
enum DeeperState {
    /// Visible value in the frozen delta or a run (counted as one entry).
    Value(u64),
    /// Tombstoned in the frozen delta or a run.
    Tombstone,
    /// Present only in the base: the duplicate-group sum and group size.
    BaseGroup(u64, usize),
    /// Nowhere.
    Absent,
}

/// Clears the `merging` flag when the merge cycle ends — including by
/// panic (a panicking user factory must not permanently wedge merging; the
/// poisoned state lock will still surface the failure loudly).
struct MergeFlagGuard<'a>(&'a AtomicBool);

impl Drop for MergeFlagGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl<K: Key> Shared<K> {
    /// Shared access to the state. A poisoned lock (a thread panicked
    /// while holding it) panics here.
    fn read(&self) -> RwLockReadGuard<'_, State<K>> {
        self.state.read().expect("writebehind state lock")
    }

    /// Exclusive access to the state; panics on a poisoned lock like
    /// [`Shared::read`].
    fn write(&self) -> RwLockWriteGuard<'_, State<K>> {
        self.state.write().expect("writebehind state lock")
    }

    /// The current generation: one `Arc` clone under the read lock.
    fn current(&self) -> Arc<Generation<K>> {
        Arc::clone(&self.read().generation)
    }

    /// The O(1) swap: install `next` — and, when it absorbed the frozen
    /// tier, clear the frozen pointer in the same critical section, so no
    /// reader can observe the drained entries in neither tier — bump the
    /// swap's `counter`, then commit the spool manifest. The visible count
    /// is invariant across every swap: folding shadow entries down the
    /// stack neither hides nor exposes entries.
    fn publish(&self, next: Generation<K>, clear_frozen: bool, counter: &AtomicU64) {
        let next = Arc::new(next);
        {
            let mut st = self.write();
            st.generation = Arc::clone(&next);
            if clear_frozen {
                st.frozen = None;
            }
        }
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(spool) = &self.spool {
            spool.commit(&next);
        }
    }

    /// Build a run over sorted shadow entries, count its volume, and
    /// persist it: the run and its filter hit the spool (tombstones
    /// serialized in the dead-key section) before any reader can see a
    /// generation holding it — freeze time is the durability boundary.
    fn build_run(&self, entries: &[Shadow<K>]) -> Result<Arc<Run<K>>, BuildError> {
        let mut run = Run::build(entries, &self.base_factory)?;
        self.merged_entries.fetch_add(run.len() as u64, Ordering::Relaxed);
        if let Some(spool) = &self.spool {
            run.file = Some(spool.persist("run", &run.data, &run.dead_keys, Some(&run.filter)));
        }
        Ok(Arc::new(run))
    }

    /// Build the generation with a rebuilt base over `data` under `levels`,
    /// count its volume, and persist the base *before* any swap. Callers
    /// folded every tombstone into a deletion first, so a base snapshot
    /// never carries a dead-key section.
    fn build_base(
        &self,
        data: SortedData<K>,
        levels: Vec<Vec<Arc<Run<K>>>>,
        epoch: u64,
    ) -> Result<Generation<K>, BuildError> {
        let data = Arc::new(data);
        let base = (self.base_factory)(Arc::clone(&data))?;
        self.merged_entries.fetch_add(data.len() as u64, Ordering::Relaxed);
        let base_file =
            self.spool.as_ref().map(|s| Arc::from(s.persist("base", &data, &[], None).as_str()));
        let base_hash = snapshot_content_hash(&data, &[]);
        Ok(Generation::new(levels, Arc::new(base), data, epoch, base_file, base_hash))
    }

    /// A merge build failed: fold the snapshot back into the delta and
    /// count the failure; the next cycle retries.
    fn merge_failed(&self, snapshot: &[Shadow<K>], what: &str, e: BuildError) {
        self.rollback(snapshot);
        self.failed_merges.fetch_add(1, Ordering::Relaxed);
        eprintln!("[writebehind] {what} failed, delta retained: {e}");
    }

    /// What the tiers below the active delta say about `key`, probed
    /// without touching any engine (runs and base are probed directly in
    /// their data arrays — the write path stays search-cheap).
    fn deeper_state(&self, st: &State<K>, key: K) -> DeeperState {
        if let Some(frozen) = &st.frozen {
            match frozen.state(key) {
                Some(Some(v)) => return DeeperState::Value(v),
                Some(None) => return DeeperState::Tombstone,
                None => {}
            }
        }
        let fprobe = FilterProbe::new(key.to_u64());
        for run in st.generation.runs_newest_first() {
            if !run.filter_admits_probe(&fprobe) {
                continue; // filter-proven absent; skip the binary search
            }
            match run.probe_in_data(key) {
                Some(Some(v)) => return DeeperState::Value(v),
                Some(None) => return DeeperState::Tombstone,
                None => {}
            }
        }
        let data = &st.generation.data;
        let start = data.lower_bound(key);
        match data.payload_sum_from(key, start) {
            Some(sum) => {
                let group = data.keys()[start..].iter().take_while(|&&x| x == key).count();
                DeeperState::BaseGroup(sum, group)
            }
            None => DeeperState::Absent,
        }
    }

    /// The full merge cycle. Caller must have won the `merging` flag; it is
    /// cleared on every exit path (normal, empty-delta, failed, panicked).
    fn run_merge(&self) {
        let _flag = MergeFlagGuard(&self.merging);
        // Freeze: move the whole active delta behind the frozen pointer (an
        // O(1) handoff — no entry is copied under the lock) and start a
        // fresh active delta. Readers see the frozen entries through the
        // shared pointer for the whole rebuild.
        let (frozen, generation) = {
            let mut st = self.write();
            debug_assert!(st.frozen.is_none(), "merge started with a frozen tier in place");
            if st.active.is_empty() {
                return;
            }
            let full = std::mem::replace(&mut st.active, DeltaTier::new(&self.delta_factory));
            let frozen = Arc::new(full);
            st.frozen = Some(Arc::clone(&frozen));
            (frozen, Arc::clone(&st.generation))
        };

        // Drain outside every lock: readers keep serving old stack +
        // frozen, writers keep filling the new active delta.
        let snapshot = frozen.drain_sorted();
        match self.policy {
            MergePolicy::Flat => self.merge_flat(&generation, &snapshot),
            MergePolicy::Leveled { fanout, max_levels } => {
                self.merge_leveled(&generation, &snapshot, fanout, max_levels)
            }
        }
    }

    /// Flat policy: rebuild the whole base over base-data + snapshot.
    fn merge_flat(&self, generation: &Generation<K>, snapshot: &[Shadow<K>]) {
        let Some(merged) = merge_shadows_over_base(&generation.data, snapshot) else {
            // Every record was tombstoned away: an empty base is not
            // representable (`SortedData` is non-empty by invariant), so
            // the tombstones stay in the delta and keep shadowing the old
            // base. Correct, if slow, in the everything-deleted corner.
            self.rollback(snapshot);
            return;
        };
        match self.build_base(merged, Vec::new(), generation.epoch + 1) {
            Ok(next) => self.publish(next, true, &self.merges),
            Err(e) => self.merge_failed(snapshot, "merge rebuild", e),
        }
    }

    /// Leveled policy: freeze the snapshot into a level-0 run, then run
    /// bounded compactions while any level overflows.
    fn merge_leveled(
        &self,
        generation: &Generation<K>,
        snapshot: &[Shadow<K>],
        fanout: usize,
        max_levels: usize,
    ) {
        match self.build_run(snapshot) {
            Ok(run) => {
                let mut levels = generation.levels.clone();
                if levels.is_empty() {
                    levels.push(Vec::new());
                }
                levels[0].insert(0, run);
                self.publish(generation.restacked(levels), true, &self.merges);
                self.compact(fanout, max_levels);
            }
            Err(e) => self.merge_failed(snapshot, "run build", e),
        }
    }

    /// Fold overflowing levels down the stack until every level is within
    /// its fanout. Each step merges exactly one level's runs (newest wins)
    /// into one run at the next level — or, at the bottom, into the base,
    /// where tombstones are finally dropped. Runs are immutable and only
    /// the merge thread replaces generations, so each step builds outside
    /// the lock and publishes with one O(1) swap.
    fn compact(&self, fanout: usize, max_levels: usize) {
        loop {
            let generation = self.current();
            let Some(level) = generation.levels.iter().position(|l| l.len() >= fanout) else {
                return;
            };
            if !self.compact_level(&generation, level, max_levels) {
                return;
            }
        }
    }

    /// One compaction step: fold `level`'s runs (newest wins) into one run
    /// at the next level — or, at the bottom, into the base. Returns false
    /// when the build failed (the level is retained; retry next cycle).
    fn compact_level(&self, generation: &Generation<K>, level: usize, max_levels: usize) -> bool {
        let merged = fold_runs(&generation.levels[level]);
        let mut levels = generation.levels.clone();
        levels[level].clear();
        let bottom = level + 1 >= max_levels;
        // Bottom level: fold into the base. Nothing older than the base
        // exists, so tombstones delete their records and are dropped.
        let folded = if bottom { merge_shadows_over_base(&generation.data, &merged) } else { None };
        let built = match folded {
            Some(data) => self.build_base(data, levels, generation.epoch + 1),
            // Otherwise one run, tombstones preserved (older levels and the
            // base may still hold their keys): one level down, or — when
            // the bottom level tombstoned every base record away and an
            // empty base is not representable — back in the bottom level
            // as one all-shadowing run (its run count drops below the
            // fanout, so compaction still terminates).
            None => self.build_run(&merged).map(|run| {
                let target = if bottom { level } else { level + 1 };
                if levels.len() <= target {
                    levels.resize_with(target + 1, Vec::new);
                }
                levels[target].insert(0, run);
                generation.restacked(levels)
            }),
        };
        match built {
            Ok(next) => {
                self.publish(next, false, &self.compactions);
                true
            }
            Err(e) => {
                // Nothing was lost (the overflowing level is intact);
                // retry at the next merge cycle.
                self.failed_merges.fetch_add(1, Ordering::Relaxed);
                eprintln!("[writebehind] compaction build failed, level retained: {e}");
                false
            }
        }
    }

    /// Fold a drained snapshot back into the active delta (newer active
    /// entries win) so nothing is lost, and clear the frozen pointer. The
    /// visible count is invariant — the fold only restores shadow entries
    /// the frozen tier already applied.
    fn rollback(&self, snapshot: &[Shadow<K>]) {
        let mut st = self.write();
        for &(k, v) in snapshot {
            if st.active.state(k).is_none() {
                match v {
                    Some(payload) => {
                        st.active.values.insert(k, payload);
                    }
                    None => {
                        st.active.tombs.insert(k, 0);
                    }
                }
            }
        }
        st.frozen = None;
    }
}

/// A [`QueryEngine`] over an immutable base plus a bounded mutable delta,
/// with threshold-triggered merges — the write-behind serving tier, now
/// with tombstoned deletes and an optional leveled run stack.
///
/// Construction takes two factories: one that (re)builds an immutable
/// engine over a data array (the base, and each frozen run under
/// [`MergePolicy::Leveled`]), and one that creates empty delta buffers.
///
/// ```
/// use sosd_core::testutil::{MirrorIndex, VecMap};
/// use sosd_core::writebehind::{MergeMode, MergePolicy, WriteBehindEngine};
/// use sosd_core::{QueryEngine, SortedData, StaticEngine};
/// use std::sync::Arc;
///
/// let data = Arc::new(SortedData::with_payloads(vec![10u64, 20, 30], vec![1, 2, 3]).unwrap());
/// let engine = WriteBehindEngine::new(
///     data,
///     Arc::new(|d: Arc<SortedData<u64>>| {
///         Ok(Box::new(StaticEngine::new(MirrorIndex::over(&d), d)) as Box<dyn QueryEngine<u64>>)
///     }),
///     Arc::new(|| Box::new(VecMap::new()) as _),
///     3, // merge once the delta holds three shadow entries
///     MergeMode::Sync,
/// )
/// .unwrap();
///
/// assert_eq!(engine.insert(15, 99), None); // held in the delta
/// assert_eq!(engine.get(15), Some(99));
/// assert_eq!(engine.remove(20), Some(2)); // a tombstone shadows the base record
/// assert_eq!(engine.get(20), None);
/// assert_eq!(engine.insert(20, 7), None); // re-insert over the tombstone
/// assert_eq!(engine.insert(25, 5), None); // third shadow entry => merge
/// engine.wait_for_merges();
/// assert_eq!(engine.merges_completed(), 1);
/// assert_eq!(engine.delta_len(), 0);
/// assert_eq!(engine.range(10, 31), vec![(10, 1), (15, 99), (20, 7), (25, 5), (30, 3)]);
/// ```
pub struct WriteBehindEngine<K: Key> {
    shared: Arc<Shared<K>>,
    mode: MergeMode,
    /// Handle of the most recent background merge thread, joined before
    /// the next spawn and on drop.
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl<K: Key> WriteBehindEngine<K> {
    /// Build the initial base over `data` with the flat merge policy.
    ///
    /// `merge_threshold` is the active-delta shadow-entry count that
    /// triggers a merge; it must be at least 1.
    pub fn new(
        data: Arc<SortedData<K>>,
        base_factory: BaseFactory<K>,
        delta_factory: DeltaFactory<K>,
        merge_threshold: usize,
        mode: MergeMode,
    ) -> Result<Self, BuildError> {
        Self::with_policy(
            data,
            base_factory,
            delta_factory,
            merge_threshold,
            mode,
            MergePolicy::Flat,
        )
    }

    /// Build with an explicit [`MergePolicy`].
    pub fn with_policy(
        data: Arc<SortedData<K>>,
        base_factory: BaseFactory<K>,
        delta_factory: DeltaFactory<K>,
        merge_threshold: usize,
        mode: MergeMode,
        policy: MergePolicy,
    ) -> Result<Self, BuildError> {
        Self::build(data, base_factory, delta_factory, merge_threshold, mode, policy, None)
    }

    /// Like [`WriteBehindEngine::with_policy`], with a **snapshot spool**:
    /// the initial base — and, from then on, every frozen run at freeze
    /// time and every rebuilt base — is serialized into `dir` as a
    /// checksummed snapshot, with a versioned manifest pointing at the
    /// current stack. [`WriteBehindEngine::open_spool`] re-opens the whole
    /// stack cold from that directory.
    ///
    /// The durability boundary is the **freeze**: entries still in the
    /// active delta at crash time are lost (they were never acknowledged as
    /// merged), while everything at or below a frozen run is on storage.
    /// Persist failures on the merge path panic rather than serve from a
    /// manifest that lies about what survived.
    #[allow(clippy::too_many_arguments)]
    pub fn with_spool(
        data: Arc<SortedData<K>>,
        base_factory: BaseFactory<K>,
        delta_factory: DeltaFactory<K>,
        merge_threshold: usize,
        mode: MergeMode,
        policy: MergePolicy,
        dir: &Path,
        page_size: usize,
    ) -> Result<Self, BuildError> {
        let spool = Some((dir, page_size));
        Self::build(data, base_factory, delta_factory, merge_threshold, mode, policy, spool)
    }

    /// The one fresh-start constructor: validate, write the initial base
    /// snapshot when a spool `(dir, page_size)` is asked for, build the
    /// base engine, and commit the first manifest.
    fn build(
        data: Arc<SortedData<K>>,
        base_factory: BaseFactory<K>,
        delta_factory: DeltaFactory<K>,
        merge_threshold: usize,
        mode: MergeMode,
        policy: MergePolicy,
        spool: Option<(&Path, usize)>,
    ) -> Result<Self, BuildError> {
        if merge_threshold == 0 {
            return Err(BuildError::InvalidConfig("merge threshold must be >= 1".into()));
        }
        policy.validate()?;
        let mut base_file = None;
        let spool = match spool {
            Some((dir, page_size)) => {
                fs::create_dir_all(dir).map_err(|e| {
                    BuildError::Unbuildable(format!("spool dir {}: {e}", dir.display()))
                })?;
                let spool = Spool { dir: dir.to_path_buf(), page_size, next_id: AtomicU64::new(0) };
                let base_name = spool.next_name("base");
                spool.write_data(&base_name, &data, &[], None).map_err(|e| {
                    BuildError::Unbuildable(format!("spool base snapshot {base_name}: {e}"))
                })?;
                base_file = Some(Arc::from(base_name.as_str()));
                Some(spool)
            }
            None => None,
        };
        let engine = Arc::new((base_factory)(Arc::clone(&data))?);
        let base_hash = snapshot_content_hash(&data, &[]);
        let generation =
            Arc::new(Generation::new(Vec::new(), engine, data, 0, base_file, base_hash));
        if let Some(spool) = &spool {
            spool.commit(&generation);
        }
        Ok(Self::assemble(
            generation,
            base_factory,
            delta_factory,
            merge_threshold,
            mode,
            policy,
            spool,
        ))
    }

    /// Cold re-open: reconstruct the whole immutable stack — base and every
    /// frozen run, tombstones included — from a spool directory written by
    /// [`WriteBehindEngine::with_spool`]. Every page of every snapshot is
    /// checksum-verified during the load; corruption fails loudly here
    /// instead of surfacing as garbage reads later. Engines are rebuilt by
    /// `base_factory` (models are derived state, not persisted), and the
    /// active delta starts empty — the spool's documented durability
    /// boundary.
    pub fn open_spool(
        dir: &Path,
        base_factory: BaseFactory<K>,
        delta_factory: DeltaFactory<K>,
        merge_threshold: usize,
        mode: MergeMode,
        policy: MergePolicy,
    ) -> Result<Self, BuildError> {
        if merge_threshold == 0 {
            return Err(BuildError::InvalidConfig("merge threshold must be >= 1".into()));
        }
        policy.validate()?;
        let manifest = SpoolManifest::read(dir)?;
        let bad = |detail: String| BuildError::Unbuildable(format!("spool manifest: {detail}"));
        let SpoolManifest { page_size, epoch, base: base_name, levels: level_files, .. } =
            &manifest;
        let (page_size, epoch) = (*page_size, *epoch);
        if !level_files.iter().all(|l| l.is_empty()) && policy == MergePolicy::Flat {
            return Err(BuildError::InvalidConfig(
                "flat policy cannot re-open a spool with frozen runs (their entries would \
                 vanish at the first merge); re-open with the leveled policy"
                    .into(),
            ));
        }
        type Loaded<K> = (SortedData<K>, Vec<K>, Option<BlockedBloom>, u64);
        let load = |name: &String| -> Result<Loaded<K>, BuildError> {
            let snap_err =
                |e: StoreError| BuildError::Unbuildable(format!("spool snapshot {name}: {e}"));
            let paged = PagedData::<K>::open_file(&dir.join(name), StorageProfile::RAM)
                .map_err(snap_err)?;
            let (data, dead) = paged.load().map_err(snap_err)?;
            // A filter section of any kind but Bloom is refused by name:
            // its bytes are not Bloom blocks, and quietly rebuilding would
            // hide that the spool asks for a filter this build retired.
            let filter = match paged.read_filter().map_err(snap_err)? {
                Some((SNAPSHOT_KIND, bytes)) => Some(
                    BlockedBloom::from_bytes(&bytes)
                        .ok_or_else(|| bad(format!("snapshot {name}: malformed bloom filter")))?,
                ),
                Some((kind, _)) => {
                    let retired = if kind == 2 { "fence" } else { "unknown" };
                    return Err(snap_err(StoreError::BadConfig(format!(
                        "filter section of kind {kind} ({retired}); only Bloom sections (kind \
                         {SNAPSHOT_KIND}) are read since the fence filter was retired in PR 23"
                    ))));
                }
                None => None,
            };
            // Re-derive the logical content hash from the loaded sections
            // and pin it against both the snapshot's own header and the
            // manifest's `hash` line (each absent in files/manifests from
            // before hashes existed): page checksums catch flipped bits,
            // these two catch a structurally valid file that is not the
            // one the manifest committed.
            let hash = snapshot_content_hash(&data, &dead);
            if let Some(stored) = paged.content_hash() {
                if stored != hash {
                    return Err(BuildError::Unbuildable(format!(
                        "spool snapshot {name}: header content hash {stored:#018x} does not \
                         match the loaded sections ({hash:#018x})"
                    )));
                }
            }
            manifest.check_hash(name, hash)?;
            Ok((data, dead, filter, hash))
        };
        let (base_data, base_dead, _, base_hash) = load(base_name)?;
        if !base_dead.is_empty() {
            return Err(bad(format!(
                "base snapshot {base_name} carries {} tombstones; tombstones are never \
                 serialized to the base",
                base_dead.len()
            )));
        }
        let base_data = Arc::new(base_data);
        let base = Arc::new((base_factory)(Arc::clone(&base_data))?);
        let mut levels = Vec::with_capacity(level_files.len());
        for files in level_files {
            let mut level = Vec::with_capacity(files.len());
            for file in files {
                let (data, dead_keys, stored_filter, content_hash) = load(file)?;
                let data = Arc::new(data);
                let engine = (base_factory)(Arc::clone(&data))?;
                // Filters are derived state: the persisted one when the
                // snapshot carries it, rebuilt from the key column otherwise
                // (spools written before filters existed).
                let filter = stored_filter.unwrap_or_else(|| {
                    BlockedBloom::build(data.keys().iter().map(|k| k.to_u64()), data.len())
                });
                let (min_key, max_key) = (data.min_key(), data.max_key());
                level.push(Arc::new(Run {
                    engine,
                    data,
                    dead_keys,
                    filter,
                    min_key,
                    max_key,
                    file: Some(file.clone()),
                    content_hash,
                }));
            }
            levels.push(level);
        }
        // The visible count is the length of the stack folded over the
        // base — exactly the bottom-fold merge, discarded after counting.
        let shadows = fold_runs(levels.iter().flatten());
        let visible = if shadows.is_empty() {
            base_data.len()
        } else {
            merge_shadows_over_base(&base_data, &shadows).map_or(0, |d| d.len())
        };
        // Snapshot ids are monotone; resume past everything referenced.
        let next_id = manifest
            .files()
            .filter_map(|name| name.split_once('-')?.1.strip_suffix(".snap")?.parse::<u64>().ok())
            .max()
            .map_or(0, |id| id + 1);
        let generation = Arc::new(Generation::new(
            levels,
            base,
            base_data,
            epoch,
            Some(Arc::from(base_name.as_str())),
            base_hash,
        ));
        let spool = Spool { dir: dir.to_path_buf(), page_size, next_id: AtomicU64::new(next_id) };
        let engine = Self::assemble(
            generation,
            base_factory,
            delta_factory,
            merge_threshold,
            mode,
            policy,
            Some(spool),
        );
        engine.shared.visible_len.store(visible, Ordering::Relaxed);
        Ok(engine)
    }

    /// Wire an already-built initial generation into a full engine.
    fn assemble(
        generation: Arc<Generation<K>>,
        base_factory: BaseFactory<K>,
        delta_factory: DeltaFactory<K>,
        merge_threshold: usize,
        mode: MergeMode,
        policy: MergePolicy,
        spool: Option<Spool>,
    ) -> Self {
        let visible = generation.data.len();
        let state = State { generation, active: DeltaTier::new(&delta_factory), frozen: None };
        WriteBehindEngine {
            shared: Arc::new(Shared {
                state: RwLock::new(state),
                base_factory,
                delta_factory,
                merge_threshold,
                policy,
                merging: AtomicBool::new(false),
                merges: AtomicU64::new(0),
                failed_merges: AtomicU64::new(0),
                compactions: AtomicU64::new(0),
                stack_lookups: AtomicU64::new(0),
                stack_probes: AtomicU64::new(0),
                filter_skips: AtomicU64::new(0),
                merged_entries: AtomicU64::new(0),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                removes: AtomicU64::new(0),
                spool,
                pins: Arc::new(AtomicUsize::new(0)),
                visible_len: AtomicUsize::new(visible),
            }),
            mode,
            worker: Mutex::new(None),
        }
    }

    /// Insert (or overwrite) `key` in the delta, returning the previously
    /// *visible* payload — the newest shadow entry if one existed (`None`
    /// for a tombstone), otherwise the base's [`QueryEngine::get`] answer
    /// (the duplicate-group sum on duplicated base keys, located directly
    /// in the generation's data arrays — no engine probe on the write
    /// path).
    ///
    /// Crossing the merge threshold triggers a merge: inline under
    /// [`MergeMode::Sync`], on a spawned thread under
    /// [`MergeMode::Background`] (at most one in flight; further writes
    /// keep landing in the fresh active delta meanwhile).
    pub fn insert(&self, key: K, payload: u64) -> Option<u64> {
        self.shared.writes.fetch_add(1, Ordering::Relaxed);
        let (prev, crossed) = {
            let mut st = self.shared.write();
            let prev = match st.active.state(key) {
                Some(Some(_)) => st.active.values.insert(key, payload),
                Some(None) => {
                    // Re-insert over an active tombstone: the key revives.
                    st.active.tombs.remove(key);
                    st.active.values.insert(key, payload);
                    self.shared.visible_len.fetch_add(1, Ordering::Relaxed);
                    None
                }
                None => {
                    let prev = match self.shared.deeper_state(&st, key) {
                        DeeperState::Value(v) => Some(v),
                        DeeperState::BaseGroup(sum, group) => {
                            // First shadow of this key: the base's duplicate
                            // group collapses to this one visible entry.
                            self.shared.visible_len.fetch_sub(group - 1, Ordering::Relaxed);
                            Some(sum)
                        }
                        DeeperState::Tombstone | DeeperState::Absent => {
                            self.shared.visible_len.fetch_add(1, Ordering::Relaxed);
                            None
                        }
                    };
                    st.active.values.insert(key, payload);
                    prev
                }
            };
            (prev, st.active.len() >= self.shared.merge_threshold)
        };
        if crossed {
            self.force_merge();
        }
        prev
    }

    /// Remove `key`, returning the previously visible payload (the
    /// duplicate-group sum when the key only existed as a duplicated base
    /// group). The removal lands as a **tombstone** shadow entry in the
    /// delta; the key's older records stay physically present until a
    /// merge folds the tombstone onto them. Removing a key that is not
    /// visible returns `None` and writes nothing (so remove-heavy streams
    /// of absent keys cannot grow the delta).
    pub fn remove(&self, key: K) -> Option<u64> {
        self.shared.removes.fetch_add(1, Ordering::Relaxed);
        let (prev, crossed) = {
            let mut st = self.shared.write();
            let prev = match st.active.state(key) {
                Some(Some(_)) => {
                    let prev = st.active.values.remove(key);
                    st.active.tombs.insert(key, 0);
                    self.shared.visible_len.fetch_sub(1, Ordering::Relaxed);
                    prev
                }
                Some(None) => None, // already tombstoned: nothing to do
                None => match self.shared.deeper_state(&st, key) {
                    DeeperState::Value(v) => {
                        st.active.tombs.insert(key, 0);
                        self.shared.visible_len.fetch_sub(1, Ordering::Relaxed);
                        Some(v)
                    }
                    DeeperState::BaseGroup(sum, group) => {
                        st.active.tombs.insert(key, 0);
                        self.shared.visible_len.fetch_sub(group, Ordering::Relaxed);
                        Some(sum)
                    }
                    DeeperState::Tombstone | DeeperState::Absent => None,
                },
            };
            (prev, st.active.len() >= self.shared.merge_threshold)
        };
        if crossed {
            self.force_merge();
        }
        prev
    }

    /// Force a merge now (if one is not already running — at most one
    /// runs at a time), regardless of the threshold: inline under
    /// [`MergeMode::Sync`], on a spawned thread under
    /// [`MergeMode::Background`]. The cycle clears the in-flight flag on
    /// every exit path, a panic included.
    pub fn force_merge(&self) {
        if self
            .shared
            .merging
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        match self.mode {
            MergeMode::Sync => self.shared.run_merge(),
            MergeMode::Background => {
                let mut slot = self.worker.lock().expect("worker slot");
                // The previous worker finished (we won the flag); reap it.
                // A panicked worker is reported by the join and must not
                // stop the next cycle from spawning.
                if let Some(handle) = slot.take() {
                    let _ = handle.join();
                }
                let shared = Arc::clone(&self.shared);
                *slot = Some(std::thread::spawn(move || shared.run_merge()));
            }
        }
    }

    /// The cumulative read/write/remove operation mix served since
    /// construction — the workload half of the access observability the
    /// index advisor consumes at rebuild time.
    pub fn access_mix(&self) -> AccessMix {
        AccessMix {
            reads: self.shared.reads.load(Ordering::Relaxed),
            writes: self.shared.writes.load(Ordering::Relaxed),
            removes: self.shared.removes.load(Ordering::Relaxed),
        }
    }

    /// Retune now: publish this engine's operation mix into `hub`, force a
    /// base rebuild, and wait for it to complete. With an advisor-driven
    /// [`BaseFactory`] (see
    /// [`Advisor::base_factory`](crate::advisor::Advisor::base_factory))
    /// the rebuild re-scores every candidate per shard under the hub's
    /// current snapshot. The generation swap keeps the retune invisible:
    /// the mapping served before and after is identical.
    pub fn retune(&self, hub: &ObservabilityHub<K>) {
        hub.publish_mix(self.access_mix());
        self.force_merge();
        self.wait_for_merges();
    }

    /// Block until no merge is in flight (joins the background worker).
    pub fn wait_for_merges(&self) {
        if let Some(handle) = self.worker.lock().expect("worker slot").take() {
            if handle.join().is_err() {
                // The merge thread panicked (e.g. inside a user-supplied
                // factory). Its `MergeFlagGuard` cleared the flag while
                // unwinding; this store only repeats that, so the spin
                // below cannot hang on a job that died before taking its
                // guard. State-lock users will surface any poisoning
                // loudly on their next access.
                self.shared.merging.store(false, Ordering::Release);
            }
        }
        while self.shared.merging.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    /// Number of merge cycles completed since construction (each drains
    /// one frozen delta).
    pub fn merges_completed(&self) -> u64 {
        self.shared.merges.load(Ordering::Relaxed)
    }

    /// Number of merge builds that failed (delta rolled back or level
    /// retained, retried on the next cycle).
    pub fn failed_merges(&self) -> u64 {
        self.shared.failed_merges.load(Ordering::Relaxed)
    }

    /// Compaction steps completed (always 0 under [`MergePolicy::Flat`]).
    pub fn compactions(&self) -> u64 {
        self.shared.compactions.load(Ordering::Relaxed)
    }

    /// Point lookups (`get` and `get_batch` keys missing the delta) that
    /// consulted a non-empty run stack.
    pub fn stack_lookups(&self) -> u64 {
        self.shared.stack_lookups.load(Ordering::Relaxed)
    }

    /// Run engine probes those lookups performed, after range pruning and
    /// filter checks — the read-amplification numerator.
    pub fn stack_probes(&self) -> u64 {
        self.shared.stack_probes.load(Ordering::Relaxed)
    }

    /// Run probes skipped because a per-run filter proved the key absent.
    pub fn filter_skips(&self) -> u64 {
        self.shared.filter_skips.load(Ordering::Relaxed)
    }

    /// Average run probes per stack lookup since construction (0.0 before
    /// the first stack lookup) — the read-amp figure ext07 tracks.
    pub fn probes_per_lookup(&self) -> f64 {
        let lookups = self.shared.stack_lookups.load(Ordering::Relaxed);
        if lookups == 0 {
            0.0
        } else {
            self.shared.stack_probes.load(Ordering::Relaxed) as f64 / lookups as f64
        }
    }

    /// For every run (newest first): `(admits, present)` — does the run's
    /// filter (after range pruning) admit `key`, and does the run's data
    /// actually contain it (tombstones count as present)? A filter may
    /// admit an absent key (false positive, one wasted probe) but must
    /// never reject a present one; test harnesses assert
    /// `present implies admits` over deleted and never-inserted keys.
    pub fn run_filter_audit(&self, key: K) -> Vec<(bool, bool)> {
        let generation = self.shared.current();
        generation
            .runs_newest_first()
            .map(|run| {
                let admits = !run.prunes(key) && run.filter_admits(key);
                let present = run.probe_in_data(key).is_some();
                (admits, present)
            })
            .collect()
    }

    /// Fold one read call's run-stack tally into the read-amp counters.
    /// Inlined down to the test that any key consulted the stack, so a
    /// read over an empty stack — the read-mostly common case — pays no
    /// call for having nothing to record.
    #[inline]
    fn note_stack_lookups(&self, tally: StackTally) {
        if tally.lookups != 0 {
            self.record_stack_lookups(tally);
        }
    }

    /// Add a non-empty tally to the read-amp counters.
    fn record_stack_lookups(&self, tally: StackTally) {
        let StackTally { lookups, probes, skips } = tally;
        let shared = &self.shared;
        if probes != 0 {
            shared.stack_probes.fetch_add(probes, Ordering::Relaxed);
        }
        if skips != 0 {
            shared.filter_skips.fetch_add(skips, Ordering::Relaxed);
        }
        shared.stack_lookups.fetch_add(lookups, Ordering::Relaxed);
    }

    /// Batch path shared by the serial and parallel entry points: delta
    /// hits are answered inline under one read-lock acquisition (so the
    /// whole batch sees a single coherent delta state), the rest goes to
    /// [`Generation::get_batch`] on the snapshotted generation, outside
    /// the lock.
    fn get_batch_impl(&self, keys: &[K], out: &mut Vec<Option<u64>>, par: bool) {
        if keys.is_empty() {
            return;
        }
        self.shared.reads.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let (pending, slots, generation) = {
            let st = self.shared.read();
            let (pending, slots) = split_by_delta(keys, out, |k| st.delta_state(k));
            (pending, slots, Arc::clone(&st.generation))
        };
        let mut tally = StackTally::default();
        generation.get_batch(pending, slots, out, par, &mut tally);
        self.note_stack_lookups(tally);
    }

    /// Total entries written into new immutable structures by merges and
    /// compactions — divide by [`WriteBehindEngine::merges_completed`] for
    /// the per-cycle merged volume the leveled policy bounds.
    pub fn merged_entries(&self) -> u64 {
        self.shared.merged_entries.load(Ordering::Relaxed)
    }

    /// True while a merge (freeze → build → swaps) is in flight.
    pub fn is_merging(&self) -> bool {
        self.shared.merging.load(Ordering::Acquire)
    }

    /// Shadow entries currently buffered in the delta tiers (active +
    /// frozen), tombstones included.
    pub fn delta_len(&self) -> usize {
        let st = self.shared.read();
        st.active.len() + st.frozen.as_ref().map_or(0, |f| f.len())
    }

    /// Records in the current base generation's data array (frozen runs
    /// not included; see [`WriteBehindEngine::run_count`]).
    pub fn base_len(&self) -> usize {
        self.shared.read().generation.data.len()
    }

    /// Immutable runs currently stacked above the base (always 0 under
    /// [`MergePolicy::Flat`]). `run_count + 1` bounds the number of
    /// engines a point read may probe after missing the delta — the read
    /// fan-out the leveled policy trades merge work against.
    pub fn run_count(&self) -> usize {
        self.shared.read().generation.run_count()
    }

    /// Runs per level, newest level first (empty under
    /// [`MergePolicy::Flat`]).
    pub fn level_run_counts(&self) -> Vec<usize> {
        let st = self.shared.read();
        st.generation.levels.iter().map(Vec::len).collect()
    }

    /// The current generation counter (0 = initial build; each merge and
    /// compaction swap increments it).
    pub fn epoch(&self) -> u64 {
        self.shared.read().generation.epoch
    }

    /// The configured merge threshold.
    pub fn merge_threshold(&self) -> usize {
        self.shared.merge_threshold
    }

    /// The configured merge policy.
    pub fn policy(&self) -> MergePolicy {
        self.shared.policy
    }

    /// The snapshot spool directory, when persistence is on.
    pub fn spool_dir(&self) -> Option<&Path> {
        self.shared.spool.as_ref().map(|s| s.dir.as_path())
    }

    /// Total bytes of the snapshot files the current generation references
    /// (0 without a spool) — the on-storage footprint a cold re-open reads.
    pub fn spool_bytes(&self) -> u64 {
        let Some(spool) = &self.shared.spool else {
            return 0;
        };
        let generation = self.shared.current();
        let file_len =
            |name: &str| fs::metadata(spool.dir.join(name)).map(|m| m.len()).unwrap_or(0);
        generation.base_file.as_deref().map_or(0, file_len)
            + generation
                .runs_newest_first()
                .filter_map(|r| r.file.as_deref())
                .map(file_len)
                .sum::<u64>()
    }

    /// Pin a consistent point-in-time view: one `Arc` clone of the
    /// current generation plus one copy of the delta (active merged over
    /// frozen), taken under a single read-lock acquisition. Every read
    /// through the returned [`PinnedView`] — point, batch, ordered —
    /// answers from exactly the mapping visible at this instant;
    /// concurrent inserts, removes, merges, compactions, and retunes
    /// publish *newer* generations the pin never observes. The pin costs
    /// `O(delta)` to take (the immutable tiers are shared, not copied) and
    /// holds its generation's memory alive until dropped — the same
    /// refcount rule as any in-flight reader.
    pub fn snapshot(&self) -> PinnedView<K> {
        let (generation, delta, visible_len) = {
            let st = self.shared.read();
            // `delta_entries` is half-open, so the extreme key needs one
            // explicit probe (mirroring the merge drain).
            let mut delta = st.delta_entries(K::MIN_KEY, K::MAX_KEY);
            if let Some(state) = st.delta_state(K::MAX_KEY) {
                delta.push((K::MAX_KEY, state));
            }
            // `visible_len` is only ever updated under the state *write*
            // lock, so this read is coherent with the delta copy above.
            (Arc::clone(&st.generation), delta, self.shared.visible_len.load(Ordering::Relaxed))
        };
        self.shared.pins.fetch_add(1, Ordering::Relaxed);
        PinnedView {
            generation,
            delta: delta.into(),
            visible_len,
            _pin: PinGuard { pins: Arc::clone(&self.shared.pins) },
        }
    }

    /// Outstanding [`PinnedView`] handles (clones included). Purely
    /// observability — harnesses assert this drains back to zero to prove
    /// pinned generations are reclaimable, not leaked.
    pub fn active_pins(&self) -> usize {
        self.shared.pins.load(Ordering::Acquire)
    }

    /// The root content hash of the engine's *visible* logical mapping —
    /// [`PinnedView::fingerprint`] of a snapshot taken now. Two engines
    /// serving the same mapping report equal fingerprints regardless of
    /// how their physical tiers differ (delta vs. runs vs. base, flat vs.
    /// leveled, before vs. after a compaction).
    pub fn fingerprint(&self) -> u64 {
        self.snapshot().fingerprint()
    }

    /// Audit a spool directory cold, without building any engine: parse
    /// the manifest, open every referenced snapshot (every page checksum
    /// is verified on the way), re-derive each snapshot's logical content
    /// hash from its sections, and compare it against both the snapshot's
    /// own header and the manifest's `hash` line. Any mismatch — a
    /// flipped bit, a structurally valid file substituted for another, a
    /// manifest edited to lie — fails loudly with the offending file
    /// named. Returns what was checked, so callers can also assert
    /// coverage (`hashed == files.len()` for spools written by this
    /// version).
    pub fn verify_spool(dir: &Path) -> Result<SpoolVerifyReport, BuildError> {
        let manifest = SpoolManifest::read(dir)?;
        let mut files = Vec::new();
        let mut hashed = 0usize;
        for name in manifest.files() {
            let snap_err =
                |e: StoreError| BuildError::Unbuildable(format!("spool snapshot {name}: {e}"));
            let paged = PagedData::<K>::open_file(&dir.join(name), StorageProfile::RAM)
                .map_err(snap_err)?;
            let hash = paged.verify_content_hash().map_err(snap_err)?;
            if manifest.hashes.contains_key(name.as_str()) {
                hashed += 1;
                manifest.check_hash(name, hash)?;
            }
            files.push((name.clone(), hash));
        }
        Ok(SpoolVerifyReport { epoch: manifest.epoch, files, hashed })
    }
}

impl<K: Key> Drop for WriteBehindEngine<K> {
    fn drop(&mut self) {
        self.wait_for_merges();
    }
}

impl<K: Key> QueryEngine<K> for WriteBehindEngine<K> {
    fn name(&self) -> String {
        let st = self.shared.read();
        format!("writebehind[{}+{}]", st.generation.base.name(), st.active.values.name())
    }

    /// The number of visible entries: delta overwrites don't double-count,
    /// a shadow value over a base duplicate group counts the group as one
    /// entry, and tombstoned keys count zero. Equals the length of a full
    /// [`QueryEngine::range`] scan, except that an entry at
    /// [`Key::MAX_KEY`] is counted here but unreachable by any half-open
    /// range (`hi` is exclusive).
    fn len(&self) -> usize {
        self.shared.visible_len.load(Ordering::Relaxed)
    }

    fn size_bytes(&self) -> usize {
        let st = self.shared.read();
        st.generation.base.size_bytes()
            + st.generation.runs_newest_first().map(|r| r.size_bytes()).sum::<usize>()
            + st.active.size_bytes()
            + st.frozen.as_ref().map_or(0, |f| f.size_bytes())
    }

    /// Delta first (the newest shadow entry wins: a value answers, a
    /// tombstone answers `None`) under the read guard, then the
    /// snapshotted generation — each run newest-to-oldest (skipping runs
    /// whose key range prunes the probe or whose filter proves the key
    /// absent), then the base — all probed outside the state lock.
    fn get(&self, key: K) -> Option<u64> {
        self.shared.reads.fetch_add(1, Ordering::Relaxed);
        let generation = {
            let st = self.shared.read();
            if let Some(state) = st.delta_state(key) {
                return state;
            }
            Arc::clone(&st.generation)
        };
        let mut tally = StackTally::default();
        let hit = generation.get(key, &mut tally);
        self.note_stack_lookups(tally);
        hit
    }

    /// Smallest visible entry `>= key`: candidates are gathered from every
    /// tier, the newest tier wins key ties, and a winning tombstone
    /// advances the probe past its key. The state read lock is held across
    /// the *whole* call: every iteration of that tombstone-skipping loop
    /// must see the same delta and generation, or a writer interleaving
    /// between two iterations could make the call return an answer that
    /// was correct at no single instant (e.g. skip a tombstone that a
    /// concurrent re-insert just revived, then miss an entry a concurrent
    /// remove just hid).
    fn lower_bound(&self, key: K) -> Option<(K, u64)> {
        let st = self.shared.read();
        st.generation.lower_bound(key, |probe| st.delta_lower_bound(probe))
    }

    /// Merge of the delta range, each run's range (newest over older), and
    /// the base range; a shadow value replaces the whole base duplicate
    /// group of its key, and a tombstone drops it. The read guard covers
    /// only the delta copy and the `Arc` clone.
    fn range(&self, lo: K, hi: K) -> Vec<(K, u64)> {
        if hi <= lo {
            return Vec::new();
        }
        let (shadows, generation) = {
            let st = self.shared.read();
            (st.delta_entries(lo, hi), Arc::clone(&st.generation))
        };
        generation.range(shadows, lo, hi)
    }

    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        self.get_batch_impl(keys, out, false);
    }

    /// Like [`QueryEngine::get_batch`], routing the base-bound remainder
    /// through the base's own parallel path — the same read surface a
    /// [`PinnedView`] of this engine exposes.
    fn par_get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        self.get_batch_impl(keys, out, true);
    }
}

/// What [`WriteBehindEngine::verify_spool`] checked: every snapshot file
/// the manifest references, with its verified content hash.
#[derive(Debug, Clone)]
pub struct SpoolVerifyReport {
    /// The generation counter recorded in the manifest.
    pub epoch: u64,
    /// Every referenced snapshot file (base first, then runs, newest
    /// level first) with its verified logical content hash.
    pub files: Vec<(String, u64)>,
    /// How many of those files the manifest carried a reference hash for
    /// (fewer than `files.len()` only for spools written before manifest
    /// hashes existed).
    pub hashed: usize,
}

/// Decrements the engine's pin counter when the last handle to one
/// [`PinnedView`] drops.
struct PinGuard {
    pins: Arc<AtomicUsize>,
}

impl Clone for PinGuard {
    fn clone(&self) -> PinGuard {
        self.pins.fetch_add(1, Ordering::Relaxed);
        PinGuard { pins: Arc::clone(&self.pins) }
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.pins.fetch_sub(1, Ordering::Release);
    }
}

/// A consistent point-in-time read handle over a [`WriteBehindEngine`],
/// returned by [`WriteBehindEngine::snapshot`]: one pinned generation
/// (base + run stack, shared by `Arc`) plus a frozen copy of the delta as
/// of pin time. Implements [`QueryEngine`], and every read answers from
/// exactly the mapping that was visible when the pin was taken — writes,
/// merges, and compactions racing the reads land in newer generations
/// this handle never observes.
///
/// Cloning is cheap (two `Arc` clones and a counter bump) and shares the
/// pin. The pinned generation's memory is reclaimed when the last clone
/// drops; [`WriteBehindEngine::active_pins`] counts handles outstanding.
///
/// Reads through a pin are *not* recorded in the engine's access
/// observability (`access_mix`, read-amp counters): a pin may outlive its
/// engine, and historical reads would skew the advisor's picture of the
/// live workload anyway.
pub struct PinnedView<K: Key> {
    generation: Arc<Generation<K>>,
    /// Sorted, unique shadow entries: the delta (active merged over
    /// frozen) at pin time, including the `K::MAX_KEY` entry when one
    /// existed.
    delta: Arc<[Shadow<K>]>,
    /// The engine's exact visible-entry count at pin time.
    visible_len: usize,
    _pin: PinGuard,
}

impl<K: Key> Clone for PinnedView<K> {
    fn clone(&self) -> PinnedView<K> {
        PinnedView {
            generation: Arc::clone(&self.generation),
            delta: Arc::clone(&self.delta),
            visible_len: self.visible_len,
            _pin: self._pin.clone(),
        }
    }
}

impl<K: Key> PinnedView<K> {
    /// The pinned generation's epoch (each merge/compaction swap
    /// increments the engine's; this one is frozen at pin time).
    pub fn epoch(&self) -> u64 {
        self.generation.epoch
    }

    /// Shadow entries frozen from the delta at pin time.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Immutable runs in the pinned stack.
    pub fn run_count(&self) -> usize {
        self.generation.run_count()
    }

    /// Content hash of the pinned base's logical entry stream.
    pub fn base_hash(&self) -> u64 {
        self.generation.base_hash
    }

    /// Content hash of each pinned run's logical shadow stream, newest
    /// first. Runs frozen from identical logical state hash identically —
    /// the dedupe handle for replica transfer and backup.
    pub fn run_hashes(&self) -> Vec<u64> {
        self.generation.runs_newest_first().map(|r| r.content_hash).collect()
    }

    /// The pinned base generation's backing data array (shared, not
    /// copied). Useful for zero-copy export and for harnesses asserting
    /// reclamation: a `Weak` of this fails to upgrade once the pin and
    /// every newer reference to the generation are gone.
    pub fn base_data(&self) -> Arc<SortedData<K>> {
        Arc::clone(&self.generation.data)
    }

    /// The root content hash of the pinned *visible* mapping: one
    /// [`content_hash_fold`] per visible entry in key order, over the
    /// full ordered scan. Hash equality is logical-state equality — two
    /// pins over identical mappings fingerprint identically no matter how
    /// their physical tiers differ (delta vs. runs vs. base, flat vs.
    /// leveled, before vs. after a compaction), and any visible
    /// insert/remove/overwrite changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = CONTENT_HASH_SEED;
        for (k, v) in self.range(K::MIN_KEY, K::MAX_KEY) {
            h = content_hash_fold(h, k, Some(v));
        }
        // The ordered scan is half-open; an entry at the extreme key is
        // visible but unreachable by any range, so probe it explicitly.
        if let Some(v) = self.get(K::MAX_KEY) {
            h = content_hash_fold(h, K::MAX_KEY, Some(v));
        }
        h
    }

    /// Shadow state of `key` in the frozen delta copy, or `None` when
    /// only the pinned immutable tiers can answer.
    fn delta_state(&self, key: K) -> Option<Option<u64>> {
        self.delta.binary_search_by(|e| e.0.cmp(&key)).ok().map(|i| self.delta[i].1)
    }

    /// The frozen delta entries in `[lo, hi)`.
    fn delta_entries_in(&self, lo: K, hi: K) -> &[Shadow<K>] {
        let a = self.delta.partition_point(|e| e.0 < lo);
        let b = self.delta.partition_point(|e| e.0 < hi);
        &self.delta[a..b]
    }

    /// Batch path shared by the serial and parallel entry points: the
    /// live engine's, with the frozen delta copy answering and no lock.
    fn get_batch_impl(&self, keys: &[K], out: &mut Vec<Option<u64>>, par: bool) {
        let (pending, slots) = split_by_delta(keys, out, |k| self.delta_state(k));
        self.generation.get_batch(pending, slots, out, par, &mut StackTally::default());
    }
}

impl<K: Key> QueryEngine<K> for PinnedView<K> {
    fn name(&self) -> String {
        format!("pinned[{}@{}]", self.generation.base.name(), self.generation.epoch)
    }

    /// The visible-entry count at pin time (same counting rule as
    /// [`WriteBehindEngine::len`]).
    fn len(&self) -> usize {
        self.visible_len
    }

    fn size_bytes(&self) -> usize {
        self.generation.base.size_bytes()
            + self.generation.runs_newest_first().map(|r| r.size_bytes()).sum::<usize>()
            + self.delta.len() * std::mem::size_of::<Shadow<K>>()
    }

    /// The live engine's read path against the pinned tiers: frozen delta
    /// copy first, then the pinned generation's runs and base — no lock
    /// anywhere (everything is immutable) and nothing recorded.
    fn get(&self, key: K) -> Option<u64> {
        match self.delta_state(key) {
            Some(state) => state,
            None => self.generation.get(key, &mut StackTally::default()),
        }
    }

    /// Smallest visible entry `>= key` in the pinned mapping, exactly like
    /// the live engine — but with no lock to hold, because every tier is
    /// frozen.
    fn lower_bound(&self, key: K) -> Option<(K, u64)> {
        self.generation.lower_bound(key, |probe| {
            self.delta.get(self.delta.partition_point(|e| e.0 < probe)).copied()
        })
    }

    /// Merge of the frozen delta range, each pinned run's range (newest
    /// over older), and the pinned base range.
    fn range(&self, lo: K, hi: K) -> Vec<(K, u64)> {
        if hi <= lo {
            return Vec::new();
        }
        self.generation.range(self.delta_entries_in(lo, hi).to_vec(), lo, hi)
    }

    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        self.get_batch_impl(keys, out, false);
    }

    /// Like [`QueryEngine::get_batch`], routing the base-bound remainder
    /// through the pinned base's own parallel path — a sharded base fans
    /// the batch out across cores while the view stays consistent.
    fn par_get_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) {
        self.get_batch_impl(keys, out, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StaticEngine;
    use crate::testutil::{MirrorIndex, VecMap};
    use std::collections::BTreeMap;

    fn mirror_factory() -> BaseFactory<u64> {
        Arc::new(|d: Arc<SortedData<u64>>| {
            Ok(Box::new(StaticEngine::new(MirrorIndex::over(&d), d)) as Box<dyn QueryEngine<u64>>)
        })
    }

    fn vecmap_factory() -> DeltaFactory<u64> {
        Arc::new(|| Box::new(VecMap::new()) as Box<dyn DynamicOrderedIndex<u64>>)
    }

    fn engine(keys: Vec<u64>, threshold: usize, mode: MergeMode) -> WriteBehindEngine<u64> {
        engine_with_policy(keys, threshold, mode, MergePolicy::Flat)
    }

    fn engine_with_policy(
        keys: Vec<u64>,
        threshold: usize,
        mode: MergeMode,
        policy: MergePolicy,
    ) -> WriteBehindEngine<u64> {
        let payloads: Vec<u64> = keys.iter().map(|&k| k.wrapping_mul(3) ^ 0xA5).collect();
        let data = Arc::new(SortedData::with_payloads(keys, payloads).unwrap());
        WriteBehindEngine::with_policy(
            data,
            mirror_factory(),
            vecmap_factory(),
            threshold,
            mode,
            policy,
        )
        .unwrap()
    }

    #[test]
    fn zero_threshold_is_rejected() {
        let data = Arc::new(SortedData::new(vec![1u64]).unwrap());
        assert!(WriteBehindEngine::new(
            data,
            mirror_factory(),
            vecmap_factory(),
            0,
            MergeMode::Sync
        )
        .is_err());
    }

    #[test]
    fn bad_leveled_policies_are_rejected() {
        for policy in [MergePolicy::leveled(1, 2), MergePolicy::leveled(4, 0)] {
            let data = Arc::new(SortedData::new(vec![1u64]).unwrap());
            assert!(
                WriteBehindEngine::with_policy(
                    data,
                    mirror_factory(),
                    vecmap_factory(),
                    8,
                    MergeMode::Sync,
                    policy,
                )
                .is_err(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn reads_merge_delta_over_base() {
        let e = engine(vec![10, 20, 30], 100, MergeMode::Sync);
        assert_eq!(e.len(), 3);
        assert_eq!(e.insert(15, 1), None);
        assert_eq!(e.insert(20, 2), Some(20u64.wrapping_mul(3) ^ 0xA5));
        assert_eq!(e.len(), 4, "overwrite of a base key must not grow len");
        assert_eq!(e.get(15), Some(1));
        assert_eq!(e.get(20), Some(2));
        assert_eq!(e.get(10), Some(10u64.wrapping_mul(3) ^ 0xA5));
        assert_eq!(e.get(11), None);
        assert_eq!(e.lower_bound(11), Some((15, 1)));
        assert_eq!(e.lower_bound(16), Some((20, 2)), "delta overwrite wins the tie");
        assert_eq!(e.range(10, 31).iter().map(|e| e.0).collect::<Vec<_>>(), vec![10, 15, 20, 30]);
        assert_eq!(e.merges_completed(), 0, "threshold not crossed");
        assert_eq!(e.epoch(), 0);
    }

    #[test]
    fn removes_tombstone_and_shadow_every_read_path() {
        let e = engine(vec![10, 20, 30, 40], 100, MergeMode::Sync);
        let p = |k: u64| k.wrapping_mul(3) ^ 0xA5;
        assert_eq!(e.remove(20), Some(p(20)), "base record payload returned");
        assert_eq!(e.len(), 3);
        assert_eq!(e.get(20), None, "tombstone hides the base record");
        assert_eq!(e.lower_bound(15), Some((30, p(30))), "lower bound skips the tombstone");
        assert_eq!(e.range(10, 41), vec![(10, p(10)), (30, p(30)), (40, p(40))]);
        assert_eq!(e.lookup_batch(&[10, 20, 30]), vec![Some(p(10)), None, Some(p(30))]);
        // Remove of a delta value.
        e.insert(25, 7);
        assert_eq!(e.remove(25), Some(7));
        assert_eq!(e.get(25), None);
        // Removing what is already gone (or never existed) is a no-op.
        assert_eq!(e.remove(20), None);
        assert_eq!(e.remove(21), None);
        assert_eq!(e.len(), 3);
        // Tombstone-then-re-insert revives the key as a fresh entry.
        assert_eq!(e.insert(20, 99), None);
        assert_eq!(e.get(20), Some(99));
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn flat_merge_drops_tombstoned_keys() {
        let e = engine((0..100).map(|i| i * 10).collect(), 1_000, MergeMode::Sync);
        let before = e.base_len();
        e.remove(100);
        e.remove(200);
        e.insert(5, 1);
        e.force_merge();
        assert_eq!(e.merges_completed(), 1);
        assert_eq!(e.delta_len(), 0, "tombstones drained with the delta");
        assert_eq!(e.base_len(), before - 2 + 1, "merge physically dropped dead keys");
        assert_eq!(e.get(100), None);
        assert_eq!(e.get(200), None);
        assert_eq!(e.get(5), Some(1));
        assert_eq!(e.len(), before - 1);
        // A dropped key can come back afterwards.
        assert_eq!(e.insert(100, 42), None);
        assert_eq!(e.get(100), Some(42));
    }

    #[test]
    fn sync_merge_drains_delta_into_base() {
        let e = engine((0..100).map(|i| i * 10).collect(), 4, MergeMode::Sync);
        for k in [5u64, 15, 25, 35] {
            e.insert(k, k + 1);
        }
        assert_eq!(e.merges_completed(), 1);
        assert_eq!(e.epoch(), 1);
        assert_eq!(e.delta_len(), 0);
        assert_eq!(e.base_len(), 104);
        for k in [5u64, 15, 25, 35] {
            assert_eq!(e.get(k), Some(k + 1), "merged entry {k}");
        }
        assert_eq!(e.len(), 104);
    }

    #[test]
    fn merged_base_shadows_duplicate_groups() {
        // Base has a duplicate run at key 7; a delta overwrite must replace
        // the whole group both before and after the merge.
        let data = Arc::new(
            SortedData::with_payloads(vec![5u64, 7, 7, 7, 9], vec![1, 10, 100, 1000, 5]).unwrap(),
        );
        let e =
            WriteBehindEngine::new(data, mirror_factory(), vecmap_factory(), 10, MergeMode::Sync)
                .unwrap();
        assert_eq!(e.get(7), Some(1110), "duplicate sum before any write");
        assert_eq!(e.insert(7, 42), Some(1110), "prior visible payload is the group sum");
        assert_eq!(e.get(7), Some(42));
        assert_eq!(e.len(), 3, "the shadowed group collapses to one visible entry");
        assert_eq!(e.range(5, 10), vec![(5, 1), (7, 42), (9, 5)]);
        assert_eq!(e.range(5, 10).len(), e.len(), "len matches a full scan");
        e.force_merge();
        assert_eq!(e.merges_completed(), 1);
        assert_eq!(e.base_len(), 3, "merge collapsed the shadowed group");
        assert_eq!(e.get(7), Some(42));
        assert_eq!(e.range(5, 10), vec![(5, 1), (7, 42), (9, 5)]);
    }

    #[test]
    fn removing_a_duplicate_group_deletes_the_whole_group() {
        let data = Arc::new(
            SortedData::with_payloads(vec![5u64, 7, 7, 7, 9], vec![1, 10, 100, 1000, 5]).unwrap(),
        );
        let e =
            WriteBehindEngine::new(data, mirror_factory(), vecmap_factory(), 10, MergeMode::Sync)
                .unwrap();
        assert_eq!(e.remove(7), Some(1110), "previous visible payload is the group sum");
        assert_eq!(e.len(), 2);
        assert_eq!(e.get(7), None);
        assert_eq!(e.range(5, 10), vec![(5, 1), (9, 5)]);
        e.force_merge();
        assert_eq!(e.base_len(), 2, "the whole group is physically gone");
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn max_key_entries_survive_the_merge_drain() {
        let e = engine(vec![10, 20], 100, MergeMode::Sync);
        e.insert(u64::MAX, 77);
        e.force_merge();
        assert_eq!(e.merges_completed(), 1);
        assert_eq!(e.delta_len(), 0);
        assert_eq!(e.get(u64::MAX), Some(77));
        assert_eq!(e.lower_bound(u64::MAX), Some((u64::MAX, 77)));
        // A tombstone at the extreme key also survives the drain.
        assert_eq!(e.remove(u64::MAX), Some(77));
        e.force_merge();
        assert_eq!(e.get(u64::MAX), None);
        assert_eq!(e.lower_bound(u64::MAX), None);
    }

    #[test]
    fn batch_partitions_between_delta_and_base() {
        let e = engine((0..1000).map(|i| i * 2).collect(), 1_000_000, MergeMode::Sync);
        for k in (1..200u64).step_by(2) {
            e.insert(k, k * 100);
        }
        for k in (0..100u64).step_by(4) {
            e.remove(k);
        }
        let probes: Vec<u64> = (0..400u64).collect();
        let batched = e.lookup_batch(&probes);
        for (&p, got) in probes.iter().zip(&batched) {
            assert_eq!(*got, e.get(p), "batch diverges from get at {p}");
        }
    }

    #[test]
    fn oracle_interleaved_with_forced_merges() {
        let base_keys: Vec<u64> = (0..500).map(|i| i * 7).collect();
        let e = engine(base_keys.clone(), 64, MergeMode::Sync);
        let mut oracle: BTreeMap<u64, u64> =
            base_keys.iter().map(|&k| (k, k.wrapping_mul(3) ^ 0xA5)).collect();
        let mut x = 12345u64;
        for step in 0..2_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x % 4_000;
            if x.is_multiple_of(5) {
                assert_eq!(e.remove(k), oracle.remove(&k), "remove {k} at step {step}");
            } else {
                let v = x >> 32;
                assert_eq!(e.insert(k, v), oracle.insert(k, v), "insert {k} at step {step}");
            }
            if step % 97 == 0 {
                let probe = (x >> 16) % 4_100;
                assert_eq!(e.get(probe), oracle.get(&probe).copied(), "get {probe}");
                let lo = probe.saturating_sub(300);
                let want: Vec<(u64, u64)> =
                    oracle.range(lo..probe).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(e.range(lo, probe), want, "range [{lo}, {probe})");
            }
        }
        assert!(e.merges_completed() >= 3, "expected several merge cycles");
        assert_eq!(e.len(), oracle.len());
        let all: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(e.range(0, u64::MAX), all);
    }

    #[test]
    fn leveled_oracle_interleaved_with_forced_merges() {
        let base_keys: Vec<u64> = (0..500).map(|i| i * 7).collect();
        let e =
            engine_with_policy(base_keys.clone(), 48, MergeMode::Sync, MergePolicy::leveled(2, 2));
        let mut oracle: BTreeMap<u64, u64> =
            base_keys.iter().map(|&k| (k, k.wrapping_mul(3) ^ 0xA5)).collect();
        let mut x = 999u64;
        for step in 0..3_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x % 4_000;
            if x.is_multiple_of(4) {
                assert_eq!(e.remove(k), oracle.remove(&k), "remove {k} at step {step}");
            } else {
                let v = x >> 32;
                assert_eq!(e.insert(k, v), oracle.insert(k, v), "insert {k} at step {step}");
            }
            if step % 83 == 0 {
                let probe = (x >> 16) % 4_100;
                assert_eq!(e.get(probe), oracle.get(&probe).copied(), "get {probe}");
                assert_eq!(
                    e.lower_bound(probe),
                    oracle.range(probe..).next().map(|(&k, &v)| (k, v)),
                    "lower_bound {probe}"
                );
            }
        }
        assert!(e.merges_completed() >= 3);
        assert!(e.compactions() >= 1, "fanout 2 must have compacted");
        assert_eq!(e.len(), oracle.len());
        let all: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(e.range(0, u64::MAX), all);
        let batch: Vec<u64> = (0..4_100).step_by(3).collect();
        let results = e.lookup_batch(&batch);
        for (&k, got) in batch.iter().zip(&results) {
            assert_eq!(*got, oracle.get(&k).copied(), "batch {k}");
        }
    }

    #[test]
    fn leveled_merges_stack_runs_and_compact() {
        let e = engine_with_policy(
            (0..200).map(|i| i * 10).collect(),
            8,
            MergeMode::Sync,
            MergePolicy::leveled(2, 2),
        );
        // First freeze: one run at level 0; base untouched.
        for k in 0..8u64 {
            e.insert(k * 10 + 1, k);
        }
        assert_eq!(e.merges_completed(), 1);
        assert_eq!(e.run_count(), 1);
        assert_eq!(e.base_len(), 200, "leveled freeze must not rebuild the base");
        // Second freeze overflows level 0 (fanout 2) into level 1.
        for k in 0..8u64 {
            e.insert(k * 10 + 2, k);
        }
        assert_eq!(e.merges_completed(), 2);
        assert!(e.compactions() >= 1, "level 0 must have compacted");
        assert_eq!(e.level_run_counts()[0], 0);
        // Two more freezes overflow level 0 again; two level-1 runs then
        // fold into the base (the bottom level).
        for k in 0..16u64 {
            e.insert(k * 10 + 3, k);
        }
        e.wait_for_merges();
        assert!(e.base_len() > 200, "bottom-level overflow folds into the base");
        // Every write is still visible through every path.
        for k in 0..8u64 {
            assert_eq!(e.get(k * 10 + 1), Some(k));
            assert_eq!(e.get(k * 10 + 2), Some(k));
        }
        assert_eq!(e.len(), 200 + 8 + 8 + 16);
    }

    #[test]
    fn leveled_merged_volume_stays_below_flat() {
        // Same write stream through both policies: the leveled stack must
        // move strictly fewer entries per merge cycle.
        let keys: Vec<u64> = (0..20_000).map(|i| i * 4).collect();
        let run = |policy| {
            let e = engine_with_policy(keys.clone(), 256, MergeMode::Sync, policy);
            for k in 0..2_048u64 {
                e.insert(k * 4 + 1, k);
            }
            e.wait_for_merges();
            assert!(e.merges_completed() >= 4, "{policy:?}");
            e.merged_entries() as f64 / e.merges_completed() as f64
        };
        let flat = run(MergePolicy::Flat);
        let leveled = run(MergePolicy::leveled(4, 3));
        assert!(leveled < flat, "leveled per-cycle volume {leveled} must be below flat {flat}");
    }

    #[test]
    fn background_merges_complete_and_agree_with_oracle() {
        let e = engine((0..200).map(|i| i * 5).collect(), 32, MergeMode::Background);
        let mut oracle: BTreeMap<u64, u64> =
            (0..200u64).map(|i| (i * 5, (i * 5).wrapping_mul(3) ^ 0xA5)).collect();
        for round in 0..4u64 {
            for j in 0..40u64 {
                let k = round * 1_000 + j * 3 + 1;
                assert_eq!(e.insert(k, k), oracle.insert(k, k));
            }
            e.wait_for_merges();
        }
        assert!(e.merges_completed() >= 3, "got {}", e.merges_completed());
        assert_eq!(e.delta_len(), 0);
        for (&k, &v) in &oracle {
            assert_eq!(e.get(k), Some(v), "key {k}");
        }
        assert_eq!(e.len(), oracle.len());
    }

    #[test]
    fn failed_rebuild_rolls_the_delta_back() {
        use std::sync::atomic::AtomicU32;
        let fail_after = Arc::new(AtomicU32::new(1));
        let fa = Arc::clone(&fail_after);
        let factory: BaseFactory<u64> = Arc::new(move |d: Arc<SortedData<u64>>| {
            if fa.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1)).is_err() {
                return Err(BuildError::InvalidConfig("injected".into()));
            }
            Ok(Box::new(StaticEngine::new(MirrorIndex::over(&d), d)) as Box<dyn QueryEngine<u64>>)
        });
        let data = Arc::new(SortedData::new(vec![10u64, 20, 30]).unwrap());
        let e =
            WriteBehindEngine::new(data, factory, vecmap_factory(), 100, MergeMode::Sync).unwrap();
        e.insert(15, 1);
        e.insert(25, 2);
        e.remove(20);
        e.force_merge(); // rebuild fails: budget of 1 was spent at construction
        assert_eq!(e.failed_merges(), 1);
        assert_eq!(e.merges_completed(), 0);
        assert_eq!(e.epoch(), 0);
        assert_eq!(e.get(15), Some(1), "rolled-back entry still visible");
        assert_eq!(e.get(25), Some(2));
        assert_eq!(e.get(20), None, "rolled-back tombstone still shadows");
        assert_eq!(e.delta_len(), 3);
        // Allow the next rebuild: the retry succeeds and drains the delta.
        fail_after.store(1, Ordering::SeqCst);
        e.force_merge();
        assert_eq!(e.merges_completed(), 1);
        assert_eq!(e.delta_len(), 0);
        assert_eq!(e.get(15), Some(1));
        assert_eq!(e.get(20), None);
    }

    #[test]
    fn deleting_everything_keeps_serving() {
        // An empty base is not representable; the engine must stay correct
        // (tombstones keep shadowing) even when every record is removed.
        // Under `leveled(2, 1)` level 0 is the bottom level, so its two
        // all-tombstone runs reach the bottom fold with nothing left to
        // build a base from: they must stay stacked as one shadowing run.
        for policy in [MergePolicy::Flat, MergePolicy::leveled(2, 2), MergePolicy::leveled(2, 1)] {
            let e = engine_with_policy(vec![10, 20, 30], 2, MergeMode::Sync, policy);
            let p = |k: u64| k.wrapping_mul(3) ^ 0xA5;
            for k in [10u64, 20, 30] {
                assert_eq!(e.remove(k), Some(p(k)), "{policy:?}");
            }
            e.force_merge();
            if policy != MergePolicy::Flat {
                assert_eq!(e.compactions(), 1, "{policy:?}");
                assert_eq!(e.run_count(), 1, "{policy:?}");
                assert_eq!(e.base_len(), 3, "{policy:?}: the old base stays, shadowed");
            }
            assert_eq!(e.len(), 0, "{policy:?}");
            assert_eq!(e.range(0, u64::MAX), vec![], "{policy:?}");
            assert_eq!(e.lower_bound(0), None, "{policy:?}");
            for k in [10u64, 20, 30] {
                assert_eq!(e.get(k), None, "{policy:?}");
            }
            // And the world can come back.
            assert_eq!(e.insert(20, 9), None, "{policy:?}");
            assert_eq!(e.get(20), Some(9), "{policy:?}");
            assert_eq!(e.len(), 1, "{policy:?}");
        }
    }

    #[test]
    fn metadata_reflects_both_tiers() {
        let e = engine(vec![1, 2, 3], 100, MergeMode::Sync);
        assert!(e.name().starts_with("writebehind[Mirror+"));
        assert_eq!(e.merge_threshold(), 100);
        assert_eq!(e.policy(), MergePolicy::Flat);
        let before = e.size_bytes();
        for k in 10..200u64 {
            e.insert(k, k);
        }
        assert!(e.size_bytes() > before, "delta growth must show in size_bytes");
        assert!(!e.is_merging());
    }

    #[test]
    fn leveled_size_bytes_counts_runs() {
        let e = engine_with_policy(
            (0..100).map(|i| i * 3).collect(),
            16,
            MergeMode::Sync,
            MergePolicy::leveled(8, 2),
        );
        let before = e.size_bytes();
        for k in 0..16u64 {
            e.insert(k * 3 + 1, k);
        }
        e.wait_for_merges();
        assert_eq!(e.run_count(), 1);
        assert!(e.size_bytes() > before, "a frozen run must show in size_bytes");
    }

    /// Fresh spool directory under the system temp dir, removed by the
    /// returned guard.
    fn spool_dir(tag: &str) -> (PathBuf, impl Drop) {
        struct Cleanup(PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = fs::remove_dir_all(&self.0);
            }
        }
        let dir = std::env::temp_dir().join(format!("sosd-wb-spool-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (dir.clone(), Cleanup(dir))
    }

    fn spooled_engine(
        keys: Vec<u64>,
        threshold: usize,
        policy: MergePolicy,
        dir: &Path,
    ) -> WriteBehindEngine<u64> {
        let payloads: Vec<u64> = keys.iter().map(|&k| k.wrapping_mul(3) ^ 0xA5).collect();
        let data = Arc::new(SortedData::with_payloads(keys, payloads).unwrap());
        WriteBehindEngine::with_spool(
            data,
            mirror_factory(),
            vecmap_factory(),
            threshold,
            MergeMode::Sync,
            policy,
            dir,
            256,
        )
        .unwrap()
    }

    #[test]
    fn leveled_spool_reopens_the_whole_stack_cold() {
        let (dir, _guard) = spool_dir("leveled");
        let policy = MergePolicy::leveled(3, 2);
        let e = spooled_engine((0..200).map(|i| i * 2).collect(), 8, policy, &dir);
        // Enough churn to stack runs, compact, and leave live tombstones.
        for k in 0..40u64 {
            e.insert(k * 2 + 1, k + 1000);
        }
        for k in 10..30u64 {
            e.remove(k * 2); // tombstones over base keys
        }
        e.force_merge();
        e.wait_for_merges();
        assert!(e.run_count() > 0, "the scenario must leave frozen runs");
        drop(e);

        let cold = WriteBehindEngine::open_spool(
            &dir,
            mirror_factory(),
            vecmap_factory(),
            8,
            MergeMode::Sync,
            policy,
        )
        .unwrap();
        // Rebuild the original in RAM for the oracle comparison (the
        // spooled engine above was dropped; same data, same operations —
        // but never merged, so the oracle's answers come straight from its
        // delta over the pristine base).
        let oracle = engine_with_policy(
            (0..200).map(|i| i * 2).collect(),
            usize::MAX,
            MergeMode::Sync,
            policy,
        );
        for k in 0..40u64 {
            oracle.insert(k * 2 + 1, k + 1000);
        }
        for k in 10..30u64 {
            oracle.remove(k * 2);
        }
        for probe in 0..440u64 {
            assert_eq!(cold.get(probe), oracle.get(probe), "cold get({probe})");
        }
        assert_eq!(cold.range(0, 441), oracle.range(0, 441), "cold range");
        assert_eq!(cold.lookup_batch(&(0..440).collect::<Vec<_>>()), {
            let mut out = Vec::new();
            oracle.get_batch(&(0..440).collect::<Vec<_>>(), &mut out);
            out
        });
        assert_eq!(cold.len(), oracle.len(), "visible length survives re-open");
        assert_eq!(cold.delta_len(), 0, "the delta never survives a restart");
        assert!(cold.spool_bytes() > 0);
        // The re-opened engine keeps serving and spooling: a new merge must
        // commit a manifest the next cold open can read.
        cold.insert(9_999, 1);
        cold.force_merge();
        cold.wait_for_merges();
        let again = WriteBehindEngine::open_spool(
            &dir,
            mirror_factory(),
            vecmap_factory(),
            8,
            MergeMode::Sync,
            policy,
        )
        .unwrap();
        assert_eq!(again.get(9_999), Some(1), "post-reopen writes survive the next restart");
    }

    #[test]
    fn flat_spool_keeps_one_base_snapshot_and_reopens() {
        let (dir, _guard) = spool_dir("flat");
        let e = spooled_engine((0..50).map(|i| i * 2).collect(), 4, MergePolicy::Flat, &dir);
        for k in 0..20u64 {
            e.insert(k * 2 + 1, k); // several merge cycles
        }
        e.remove(0);
        e.force_merge();
        e.wait_for_merges();
        assert!(e.merges_completed() >= 2);
        let snaps: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|f| f.file_name().to_str().map(String::from))
            .filter(|n| n.ends_with(".snap"))
            .collect();
        assert_eq!(snaps.len(), 1, "flat spool sweeps every superseded base: {snaps:?}");
        let expect: Vec<Option<u64>> = (0..60u64).map(|k| e.get(k)).collect();
        drop(e);
        let cold = WriteBehindEngine::open_spool(
            &dir,
            mirror_factory(),
            vecmap_factory(),
            4,
            MergeMode::Sync,
            MergePolicy::Flat,
        )
        .unwrap();
        let got: Vec<Option<u64>> = (0..60u64).map(|k| cold.get(k)).collect();
        assert_eq!(got, expect, "flat cold re-open serves the merged base");
        assert_eq!(cold.run_count(), 0);
    }

    #[test]
    fn corrupted_spool_snapshot_fails_loudly_on_reopen() {
        let (dir, _guard) = spool_dir("corrupt");
        let policy = MergePolicy::leveled(4, 2);
        let e = spooled_engine((0..100).map(|i| i * 2).collect(), 4, policy, &dir);
        for k in 0..8u64 {
            e.insert(k * 2 + 1, k);
        }
        e.wait_for_merges();
        assert!(e.run_count() > 0);
        drop(e);
        // Flip one byte in the middle of a run snapshot.
        let victim = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .find(|f| f.file_name().to_str().is_some_and(|n| n.starts_with("run-")))
            .expect("a run snapshot exists")
            .path();
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&victim, bytes).unwrap();
        let err = WriteBehindEngine::<u64>::open_spool(
            &dir,
            mirror_factory(),
            vecmap_factory(),
            4,
            MergeMode::Sync,
            policy,
        );
        assert!(err.is_err(), "a corrupted run page must fail the cold open, not serve garbage");
    }

    #[test]
    fn flat_reopen_of_a_leveled_spool_is_rejected() {
        let (dir, _guard) = spool_dir("mismatch");
        let policy = MergePolicy::leveled(4, 2);
        let e = spooled_engine((0..100).map(|i| i * 2).collect(), 4, policy, &dir);
        for k in 0..8u64 {
            e.insert(k * 2 + 1, k);
        }
        e.wait_for_merges();
        assert!(e.run_count() > 0);
        drop(e);
        assert!(
            WriteBehindEngine::<u64>::open_spool(
                &dir,
                mirror_factory(),
                vecmap_factory(),
                4,
                MergeMode::Sync,
                MergePolicy::Flat,
            )
            .is_err(),
            "flat policy would drop the frozen runs' entries at the first merge"
        );
    }
}
