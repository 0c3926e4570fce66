//! The only file of the benchmark that touches the program. Every program
//! symbol the benchmark links against is named in the `use` lines below;
//! every call into a layer and every read of a program counter happens in
//! one of the thin wrappers here. A change that moves or renames one of
//! these symbols re-points this file and nothing else (README.md lists
//! them).
//!
//! The wrappers build **the ladder** — the standard stack, each rung
//! wrapping the one below once, from `sosd-core` / index-crate public
//! constructors only (not from `sosd_bench::registry`):
//!
//! `index` (RMI `search_bound` + binary `find` + payload read) →
//! `engine` (`StaticEngine`) → `shard` (`ShardedEngine`, 4 shards) →
//! `writebehind` (`WriteBehindEngine`, leveled 4×3, Bloom run filters, sync
//! merges, B+Tree delta) → `cache` (`CachedEngine`, negative mode, n/128
//! entries, 8 stripes) → `serve` (`RequestScheduler`, wave 32, linger
//! 100 µs, 1 worker, `peek` fast path).

use crate::gen::Op;
use crate::oracle::{range_digest, Answer};
use sosd_btree::DynamicBTree;
use sosd_core::serve::{result_mix, FastProbe};
use sosd_core::writebehind::{BaseFactory, DeltaFactory};
use sosd_core::{
    write_snapshot, BlockStore, CachedEngine, Index, IndexBuilder, MemStore, MergeMode,
    MergePolicy, PagedData, PagedEngine, PinnedView, ProfiledStore, QueryEngine, RequestScheduler,
    Response, SchedulerConfig, SearchBound, SearchStrategy, ShardedEngine, SortedData,
    StaticEngine, StorageProfile, StoreStats, WriteBehindEngine, DEFAULT_PAGE_SIZE,
};
use sosd_datasets::{generate_u64, DatasetId};
use sosd_rmi::{Rmi, RmiBuilder};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

pub const SHARDS: usize = 4;
pub const LEVEL_FANOUT: usize = 4;
pub const MAX_LEVELS: usize = 3;
pub const CACHE_DIVISOR: usize = 128;
pub const CACHE_STRIPES: usize = 8;
pub const WAVE_SIZE: usize = 32;
pub const LINGER_US: u64 = 100;
pub const WORKERS: usize = 1;
pub const QUEUE_CAP: usize = 4096;

/// A dataset: sorted keys and their payloads, shared by every rung.
#[derive(Clone)]
pub struct Data(Arc<SortedData<u64>>);

impl Data {
    /// `sosd_datasets::generate_u64` by dataset name (`osm`, `amzn`).
    pub fn generate(name: &str, n: usize, seed: u64) -> Self {
        let id = DatasetId::parse(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
        Data(Arc::new(generate_u64(id, n, seed)))
    }

    pub fn from_columns(keys: Vec<u64>, payloads: Vec<u64>) -> Self {
        Data(Arc::new(SortedData::with_payloads(keys, payloads).expect("sorted columns")))
    }

    pub fn keys(&self) -> &[u64] {
        self.0.keys()
    }

    pub fn payloads(&self) -> &[u64] {
        self.0.payloads()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Rung `index`: the bare learned index, its last-mile search, and the
/// payload read, called the way `StaticEngine::get` composes them.
pub struct IndexRung {
    rmi: Rmi<u64>,
    data: Arc<SortedData<u64>>,
}

impl IndexRung {
    pub fn build(data: &Data) -> Self {
        let rmi = RmiBuilder::default().build(&data.0).expect("rmi build");
        IndexRung { rmi, data: Arc::clone(&data.0) }
    }

    /// Move the rung onto a copy of its data, like the copies the rungs
    /// above it make of their partitions: a rung that shared the array with
    /// its neighbour would find in the CPU caches what the neighbour's pass
    /// over the same stretch just loaded. The model does not change.
    pub fn on_own_copy(self) -> Self {
        let copy =
            SortedData::with_payloads(self.data.keys().to_vec(), self.data.payloads().to_vec());
        IndexRung { rmi: self.rmi, data: Arc::new(copy.expect("a copy of sorted columns")) }
    }

    /// `Index::search_bound` only.
    #[inline]
    pub fn bound(&self, key: u64) -> (usize, usize) {
        let b = self.rmi.search_bound(key);
        (b.lo, b.hi)
    }

    /// `SearchStrategy::find` over a precomputed bound.
    #[inline]
    pub fn find(&self, key: u64, (lo, hi): (usize, usize)) -> usize {
        SearchStrategy::Binary.find(self.data.keys(), key, SearchBound { lo, hi })
    }

    #[inline]
    pub fn get(&self, key: u64) -> Answer {
        let pos = self.find(key, self.bound(key));
        self.data.payload_sum_from(key, pos)
    }

    pub fn size_bytes(&self) -> usize {
        self.rmi.size_bytes()
    }
}

fn static_engine(data: Arc<SortedData<u64>>) -> StaticEngine<u64, Rmi<u64>> {
    let rmi = RmiBuilder::default().build(&data).expect("rmi build");
    StaticEngine::new(rmi, data)
}

fn sharded_engine(data: &SortedData<u64>) -> ShardedEngine<u64> {
    ShardedEngine::build_with(data, SHARDS, |part| {
        Ok(Box::new(static_engine(Arc::new(part))) as Box<dyn QueryEngine<u64>>)
    })
    .expect("sharded build")
}

fn writebehind_engine(data: &Data, merge_threshold: usize) -> WriteBehindEngine<u64> {
    let base: BaseFactory<u64> =
        Arc::new(|d| Ok(Box::new(sharded_engine(&d)) as Box<dyn QueryEngine<u64>>));
    let delta: DeltaFactory<u64> = Arc::new(|| Box::new(DynamicBTree::new()));
    WriteBehindEngine::with_policy(
        Arc::clone(&data.0),
        base,
        delta,
        merge_threshold,
        MergeMode::Sync,
        MergePolicy::leveled(LEVEL_FANOUT, MAX_LEVELS),
    )
    .expect("writebehind build")
}

fn read_op<E: QueryEngine<u64>>(engine: &E, op: Op) -> Answer {
    match op {
        Op::Get(k) => engine.get(k),
        Op::Range(lo, hi) => Some(range_digest(engine.range(lo, hi))),
        Op::Insert(..) | Op::Remove(_) => panic!("{op:?} sent to a read-only rung"),
    }
}

/// `QueryEngine::get_batch` on a rung, appending to `out`.
macro_rules! batch_surface {
    ($rung:ty) => {
        impl $rung {
            #[inline]
            pub fn get_batch(&self, keys: &[u64], out: &mut Vec<Answer>) {
                self.0.get_batch(keys, out)
            }
        }
    };
}

/// Entries returned by `QueryEngine::range(lo, hi)` on a rung.
macro_rules! range_surface {
    ($rung:ty) => {
        impl $rung {
            pub fn range_len(&self, lo: u64, hi: u64) -> usize {
                self.0.range(lo, hi).len()
            }
        }
    };
}

/// Rung `engine`: `StaticEngine` over the RMI.
pub struct EngineRung(StaticEngine<u64, Rmi<u64>>);
batch_surface!(EngineRung);
range_surface!(EngineRung);

impl EngineRung {
    pub fn build(data: &Data) -> Self {
        EngineRung(static_engine(Arc::clone(&data.0)))
    }

    #[inline]
    pub fn apply(&self, op: Op) -> Answer {
        read_op(&self.0, op)
    }
}

/// Rung `shard`: `ShardedEngine::build_with`, one `engine` per shard.
pub struct ShardRung(ShardedEngine<u64>);
batch_surface!(ShardRung);

impl ShardRung {
    pub fn build(data: &Data) -> Self {
        ShardRung(sharded_engine(&data.0))
    }

    #[inline]
    pub fn apply(&self, op: Op) -> Answer {
        read_op(&self.0, op)
    }
}

/// The write-behind tier's counters, read at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WbCounters {
    /// Merge cycles (delta freezes) completed.
    pub merges: u64,
    pub compactions: u64,
    pub merged_entries: u64,
    pub run_count: u64,
    pub base_len: u64,
    pub stack_lookups: u64,
    pub stack_probes: u64,
    pub filter_skips: u64,
}

fn wb_counters(wb: &WriteBehindEngine<u64>) -> WbCounters {
    WbCounters {
        merges: wb.merges_completed(),
        compactions: wb.compactions(),
        merged_entries: wb.merged_entries(),
        run_count: wb.run_count() as u64,
        base_len: wb.base_len() as u64,
        stack_lookups: wb.stack_lookups(),
        stack_probes: wb.stack_probes(),
        filter_skips: wb.filter_skips(),
    }
}

/// Rung `writebehind`: `WriteBehindEngine::with_policy` over a `shard` base.
pub struct WbRung(WriteBehindEngine<u64>);
batch_surface!(WbRung);
range_surface!(WbRung);

impl WbRung {
    pub fn build(data: &Data, merge_threshold: usize) -> Self {
        WbRung(writebehind_engine(data, merge_threshold))
    }

    #[inline]
    pub fn apply(&self, op: Op) -> Answer {
        match op {
            Op::Insert(k, v) => self.0.insert(k, v),
            Op::Remove(k) => self.0.remove(k),
            read => read_op(&self.0, read),
        }
    }

    #[inline]
    pub fn get(&self, key: u64) -> Answer {
        self.0.get(key)
    }

    pub fn counters(&self) -> WbCounters {
        wb_counters(&self.0)
    }

    /// `WriteBehindEngine::snapshot`: a pinned point-in-time view.
    pub fn pin(&self) -> Pinned {
        Pinned(self.0.snapshot())
    }
}

/// A `PinnedView` of the `writebehind` rung.
pub struct Pinned(PinnedView<u64>);

impl Pinned {
    #[inline]
    pub fn get(&self, key: u64) -> Answer {
        self.0.get(key)
    }
}

type Cached = CachedEngine<u64, WriteBehindEngine<u64>>;

/// Rung `cache`: `CachedEngine::with_negative` over a `writebehind` rung,
/// behind an `Arc` so the scheduler and its fast path can share it.
pub struct CacheRung(Arc<Cached>);

impl CacheRung {
    pub fn build(data: &Data, merge_threshold: usize) -> Self {
        let capacity = (data.len() / CACHE_DIVISOR).max(CACHE_STRIPES);
        let inner = writebehind_engine(data, merge_threshold);
        CacheRung(Arc::new(
            CachedEngine::with_negative(inner, capacity, CACHE_STRIPES, true).expect("cache build"),
        ))
    }

    /// Writes go through `CachedEngine::insert` / `remove` (write, then
    /// invalidate); reads through the cache.
    #[inline]
    pub fn apply(&self, op: Op) -> Answer {
        match op {
            Op::Insert(k, v) => self.0.insert(k, v),
            Op::Remove(k) => self.0.remove(k),
            read => read_op(&*self.0, read),
        }
    }

    #[inline]
    pub fn get(&self, key: u64) -> Answer {
        self.0.get(key)
    }

    /// `merges_completed()` of the inner tier: one relaxed load, cheap
    /// enough to poll after every block.
    #[inline]
    pub fn merges(&self) -> u64 {
        self.0.inner().merges_completed()
    }

    /// `(hits, misses)` since construction.
    #[inline]
    pub fn hits_misses(&self) -> (u64, u64) {
        (self.0.hits(), self.0.misses())
    }

    pub fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }

    /// Bytes of the cache tier alone (total minus the inner engine).
    pub fn own_size_bytes(&self) -> usize {
        self.0.size_bytes() - self.0.inner().size_bytes()
    }

    pub fn counters(&self) -> WbCounters {
        wb_counters(self.0.inner())
    }
}

/// The scheduler's counters and histograms, read once it is idle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    pub submitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub fast_hits: u64,
    pub avg_wave: f64,
    pub peak_queue: u64,
    /// Commutative `result_mix` sum over completions.
    pub checksum: u64,
    pub queue_wait_ns_p50: u64,
    pub queue_wait_ns_p99: u64,
    /// Enqueue → completion as the scheduler itself records it.
    pub internal_ns_p50: u64,
}

/// One admitted request.
pub struct Ticket(Response);

impl Ticket {
    /// `Response::try_result`: the answer once the wave completed.
    #[inline]
    pub fn poll(&self) -> Option<Answer> {
        self.0.try_result()
    }

    /// `Response::wait`: block until the answer is there.
    #[inline]
    pub fn wait(&self) -> Answer {
        self.0.wait()
    }
}

/// Rung `serve`: `RequestScheduler::with_fast_path` over a `cache` rung
/// with `CachedEngine::peek` as the fast path.
pub struct ServeRung(RequestScheduler<u64, Cached>);

impl ServeRung {
    /// A fresh scheduler (fresh counters, one worker thread) over `cache`.
    /// Dropping it drains the queue and joins the worker.
    pub fn start(cache: &CacheRung, queue_cap: usize) -> Self {
        let config = SchedulerConfig {
            wave_size: WAVE_SIZE,
            linger: Duration::from_micros(LINGER_US),
            workers: WORKERS,
            queue_cap,
        };
        let peek = Arc::clone(&cache.0);
        let fast: FastProbe<u64> = Arc::new(move |key| peek.peek(key));
        ServeRung(
            RequestScheduler::with_fast_path(Arc::clone(&cache.0), config, fast)
                .expect("scheduler build"),
        )
    }

    /// `RequestScheduler::submit`; `None` when the request was shed.
    #[inline]
    pub fn submit(&self, key: u64) -> Option<Ticket> {
        self.0.submit(key).ok().map(Ticket)
    }

    pub fn wait_idle(&self) {
        self.0.wait_idle()
    }

    pub fn stats(&self) -> ServeStats {
        let s = self.0.stats();
        ServeStats {
            submitted: s.submitted,
            completed: s.completed,
            shed: s.shed,
            fast_hits: s.fast_hits,
            avg_wave: s.avg_wave(),
            peak_queue: s.peak_queue,
            checksum: s.checksum,
            queue_wait_ns_p50: self.0.queue_wait().p50(),
            queue_wait_ns_p99: self.0.queue_wait().p99(),
            internal_ns_p50: self.0.latency().p50(),
        }
    }
}

/// The program's commutative per-request digest (`serve::result_mix`),
/// applied by the benchmark to its oracle's answers.
#[inline]
pub fn completion_mix(key: u64, answer: Answer) -> u64 {
    result_mix(key, answer)
}

/// Side rung `store`: a `PagedEngine` serving from a `MemStore` snapshot of
/// the dataset behind a RAM-profile `ProfiledStore` (no injected latency;
/// the wrapper only counts page reads).
pub struct StoreRung {
    engine: PagedEngine<u64>,
    stats: Arc<StoreStats>,
    pub snapshot_bytes: u64,
}

impl StoreRung {
    /// `write_snapshot` into a fresh `MemStore`; returns the store ready
    /// for [`StoreRung::cold_open`].
    pub fn write(data: &Data) -> (ProfiledStore<MemStore>, u64) {
        let mut mem = MemStore::new(DEFAULT_PAGE_SIZE).expect("mem store");
        let bytes = write_snapshot(&mut mem, &data.0, &[]).expect("snapshot write");
        (ProfiledStore::new(mem, StorageProfile::RAM), bytes)
    }

    /// `PagedData::open` + `PagedEngine::open_with`: validate, stream the
    /// keys once, retrain the model.
    pub fn cold_open((store, snapshot_bytes): (ProfiledStore<MemStore>, u64)) -> Self {
        let stats = store.stats();
        let store: Arc<dyn BlockStore> = Arc::new(store);
        let paged = Arc::new(PagedData::open(store).expect("snapshot open"));
        let engine = PagedEngine::open_with(paged, SearchStrategy::Binary, |d| {
            Ok(Box::new(RmiBuilder::default().build(d)?) as Box<dyn Index<u64>>)
        })
        .expect("cold open");
        StoreRung { engine, stats, snapshot_bytes }
    }

    #[inline]
    pub fn get(&self, key: u64) -> Answer {
        self.engine.get(key)
    }

    /// Pages fetched since the last call.
    pub fn take_pages_read(&self) -> u64 {
        self.stats.pages_read.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Mirror, SortedOracle};

    /// A tiny hand-built dataset with a duplicate group and both extremes.
    fn tiny() -> Data {
        Data::from_columns(
            vec![0, 1, 3, 3, 3, 8, 20, u64::MAX - 1],
            vec![9, 5, 6, 7, u64::MAX, 2, 4, 1],
        )
    }

    #[test]
    fn every_rung_of_a_tiny_stack_agrees_with_the_sorted_oracle() {
        let data = tiny();
        let oracle = SortedOracle::new(data.keys(), data.payloads());
        let index = IndexRung::build(&data);
        let engine = EngineRung::build(&data);
        let shard = ShardRung::build(&data);
        let wb = WbRung::build(&data, 4);
        let cache = CacheRung::build(&data, 4);
        let serve = ServeRung::start(&cache, QUEUE_CAP);
        let probes = [0, 1, 2, 3, 4, 8, 9, 20, 21, u64::MAX - 2, u64::MAX - 1, u64::MAX];
        // Twice: the second round is answered by the result cache.
        for key in probes.into_iter().chain(probes) {
            let want = oracle.get(key);
            assert_eq!(index.get(key), want, "index {key}");
            assert_eq!(engine.apply(Op::Get(key)), want, "engine {key}");
            assert_eq!(shard.apply(Op::Get(key)), want, "shard {key}");
            assert_eq!(wb.get(key), want, "writebehind {key}");
            assert_eq!(wb.pin().get(key), want, "pinned {key}");
            assert_eq!(cache.get(key), want, "cache {key}");
            assert_eq!(serve.submit(key).expect("admitted").wait(), want, "serve {key}");
        }
        assert_eq!(oracle.get(3), Some(12)); // 6 + 7 + MAX wraps: the group is summed
        let (hits, misses) = cache.hits_misses();
        assert!(hits >= probes.len() as u64 && misses >= probes.len() as u64, "{hits} {misses}");
        let mut batch = Vec::new();
        engine.get_batch(&probes, &mut batch);
        shard.get_batch(&probes, &mut batch);
        wb.get_batch(&probes, &mut batch);
        let want: Vec<Answer> = probes.iter().map(|&k| oracle.get(k)).collect();
        assert_eq!(batch, [want.clone(), want.clone(), want].concat());
    }

    #[test]
    fn writes_through_the_cache_rung_follow_the_mirror_across_merges() {
        // Unique keys: the mirror models one payload per key.
        let keys: Vec<u64> = (0..200).map(|i| i * 10).collect();
        let payloads: Vec<u64> = keys.iter().map(|k| k + 1).collect();
        let data = Data::from_columns(keys.clone(), payloads.clone());
        let cache = CacheRung::build(&data, 8);
        let wb = WbRung::build(&data, 8);
        let mut mirror = Mirror::bulk(&keys, &payloads);
        let mut rng = crate::gen::Rng::new(3, 0);
        for i in 0..2_000u64 {
            let key = rng.below(2_200);
            let op = match i % 5 {
                0 => Op::Insert(key, i),
                1 => Op::Remove(key),
                2 => Op::Range(key, key + 100),
                _ => Op::Get(key),
            };
            let want = mirror.apply(op);
            assert_eq!(cache.apply(op), want, "cache op {i}: {op:?}");
            assert_eq!(wb.apply(op), want, "writebehind op {i}: {op:?}");
        }
        // Both tiers saw the same writes; the cached one saw fewer reads.
        let (c, w) = (cache.counters(), wb.counters());
        assert_eq!(
            (c.merges, c.compactions, c.merged_entries, c.run_count, c.base_len),
            (w.merges, w.compactions, w.merged_entries, w.run_count, w.base_len)
        );
        assert!(c.stack_lookups <= w.stack_lookups);
        assert!(c.merges >= 16 && c.compactions >= 4, "{c:?}");
        assert_eq!(cache.merges(), c.merges);
        assert!(c.merged_entries > 0 && c.stack_lookups > 0);
    }

    #[test]
    fn the_store_rung_serves_the_same_answers_and_counts_pages() {
        let data = Data::generate("amzn", 20_000, 5);
        let oracle = SortedOracle::new(data.keys(), data.payloads());
        let store = StoreRung::cold_open(StoreRung::write(&data));
        assert!(store.snapshot_bytes > 20_000 * 8);
        store.take_pages_read();
        for i in (0..20_000).step_by(97) {
            let key = data.keys()[i];
            assert_eq!(store.get(key), oracle.get(key));
            assert_eq!(store.get(key + 1), oracle.get(key + 1));
        }
        assert!(store.take_pages_read() > 0);
        assert_eq!(store.take_pages_read(), 0);
    }

    #[test]
    fn the_scheduler_digest_matches_the_oracle_digest() {
        let data = tiny();
        let oracle = SortedOracle::new(data.keys(), data.payloads());
        let cache = CacheRung::build(&data, 4);
        let serve = ServeRung::start(&cache, QUEUE_CAP);
        let keys = [3u64, 4, 8, 3, u64::MAX];
        let tickets: Vec<Ticket> =
            keys.iter().map(|&k| serve.submit(k).expect("admitted")).collect();
        serve.wait_idle();
        assert!(tickets.iter().all(|t| t.poll().is_some()));
        let want = keys.iter().fold(0u64, |s, &k| s.wrapping_add(completion_mix(k, oracle.get(k))));
        let stats = serve.stats();
        assert_eq!(stats.checksum, want);
        assert_eq!((stats.submitted, stats.completed, stats.shed), (5, 5, 0));
    }
}
