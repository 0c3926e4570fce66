//! Integration suite for the caching tier: `BTreeMap`-oracle property
//! tests of a `CachedEngine` over a `WriteBehindEngine` with interleaved
//! inserts and merges in both modes (a cached-then-overwritten key is
//! re-probed immediately — the stale-hit trap), an eviction-at-capacity
//! unit test, a concurrent writer/reader regression proving no stale hit
//! is ever served while background merges swap generations, the hit
//! rate a small cache reaches under Zipf reads over each serving layout,
//! and a torn-read stress test of the lock-free set probe.

use proptest::prelude::*;
use sosd::bench::registry::{EngineSpec, Family};
use sosd::core::cache::CachedEngine;
use sosd::core::util::splitmix64;
use sosd::core::{
    MergeMode, MergePolicy, Op, QueryEngine, SearchStrategy, SortedData, WriteBehindEngine,
};
use sosd::datasets::{generate_mixed, DatasetId, MixedConfig, ReadSkew};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A cached write-behind engine over `keys` plus the matching oracle.
fn build(
    keys: &[u64],
    threshold: usize,
    capacity: usize,
    mode: MergeMode,
) -> (CachedEngine<u64, WriteBehindEngine<u64>>, BTreeMap<u64, u64>) {
    let payloads: Vec<u64> = keys.iter().map(|&k| k.wrapping_mul(0x9E37_79B9) ^ 1).collect();
    let oracle: BTreeMap<u64, u64> = keys.iter().copied().zip(payloads.iter().copied()).collect();
    let data = Arc::new(SortedData::with_payloads(keys.to_vec(), payloads).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards: 1,
        inner: Family::Pgm.default_spec::<u64>(),
        merge_threshold: threshold,
        policy: MergePolicy::leveled(2, 1),
    };
    let wb = spec.writebehind_engine(&data, SearchStrategy::Binary, mode).expect("builds");
    (CachedEngine::new(wb, capacity, 4).expect("cache builds"), oracle)
}

/// Distinct sorted base keys, extremes included often.
fn base_keys() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(
        prop_oneof![
            8 => any::<u32>().prop_map(|v| v as u64 * 1_000),
            2 => any::<u64>(),
            1 => Just(0u64),
            1 => Just(u64::MAX),
        ],
        2..120,
    )
    .prop_map(|set| set.into_iter().collect())
}

/// An insert stream that collides with the base keys and itself often, so
/// overwrites of already-cached results are common.
fn op_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec(
        (
            prop_oneof![
                4 => (0u64..60).prop_map(|v| v * 1_000),
                2 => any::<u64>(),
                1 => Just(u64::MAX),
            ],
            any::<u64>(),
        ),
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The stale-hit trap, sequentially: cache a key's result, overwrite
    /// the key through the cached write path, probe again — the cache must
    /// never resurrect the old payload, across sync merge cycles, and
    /// every probe (hit or miss) must agree with the `BTreeMap` oracle.
    #[test]
    fn cached_writebehind_sync_never_serves_stale(
        keys in base_keys(),
        ops in op_stream(),
    ) {
        // A tiny merge threshold so merges interleave densely with probes.
        let (engine, mut oracle) = build(&keys, 24, 64, MergeMode::Sync);
        for (step, &(k, v)) in ops.iter().enumerate() {
            // Pull the key's current result into the cache (when present).
            prop_assert_eq!(engine.get(k), oracle.get(&k).copied(), "pre-insert get {}", k);
            prop_assert_eq!(engine.insert(k, v), oracle.insert(k, v), "insert {} step {}", k, step);
            // The trap: a stale cache would answer with the pre-insert hit.
            prop_assert_eq!(engine.get(k), Some(v), "stale hit on {} at step {}", k, step);
            let probe = k.wrapping_mul(3).wrapping_add(step as u64);
            prop_assert_eq!(engine.get(probe), oracle.get(&probe).copied(), "get {}", probe);
            // Ordered queries bypass the cache and see the same state.
            prop_assert_eq!(
                engine.lower_bound(probe),
                oracle.range(probe..).next().map(|(&k, &v)| (k, v)),
                "lower_bound {}", probe
            );
        }
        // Enough *distinct* inserts cross the threshold ⇒ merges happened
        // (overwrites of deltaed keys do not grow the active delta).
        let distinct: std::collections::HashSet<u64> = ops.iter().map(|&(k, _)| k).collect();
        prop_assert!(engine.inner().merges_completed() > 0 || distinct.len() < 24);
        // Batches must agree with the oracle too (hit/miss partitioned).
        let batch: Vec<u64> = ops.iter().map(|&(k, _)| k).collect();
        let results = engine.lookup_batch(&batch);
        for (&k, got) in batch.iter().zip(&results) {
            prop_assert_eq!(*got, oracle.get(&k).copied(), "batch {}", k);
        }
    }

    /// The same oracle agreement with background merges: probes run while
    /// generation rebuilds are in flight, and the cache stays exact.
    #[test]
    fn cached_writebehind_background_never_serves_stale(
        keys in base_keys(),
        ops in op_stream(),
    ) {
        let (engine, mut oracle) = build(&keys, 16, 48, MergeMode::Background);
        for (step, &(k, v)) in ops.iter().enumerate() {
            prop_assert_eq!(engine.get(k), oracle.get(&k).copied(), "pre-insert get {}", k);
            prop_assert_eq!(engine.insert(k, v), oracle.insert(k, v), "insert {} step {}", k, step);
            prop_assert_eq!(engine.get(k), Some(v), "stale hit on {} at step {}", k, step);
            if step % 32 == 17 {
                engine.inner().force_merge();
            }
            let probe = k.wrapping_add(step as u64);
            prop_assert_eq!(engine.get(probe), oracle.get(&probe).copied(), "get {}", probe);
        }
        engine.inner().wait_for_merges();
        // Post-merge: every key, through the cache, matches the oracle.
        for (&k, &v) in &oracle {
            prop_assert_eq!(engine.get(k), Some(v), "post-merge get {}", k);
        }
        prop_assert_eq!(engine.len(), oracle.len());
    }
}

/// Removes invalidate cached hits: a cached key removed through the
/// cached write path (which lands a tombstone in the write-behind delta)
/// must answer `None` on the very next probe — a stale cache would
/// resurrect the payload. Exercised over a *leveled* write-behind inner,
/// across merge and compaction cycles, with re-inserts mixed in so
/// tombstone-then-revive transitions also flow through the cache.
#[test]
fn removes_invalidate_cached_hits_over_writebehind() {
    let keys: Vec<u64> = (0..2_000u64).map(|i| i * 3).collect();
    let payloads: Vec<u64> = keys.iter().map(|&k| k + 7).collect();
    let data = Arc::new(SortedData::with_payloads(keys.clone(), payloads).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards: 1,
        inner: Family::Pgm.default_spec::<u64>(),
        merge_threshold: 64,
        policy: MergePolicy::leveled(2, 2),
    };
    for mode in [MergeMode::Sync, MergeMode::Background] {
        let mut oracle: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k + 7)).collect();
        let wb = spec.writebehind_engine(&data, SearchStrategy::Binary, mode).expect("builds");
        let engine = CachedEngine::new(wb, 256, 4).expect("cache builds");
        let mut x = 0xC0FFEEu64;
        for step in 0..1_500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x % 2_200) * 3; // mostly collides with stored keys
                                     // Cache the current state of the key (hit or miss).
            assert_eq!(engine.get(k), oracle.get(&k).copied(), "pre-op get {k} ({mode:?})");
            if x.is_multiple_of(3) {
                assert_eq!(engine.remove(k), oracle.remove(&k), "remove {k} step {step}");
                // The trap: a stale cache hit would resurrect the payload.
                assert_eq!(engine.get(k), None, "stale hit after remove of {k} ({mode:?})");
            } else {
                let v = x >> 32;
                assert_eq!(engine.insert(k, v), oracle.insert(k, v), "insert {k} step {step}");
                assert_eq!(engine.get(k), Some(v), "stale hit after insert of {k} ({mode:?})");
            }
        }
        engine.inner().wait_for_merges();
        // Sync merges run inline, one per threshold crossing; background
        // cycles overlap the stream, so only some crossings win the flag.
        let want_cycles = if mode == MergeMode::Sync { 3 } else { 1 };
        assert!(
            engine.inner().merges_completed() >= want_cycles,
            "merge cycles must have run ({mode:?}): {}",
            engine.inner().merges_completed()
        );
        assert!(engine.hits() > 0, "the stream must have exercised cache hits ({mode:?})");
        for &k in &keys {
            assert_eq!(engine.get(k), oracle.get(&k).copied(), "post-merge {k} ({mode:?})");
        }
        assert_eq!(engine.len(), oracle.len(), "{mode:?}");
    }
}

/// The negative-mode stale-absence trap over a live write-behind inner: an
/// absent key's None is cached (the repeat probe is a hit), then an insert
/// through the cached write path must invalidate that negative entry —
/// serving the cached None after the insert would un-insert the key. The
/// remove → re-insert cycle is exercised too, in both merge modes.
#[test]
fn negative_entries_are_invalidated_by_writes_over_writebehind() {
    let keys: Vec<u64> = (0..2_000u64).map(|i| i * 3).collect();
    let payloads: Vec<u64> = keys.iter().map(|&k| k + 7).collect();
    let data = Arc::new(SortedData::with_payloads(keys.clone(), payloads).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards: 1,
        inner: Family::Pgm.default_spec::<u64>(),
        merge_threshold: 64,
        policy: MergePolicy::leveled(2, 1),
    };
    for mode in [MergeMode::Sync, MergeMode::Background] {
        let mut oracle: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k + 7)).collect();
        let wb = spec.writebehind_engine(&data, SearchStrategy::Binary, mode).expect("builds");
        let engine = CachedEngine::with_negative(wb, 256, 4, true).expect("cache builds");
        let mut x = 0xBAD_C0DEu64;
        for step in 0..1_200u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x % 2_200) * 3 + (x % 2); // odd keys are never stored
                                               // Cache the key's current state; absences are cached too.
            assert_eq!(engine.get(k), oracle.get(&k).copied(), "pre-op get {k} ({mode:?})");
            if !oracle.contains_key(&k) {
                // The repeat probe of an absent key must be a negative hit,
                // not a second trip to the inner engine.
                let h0 = engine.hits();
                assert_eq!(engine.get(k), None, "repeat miss {k}");
                assert_eq!(engine.hits(), h0 + 1, "absence of {k} was not cached ({mode:?})");
            }
            if x.is_multiple_of(3) {
                let v = x >> 32;
                assert_eq!(engine.insert(k, v), oracle.insert(k, v), "insert {k} step {step}");
                // The trap: a surviving negative entry would answer None.
                assert_eq!(engine.get(k), Some(v), "stale negative hit on {k} ({mode:?})");
            } else if x.is_multiple_of(5) {
                assert_eq!(engine.remove(k), oracle.remove(&k), "remove {k} step {step}");
                assert_eq!(engine.get(k), None, "stale hit after remove of {k} ({mode:?})");
            }
        }
        engine.inner().wait_for_merges();
        for &k in &keys {
            assert_eq!(engine.get(k), oracle.get(&k).copied(), "post-merge {k} ({mode:?})");
        }
        assert_eq!(engine.len(), oracle.len(), "{mode:?}");
    }
}

/// Eviction at capacity: a probe stream far wider than the cache leaves at
/// most `capacity()` entries cached, evicts cold keys, and never evicts
/// correctness — every probe still matches the inner engine.
#[test]
fn eviction_at_capacity_stays_bounded_and_correct() {
    let keys: Vec<u64> = (0..50_000u64).map(|i| i * 2).collect();
    let (engine, oracle) = build(&keys, 1 << 30, 256, MergeMode::Sync);
    for pass in 0..3 {
        for k in 0..10_000u64 {
            let probe = k * 10 % 100_000;
            assert_eq!(engine.get(probe), oracle.get(&probe).copied(), "pass {pass} probe {probe}");
        }
        assert!(
            engine.cached_len() <= engine.capacity(),
            "pass {pass}: {} cached > capacity {}",
            engine.cached_len(),
            engine.capacity()
        );
    }
    // The sweep filled the cache to its bound and actually evicted: far
    // more distinct present keys were probed than fit. (A cyclic scan
    // wider than the cache yields ~zero hits — the classic cycling
    // pathology — so the hit check below uses immediate re-probes.)
    assert_eq!(engine.cached_len(), engine.capacity());
    assert!(
        engine.misses() > engine.capacity() as u64 * 2,
        "the stream must overflow capacity many times over"
    );
    let h0 = engine.hits();
    for k in [0u64, 20, 40] {
        engine.get(k); // fill (or refresh)
        assert_eq!(engine.get(k), oracle.get(&k).copied(), "re-probe {k}");
    }
    assert!(engine.hits() >= h0 + 3, "immediate re-probes must hit");
    assert_eq!(engine.cached_len(), engine.capacity(), "re-probes keep the bound");
}

/// Concurrent no-stale-hit regression: a writer overwrites a hot key set
/// with strictly increasing versions through the cached write path (and
/// background merges churn generations underneath) while a reader hammers
/// cached point gets. Per key, observed versions must never go backwards —
/// a stale cache hit after an invalidation would.
#[test]
fn concurrent_reads_never_go_backwards_under_merges() {
    const HOT: u64 = 256;
    let keys: Vec<u64> = (0..20_000u64).collect();
    let payloads = vec![0u64; keys.len()]; // version 0 everywhere
    let data = Arc::new(SortedData::with_payloads(keys, payloads).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards: 1,
        inner: Family::BTree.default_spec::<u64>(),
        merge_threshold: 150,
        policy: MergePolicy::leveled(2, 1),
    };
    let wb = spec
        .writebehind_engine(&data, SearchStrategy::Binary, MergeMode::Background)
        .expect("builds");
    let engine = Arc::new(CachedEngine::new(wb, 512, 8).expect("cache builds"));
    let hot: Vec<u64> = (0..HOT).map(|i| i * 37 % 20_000).collect();
    let done = AtomicBool::new(false);
    let current_round = AtomicU64::new(0);
    let probes_seen = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let reader = {
            let engine = Arc::clone(&engine);
            let (done, current_round, probes_seen, hot) =
                (&done, &current_round, &probes_seen, &hot);
            scope.spawn(move || {
                let mut last_seen: Vec<u64> = vec![0; hot.len()];
                while !done.load(Ordering::Acquire) {
                    for (i, &k) in hot.iter().enumerate() {
                        let v = engine
                            .get(k)
                            .unwrap_or_else(|| panic!("key {k} vanished (stale negative)"));
                        let upper = current_round.load(Ordering::Acquire);
                        assert!(
                            v >= last_seen[i],
                            "key {k} went backwards: {v} after {} (stale cache hit)",
                            last_seen[i]
                        );
                        assert!(v <= upper, "key {k} saw future version {v} > {upper}");
                        last_seen[i] = v;
                    }
                    probes_seen.fetch_add(hot.len() as u64, Ordering::Relaxed);
                }
            })
        };

        for round in 1..=6u64 {
            current_round.store(round, Ordering::Release);
            for &k in &hot {
                engine.insert(k, round);
            }
            engine.inner().force_merge();
            engine.inner().wait_for_merges();
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread");
    });

    assert!(probes_seen.load(Ordering::Relaxed) > 0, "reader never completed a pass");
    assert!(engine.inner().merges_completed() >= 3);
    for &k in &hot {
        assert_eq!(engine.get(k), Some(6), "key {k} must settle at the last version");
    }
    assert!(engine.hits() > 0, "the hot set must actually be served from the cache");
}

/// Spec-built cached engines serve reads through the plain boxed
/// `QueryEngine` interface like any other engine.
#[test]
fn boxed_cached_engines_are_first_class() {
    let data = Arc::new(SortedData::new((0..5_000u64).map(|i| i * 2).collect()).expect("sorted"));
    let spec = EngineSpec::Cached {
        capacity: 128,
        stripes: 4,
        negative: false,
        inner: Box::new(EngineSpec::Sharded {
            shards: 2,
            inner: Family::Rmi.default_spec::<u64>(),
        }),
    };
    let engine = spec.engine(&data, SearchStrategy::Binary).expect("builds");
    assert_eq!(engine.len(), 5_000);
    assert_eq!(engine.get(4_000), Some(data.payload(2_000)));
    assert_eq!(engine.get(4_000), Some(data.payload(2_000))); // cache hit
    assert_eq!(engine.get(4_001), None);
    assert_eq!(engine.lower_bound(4_001).map(|e| e.0), Some(4_002));
    assert_eq!(engine.range(10, 20).len(), 5);
    let batch = engine.lookup_batch(&[0, 1, 9_998]);
    assert_eq!(batch, vec![Some(data.payload(0)), None, Some(data.payload(4_999))]);
}

/// Under Zipf(1.1) reads a cache of n/64 entries serves most lookups, over
/// each inner layout a cache fronts: a single RMI, a 4-shard RMI and a
/// write-behind tier. Every answer equals the uncached inner's, and after
/// one warm pass more than half of the next pass hits (69% at this size).
#[test]
fn zipf_reads_mostly_hit_a_small_cache_over_every_layout() {
    let cfg = MixedConfig {
        bulk_fraction: 1.0,
        insert_fraction: 0.0,
        delete_fraction: 0.0,
        range_fraction: 0.0,
        range_span_keys: 0,
        read_skew: ReadSkew::Zipf(1.1),
    };
    let w = generate_mixed(DatasetId::Amzn, 50_000, 5_000, cfg, 42);
    let lookups: Vec<u64> = w
        .ops
        .iter()
        .filter_map(|op| if let Op::Lookup(k) = op { Some(*k) } else { None })
        .collect();
    assert_eq!(lookups.len(), w.ops.len(), "a read-only stream");
    let data = Arc::new(
        SortedData::with_payloads(w.bulk_keys.clone(), w.bulk_payloads.clone()).expect("sorted"),
    );
    let rmi = Family::Rmi.default_spec::<u64>();
    let layouts = [
        EngineSpec::Single(rmi),
        EngineSpec::Sharded { shards: 4, inner: rmi },
        // The stream never writes, so the tier only adds its delta probe.
        EngineSpec::WriteBehind {
            shards: 1,
            inner: rmi,
            merge_threshold: 1 << 40,
            policy: MergePolicy::leveled(2, 1),
        },
    ];
    for inner in layouts {
        let label = inner.label::<u64>();
        let uncached = inner.engine(&data, SearchStrategy::Binary).expect("inner builds");
        let expected: Vec<Option<u64>> = lookups.iter().map(|&k| uncached.get(k)).collect();
        let spec = EngineSpec::Cached {
            capacity: data.len() / 64,
            stripes: 8,
            negative: false,
            inner: Box::new(inner),
        };
        let cached = spec.cached_engine(&data, SearchStrategy::Binary).expect("cache builds");
        for pass in ["warm", "measured"] {
            cached.reset_stats();
            for (&k, want) in lookups.iter().zip(&expected) {
                assert_eq!(cached.get(k), *want, "{label}: {pass} get {k}");
            }
        }
        assert!(
            cached.hit_rate() > 0.5,
            "{label}: hit rate {:.1}% <= 50% under zipf(1.1) at capacity n/64",
            cached.hit_rate() * 100.0
        );
    }
}

/// Answers `Some(splitmix64(k))` for even keys and `None` for odd ones, so
/// every key has one right answer and a payload names the key it belongs to.
struct MixEngine;

impl QueryEngine<u64> for MixEngine {
    fn name(&self) -> String {
        "mix".into()
    }
    fn len(&self) -> usize {
        0
    }
    fn size_bytes(&self) -> usize {
        0
    }
    fn get(&self, key: u64) -> Option<u64> {
        key.is_multiple_of(2).then(|| splitmix64(key))
    }
    fn lower_bound(&self, _key: u64) -> Option<(u64, u64)> {
        None
    }
    fn range(&self, _lo: u64, _hi: u64) -> Vec<(u64, u64)> {
        Vec::new()
    }
}

/// The seqlock regression: a one-set cache in negative mode, far more
/// distinct keys than ways, two threads reading with `get` and `peek`
/// while a third invalidates keys and fills others to force evictions. A
/// torn read — one way's key paired with another way's payload or
/// negative bit — answers some key with another key's result.
#[test]
fn seqlock_reads_never_tear_under_concurrent_fills_and_invalidations() {
    const KEYS: u64 = 96;
    const ROUNDS: u64 = 5_000;
    let cache = CachedEngine::with_negative(MixEngine, 6, 1, true).expect("cache builds");
    assert_eq!(cache.capacity(), 6, "exactly one set");
    std::thread::scope(|scope| {
        for reader in 0..2u64 {
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..ROUNDS * KEYS {
                    // Two of three probes go to eight hot keys, so hits and
                    // refills race on the same ways.
                    let k = splitmix64(i ^ (reader << 40)) % KEYS;
                    let k = if i % 3 == 0 { k } else { k % 8 };
                    assert_eq!(cache.get(k), MixEngine.get(k), "get {k}");
                    if let Some(r) = cache.peek(k) {
                        assert_eq!(r, MixEngine.get(k), "peek {k}");
                    }
                }
            });
        }
        let cache = &cache;
        scope.spawn(move || {
            for i in 0..ROUNDS * KEYS / 4 {
                cache.invalidate(i % 8);
                assert_eq!(cache.get(KEYS + i % KEYS), MixEngine.get(KEYS + i % KEYS));
            }
        });
    });
    assert!(cache.hits() > 0 && cache.misses() > 0);
    assert_eq!(cache.cached_len(), cache.capacity());
}
