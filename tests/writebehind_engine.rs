//! Integration suite for the write-behind engine: `BTreeMap`-oracle
//! property tests with merges forced mid-sequence (in both merge modes and
//! both merge policies), interleaved insert/remove/re-insert churn through
//! the tombstone path across compaction cycles, and a torn-read regression
//! proving that a background merge concurrent with an in-flight batched
//! read yields pre- or post-merge-consistent payloads — never a window
//! where drained delta entries are invisible.

use proptest::prelude::*;
use sosd::bench::registry::{DeltaKind, EngineSpec, Family};
use sosd::core::{
    MergeMode, MergePolicy, QueryEngine, SearchStrategy, SortedData, WriteBehindEngine,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Build a write-behind engine over `keys` (payload = position, like
/// `SortedData::new`... but explicit so the oracle can reproduce it).
fn build(
    keys: &[u64],
    threshold: usize,
    shards: usize,
    mode: MergeMode,
) -> (WriteBehindEngine<u64>, BTreeMap<u64, u64>) {
    build_with_policy(keys, threshold, shards, mode, MergePolicy::Flat)
}

fn build_with_policy(
    keys: &[u64],
    threshold: usize,
    shards: usize,
    mode: MergeMode,
    policy: MergePolicy,
) -> (WriteBehindEngine<u64>, BTreeMap<u64, u64>) {
    let payloads: Vec<u64> = keys.iter().map(|&k| k.wrapping_mul(0x9E37_79B9) ^ 1).collect();
    let oracle: BTreeMap<u64, u64> = keys.iter().copied().zip(payloads.iter().copied()).collect();
    let data = Arc::new(SortedData::with_payloads(keys.to_vec(), payloads).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards,
        inner: Family::Pgm.default_spec::<u64>(),
        delta: DeltaKind::BTree,
        merge_threshold: threshold,
        policy,
    };
    let engine = spec.writebehind_engine(&data, SearchStrategy::Binary, mode).expect("builds");
    (engine, oracle)
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
        2..150,
    )
    .prop_map(|set| set.into_iter().collect())
}

/// An interleaved insert/probe stream: inserts collide with base keys and
/// each other often enough to exercise overwrites.
fn op_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec(
        (
            prop_oneof![
                4 => (0u64..80).prop_map(|v| v * 1_000),
                2 => any::<u64>(),
                1 => Just(u64::MAX),
            ],
            any::<u64>(),
        ),
        1..250,
    )
}

/// An interleaved churn stream: `(action, key, payload)` where action 0 is
/// a remove and anything else an insert. Keys collide with base keys, with
/// each other, and with earlier removes often, so tombstone-then-re-insert
/// and remove-of-removed transitions occur organically.
fn churn_stream() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec(
        (
            any::<u8>(),
            prop_oneof![
                4 => (0u64..60).prop_map(|v| v * 1_000),
                2 => any::<u64>(),
                1 => Just(0u64),
                1 => Just(u64::MAX),
            ],
            any::<u64>(),
        ),
        1..250,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Interleaved insert/remove/re-insert churn against the `BTreeMap`
    /// oracle, in both merge policies × both merge modes, driven through
    /// at least 3 merge cycles (and, leveled, at least 3 compactions).
    /// Every write's returned previous payload and every probe must agree
    /// with the oracle at every step — including the two classic traps:
    /// re-inserting a tombstoned key (must look like a fresh insert and
    /// revive the key) and removing a nonexistent or already-removed key
    /// (must return `None` and change nothing).
    #[test]
    fn churn_agrees_with_btreemap_oracle_across_policies(
        keys in base_keys(),
        ops in churn_stream(),
    ) {
        let combos = [
            (MergePolicy::Flat, MergeMode::Sync),
            (MergePolicy::Flat, MergeMode::Background),
            (MergePolicy::leveled(2, 2), MergeMode::Sync),
            (MergePolicy::leveled(2, 2), MergeMode::Background),
        ];
        for (policy, mode) in combos {
            let (engine, mut oracle) = build_with_policy(&keys, 20, 1, mode, policy);
            for (step, &(action, k, v)) in ops.iter().enumerate() {
                if action % 3 == 0 {
                    prop_assert_eq!(
                        engine.remove(k), oracle.remove(&k),
                        "remove {} step {} ({:?}/{:?})", k, step, policy, mode
                    );
                    prop_assert_eq!(engine.get(k), None, "removed {} still visible", k);
                    // The nonexistent-key trap: the second remove is a no-op.
                    prop_assert_eq!(engine.remove(k), None, "double remove {}", k);
                } else {
                    prop_assert_eq!(
                        engine.insert(k, v), oracle.insert(k, v),
                        "insert {} step {} ({:?}/{:?})", k, step, policy, mode
                    );
                    prop_assert_eq!(engine.get(k), Some(v), "read-your-write {}", k);
                }
                let probe = k.wrapping_mul(3).wrapping_add(step as u64);
                prop_assert_eq!(engine.get(probe), oracle.get(&probe).copied(), "get {}", probe);
                prop_assert_eq!(
                    engine.lower_bound(probe),
                    oracle.range(probe..).next().map(|(&k, &v)| (k, v)),
                    "lower_bound {}", probe
                );
                if step % 50 == 25 {
                    engine.force_merge();
                    let lo = k.saturating_sub(40_000);
                    let hi = k.saturating_add(40_000);
                    let want: Vec<(u64, u64)> =
                        oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(engine.range(lo, hi), want, "range [{}, {})", lo, hi);
                }
            }
            // Drive the cycle count regardless of stream length: the
            // tombstone-then-re-insert trap, replayed until >= 3 merge
            // cycles and (leveled, fanout 2) >= 3 compactions completed.
            let target_compactions = if policy == MergePolicy::Flat { 0 } else { 3 };
            let mut filler = 0x7EED_0000u64;
            while engine.merges_completed() < 3 || engine.compactions() < target_compactions {
                filler += 1;
                let v = filler ^ 0x5A5A;
                prop_assert_eq!(engine.insert(filler, v), oracle.insert(filler, v));
                prop_assert_eq!(engine.remove(filler), oracle.remove(&filler));
                prop_assert_eq!(engine.insert(filler, v ^ 1), oracle.insert(filler, v ^ 1));
                if filler.is_multiple_of(8) {
                    engine.wait_for_merges();
                }
            }
            // A final value write plus an explicit drain: the loop may have
            // exited with sub-threshold leftovers in the active delta, and
            // the value guarantees the flat fold has a non-empty output
            // even when the churn deleted every other key.
            prop_assert_eq!(engine.insert(7_777_777, 42), oracle.insert(7_777_777, 42));
            engine.wait_for_merges();
            engine.force_merge();
            engine.wait_for_merges();
            prop_assert!(engine.merges_completed() >= 3);
            prop_assert_eq!(engine.delta_len(), 0, "drained after the last cycle");
            prop_assert_eq!(engine.len(), oracle.len(), "visible count ({:?}/{:?})", policy, mode);
            let all: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
            let hi_exclusive: Vec<(u64, u64)> =
                all.iter().copied().filter(|e| e.0 < u64::MAX).collect();
            prop_assert_eq!(engine.range(0, u64::MAX), hi_exclusive);
            let batch: Vec<u64> = ops.iter().map(|&(_, k, _)| k).collect();
            let results = engine.lookup_batch(&batch);
            for (&k, got) in batch.iter().zip(&results) {
                prop_assert_eq!(*got, oracle.get(&k).copied(), "batch {}", k);
            }
        }
    }

    /// Interleaved insert/get/range against the `BTreeMap` oracle, with
    /// sync merges forced mid-sequence: every probe must agree at every
    /// point, across at least 3 merge cycles.
    #[test]
    fn sync_merges_agree_with_btreemap_oracle(
        keys in base_keys(),
        ops in op_stream(),
    ) {
        let (engine, mut oracle) = build(&keys, 24, 1, MergeMode::Sync);
        let mut forced = 0u64;
        for (step, &(k, v)) in ops.iter().enumerate() {
            prop_assert_eq!(engine.insert(k, v), oracle.insert(k, v), "insert {} step {}", k, step);
            let probe = k.wrapping_add(step as u64);
            prop_assert_eq!(engine.get(probe), oracle.get(&probe).copied(), "get {}", probe);
            prop_assert_eq!(
                engine.lower_bound(probe),
                oracle.range(probe..).next().map(|(&k, &v)| (k, v)),
                "lower_bound {}", probe
            );
            if step % 40 == 20 {
                engine.force_merge();
                forced += 1;
                let lo = k.saturating_sub(50_000);
                let hi = k.saturating_add(50_000);
                let want: Vec<(u64, u64)> = oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(engine.range(lo, hi), want, "range after merge #{}", forced);
            }
        }
        // At least the forced merges completed (threshold crossings may add
        // more); the engine still matches the oracle exactly afterwards.
        prop_assert!(engine.merges_completed() >= forced);
        prop_assert_eq!(engine.len(), oracle.len());
        let all: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        let hi_exclusive: Vec<(u64, u64)> =
            all.iter().copied().filter(|e| e.0 < u64::MAX).collect();
        prop_assert_eq!(engine.range(0, u64::MAX), hi_exclusive);
        let batch: Vec<u64> = ops.iter().map(|&(k, _)| k).collect();
        let results = engine.lookup_batch(&batch);
        for (&k, got) in batch.iter().zip(&results) {
            prop_assert_eq!(*got, oracle.get(&k).copied(), "batch {}", k);
        }
    }

    /// The same oracle agreement with the background-merge swap enabled:
    /// probes run while rebuilds are in flight, and at least 3 full merge
    /// cycles complete (the acceptance bar for the epoch-swap path).
    #[test]
    fn background_merges_agree_with_btreemap_oracle(
        keys in base_keys(),
        ops in op_stream(),
    ) {
        let (engine, mut oracle) = build(&keys, 16, 2, MergeMode::Background);
        for (step, &(k, v)) in ops.iter().enumerate() {
            prop_assert_eq!(engine.insert(k, v), oracle.insert(k, v), "insert {} step {}", k, step);
            // Probe while merges may be mid-flight.
            prop_assert_eq!(engine.get(k), Some(v), "read-your-write {}", k);
            let probe = k.wrapping_mul(3).wrapping_add(step as u64);
            prop_assert_eq!(engine.get(probe), oracle.get(&probe).copied(), "get {}", probe);
        }
        // Drive the cycle count to >= 3 regardless of stream length.
        let mut filler = 0x5EED_0000u64;
        while engine.merges_completed() < 3 {
            filler += 1;
            let v = filler ^ 0xABCD;
            prop_assert_eq!(engine.insert(filler, v), oracle.insert(filler, v));
            if filler.is_multiple_of(16) {
                engine.wait_for_merges();
            }
        }
        engine.wait_for_merges();
        prop_assert!(engine.merges_completed() >= 3);
        prop_assert_eq!(engine.delta_len(), 0);
        prop_assert_eq!(engine.len(), oracle.len());
        for (&k, &v) in &oracle {
            prop_assert_eq!(engine.get(k), Some(v), "post-merge get {}", k);
        }
    }
}

/// Regression: a background merge swapping generations under an in-flight
/// batched read must yield a pre- or post-merge-consistent batch. The
/// writer overwrites a hot key set with strictly increasing versions and
/// forces merges; the reader asserts every batched payload is a version
/// that monotonically increases per key — a torn read (drained delta
/// invisible, or a stale base resurfacing) would show a missing key or a
/// version going backwards.
#[test]
fn batched_reads_see_no_torn_state_across_merge_swaps() {
    const HOT: u64 = 512;
    let keys: Vec<u64> = (0..20_000u64).collect();
    let payloads = vec![0u64; keys.len()]; // version 0 everywhere
    let data = Arc::new(SortedData::with_payloads(keys, payloads).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards: 1,
        inner: Family::BTree.default_spec::<u64>(),
        delta: DeltaKind::BTree,
        merge_threshold: 200,
        policy: MergePolicy::leveled(3, 2),
    };
    let engine = Arc::new(
        spec.writebehind_engine(&data, SearchStrategy::Binary, MergeMode::Background)
            .expect("builds"),
    );
    let hot: Vec<u64> = (0..HOT).map(|i| i * 37 % 20_000).collect();
    let done = AtomicBool::new(false);
    let current_round = AtomicU64::new(0);
    let batches_seen = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Reader: batched lookups of the hot set, checking per-key version
        // monotonicity and presence on every batch.
        let reader = {
            let engine = Arc::clone(&engine);
            let (done, current_round, batches_seen, hot) =
                (&done, &current_round, &batches_seen, &hot);
            scope.spawn(move || {
                let mut last_seen: Vec<u64> = vec![0; hot.len()];
                while !done.load(Ordering::Acquire) {
                    let results = engine.lookup_batch(hot);
                    // Read the upper bound *after* the batch: the batch can
                    // never observe a version the writer hadn't written yet.
                    let upper = current_round.load(Ordering::Acquire);
                    for (i, r) in results.iter().enumerate() {
                        let v = r.unwrap_or_else(|| {
                            panic!("key {} vanished mid-merge (torn read)", hot[i])
                        });
                        assert!(
                            v >= last_seen[i],
                            "key {} went backwards: {} after {} (torn read)",
                            hot[i],
                            v,
                            last_seen[i]
                        );
                        assert!(v <= upper, "key {} saw future version {v} > {upper}", hot[i]);
                        last_seen[i] = v;
                    }
                    batches_seen.fetch_add(1, Ordering::Relaxed);
                }
            })
        };

        // Writer: rounds of hot-set overwrites with increasing versions;
        // threshold crossings trigger background merges throughout, plus
        // explicit forces between rounds.
        for round in 1..=6u64 {
            current_round.store(round, Ordering::Release);
            for &k in &hot {
                engine.insert(k, round);
            }
            // Force the cycle and let it finish before the next round, so
            // every round's swap happens under the reader's batch loop
            // (force is a no-op while a merge is still in flight).
            engine.force_merge();
            engine.wait_for_merges();
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread");
    });

    assert!(batches_seen.load(Ordering::Relaxed) > 0, "reader never completed a batch");
    assert!(engine.merges_completed() >= 3, "got {} merges", engine.merges_completed());
    // Final state: every hot key at the last version, visible via every
    // read path.
    for &k in &hot {
        assert_eq!(engine.get(k), Some(6), "key {k}");
    }
    assert_eq!(engine.len(), 20_000, "hot overwrites never added keys");
}

/// The filter-path variant of the torn-read regression: readers stream
/// batched hot-key lookups AND absent-key point probes (the path where
/// per-run filters skip probes) while the writer churns a side region
/// through insert → tombstone → re-insert cycles whose freezes overflow
/// a narrow level every third merge, so level folds and base folds swap
/// generations on the background thread under the reader's feet. A torn
/// swap would show a hot key vanishing, a version going backwards, or a
/// deleted side key resurrecting mid-batch.
#[test]
fn filtered_reads_survive_background_compactions() {
    const HOT: u64 = 256;
    let keys: Vec<u64> = (0..20_000u64).collect();
    let payloads = vec![0u64; keys.len()]; // version 0 everywhere
    let data = Arc::new(SortedData::with_payloads(keys, payloads).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards: 1,
        inner: Family::BTree.default_spec::<u64>(),
        delta: DeltaKind::BTree,
        merge_threshold: 200,
        policy: MergePolicy::leveled(3, 2),
    };
    let engine = Arc::new(
        spec.writebehind_engine(&data, SearchStrategy::Binary, MergeMode::Background)
            .expect("builds"),
    );
    let hot: Vec<u64> = (0..HOT).map(|i| i * 37 % 20_000).collect();
    // Side region: odd keys above the base, never in the hot set.
    let side: Vec<u64> = (0..64u64).map(|i| 30_001 + i * 2).collect();
    let done = AtomicBool::new(false);
    let current_round = AtomicU64::new(0);
    let batches_seen = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let reader = {
            let engine = Arc::clone(&engine);
            let (done, current_round, batches_seen, hot) =
                (&done, &current_round, &batches_seen, &hot);
            scope.spawn(move || {
                let mut last_seen: Vec<u64> = vec![0; hot.len()];
                let mut absent = 40_001u64;
                while !done.load(Ordering::Acquire) {
                    let results = engine.lookup_batch(hot);
                    let upper = current_round.load(Ordering::Acquire);
                    for (i, r) in results.iter().enumerate() {
                        let v = r.unwrap_or_else(|| {
                            panic!("key {} vanished mid-compaction (torn read)", hot[i])
                        });
                        assert!(
                            v >= last_seen[i],
                            "key {} went backwards: {} after {} (torn read)",
                            hot[i],
                            v,
                            last_seen[i]
                        );
                        assert!(v <= upper, "key {} saw future version {v} > {upper}", hot[i]);
                        last_seen[i] = v;
                    }
                    // Absent keys above every tier: the probe either dies at
                    // a filter or misses every run — never a phantom value.
                    for _ in 0..32 {
                        absent = absent.wrapping_add(2);
                        assert_eq!(engine.get(absent), None, "phantom at {absent}");
                    }
                    batches_seen.fetch_add(1, Ordering::Relaxed);
                }
            })
        };

        // Writer: hot-set version bumps interleaved with side-region
        // insert → tombstone → re-insert cycles: three freezes each, so
        // every cycle fills level 0 and folds it (tombstones and the
        // values they shadow included), and every third folds the bottom
        // level into the base.
        let cycle = |round: u64| {
            for &k in &side {
                engine.insert(k, round);
            }
            engine.force_merge();
            engine.wait_for_merges();
            for &k in &side {
                engine.remove(k);
            }
            engine.force_merge();
            engine.wait_for_merges();
            for &k in &side {
                engine.insert(k, round ^ 1);
            }
            engine.force_merge();
            engine.wait_for_merges();
        };
        for round in 1..=6u64 {
            current_round.store(round, Ordering::Release);
            for &k in &hot {
                engine.insert(k, round);
            }
            cycle(round);
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread");
    });

    assert!(batches_seen.load(Ordering::Relaxed) > 0, "reader never completed a batch");
    assert!(engine.compactions() >= 6, "got {} compactions", engine.compactions());
    for &k in &hot {
        assert_eq!(engine.get(k), Some(6), "hot key {k}");
    }
    for &k in &side {
        assert_eq!(engine.get(k), Some(7), "side key {k} after the last re-insert");
    }
    assert_eq!(engine.len(), 20_000 + side.len(), "visible count drifted");
}

/// The write-behind engine serves reads through the plain boxed
/// `QueryEngine` interface like any other spec-built engine.
#[test]
fn boxed_writebehind_engines_are_first_class() {
    let data = Arc::new(SortedData::new((0..5_000u64).map(|i| i * 2).collect()).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards: 2,
        inner: Family::Rmi.default_spec::<u64>(),
        delta: DeltaKind::BTree,
        merge_threshold: 1_000,
        policy: MergePolicy::Flat,
    };
    let engine = spec.engine(&data, SearchStrategy::Binary).expect("builds");
    assert_eq!(engine.len(), 5_000);
    assert_eq!(engine.get(4_000), Some(data.payload(2_000)));
    assert_eq!(engine.get(4_001), None);
    assert_eq!(engine.lower_bound(4_001).map(|e| e.0), Some(4_002));
    assert_eq!(engine.range(10, 20).len(), 5);
    let batch = engine.lookup_batch(&[0, 1, 9_998]);
    assert_eq!(batch, vec![Some(data.payload(0)), None, Some(data.payload(4_999))]);
}
