//! Storage-layer integration tests: every index family serving page-granular
//! from a snapshot, a snapshot file cold-opened with no source data, a
//! result cache fronting a paged engine, property-tested snapshot
//! round-trips (duplicates, extremes, tombstone sections, odd page sizes),
//! the tombstoned leveled write-behind stack surviving a cold spool re-open,
//! and loud failure on truncated or bit-flipped snapshot files.

use proptest::prelude::*;
use sosd::bench::registry::{btree_delta, Family};
use sosd::core::writebehind::BaseFactory;
use sosd::core::{
    write_snapshot, BlockStore, CachedEngine, FileStore, MemStore, MergeMode, MergePolicy,
    PagedData, PagedEngine, QueryEngine, SearchStrategy, SortedData, StaticEngine, StorageProfile,
    StoreError, WriteBehindEngine,
};
use sosd::datasets::{make_workload, DatasetId};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Scratch directory removed on drop (pass/fail alike).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sosd-storage-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_family_serves_from_a_paged_snapshot() {
    let w = make_workload(DatasetId::Amzn, 40_000, 2_000, 7);
    let expected: u64 =
        w.lookups.iter().fold(0u64, |acc, &k| acc.wrapping_add(w.data.payload_sum_at(k)));

    let mut store = MemStore::new(1024).expect("mem store");
    write_snapshot(&mut store, &w.data, &[]).expect("serialize");
    let paged =
        Arc::new(PagedData::<u64>::open(Arc::new(store) as Arc<dyn BlockStore>).expect("open"));

    for family in Family::ALL {
        let builder = family.default_builder::<u64>();
        let engine = PagedEngine::open_with(Arc::clone(&paged), SearchStrategy::Binary, |d| {
            builder.build_boxed(d)
        })
        .unwrap_or_else(|e| panic!("{} cold open: {e:?}", family.name()));
        let sum =
            w.lookups.iter().fold(0u64, |acc, &k| acc.wrapping_add(engine.get(k).unwrap_or(0)));
        assert_eq!(sum, expected, "{} diverged on paged reads", family.name());
    }
}

#[test]
fn file_snapshot_cold_opens_and_answers_like_its_source() {
    let tmp = TempDir::new("cold");
    let path = tmp.0.join("snap.bin");
    let data = SortedData::new((0..5_000u64).map(|i| i * 3).collect()).expect("sorted input");
    let mut store = FileStore::create(&path, 1024).expect("create");
    write_snapshot(&mut store, &data, &[]).expect("serialize");
    store.flush().expect("flush");
    drop(store);

    // Cold open: the snapshot file is the only input, and the model is
    // rebuilt from its key section.
    let paged = PagedData::<u64>::open_file(&path, StorageProfile::RAM).expect("open");
    let builder = Family::Rmi.default_builder::<u64>();
    let cold =
        PagedEngine::open_with(Arc::new(paged), SearchStrategy::Binary, |d| builder.build_boxed(d))
            .expect("cold open");
    assert_eq!(cold.len(), data.len());
    for (i, &key) in data.keys().iter().enumerate() {
        assert_eq!(cold.get(key), Some(data.payload(i)), "key {key}");
        assert_eq!(cold.get(key + 1), None, "absent key {}", key + 1);
    }
}

#[test]
fn cache_over_a_paged_engine_serves_repeat_reads_as_hits() {
    let data = Arc::new(SortedData::new((0..10_000u64).map(|i| i * 2).collect()).expect("sorted"));
    let mut store = MemStore::new(512).expect("mem store");
    write_snapshot(&mut store, &data, &[]).expect("serialize");
    let paged =
        Arc::new(PagedData::<u64>::open(Arc::new(store) as Arc<dyn BlockStore>).expect("open"));
    let index = Family::Pgm.default_builder::<u64>().build_boxed(&data).expect("build");
    let engine = PagedEngine::with_strategy(index, paged, SearchStrategy::Binary);
    // A hot-key cache in front of a storage tier is the point of the
    // composition: repeat reads skip the paged fetch entirely.
    let cached = CachedEngine::new(engine, 128, 4).expect("cache builds");
    assert_eq!(cached.get(24), Some(data.payload(12)));
    assert_eq!(cached.get(24), Some(data.payload(12)));
    assert_eq!(cached.hits(), 1);
}

/// Sorted keys with duplicates and extreme values.
fn keys_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            4 => any::<u32>().prop_map(|v| v as u64 * 1000),
            2 => any::<u64>(),
            1 => Just(0u64),
            1 => Just(u64::MAX),
            2 => (0u64..50).prop_map(|v| v * 7), // forces duplicates
        ],
        1..300,
    )
    .prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// serialize → open → load must reproduce keys, payloads, and the
    /// tombstone section bit-exactly at every page size, and the model
    /// families must serve the same answers page-granular as the in-RAM
    /// data does.
    #[test]
    fn snapshot_round_trips_arbitrary_data(
        keys in keys_strategy(),
        dead in prop::collection::btree_set(any::<u64>(), 0..20),
        ps_sel in 0usize..3,
    ) {
        let page_size = [128usize, 520, 4096][ps_sel];
        let payloads: Vec<u64> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| k ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let data = SortedData::with_payloads(keys.clone(), payloads).expect("sorted input");
        let dead: Vec<u64> = dead.into_iter().collect();

        let mut store = MemStore::new(page_size).expect("mem store");
        let bytes = write_snapshot(&mut store, &data, &dead).expect("serialize");
        prop_assert!(bytes > 0);

        let paged =
            PagedData::<u64>::open(Arc::new(store) as Arc<dyn BlockStore>).expect("open");
        prop_assert_eq!(paged.len(), data.len());
        let (round, round_dead) = paged.load().expect("load");
        prop_assert_eq!(round.keys(), data.keys());
        prop_assert_eq!(round.payloads(), data.payloads());
        prop_assert_eq!(round_dead, dead);

        let paged = Arc::new(paged);
        for family in [Family::Rmi, Family::Pgm, Family::Rs, Family::BTree, Family::Bs] {
            let builder = family.default_builder::<u64>();
            let engine =
                PagedEngine::open_with(Arc::clone(&paged), SearchStrategy::Binary, |d| {
                    builder.build_boxed(d)
                })
                .expect("cold open");
            for &k in keys.iter().take(64) {
                prop_assert_eq!(
                    engine.get(k),
                    Some(data.payload_sum_at(k)),
                    "{} at key {}",
                    family.name(),
                    k
                );
            }
            let absent = keys.iter().take(64).map(|&k| k ^ 1).find(|p| {
                keys.binary_search(p).is_err()
            });
            if let Some(p) = absent {
                prop_assert_eq!(engine.get(p), None);
            }
        }
    }
}

#[test]
fn derivable_payloads_are_elided_and_reconstructed() {
    // Same keys twice: once with the rank-derived default payloads
    // (SortedData::new) and once with explicit payloads. Only the former
    // may drop its payload section.
    let keys: Vec<u64> = (0..20_000u64).map(|i| (i / 3) * 7).collect();
    let derived = SortedData::new(keys.clone()).expect("sorted input");
    let explicit = SortedData::with_payloads(keys.clone(), keys.iter().map(|&k| k + 7).collect())
        .expect("sorted input");

    let mut store_d = MemStore::new(512).expect("mem store");
    let bytes_derived = write_snapshot(&mut store_d, &derived, &[]).expect("serialize derived");
    let mut store_e = MemStore::new(512).expect("mem store");
    let bytes_explicit = write_snapshot(&mut store_e, &explicit, &[]).expect("serialize explicit");
    assert!(
        bytes_derived + 8 * derived.len() as u64 <= bytes_explicit,
        "elision must save ~8 bytes/entry: derived {bytes_derived} vs explicit {bytes_explicit}"
    );

    let paged_d =
        Arc::new(PagedData::<u64>::open(Arc::new(store_d) as Arc<dyn BlockStore>).expect("open"));
    let paged_e =
        Arc::new(PagedData::<u64>::open(Arc::new(store_e) as Arc<dyn BlockStore>).expect("open"));
    assert!(paged_d.has_derived_payloads());
    assert!(!paged_e.has_derived_payloads());

    // Bulk reload round-trips the reconstructed payloads bit-exactly.
    let (round, _) = paged_d.load().expect("load");
    assert_eq!(round.keys(), derived.keys());
    assert_eq!(round.payloads(), derived.payloads());

    // Page-granular serving (single gets and the batched path, which must
    // cope with there being no payload pages at all) matches the in-RAM
    // answers, including duplicate-group sums and misses.
    let builder = Family::Rmi.default_builder::<u64>();
    let engine = PagedEngine::open_with(Arc::clone(&paged_d), SearchStrategy::Binary, |d| {
        builder.build_boxed(d)
    })
    .expect("cold open");
    let probe_keys: Vec<u64> = (0..512u64).map(|i| i * 131 % 60_000).collect();
    let batched = engine.lookup_batch(&probe_keys);
    for (&k, got) in probe_keys.iter().zip(&batched) {
        let want = derived.payload_sum_from(k, derived.lower_bound(k));
        assert_eq!(engine.get(k), want, "single get at {k}");
        assert_eq!(*got, want, "batched get at {k}");
    }
}

fn base_factory() -> BaseFactory<u64> {
    Arc::new(|d: Arc<SortedData<u64>>| {
        let index = Family::BTree.default_builder::<u64>().build_boxed(&d)?;
        Ok(Box::new(StaticEngine::with_strategy(index, d, SearchStrategy::Binary))
            as Box<dyn QueryEngine<u64>>)
    })
}

#[test]
fn leveled_spool_cold_reopen_preserves_tombstones() {
    let tmp = TempDir::new("spool");
    let keys: Vec<u64> = (0..2_000u64).map(|i| i * 10).collect();
    let payloads: Vec<u64> = keys.iter().map(|&k| k + 1).collect();
    let mut oracle: BTreeMap<u64, u64> =
        keys.iter().zip(&payloads).map(|(&k, &p)| (k, p)).collect();
    let data = Arc::new(SortedData::with_payloads(keys, payloads).expect("sorted input"));

    let policy = MergePolicy::leveled(2, 2);
    let engine = WriteBehindEngine::with_spool(
        Arc::clone(&data),
        base_factory(),
        btree_delta(),
        64,
        MergeMode::Sync,
        policy,
        &tmp.0,
        512,
    )
    .expect("spool engine builds");

    // Interleave inserts (new keys) with deletes of base keys so the frozen
    // runs carry both live entries and tombstones across several freezes.
    for i in 0..300u64 {
        let k = 100_000 + i;
        engine.insert(k, i);
        oracle.insert(k, i);
        if i % 3 == 0 {
            let victim = i * 10; // exists in the base
            engine.remove(victim);
            oracle.remove(&victim);
        }
    }
    // Push everything still buffered into frozen runs — the spool's
    // durability boundary is the freeze, so only frozen state may be
    // asserted after the cold re-open.
    engine.force_merge();
    drop(engine);

    let reopened = WriteBehindEngine::open_spool(
        &tmp.0,
        base_factory(),
        btree_delta(),
        64,
        MergeMode::Sync,
        policy,
    )
    .expect("cold re-open from spool");

    for i in 0..300u64 {
        let victim = i * 10;
        assert_eq!(
            reopened.get(victim),
            oracle.get(&victim).copied(),
            "base key {victim} after re-open"
        );
        let k = 100_000 + i;
        assert_eq!(reopened.get(k), oracle.get(&k).copied(), "inserted key {k} after re-open");
    }
}

#[test]
fn truncated_and_corrupted_snapshots_fail_loudly() {
    let tmp = TempDir::new("corrupt");
    let path = tmp.0.join("snap");
    let w = make_workload(DatasetId::Amzn, 4_000, 10, 11);
    {
        let mut store = FileStore::create(&path, 512).expect("create");
        write_snapshot(&mut store, &w.data, &[]).expect("serialize");
        store.flush().expect("flush");
    }
    let pristine = std::fs::read(&path).expect("read snapshot back");
    let reload = |bytes: &[u8]| -> Result<(), StoreError> {
        std::fs::write(&path, bytes).expect("rewrite snapshot");
        PagedData::<u64>::open_file(&path, StorageProfile::RAM)?.load().map(|_| ())
    };

    // Pristine bytes load cleanly (guards the harness itself).
    reload(&pristine).expect("pristine snapshot loads");

    // A single flipped bit in the data section must surface as Corrupt.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    match reload(&flipped) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("bit flip at byte {mid} not caught: {other:?}"),
    }

    // A corrupted header must fail at open, before any data is served.
    let mut bad_header = pristine.clone();
    bad_header[9] ^= 0xFF;
    std::fs::write(&path, &bad_header).expect("rewrite snapshot");
    assert!(
        PagedData::<u64>::open_file(&path, StorageProfile::RAM).is_err(),
        "corrupted header page was accepted"
    );

    // Truncation must surface as OutOfBounds (never a short read).
    match reload(&pristine[..pristine.len() / 2]) {
        Err(StoreError::OutOfBounds { .. }) => {}
        other => panic!("truncated snapshot not caught: {other:?}"),
    }
}
