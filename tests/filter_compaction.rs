//! Oracle-backed harness for the per-run Bloom filters and tombstone-aware
//! compaction of the leveled policy: `BTreeMap`-oracle property tests
//! churning through at least 3 compactions, an FP-allowed / FN-never audit
//! over deleted and never-inserted keys via `run_filter_audit`, and spool
//! round-trips proving filters survive a cold re-open bit-exactly (same
//! answers, same skip counters) while a corrupted filter section — or one
//! of a retired filter kind — fails loudly instead of mis-answering.

use proptest::prelude::*;
use sosd::bench::registry::{DeltaKind, EngineSpec, Family};
use sosd::core::store::page_checksum;
use sosd::core::writebehind::BaseFactory;
use sosd::core::{
    MergeMode, MergePolicy, QueryEngine, SearchStrategy, SortedData, StaticEngine,
    WriteBehindEngine,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Build a write-behind engine over `keys` plus the `BTreeMap` oracle that
/// mirrors it (payload convention shared with `tests/writebehind_engine.rs`).
fn build_with_policy(
    keys: &[u64],
    threshold: usize,
    mode: MergeMode,
    policy: MergePolicy,
) -> (WriteBehindEngine<u64>, BTreeMap<u64, u64>) {
    let payloads: Vec<u64> = keys.iter().map(|&k| k.wrapping_mul(0x9E37_79B9) ^ 1).collect();
    let oracle: BTreeMap<u64, u64> = keys.iter().copied().zip(payloads.iter().copied()).collect();
    let data = Arc::new(SortedData::with_payloads(keys.to_vec(), payloads).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards: 1,
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
        2..120,
    )
    .prop_map(|set| set.into_iter().collect())
}

/// Interleaved churn: `(action, key, payload)`; action 0 mod 3 removes,
/// anything else inserts. Keys collide with the base, each other, and
/// earlier removes, so tombstone/re-insert transitions flow through the
/// filtered run stack organically.
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
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Churn against the `BTreeMap` oracle with per-run filters on: a
    /// compaction-heavy stack (fanout 2 folds constantly, so filters are
    /// rebuilt at every level fold) driven through >= 3 compactions. Every
    /// write's returned previous payload and every probe must agree with
    /// the oracle at every step — a filter false negative would surface as
    /// a missing key or a resurrected tombstone here.
    #[test]
    fn filtered_churn_agrees_with_btreemap_oracle(
        keys in base_keys(),
        ops in churn_stream(),
    ) {
        let policy = MergePolicy::leveled(2, 2);
        let (engine, mut oracle) = build_with_policy(&keys, 20, MergeMode::Sync, policy);
        for (step, &(action, k, v)) in ops.iter().enumerate() {
            if action % 3 == 0 {
                prop_assert_eq!(engine.remove(k), oracle.remove(&k), "remove {} step {}", k, step);
                prop_assert_eq!(engine.get(k), None, "removed {} still visible", k);
            } else {
                prop_assert_eq!(
                    engine.insert(k, v), oracle.insert(k, v),
                    "insert {} step {}", k, step
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
                let (lo, hi) = (k.saturating_sub(40_000), k.saturating_add(40_000));
                let want: Vec<(u64, u64)> =
                    oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(engine.range(lo, hi), want, "range [{}, {})", lo, hi);
            }
        }
        // Tombstone/re-insert filler until the compaction bar is met.
        let mut filler = 0x7EED_0000u64;
        while engine.merges_completed() < 3 || engine.compactions() < 3 {
            filler += 1;
            let v = filler ^ 0x5A5A;
            prop_assert_eq!(engine.insert(filler, v), oracle.insert(filler, v));
            prop_assert_eq!(engine.remove(filler), oracle.remove(&filler));
            prop_assert_eq!(engine.insert(filler, v ^ 1), oracle.insert(filler, v ^ 1));
            if filler.is_multiple_of(8) {
                engine.force_merge();
            }
        }
        prop_assert!(engine.compactions() >= 3, "compaction bar");
        engine.force_merge();
        let all: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        let hi_exclusive: Vec<(u64, u64)> =
            all.iter().copied().filter(|e| e.0 < u64::MAX).collect();
        prop_assert_eq!(engine.range(0, u64::MAX), hi_exclusive, "final range");
        let batch: Vec<u64> = ops.iter().map(|&(_, k, _)| k).collect();
        for (&k, got) in batch.iter().zip(&engine.lookup_batch(&batch)) {
            prop_assert_eq!(*got, oracle.get(&k).copied(), "batch {}", k);
        }
    }
}

/// The filter contract, audited run by run: a filter may admit an absent
/// key (false positive — one wasted probe) but must NEVER reject a present
/// one, where "present" includes tombstones (a skipped tombstone would
/// resurrect older values). Builds a deep interleaved stack, deletes a
/// whole region, then audits every deleted key and a sweep of
/// never-inserted keys via `run_filter_audit`.
#[test]
fn filters_may_false_positive_but_never_false_negative() {
    const BASE: u64 = 2_000;
    const RUN_KEYS: u64 = 400;
    let top = BASE * 8; // inserted regions live above every base key
    let keys: Vec<u64> = (0..BASE).map(|i| i * 8).collect();
    let policy = MergePolicy::leveled(8, 3);
    let (engine, mut oracle) = build_with_policy(&keys, 4_096, MergeMode::Sync, policy);

    // Six interleaved runs: run r holds keys ≡ r (mod 8) above `top`,
    // so every run's [min, max] spans the whole region and range
    // pruning alone can never skip — only filters can.
    for r in 0..6u64 {
        for j in 0..RUN_KEYS {
            let k = top + j * 8 + r;
            assert_eq!(engine.insert(k, k ^ 0xFEED), oracle.insert(k, k ^ 0xFEED));
        }
        engine.force_merge();
    }
    // Delete all of run 2's region plus some base keys: a seventh,
    // tombstone-bearing run the filters must index too.
    let mut deleted: Vec<u64> = (0..RUN_KEYS).map(|j| top + j * 8 + 2).collect();
    deleted.extend((0..64u64).map(|i| i * 16)); // even base keys
    for &k in &deleted {
        assert_eq!(engine.remove(k), oracle.remove(&k), "remove {k}");
    }
    engine.force_merge();
    assert!(engine.run_count() >= 7, "stack too shallow: {}", engine.run_count());

    // Never-inserted keys, both inside the interleaved span (offsets 6
    // and 7 mod 8) and between base keys.
    let mut never: Vec<u64> =
        (0..RUN_KEYS).flat_map(|j| [top + j * 8 + 6, top + j * 8 + 7]).collect();
    never.extend((0..BASE).step_by(3).map(|i| i * 8 + 5));

    for &k in deleted.iter().chain(&never) {
        assert_eq!(engine.get(k), oracle.get(&k).copied(), "get {k}");
        for (run, &(admits, present)) in engine.run_filter_audit(k).iter().enumerate() {
            assert!(
                !present || admits,
                "false negative: run {run} holds {k} but its filter rejects it"
            );
        }
    }
    // Tombstones are indexed: each deleted run-region key is present
    // (as a tombstone) in at least one admitting run.
    for &k in &deleted[..RUN_KEYS as usize] {
        let audit = engine.run_filter_audit(k);
        assert!(
            audit.iter().any(|&(admits, present)| admits && present),
            "tombstone for {k} invisible to every filter"
        );
    }
    // Live keys still answer exactly — with this many runs a silent
    // false negative anywhere would show up here.
    for (&k, &v) in &oracle {
        assert_eq!(engine.get(k), Some(v), "live key {k}");
    }
    assert!(
        engine.filter_skips() > 0,
        "bloom filters never skipped a probe over {} absent-key lookups",
        deleted.len() + never.len()
    );
}

// ---------------------------------------------------------------------------
// Spool round-trips: filters are persisted at freeze time and reloaded
// bit-exactly, so a cold re-open answers identically AND skips identically.
// ---------------------------------------------------------------------------

/// Scratch directory removed on drop (pass/fail alike).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sosd-filter-{tag}-{}", std::process::id()));
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

fn base_factory() -> BaseFactory<u64> {
    Arc::new(|d: Arc<SortedData<u64>>| {
        let index = Family::BTree.default_builder::<u64>().build_boxed(&d)?;
        Ok(Box::new(StaticEngine::with_strategy(index, d, SearchStrategy::Binary))
            as Box<dyn QueryEngine<u64>>)
    })
}

/// Run the shared probe sequence and return (answers, filter-skip delta,
/// probe delta) — the skip/probe deltas are the filter fingerprint: a
/// reloaded filter that differs by even one bit would skip differently.
fn probe_fingerprint(
    engine: &WriteBehindEngine<u64>,
    probes: &[u64],
) -> (Vec<Option<u64>>, u64, u64) {
    let (skips0, probes0) = (engine.filter_skips(), engine.stack_probes());
    let answers: Vec<Option<u64>> = probes.iter().map(|&k| engine.get(k)).collect();
    (answers, engine.filter_skips() - skips0, engine.stack_probes() - probes0)
}

#[test]
fn spool_reopen_reproduces_answers_and_filter_skips() {
    let tmp = TempDir::new("warmcold");
    let keys: Vec<u64> = (0..2_000u64).map(|i| i * 10).collect();
    let payloads: Vec<u64> = keys.iter().map(|&k| k + 1).collect();
    let mut oracle: BTreeMap<u64, u64> =
        keys.iter().zip(&payloads).map(|(&k, &p)| (k, p)).collect();
    let data = Arc::new(SortedData::with_payloads(keys, payloads).expect("sorted"));
    let policy = MergePolicy::leveled(2, 2);
    let engine = WriteBehindEngine::with_spool(
        Arc::clone(&data),
        base_factory(),
        DeltaKind::BTree.factory(),
        64,
        MergeMode::Sync,
        policy,
        &tmp.0,
        512,
    )
    .expect("spool engine builds");

    // Inserts, deletes of base keys, and deletes of just-inserted keys:
    // frozen runs carry live entries and tombstones.
    for i in 0..400u64 {
        let k = 100_000 + i * 3;
        engine.insert(k, i);
        oracle.insert(k, i);
        if i % 3 == 0 {
            let victim = i * 10; // exists in the base
            engine.remove(victim);
            oracle.remove(&victim);
        }
        if i % 5 == 0 {
            engine.remove(k);
            oracle.remove(&k);
        }
    }
    engine.force_merge(); // durability boundary: all churn is frozen

    // Present keys, deleted keys, and never-inserted keys in and out
    // of every run's span.
    let probes: Vec<u64> =
        (0..400u64).flat_map(|i| [i * 10, 100_000 + i * 3, 100_001 + i * 3, i * 10 + 5]).collect();
    let (warm_answers, warm_skips, warm_probes) = probe_fingerprint(&engine, &probes);
    for (&k, got) in probes.iter().zip(&warm_answers) {
        assert_eq!(*got, oracle.get(&k).copied(), "warm {k}");
    }
    let warm_range = engine.range(0, u64::MAX);
    drop(engine);

    let reopened = WriteBehindEngine::open_spool(
        &tmp.0,
        base_factory(),
        DeltaKind::BTree.factory(),
        64,
        MergeMode::Sync,
        policy,
    )
    .expect("cold re-open from spool");
    let (cold_answers, cold_skips, cold_probes) = probe_fingerprint(&reopened, &probes);
    assert_eq!(cold_answers, warm_answers, "cold answers diverged");
    assert_eq!(cold_skips, warm_skips, "reloaded filters skip differently");
    assert_eq!(cold_probes, warm_probes, "reloaded stack probes differently");
    assert_eq!(reopened.range(0, u64::MAX), warm_range, "cold range diverged");
    assert!(warm_skips > 0, "probe sequence never exercised the filters");
}

/// Spool a stack whose frozen runs stay on storage (wide fanout, so none
/// folds into the base first), let `damage` edit the bytes of every run
/// snapshot, and return the cold re-open's error message.
fn reopen_error_after(tag: &str, damage: impl Fn(&mut Vec<u8>)) -> String {
    let tmp = TempDir::new(tag);
    let keys: Vec<u64> = (0..1_000u64).map(|i| i * 10).collect();
    let data = Arc::new(SortedData::new(keys).expect("sorted"));
    let policy = MergePolicy::leveled(8, 3);
    let engine = WriteBehindEngine::with_spool(
        Arc::clone(&data),
        base_factory(),
        DeltaKind::BTree.factory(),
        64,
        MergeMode::Sync,
        policy,
        &tmp.0,
        512,
    )
    .expect("spool engine builds");
    for i in 0..200u64 {
        engine.insert(50_000 + i, i);
        if i % 4 == 0 {
            engine.remove(i * 10);
        }
    }
    engine.force_merge();
    drop(engine);

    let mut damaged = 0usize;
    for entry in std::fs::read_dir(&tmp.0).expect("read spool dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("run-") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("read run snapshot");
        damage(&mut bytes);
        std::fs::write(&path, &bytes).expect("rewrite run snapshot");
        damaged += 1;
    }
    assert!(damaged > 0, "no run snapshots in the spool; harness broken");

    match WriteBehindEngine::open_spool(
        &tmp.0,
        base_factory(),
        DeltaKind::BTree.factory(),
        64,
        MergeMode::Sync,
        policy,
    ) {
        Ok(_) => panic!("damaged filter section loaded cleanly"),
        Err(e) => e.to_string(),
    }
}

/// A bit flip inside a spooled run's filter section must fail the cold
/// re-open with a corruption error — never load a subtly wrong filter
/// (which could silently reject present keys).
#[test]
fn corrupted_filter_section_fails_spool_reopen() {
    // The filter section is the last thing in a run snapshot (after keys,
    // payloads, and the dead-key section), so flip a byte near the end.
    let msg = reopen_error_after("corrupt", |bytes| {
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0x01;
    });
    assert!(msg.contains("corrupt"), "expected a corruption error, got: {msg}");
}

/// A run snapshot whose header declares the retired fence filter (kind 2,
/// docs/FORMATS.md) in an otherwise valid, correctly checksummed file must
/// fail the cold re-open by name: its section is not Bloom blocks, and
/// quietly rebuilding a Bloom filter would hide that the spool was written
/// under a configuration this build no longer has.
#[test]
fn retired_filter_kind_fails_spool_reopen_by_name() {
    const PAGE: usize = 512;
    const USABLE: usize = PAGE - 8; // the page trailer holds the checksum
    const FILTER_KIND: usize = 80; // header field offset
    let msg = reopen_error_after("retired", |bytes| {
        assert_eq!(bytes[FILTER_KIND..FILTER_KIND + 4], 1u32.to_le_bytes(), "writers store 1");
        bytes[FILTER_KIND..FILTER_KIND + 4].copy_from_slice(&2u32.to_le_bytes());
        let sum = page_checksum(&bytes[..USABLE], 0);
        bytes[USABLE..PAGE].copy_from_slice(&sum.to_le_bytes());
    });
    assert!(msg.contains("kind 2 (fence)"), "expected the retired kind by name, got: {msg}");
}
