//! Pinned-snapshot integration suite: a proptest oracle proving reads
//! through a `PinnedView` keep answering from the pin-time mapping while
//! the engine churns through merges and compactions; a
//! reclamation check that dropped pins release their generation; loud
//! failure on tampered spools (flipped bits, edited manifests, substituted
//! files); and root-fingerprint equality across physically different
//! engines serving identical logical state.

use proptest::prelude::*;
use sosd::bench::registry::{btree_delta, EngineSpec, Family};
use sosd::core::writebehind::BaseFactory;
use sosd::core::{
    MergeMode, MergePolicy, QueryEngine, SearchStrategy, SortedData, StaticEngine,
    WriteBehindEngine,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Build a write-behind engine over distinct `keys` plus the matching
/// oracle mapping (payload = a key-derived stamp, so overwrites are
/// distinguishable from initial state).
fn build(
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

/// Insert/remove churn colliding with base keys and itself often.
fn churn_ops() -> impl Strategy<Value = Vec<(u64, Option<u64>)>> {
    prop::collection::vec(
        (
            prop_oneof![
                4 => (0u64..80).prop_map(|v| v * 1_000),
                2 => any::<u64>(),
                1 => Just(0u64),
                1 => Just(u64::MAX),
            ],
            prop_oneof![3 => any::<u64>().prop_map(Some), 1 => Just(None)],
        ),
        40..200,
    )
}

/// Apply one op to engine and oracle alike.
fn apply(engine: &WriteBehindEngine<u64>, oracle: &mut BTreeMap<u64, u64>, op: (u64, Option<u64>)) {
    match op {
        (k, Some(p)) => {
            engine.insert(k, p);
            oracle.insert(k, p);
        }
        (k, None) => {
            engine.remove(k);
            oracle.remove(&k);
        }
    }
}

/// Assert every read path of `pin` answers exactly from `mirror`.
fn assert_pin_matches(
    pin: &sosd::core::PinnedView<u64>,
    mirror: &BTreeMap<u64, u64>,
    probes: &[u64],
) {
    assert_eq!(pin.len(), mirror.len(), "pinned len departed from the pin-time mirror");
    for &k in probes {
        assert_eq!(pin.get(k), mirror.get(&k).copied(), "pinned get({k})");
        assert_eq!(
            pin.lower_bound(k),
            mirror.range(k..).next().map(|(&a, &b)| (a, b)),
            "pinned lower_bound({k})"
        );
    }
    let batched = pin.lookup_batch(probes);
    let mut par = Vec::new();
    pin.par_get_batch(probes, &mut par);
    for ((&k, got), pgot) in probes.iter().zip(&batched).zip(&par) {
        assert_eq!(*got, mirror.get(&k).copied(), "pinned get_batch at {k}");
        assert_eq!(*pgot, mirror.get(&k).copied(), "pinned par_get_batch at {k}");
    }
    let full: Vec<(u64, u64)> =
        mirror.iter().filter(|(&k, _)| k != u64::MAX).map(|(&k, &v)| (k, v)).collect();
    assert_eq!(pin.range(0, u64::MAX), full, "pinned full-range scan");
    let expected_sum = full.iter().fold(0u64, |acc, &(_, v)| acc.wrapping_add(v));
    assert_eq!(pin.range_sum(0, u64::MAX), expected_sum, "pinned range_sum");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole oracle: pin a view mid-churn, mirror the mapping into
    /// a `BTreeMap` at the same instant, keep hammering the engine through
    /// at least three more merge cycles and one compaction, and require
    /// every pinned read path to keep answering from the mirror while the
    /// *live* engine visibly moves on.
    #[test]
    fn pinned_reads_survive_churn(
        keys in base_keys(),
        warmup in churn_ops(),
        churn in churn_ops(),
    ) {
        let policy = MergePolicy::leveled(2, 2);
        let (engine, mut mirror) = build(&keys, 16, MergeMode::Sync, policy);
        for &op in &warmup {
            apply(&engine, &mut mirror, op);
        }
        let pin = engine.snapshot();
        let pinned_epoch = pin.epoch();
        let mirror = mirror; // frozen alongside the pin
        let probes: Vec<u64> = keys
            .iter()
            .copied()
            .chain(warmup.iter().map(|o| o.0))
            .chain(churn.iter().map(|o| o.0))
            .chain([0, 777, u64::MAX])
            .collect();

        // Sanity: the pin answers correctly before any churn.
        assert_pin_matches(&pin, &mirror, &probes);

        let merges_at_pin = engine.merges_completed();
        let mut live = mirror.clone();
        for &op in &churn {
            apply(&engine, &mut live, op);
        }
        // Drive the stack until the pin has survived >= 3 merge cycles
        // and >= 1 compaction, whatever the random churn did.
        let mut filler = 0u64;
        while engine.merges_completed() < merges_at_pin + 3 || engine.compactions() < 1 {
            for _ in 0..16 {
                let k = 500_000_000 + filler;
                engine.insert(k, filler);
                live.insert(k, filler);
                filler += 1;
            }
            engine.force_merge();
        }
        prop_assert!(engine.epoch() > pinned_epoch, "churn must advance the live epoch");

        // The pin still serves the pin-time mapping on every read path...
        assert_pin_matches(&pin, &mirror, &probes);
        // ...while the live engine serves the churned one.
        for &k in probes.iter().take(64) {
            prop_assert_eq!(engine.get(k), live.get(&k).copied(), "live get({}) diverged", k);
        }
    }
}

/// A pin taken before a base rebuild keeps serving the pre-rebuild mapping,
/// and the rebuild's generation swap leaves the live mapping untouched.
#[test]
fn pins_survive_a_retune() {
    let keys: Vec<u64> = (0..500u64).map(|i| i * 7).collect();
    let (engine, mut mirror) = build(&keys, 32, MergeMode::Sync, MergePolicy::leveled(2, 1));
    for i in 0..20u64 {
        apply(&engine, &mut mirror, (i * 7 + 1, Some(i)));
        if i == 9 {
            engine.force_merge(); // the first run; the next freeze folds
        }
    }
    let pin = engine.snapshot();
    engine.force_merge();
    assert_eq!(engine.compactions(), 1, "the second forced merge rebuilt the base");
    let probes: Vec<u64> = (0..600u64).map(|i| i * 7).chain((0..20).map(|i| i * 7 + 1)).collect();
    assert_pin_matches(&pin, &mirror, &probes);
    assert_eq!(engine.fingerprint(), pin.fingerprint(), "a rebuild changed the visible mapping");
}

/// Dropped pins release their generation: the pin counter drains to zero
/// and the pinned base's backing array becomes unreachable once newer
/// merges retire the generation — no unbounded pin leak.
#[test]
fn dropped_pins_release_their_generation() {
    let keys: Vec<u64> = (0..200u64).map(|i| i * 3).collect();
    let (engine, mut mirror) = build(&keys, 8, MergeMode::Sync, MergePolicy::leveled(2, 1));
    // Advance past the construction-time generation (whose data the test
    // harness itself still references) before pinning.
    for i in 0..16u64 {
        apply(&engine, &mut mirror, (1_000_000 + i, Some(i)));
    }
    engine.force_merge();

    let pin = engine.snapshot();
    let second = pin.clone();
    assert_eq!(engine.active_pins(), 2, "clones share and count the pin");
    let weak = Arc::downgrade(&pin.base_data());

    // Churn far past the pinned generation; the pin keeps it alive.
    for i in 0..64u64 {
        apply(&engine, &mut mirror, (2_000_000 + i, Some(i)));
    }
    engine.force_merge();
    assert!(weak.upgrade().is_some(), "a live pin must keep its generation's data alive");

    drop(pin);
    assert_eq!(engine.active_pins(), 1);
    drop(second);
    assert_eq!(engine.active_pins(), 0, "pin counter must drain when handles drop");
    assert!(
        weak.upgrade().is_none(),
        "dropping the last pin must let the retired generation reclaim"
    );
}

/// Live and pinned reads are one kernel with two callers: on a quiesced
/// leveled stack (three runs holding tombstones, a non-empty delta) a
/// `get` loop, `get_batch` and `par_get_batch` answer alike through the
/// engine and through a pin, and all match the oracle; the live `get` loop
/// and one live batch move the read-amp counters by the same amounts (the
/// benchmark's counted metrics read them); pinned reads record nothing.
#[test]
fn live_and_pinned_read_paths_agree_and_count_alike() {
    let keys: Vec<u64> = (0..400u64).map(|i| i * 10).collect();
    // Fanout 8: the three frozen runs stay stacked, nothing compacts.
    let (engine, mut oracle) = build(&keys, 1 << 20, MergeMode::Sync, MergePolicy::leveled(8, 2));
    for round in 0..3u64 {
        for i in 0..40u64 {
            apply(&engine, &mut oracle, ((i * 9 + round) % 400 * 10, None));
            apply(&engine, &mut oracle, ((i * 13 + round * 3) % 400 * 10 + 5, Some(i ^ round)));
        }
        engine.force_merge();
    }
    // The delta: an overwrite of a run entry, a tombstone over a base key,
    // a tombstone over a run entry, a fresh key.
    for op in [(5, Some(1)), (3_990, None), (135, None), (77, Some(2))] {
        apply(&engine, &mut oracle, op);
    }
    assert_eq!(engine.run_count(), 3);
    assert!(engine.delta_len() >= 3 && !engine.is_merging());

    // Base keys (present and deleted), inserted keys (present, overwritten
    // and deleted), never-inserted keys, both extremes.
    let probes: Vec<u64> =
        (0..400u64).flat_map(|i| [i * 10, i * 10 + 5, i * 10 + 3]).chain([77, u64::MAX]).collect();
    let expected: Vec<Option<u64>> = probes.iter().map(|k| oracle.get(k).copied()).collect();
    assert!(expected.iter().any(Option::is_some) && expected.iter().any(Option::is_none));

    let counters = || [engine.stack_lookups(), engine.stack_probes(), engine.filter_skips()];
    let moved = |from: [u64; 3], to: [u64; 3]| [to[0] - from[0], to[1] - from[1], to[2] - from[2]];
    let start = counters();
    let looped: Vec<Option<u64>> = probes.iter().map(|&k| engine.get(k)).collect();
    let after_loop = counters();
    let batched = engine.lookup_batch(&probes);
    let after_batch = counters();
    let mut par = Vec::new();
    engine.par_get_batch(&probes, &mut par);
    let after_par = counters();
    assert_eq!(looped, expected, "live get loop");
    assert_eq!(batched, expected, "live get_batch");
    assert_eq!(par, expected, "live par_get_batch");
    let by_loop = moved(start, after_loop);
    assert!(by_loop[0] > 0 && by_loop[1] > 0, "the probes must reach the run stack: {by_loop:?}");
    assert_eq!(moved(after_loop, after_batch), by_loop, "get_batch counts like the get loop");
    assert_eq!(moved(after_batch, after_par), by_loop, "par_get_batch counts like the get loop");

    let pin = engine.snapshot();
    assert_pin_matches(&pin, &oracle, &probes);
    assert_eq!(counters(), after_par, "pinned reads must not move the read-amp counters");
}

/// Background-mode race: reads through a pin stay consistent while a
/// writer thread churns the engine (merges running on the merge thread).
#[test]
fn pinned_reads_race_background_merges() {
    let keys: Vec<u64> = (0..1_000u64).map(|i| i * 5).collect();
    let (engine, mut mirror) = build(&keys, 24, MergeMode::Background, MergePolicy::leveled(2, 2));
    for i in 0..40u64 {
        apply(&engine, &mut mirror, (i * 5 + 2, Some(i)));
    }
    let pin = engine.snapshot();
    let mirror = mirror;
    let probes: Vec<u64> = (0..1_050u64).map(|i| i * 5).chain((0..40).map(|i| i * 5 + 2)).collect();
    let engine = Arc::new(engine);
    let writer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            for i in 0..2_000u64 {
                if i % 7 == 3 {
                    engine.remove((i % 1_000) * 5);
                } else {
                    engine.insert(3_000_000 + i, i);
                }
            }
        })
    };
    for pass in 0..50 {
        for &k in &probes {
            assert_eq!(
                pin.get(k),
                mirror.get(&k).copied(),
                "pinned get({k}) diverged on pass {pass} under background churn"
            );
        }
    }
    writer.join().expect("writer thread");
    engine.wait_for_merges();
    assert_pin_matches(&pin, &mirror, &probes);
}

/// Scratch directory removed on drop (pass/fail alike).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sosd-snapcon-{tag}-{}", std::process::id()));
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

/// Build a spooled leveled engine, churn it through several freezes, and
/// return the spool directory (engine dropped, stack durable).
fn spooled_stack(tag: &str) -> TempDir {
    let tmp = TempDir::new(tag);
    let keys: Vec<u64> = (0..1_500u64).map(|i| i * 10).collect();
    let payloads: Vec<u64> = keys.iter().map(|&k| k + 1).collect();
    let data = Arc::new(SortedData::with_payloads(keys, payloads).expect("sorted input"));
    let engine = WriteBehindEngine::with_spool(
        data,
        base_factory(),
        btree_delta(),
        48,
        MergeMode::Sync,
        MergePolicy::leveled(2, 2),
        &tmp.0,
        512,
    )
    .expect("spool engine builds");
    for i in 0..250u64 {
        engine.insert(200_000 + i, i);
        if i % 3 == 0 {
            engine.remove(i * 10);
        }
    }
    engine.force_merge();
    tmp
}

/// `verify_spool` passes on a pristine spool with full hash coverage, and
/// fails loudly on every tampering mode: a single flipped bit, an edited
/// manifest hash line, and a structurally valid snapshot substituted for
/// another.
#[test]
fn spool_verify_catches_tampering() {
    let tmp = spooled_stack("verify");
    let report = WriteBehindEngine::<u64>::verify_spool(&tmp.0).expect("pristine spool verifies");
    assert!(report.files.len() >= 2, "stack should persist a base and at least one run");
    assert_eq!(
        report.hashed,
        report.files.len(),
        "every referenced file must have a manifest hash line"
    );

    // (a) One flipped bit in a referenced snapshot fails the audit.
    let (victim, _) = &report.files[report.files.len() - 1];
    let victim_path = tmp.0.join(victim);
    let pristine = std::fs::read(&victim_path).expect("read snapshot");
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&victim_path, &flipped).expect("tamper snapshot");
    assert!(
        WriteBehindEngine::<u64>::verify_spool(&tmp.0).is_err(),
        "flipped bit in {victim} passed verification"
    );
    std::fs::write(&victim_path, &pristine).expect("restore snapshot");
    WriteBehindEngine::<u64>::verify_spool(&tmp.0).expect("restored spool verifies again");

    // (b) A manifest hash line edited to lie fails the audit — and the
    // cold open.
    let manifest_path = tmp.0.join("manifest");
    let manifest = std::fs::read_to_string(&manifest_path).expect("read manifest");
    let mut lines: Vec<String> = manifest.lines().map(String::from).collect();
    let hline =
        lines.iter().position(|l| l.starts_with("hash ")).expect("manifest carries hash lines");
    let mut fields: Vec<String> = lines[hline].split_whitespace().map(String::from).collect();
    let flipped_hash =
        format!("{:016x}", u64::from_str_radix(&fields[2], 16).expect("hex hash") ^ 1);
    fields[2] = flipped_hash;
    lines[hline] = fields.join(" ");
    std::fs::write(&manifest_path, lines.join("\n") + "\n").expect("tamper manifest");
    assert!(
        WriteBehindEngine::<u64>::verify_spool(&tmp.0).is_err(),
        "lying manifest hash passed verification"
    );
    assert!(
        WriteBehindEngine::open_spool(
            &tmp.0,
            base_factory(),
            btree_delta(),
            48,
            MergeMode::Sync,
            MergePolicy::leveled(2, 2),
        )
        .is_err(),
        "lying manifest hash passed the cold open"
    );
    std::fs::write(&manifest_path, &manifest).expect("restore manifest");

    // (c) A structurally valid file substituted for another passes page
    // checksums and its own header — only the manifest hash catches it.
    let (other, _) = &report.files[0];
    assert_ne!(other, victim, "need two distinct files to substitute");
    let other_bytes = std::fs::read(tmp.0.join(other)).expect("read substitute");
    std::fs::write(&victim_path, &other_bytes).expect("substitute snapshot");
    assert!(
        WriteBehindEngine::<u64>::verify_spool(&tmp.0).is_err(),
        "substituted snapshot passed verification"
    );
    std::fs::write(&victim_path, &pristine).expect("restore snapshot");
    WriteBehindEngine::<u64>::verify_spool(&tmp.0).expect("spool verifies after restore");
}

/// Two engines that reach identical logical state through different
/// physical histories (policies, merge cadence, op order) report equal
/// root fingerprints — and one extra write breaks the equality.
#[test]
fn identical_logical_state_fingerprints_equal() {
    let keys: Vec<u64> = (0..800u64).map(|i| i * 11).collect();
    let (a, _) = build(&keys, 8, MergeMode::Sync, MergePolicy::leveled(2, 3));
    let (b, _) = build(&keys, 64, MergeMode::Sync, MergePolicy::leveled(2, 1));

    // Same logical ops, different order and interleaving.
    for i in 0..120u64 {
        a.insert(10_000 + i, i * 3);
        if i % 4 == 1 {
            a.remove(i * 11);
        }
    }
    for i in (0..120u64).rev() {
        b.insert(10_000 + i, i * 3);
    }
    for i in 0..120u64 {
        if i % 4 == 1 {
            b.remove(i * 11);
        }
    }
    a.force_merge();
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "identical logical state must fingerprint identically across physical shapes"
    );
    assert_eq!(a.snapshot().fingerprint(), b.snapshot().fingerprint());

    b.insert(42, 42);
    assert_ne!(a.fingerprint(), b.fingerprint(), "a visible write must change the fingerprint");
    b.remove(42);
    assert_eq!(a.fingerprint(), b.fingerprint(), "undoing the write must restore the fingerprint");
}

/// Frozen runs built from identical logical deltas hash identically — the
/// run-dedupe handle — and a pinned view exposes the per-tier hashes.
#[test]
fn equal_runs_hash_equal() {
    let keys: Vec<u64> = (0..300u64).map(|i| i * 2).collect();
    let mk = || {
        let (e, _) = build(&keys, 10, MergeMode::Sync, MergePolicy::leveled(4, 2));
        for i in 0..10u64 {
            e.insert(100_000 + i, i);
        }
        e.force_merge();
        e
    };
    let (a, b) = (mk(), mk());
    let (pa, pb) = (a.snapshot(), b.snapshot());
    assert!(pa.run_count() >= 1, "churn should have frozen at least one run");
    assert_eq!(pa.run_hashes(), pb.run_hashes(), "identical freezes must hash identically");
    assert_eq!(pa.base_hash(), pb.base_hash(), "identical bases must hash identically");
}
