//! Advisor integration tests: on synthetically mixed datasets the
//! per-shard picks must score close to the exhaustive measured best, and
//! re-advising a live serving stack under churn must never change the
//! visible mapping (the generation-swap invariant).

use proptest::prelude::*;
use sosd::bench::registry::{btree_delta, EngineSpec, Family};
use sosd::core::advisor::{advisor_partitions, measure_candidate_ns};
use sosd::core::util::splitmix64;
use sosd::core::{
    CachedEngine, MergeMode, MergePolicy, QueryEngine, SortedData, WriteBehindEngine,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const POOL: [Family; 4] = [Family::Rmi, Family::Pgm, Family::Rbs, Family::Bs];

fn auto_spec(shards: usize) -> EngineSpec {
    EngineSpec::AutoTuned {
        shards,
        candidates: POOL.iter().map(|f| f.default_spec::<u64>()).collect(),
    }
}

/// One sorted array mixing a linear ramp, heavy duplicate runs, and
/// uniform-random gaps, in the order given by `order` (a permutation
/// index 0..6).
fn mixed_dataset(n: usize, seed: u64, order: usize) -> Arc<SortedData<u64>> {
    let orders: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let recipe = orders[order % orders.len()];
    let seg = n / 3;
    let mut keys = Vec::with_capacity(seg * 3);
    for (slot, &kind) in recipe.iter().enumerate() {
        let base = (slot as u64 + 1) << 40;
        let mut local: Vec<u64> = (0..seg)
            .map(|i| {
                base + match kind {
                    0 => 3 * i as u64,                                    // linear
                    1 => (i as u64 / 64) * 97,                            // duplicates
                    _ => splitmix64(seed ^ i as u64) % (16 * seg as u64), // random
                }
            })
            .collect();
        local.sort_unstable();
        keys.append(&mut local);
    }
    Arc::new(SortedData::new(keys).expect("sorted non-empty keys"))
}

proptest! {
    // Each case advises + measures; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On a mixed dataset, every per-shard pick must measure within
    /// tolerance of the exhaustively-measured best candidate for that
    /// shard. The advisor times every candidate it builds, so the pick is
    /// the best measurement it took; the tolerance only absorbs timing
    /// noise. Timing is noisy at the ~10ns scale, so every pass measures
    /// all candidates — the pick and its competitors — interleaved, back
    /// to back (a noise burst on a loaded host then hits both sides of the
    /// comparison, not one), and each candidate keeps its minimum across
    /// passes and retries. The pick is itself the product of timings taken
    /// once per advise: a burst there can crown a slower candidate, which
    /// no re-measurement of the pick can repair. So a retry re-advises
    /// before a failure counts — the test catches category errors, which
    /// every retry repeats, not jitter.
    #[test]
    fn per_shard_picks_track_the_measured_best(
        seed in 0u64..1_000,
        order in 0usize..6,
    ) {
        const SHARDS: usize = 6;
        const TOLERANCE: f64 = 1.5;
        const RETRIES: usize = 4;
        let data = mixed_dataset(36_000, seed, order);
        let spec = auto_spec(SHARDS);
        let parts = advisor_partitions(&data, SHARDS);
        let mut mins = vec![vec![f64::INFINITY; POOL.len()]; parts.len()];
        let mut failure = String::new();
        for _ in 0..=RETRIES {
            let advisor = spec.advisor::<u64>().expect("pool is non-empty");
            let plan = advisor.advise(&data, SHARDS).expect("advisor plans");
            prop_assert_eq!(plan.picks.len(), parts.len());
            failure.clear();
            for ((pick, part), mins) in plan.picks.iter().zip(&parts).zip(&mut mins) {
                for _ in 0..3 {
                    for (min, cand) in mins.iter_mut().zip(advisor.candidates()) {
                        let ns = measure_candidate_ns(cand, part, 1_024).expect("candidate builds");
                        *min = min.min(ns);
                    }
                }
                let (picked_ns, best) =
                    (mins[pick.candidate], mins.iter().copied().fold(f64::INFINITY, f64::min));
                if picked_ns > TOLERANCE * best {
                    failure = format!(
                        "shard pick {} measured {picked_ns:.1}ns vs exhaustive best {best:.1}ns \
                         (> {TOLERANCE}x off); per-candidate minima {mins:.1?}, advisor scores {:?}",
                        pick.label, pick.scores
                    );
                    break;
                }
            }
            if failure.is_empty() {
                break;
            }
        }
        prop_assert!(failure.is_empty(), "{}", failure);
    }
}

/// The generation-swap invariant, end to end: a full serving stack
/// (advisor-driven write-behind base under a hot-key cache) is driven
/// with interleaved inserts, removes, and reads; after every forced merge
/// (each re-advises its new run, every second one also the folded base)
/// the entire visible mapping must equal
/// a BTreeMap oracle's — a re-pick may swap every per-shard index, but
/// never an answer.
#[test]
fn retuning_under_churn_never_changes_the_mapping() {
    let data = mixed_dataset(30_000, 7, 0);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    // SortedData::new derives payload(i) = splitmix64(i); duplicate keys
    // sum. Build the oracle from the data itself.
    for i in 0..data.len() {
        let k = data.key(i);
        *oracle.entry(k).or_insert(0) = data.payload_sum_at(k);
    }

    // Every run build and every base fold re-advises; `leveled(2, 1)`
    // folds into the base on every second freeze.
    let advisor = Arc::new(auto_spec(5).advisor::<u64>().expect("pool is non-empty"));
    let wb = WriteBehindEngine::with_policy(
        Arc::clone(&data),
        advisor.base_factory(5),
        btree_delta(),
        1 << 14,
        MergeMode::Sync,
        MergePolicy::leveled(2, 1),
    )
    .expect("stack builds");
    let engine = CachedEngine::new(wb, 2_048, 8).expect("cache wraps");

    let probe_keys: Vec<u64> = (0..data.len()).step_by(61).map(|i| data.key(i)).collect();
    let check = |tag: &str, oracle: &BTreeMap<u64, u64>| {
        for &k in &probe_keys {
            assert_eq!(engine.get(k), oracle.get(&k).copied(), "{tag}: key {k:#x}");
        }
    };
    check("cold", &oracle);

    for round in 0..4u64 {
        // Churn: fresh inserts into a new key range, overwrites of existing
        // keys, removes of base keys — enough buffered writes to force
        // threshold merges (each of which re-advises) plus one forced
        // merge per round.
        for i in 0..3_000u64 {
            let k = (10u64 << 40) + round * 10_000 + i;
            engine.insert(k, round * 1_000 + i);
            oracle.insert(k, round * 1_000 + i);
        }
        for i in (0..data.len()).step_by(97) {
            let k = data.key(i);
            engine.remove(k);
            oracle.remove(&k);
        }
        for &k in probe_keys.iter().take(200) {
            engine.get(k);
        }
        let merges_before = engine.inner().merges_completed();
        engine.inner().force_merge();
        assert!(engine.inner().merges_completed() > merges_before, "forced merge re-advises");
        check(&format!("after forced merge round {round}"), &oracle);
    }
    assert!(engine.inner().compactions() >= 1, "no base fold re-advised the merged base");
}
