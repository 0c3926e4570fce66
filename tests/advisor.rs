//! Advisor integration tests: on synthetically mixed datasets the
//! per-shard picks must score close to the exhaustive measured best, and
//! retuning a live serving stack under churn must never change the
//! visible mapping (the generation-swap invariant).

use proptest::prelude::*;
use sosd::bench::registry::{DeltaKind, EngineSpec, Family};
use sosd::core::advisor::{advisor_partitions, measure_candidate_ns, ObservabilityHub};
use sosd::core::util::splitmix64;
use sosd::core::{CachedEngine, MergeMode, QueryEngine, SortedData};
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
    // Each case trains + advises + measures; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On a mixed dataset, every per-shard pick must measure within
    /// tolerance of the exhaustively-measured best candidate for that
    /// shard. The tolerance mirrors the advisor's own prune bound
    /// (RUNOFF_FACTOR): the trained model may prune a candidate whose
    /// real cost is best when its prediction is more than that factor off
    /// the favorite, so no tighter bound is guaranteed. Timing is noisy
    /// at the ~10ns scale, so every pass measures all candidates — the
    /// pick and its competitors — interleaved, back to back (a noise burst
    /// on a loaded host then hits both sides of the comparison, not one),
    /// and each candidate keeps its minimum across passes and retries. The
    /// pick is itself the product of timings (the cost model's training
    /// set and the runoff are each measured once): a burst there yields a
    /// model that prices a candidate at 0 ns or 10x its cost and prunes
    /// the real best, which no re-measurement of the pick can repair. So a
    /// retry re-trains and re-advises before a failure counts — the test
    /// catches category errors, which every retry repeats, not jitter.
    #[test]
    fn per_shard_picks_track_the_measured_best(
        seed in 0u64..1_000,
        order in 0usize..6,
    ) {
        const SHARDS: usize = 6;
        const TOLERANCE: f64 = 3.0;
        const RETRIES: usize = 4;
        let data = mixed_dataset(36_000, seed, order);
        let spec = auto_spec(SHARDS);
        let parts = advisor_partitions(&data, SHARDS);
        let mut mins = vec![vec![f64::INFINITY; POOL.len()]; parts.len()];
        let mut failure = String::new();
        for _ in 0..=RETRIES {
            let advisor = spec.advisor::<u64>().expect("pool trains");
            let plan = advisor.advise(&data, SHARDS, &Default::default()).expect("advisor plans");
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
/// with interleaved inserts, removes, and reads; after every retune the
/// entire visible mapping must equal a BTreeMap oracle's — a retune may
/// swap every per-shard index, but never an answer.
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

    let hub = Arc::new(ObservabilityHub::<u64>::new());
    let spec = auto_spec(5);
    let wb = spec
        .advised_writebehind_engine(&data, DeltaKind::BTree, 1 << 14, MergeMode::Sync, &hub)
        .expect("stack builds");
    let engine = CachedEngine::new(wb, 2_048, 8).expect("cache wraps");
    assert_eq!(hub.retunes(), 1, "initial build advises once");

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
        // threshold merges (each of which re-advises) plus one explicit
        // retune per round.
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
        let retunes_before = hub.retunes();
        engine.retune(&hub);
        assert!(hub.retunes() > retunes_before, "explicit retune re-advises");
        assert!(!hub.last_picks().is_empty(), "picks are published");
        check(&format!("after retune round {round}"), &oracle);
    }
}
