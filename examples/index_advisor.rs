//! Scenario: a self-tuning "index advisor" that picks the right structure
//! per key-range shard — and re-picks it as the workload drifts.
//!
//! The paper's headline result is that no single index family wins
//! everywhere: the right choice depends on the key distribution and the
//! workload. This example builds a deliberately mixed dataset (a linear
//! ramp, a duplicate-heavy run, and a uniform-random segment stitched into
//! one sorted array), hands a candidate pool to a [`sosd::core::Advisor`],
//! and shows it picking *different* families for different shards by
//! timing every candidate on every shard.
//! It then wires the full self-tuning serving stack — advisor-driven
//! write-behind base under a hot-key cache — drives writes and skewed reads
//! at it, and forces two merges: each run build and the base fold re-advise
//! per shard of the data they index while the visible mapping stays
//! untouched.
//!
//! Run with: `cargo run --release --example index_advisor`

use sosd::bench::registry::{btree_delta, EngineSpec, Family};
use sosd::core::util::splitmix64;
use sosd::core::{
    CachedEngine, MergeMode, MergePolicy, QueryEngine, SortedData, WriteBehindEngine,
};
use std::sync::Arc;

/// One sorted array with three very different local shapes.
fn mixed_dataset(n: usize) -> Arc<SortedData<u64>> {
    let seg = n / 3;
    let mut keys: Vec<u64> = Vec::with_capacity(seg * 3);
    keys.extend((0..seg).map(|i| (1u64 << 40) + 3 * i as u64)); // linear ramp
    keys.extend((0..seg).map(|i| (2u64 << 40) + (i as u64 / 64) * 97)); // duplicate runs
    let mut random: Vec<u64> =
        (0..seg).map(|i| (3u64 << 40) + splitmix64(i as u64) % (16 * seg as u64)).collect();
    random.sort_unstable();
    keys.extend(random);
    Arc::new(SortedData::new(keys).expect("sorted non-empty keys"))
}

fn main() {
    let data = mixed_dataset(240_000);
    println!("advising over a mixed dataset of {} keys", data.len());

    // 1. The advisor holds only the candidate pool; it times nothing until
    //    it advises.
    let spec = EngineSpec::AutoTuned {
        shards: 6,
        candidates: [Family::Rmi, Family::Pgm, Family::Rbs, Family::Bs]
            .iter()
            .map(|f| f.default_spec::<u64>())
            .collect(),
    };
    let advisor = spec.advisor::<u64>().expect("pool is non-empty");

    // 2. Advise: build and time every candidate per key-range shard, serve
    //    each shard from the cheapest measurement.
    let plan = advisor.advise(&data, 6).expect("advisor plans");
    println!("\nper-shard picks:");
    for (i, pick) in plan.picks.iter().enumerate() {
        // Every candidate in this pool builds on every shard, so every one
        // is measured, and the pick is the cheapest measurement.
        assert!(pick.scores.iter().all(|s| s.measured_ns.is_finite()), "{pick:?}");
        assert_eq!(pick.candidate, pick.scores[0].candidate, "{pick:?}");
        let runner_up = pick.scores.get(1).map(|s| s.label.as_str()).unwrap_or("-");
        println!(
            "  shard {i}: {:<28} measured {:>6.1} ns/lookup ({} keys; runner-up {})",
            pick.label, pick.measured_ns, pick.shard_len, runner_up
        );
    }
    let probe = data.key(1_234);
    assert_eq!(plan.engine.get(probe), Some(data.payload_sum_at(probe)));

    // 3. The self-tuning serving stack: the same advisor drives the
    //    write-behind base factory (re-advising at every run and base
    //    build), with a hot-key cache in front. `leveled(2, 1)` folds the
    //    run stack into the base on every second merge.
    let wb = WriteBehindEngine::with_policy(
        Arc::clone(&data),
        Arc::new(advisor).base_factory(6),
        btree_delta(),
        1 << 20,
        MergeMode::Sync,
        MergePolicy::leveled(2, 1),
    )
    .expect("stack builds");
    let cached = CachedEngine::new(wb, 4_096, 8).expect("cache wraps");

    // Drive write-heavy churn plus a skewed read mix concentrated on the
    // duplicate-heavy segment.
    for i in 0..20_000u64 {
        cached.insert((2u64 << 40) + 7 * i + 1, i);
    }
    for i in 0..60_000usize {
        let hot = (2u64 << 40) + (splitmix64(i as u64) % 512 / 64) * 97;
        cached.get(hot);
    }
    println!(
        "\nbuffered {} writes in the delta, cache hit rate {:.0}%",
        cached.inner().delta_len(),
        cached.hit_rate() * 100.0
    );

    // 4. Force two merges: the first freezes the delta into a run (advised
    //    per shard of the run), the second folds both runs into the base
    //    and re-advises per shard of the *merged* data.
    let before = cached.get((2u64 << 40) + 8);
    cached.inner().force_merge();
    for i in 0..1_000u64 {
        cached.insert((4u64 << 40) + i, i);
    }
    cached.inner().force_merge();
    assert_eq!(cached.inner().compactions(), 1, "the second merge folded into the base");
    assert_eq!(cached.get((2u64 << 40) + 8), before, "a rebuild never changes the mapping");
    println!(
        "\n{} merges re-advised a base of {} entries; the generation swap kept every visible key identical.",
        cached.inner().merges_completed(),
        cached.inner().base_len()
    );
}
