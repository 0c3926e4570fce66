//! Cached serving: put a bounded hot-key result cache in front of a
//! serving engine, watch it win under Zipf-skewed reads, and compose it
//! over the write-behind tier without ever serving a stale payload.
//!
//! Run with: `cargo run --release --example cached_serving`

use sosd::bench::registry::{EngineSpec, Family};
use sosd::core::cache::CachedEngine;
use sosd::core::dynamic::Op;
use sosd::core::{MergeMode, QueryEngine, SearchStrategy, SortedData};
use sosd::datasets::{generate_mixed, DatasetId, MixedConfig, ReadSkew};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // 1. A Zipf(1.1)-skewed pure-lookup stream over an amzn-shaped dataset
    //    (the YCSB-style hot-key traffic the cache exists for).
    let cfg = MixedConfig {
        bulk_fraction: 1.0,
        insert_fraction: 0.0,
        delete_fraction: 0.0,
        range_fraction: 0.0,
        range_span_keys: 0,
        read_skew: ReadSkew::Zipf(1.1),
    };
    let w = generate_mixed(DatasetId::Amzn, 400_000, 200_000, cfg, 42);
    let lookups: Vec<u64> = w
        .ops
        .iter()
        .filter_map(|op| if let Op::Lookup(k) = op { Some(*k) } else { None })
        .collect();
    let data = Arc::new(
        SortedData::with_payloads(w.bulk_keys.clone(), w.bulk_payloads.clone()).expect("sorted"),
    );
    println!("dataset: {} keys, {} zipf(1.1) lookups", data.len(), lookups.len());

    // 2. A cached engine from a spec: an RMI fronted by a 32k-entry
    //    set-associative CLOCK cache with 8 counter slots. The spec's label
    //    names the configuration.
    let inner_spec = EngineSpec::Single(Family::Rmi.default_spec::<u64>());
    let spec = EngineSpec::Cached {
        capacity: 32_768,
        stripes: 8,
        negative: false,
        inner: Box::new(inner_spec.clone()),
    };
    let cached = spec.cached_engine(&data, SearchStrategy::Binary).expect("spec builds");
    println!(
        "engine: {} (capacity {}, {} counter slots)\nspec:   {}",
        cached.name(),
        cached.capacity(),
        cached.num_stripes(),
        spec.label::<u64>(),
    );

    // 3. Cached vs uncached on the identical stream, checksum-validated.
    let uncached = inner_spec.engine(&data, SearchStrategy::Binary).expect("builds");
    let run = |engine: &dyn QueryEngine<u64>| -> (f64, u64) {
        let t = Instant::now();
        let mut sum = 0u64;
        for &k in &lookups {
            sum = sum.wrapping_add(engine.get(k).expect("present key"));
        }
        (lookups.len() as f64 / t.elapsed().as_secs_f64() / 1e6, sum)
    };
    run(uncached.as_ref()); // warm
    let (base_mops, base_sum) = run(uncached.as_ref());
    run(&cached); // warm pass fills the cache
    cached.reset_stats();
    let (cached_mops, cached_sum) = run(&cached);
    assert_eq!(cached_sum, base_sum, "the cache must be invisible to results");
    println!(
        "\nthroughput: uncached {base_mops:.2} M/s | cached {cached_mops:.2} M/s \
         ({:.2}x, {:.1}% hits)",
        cached_mops / base_mops,
        cached.hit_rate() * 100.0,
    );

    // 4. Composition over the write tier: the cached write path forwards
    //    the insert first and invalidates second, so a read after a write
    //    can never resurrect the old payload — even while a background
    //    merge swaps generations underneath.
    let wb_spec = EngineSpec::WriteBehind {
        shards: 1,
        inner: Family::Rmi.default_spec::<u64>(),
        merge_threshold: 4_096,
        policy: sosd::core::MergePolicy::leveled(4, 3),
    };
    let wb = wb_spec
        .writebehind_engine(&data, SearchStrategy::Binary, MergeMode::Background)
        .expect("builds");
    let cached_wb = CachedEngine::new(wb, 32_768, 8).expect("cache builds");
    let hot = lookups[0];
    let before = cached_wb.get(hot).expect("present");
    cached_wb.insert(hot, before ^ 0xDEAD_BEEF); // overwrite a cached key
    assert_eq!(cached_wb.get(hot), Some(before ^ 0xDEAD_BEEF), "no stale hit");
    for i in 0..8_192u64 {
        let filler = i * 2 + 1;
        if filler != hot {
            cached_wb.insert(filler, i); // cross the merge threshold
        }
    }
    cached_wb.inner().wait_for_merges();
    assert_eq!(cached_wb.get(hot), Some(before ^ 0xDEAD_BEEF), "exact across merges");
    println!(
        "write-behind composition: {} ({} merges, overwrite visible immediately)",
        cached_wb.name(),
        cached_wb.inner().merges_completed(),
    );
}
