//! Sharded serving: partition one dataset behind a fence-routed
//! `ShardedEngine`, compare it with the shared-everything engine through
//! the same honest throughput harness, and batch lookups across shards in
//! parallel.
//!
//! Run with: `cargo run --release --example sharded_serving`

use sosd::bench::mt::{measure_batched_throughput, measure_engine_throughput, thread_sweep};
use sosd::bench::registry::{EngineSpec, Family};
use sosd::core::{QueryEngine, SearchStrategy};
use sosd::datasets::{make_workload, DatasetId};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. A dataset and a present-key lookup stream (the paper's workload
    //    design), plus its expected payload checksum.
    let workload = make_workload(DatasetId::Amzn, 400_000, 80_000, 42);
    let (lookups, expected_checksum) = (workload.lookups, workload.expected_checksum);
    let data = Arc::new(workload.data);
    println!("dataset: {} keys, {} lookups", data.len(), lookups.len());

    // 2. A sharded engine from a spec: 8 key-range partitions, each serving
    //    its own RMI. The spec's label names the configuration.
    let spec = EngineSpec::Sharded { shards: 8, inner: Family::Rmi.default_spec::<u64>() };
    let engine = spec.sharded_engine(&data, SearchStrategy::Binary).expect("spec builds");
    println!(
        "engine: {} ({} shards, fences {:?}...)\nspec:   {}",
        engine.name(),
        engine.num_shards(),
        &engine.fences()[..engine.fences().len().min(3)],
        spec.label::<u64>(),
    );

    // 3. The full QueryEngine contract, routed across shards: point gets,
    //    lower bounds, and ranges stitched over shard boundaries.
    let present = lookups[0];
    assert!(engine.get(present).is_some());
    let (lo, hi) = (data.key(data.len() / 2), data.key(data.len() / 2 + 12));
    println!(
        "range [{lo}, {hi}) -> {} entries, payload sum {:#x}",
        engine.range(lo, hi).len(),
        engine.range_sum(lo, hi)
    );

    // 4. Batched lookups: serial (shard-grouped) and parallel (shard groups
    //    fanned across a scoped pool). Both must reproduce the workload
    //    checksum exactly.
    let mut par_results = Vec::new();
    engine.par_get_batch(&lookups, &mut par_results);
    let paths = [("get_batch", engine.lookup_batch(&lookups)), ("par_get_batch", par_results)];
    for (label, results) in paths {
        let sum = results.into_iter().fold(0u64, |a, r| a.wrapping_add(r.unwrap_or(0)));
        assert_eq!(sum, expected_checksum);
        println!("{label:>14}: checksum {sum:#x} ok");
    }

    // 5. Sharded vs shared-everything through the same measurement loop
    //    (per-worker clocks; surplus workers skipped).
    let unsharded = EngineSpec::Single(Family::Rmi.default_spec::<u64>())
        .engine(&data, SearchStrategy::Binary)
        .expect("builds");
    let budget = Duration::from_millis(150);
    let threads = *thread_sweep().last().expect("non-empty");
    let flat = measure_engine_throughput(unsharded.as_ref(), &lookups, threads, false, budget);
    let routed = measure_engine_throughput(&engine, &lookups, threads, false, budget);
    let fanned =
        measure_batched_throughput(&engine, QueryEngine::par_get_batch, &lookups, 1024, budget);
    println!(
        "\nthroughput @ {} threads: shared-everything {:.2} M/s | sharded point {:.2} M/s | \
         par batch {:.2} M/s",
        flat.threads,
        flat.lookups_per_sec / 1e6,
        routed.lookups_per_sec / 1e6,
        fanned.lookups_per_sec / 1e6,
    );
}
