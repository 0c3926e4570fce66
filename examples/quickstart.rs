//! Quickstart: serve lookups over each learned index through the unified
//! `QueryEngine` facade — point lookups, ordered queries, and the batched
//! path — with engines constructed from `IndexSpec` values.
//!
//! Run with: `cargo run --release --example quickstart`

use sosd::bench::registry::Family;
use sosd::bench::timing::time_lookups_batched;
use sosd::core::{QueryEngine, SearchStrategy};
use sosd::datasets::{make_workload, DatasetId};
use std::sync::Arc;

fn main() {
    // 1. A dataset: 500k keys shaped like Amazon book-popularity data, with
    //    100k lookups drawn from the keys (the paper's workload design).
    let workload = make_workload(DatasetId::Amzn, 500_000, 100_000, 42);
    let (lookups, expected_checksum) = (workload.lookups, workload.expected_checksum);
    let data = Arc::new(workload.data);
    println!(
        "dataset: {} keys in [{}, {}], {} lookups\n",
        data.len(),
        data.min_key(),
        data.max_key(),
        lookups.len()
    );

    // 2. One engine per learned family, each built from the family's
    //    default spec.
    println!(
        "{:<6} {:>10} {:>12} {:>14} {:>9}",
        "index", "size (KB)", "ns/lookup", "ns/lookup b=16", "speedup"
    );
    for family in Family::LEARNED {
        let spec = family.default_spec::<u64>();
        let engine = spec.engine(&data, SearchStrategy::Binary).expect("spec builds");

        // One-at-a-time and batched timings through the same facade; both
        // must reproduce the workload's expected checksum.
        let scalar = time_lookups_batched(engine.as_ref(), QueryEngine::get_batch, &lookups, 1, 3);
        let batched =
            time_lookups_batched(engine.as_ref(), QueryEngine::get_batch, &lookups, 16, 3);
        assert_eq!(scalar.checksum, expected_checksum);
        assert_eq!(batched.checksum, expected_checksum);

        println!(
            "{:<6} {:>10.1} {:>12.1} {:>14.1} {:>8.2}x",
            family.name(),
            engine.size_bytes() as f64 / 1024.0,
            scalar.ns_per_lookup,
            batched.ns_per_lookup,
            scalar.ns_per_lookup / batched.ns_per_lookup,
        );
    }

    // 3. The ordered-map facade: point gets, lower bounds, and ranges with
    //    payloads — no search bounds or positions in sight.
    let engine = Family::Rmi
        .default_spec::<u64>()
        .engine(&data, SearchStrategy::Binary)
        .expect("rmi builds");
    let present = lookups[0];
    assert!(engine.get(present).is_some());

    let probe = data.max_key() - 1;
    match engine.lower_bound(probe) {
        Some((k, _)) => println!("\nlower_bound({probe}) = {k}"),
        None => println!("\nlower_bound({probe}) is past the last key"),
    }
    let lo = data.key(data.len() / 2);
    let hi = data.key(data.len() / 2 + 8);
    let window = engine.range(lo, hi);
    println!(
        "range [{lo}, {hi}) holds {} entries, payload sum {:#x}",
        window.len(),
        engine.range_sum(lo, hi)
    );

    // 4. A spec's label names the configuration that built this engine:
    println!("\nengine spec: {}", Family::Rmi.default_spec::<u64>().label::<u64>());
}
