//! Scenario: a learned index serving an LSM-style write-behind engine.
//!
//! The paper motivates read-only learned indexes with write-heavy systems
//! that serve reads from immutable sorted runs (RocksDB-style LSM trees).
//! Earlier revisions of this example hand-rolled that engine out of raw
//! runs; the workspace now ships it as `sosd_core::WriteBehindEngine`:
//! an immutable base indexed by a RadixSpline (chosen for its single-pass,
//! constant-cost-per-element build — exactly the property a merge pipeline
//! needs), a mutable B+Tree delta absorbing the write stream, and
//! threshold-triggered background merges that rebuild the base while
//! readers keep serving from the previous generation.
//!
//! Run with: `cargo run --release --example lsm_run_lookup`

use sosd::bench::registry::{EngineSpec, IndexParams, IndexSpec};
use sosd::core::{MergeMode, MergePolicy, QueryEngine, SearchStrategy, SortedData};
use sosd::datasets::{registry::generate_u64, DatasetId};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // The first flushed run: wiki-style edit timestamps, as an append-mostly
    // ingest pipeline would produce them.
    let base = generate_u64(DatasetId::Wiki, 400_000, 7);
    let data = Arc::new(SortedData::new(base.keys().to_vec()).expect("sorted run"));

    // Engine config: a RadixSpline base, a B+Tree delta merged every 8000
    // writes, and a leveled run stack of fanout 4 over 2 levels.
    // The leveled policy is the true LSM shape: each frozen delta becomes
    // an immutable run with its own RadixSpline and a per-run Bloom
    // filter, and compaction folds level-locally instead of rebuilding
    // the whole base per cycle.
    let spec = EngineSpec::WriteBehind {
        shards: 1,
        inner: IndexSpec::new(IndexParams::Rs { eps: 32, radix_bits: 16 }),
        merge_threshold: 8_000,
        policy: MergePolicy::leveled(4, 2),
    };
    println!("spec: {}", spec.label::<u64>());

    let t = Instant::now();
    let engine = spec
        .writebehind_engine(&data, SearchStrategy::Binary, MergeMode::Background)
        .expect("engine builds");
    println!(
        "built base generation: {} keys, {:.1} KB of index+delta in {:.1} ms (single pass)\n",
        engine.len(),
        engine.size_bytes() as f64 / 1024.0,
        t.elapsed().as_secs_f64() * 1e3
    );

    // Ingest phase: two memtables' worth of new events stream into the
    // delta; each threshold crossing freezes the delta and rebuilds the
    // base on a background thread while reads continue.
    let incoming = generate_u64(DatasetId::Wiki, 120_000, 99);
    let t = Instant::now();
    for (i, &key) in incoming.keys().iter().enumerate() {
        engine.insert(key, 0xE0000000 + i as u64);
    }
    let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
    engine.wait_for_merges();
    println!(
        "ingest: {} writes in {ingest_ms:.1} ms ({:.0} ns/write), \
         {} background merges + {} compactions, {} runs stacked, epoch {} \
         (delta holds {} entries)",
        incoming.len(),
        ingest_ms * 1e6 / incoming.len() as f64,
        engine.merges_completed(),
        engine.compactions(),
        engine.run_count(),
        engine.epoch(),
        engine.delta_len(),
    );
    // Churn: tombstoned deletes shadow their keys until a compaction folds
    // them onto the records they hide.
    let victim = data.key(99);
    let removed = engine.remove(victim);
    assert!(removed.is_some() && engine.get(victim).is_none());
    println!("tombstoned delete of {victim}: payload was {removed:?}, reads now miss");
    // A final explicit compaction (an operator "flush"), draining what the
    // threshold has not yet claimed.
    engine.force_merge();
    engine.wait_for_merges();
    println!(
        "after final compaction: epoch {}, base generation {} records, {} visible \
         (merges collapse overwritten duplicate groups), delta empty: {}\n",
        engine.epoch(),
        engine.base_len(),
        engine.len(),
        engine.delta_len() == 0,
    );

    // Point reads across both tiers.
    let probe_base = data.key(123_456);
    let probe_delta = incoming.key(60_000);
    assert!(engine.get(probe_base).is_some());
    assert!(engine.get(probe_delta).is_some());
    println!("point read {probe_base} (base tier):  payload {:?}", engine.get(probe_base));
    println!("point read {probe_delta} (ingested):   payload {:?}", engine.get(probe_delta));

    // A time-window scan stitching delta entries over the base.
    let lo = data.key(data.len() / 4);
    let hi = data.key(data.len() / 2);
    let t = Instant::now();
    let window = engine.range(lo, hi);
    println!(
        "range [{lo}, {hi}): {} events, payload sum {:#x} in {:.1} us\n",
        window.len(),
        window.iter().fold(0u64, |a, e| a.wrapping_add(e.1)),
        t.elapsed().as_secs_f64() * 1e6
    );

    // Read phase: batched lookups keep the base's interleaved-prefetch
    // path hot for the non-deltaed majority.
    let lookups: Vec<u64> = (0..200_000).map(|i| data.key((i * 37) % data.len())).collect();
    let t = Instant::now();
    let hits = engine.lookup_batch(&lookups);
    let ns = t.elapsed().as_nanos() as f64 / lookups.len() as f64;
    let checksum = hits.iter().fold(0u64, |a, r| a.wrapping_add(r.unwrap_or(0)));
    assert_ne!(checksum, 0);
    println!("read phase: {ns:.0} ns/read batched across the write-behind tiers");
}
