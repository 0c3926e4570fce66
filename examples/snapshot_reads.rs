//! Consistent point-in-time snapshots: pin a `PinnedView` over a churning
//! write-behind engine, show its reads frozen at pin time while the live
//! engine moves on, then use content hashes to fingerprint-compare two
//! replicas and audit a cold spool.
//!
//! Run with: `cargo run --release --example snapshot_reads`

use sosd::bench::registry::{btree_delta, Family};
use sosd::core::writebehind::BaseFactory;
use sosd::core::{
    MergeMode, MergePolicy, QueryEngine, SearchStrategy, SortedData, StaticEngine,
    WriteBehindEngine,
};
use std::sync::Arc;

fn base_factory() -> BaseFactory<u64> {
    Arc::new(|d: Arc<SortedData<u64>>| {
        let index = Family::Pgm.default_builder::<u64>().build_boxed(&d)?;
        Ok(Box::new(StaticEngine::with_strategy(index, d, SearchStrategy::Binary))
            as Box<dyn QueryEngine<u64>>)
    })
}

fn build(policy: MergePolicy) -> WriteBehindEngine<u64> {
    let keys: Vec<u64> = (0..100_000u64).map(|i| i * 8).collect();
    let payloads: Vec<u64> = keys.iter().map(|&k| k / 8).collect();
    let data = Arc::new(SortedData::with_payloads(keys, payloads).expect("sorted input"));
    WriteBehindEngine::with_policy(
        data,
        base_factory(),
        btree_delta(),
        4_096,
        MergeMode::Sync,
        policy,
    )
    .expect("engine builds")
}

fn main() {
    // 1. A leveled write-behind engine over 100k keys, with some churn so
    //    the stack holds a base, frozen runs, and a part-full delta.
    let engine = build(MergePolicy::leveled(4, 2));
    for i in 0..10_000u64 {
        engine.insert(800_000 + i * 2, i);
    }
    engine.remove(0);
    println!(
        "live engine: epoch {}, {} entries, {} merges so far",
        engine.epoch(),
        engine.len(),
        engine.merges_completed()
    );

    // 2. snapshot() pins the current generation: a few Arc clones plus one
    //    delta copy. No stop-the-world, no data copy.
    let pin = engine.snapshot();
    println!(
        "pinned view: epoch {}, {} entries, {} frozen runs, {} delta entries, base hash {:#018x}",
        pin.epoch(),
        pin.len(),
        pin.run_count(),
        pin.delta_len(),
        pin.base_hash()
    );
    let at_pin_len = pin.len();
    let at_pin_missing = pin.get(0);
    let at_pin_present = pin.get(800_000);

    // 3. Churn the live engine straight through several merges. The pin
    //    keeps answering from the pin-time mapping.
    engine.insert(0, 999);
    for i in 0..20_000u64 {
        engine.insert(900_000 + i * 2, i);
    }
    println!(
        "after churn: live epoch {} len {} | pinned epoch {} len {} (unchanged: {})",
        engine.epoch(),
        engine.len(),
        pin.epoch(),
        pin.len(),
        pin.len() == at_pin_len
    );
    assert_eq!(pin.get(0), at_pin_missing, "the pin must not see the post-pin insert of key 0");
    assert_eq!(pin.get(800_000), at_pin_present);
    assert_eq!(engine.get(0), Some(999), "the live engine must see it");
    println!(
        "pin.get(0) = {:?} (removed before the pin) vs live get(0) = {:?}",
        pin.get(0),
        engine.get(0)
    );

    // 4. Root fingerprints: replicas that converged to the same logical
    //    state hash identically, whatever their physical layout. A
    //    `leveled(2, 1)` replica (folding into its base on every second
    //    merge) replaying the same ops in a different order agrees with
    //    the `leveled(4, 2)` engine above.
    let replica = build(MergePolicy::leveled(2, 1));
    for i in (0..20_000u64).rev() {
        replica.insert(900_000 + i * 2, i);
    }
    for i in (0..10_000u64).rev() {
        replica.insert(800_000 + i * 2, i);
    }
    replica.insert(0, 999);
    println!(
        "fingerprints: leveled(4, 2) {:#018x} vs leveled(2, 1) replica {:#018x} (equal: {})",
        engine.fingerprint(),
        replica.fingerprint(),
        engine.fingerprint() == replica.fingerprint()
    );
    assert_eq!(engine.fingerprint(), replica.fingerprint());

    // 5. Pins are cheap and counted; dropping the last one lets retired
    //    generations reclaim.
    let second = pin.clone();
    println!("active pins: {} (pin + clone)", engine.active_pins());
    drop(second);
    drop(pin);
    println!("active pins after dropping both: {}", engine.active_pins());

    // 6. Content hashes on disk: spool the stack, then audit the cold
    //    files against the manifest's hash lines.
    let dir = std::env::temp_dir().join(format!("sosd-snapshot-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool dir");
    let keys: Vec<u64> = (0..50_000u64).map(|i| i * 4).collect();
    let data = Arc::new(SortedData::new(keys).expect("sorted input"));
    let spooled = WriteBehindEngine::with_spool(
        data,
        base_factory(),
        btree_delta(),
        2_048,
        MergeMode::Sync,
        MergePolicy::leveled(4, 2),
        &dir,
        4096,
    )
    .expect("spooled engine builds");
    for i in 0..6_000u64 {
        spooled.insert(i * 4 + 1, i);
    }
    spooled.force_merge();
    drop(spooled);

    let audit = WriteBehindEngine::<u64>::verify_spool(&dir).expect("cold spool verifies");
    println!("spool audit: epoch {}, {} files re-hashed:", audit.epoch, audit.hashed);
    for (file, hash) in &audit.files {
        println!("  {file}  {hash:#018x}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
