//! Extension experiment 7: write-behind serving vs the in-place dynamic
//! structures, across merge policies and churn (insert + remove) mixes.
//!
//! The paper's updatable-index experiments (Section 5 / Figure 18 of the
//! extended report) show learned structures falling behind B-trees as the
//! write fraction grows, because every insert disturbs the learned model.
//! The LSM answer — and this experiment's subject — is to never write to
//! the learned structure at all: `WriteBehindEngine` keeps the base
//! immutable, absorbs inserts *and tombstoned removes* in a bounded delta
//! buffer, and folds them in at merge time. The [`MergePolicy`] axis pits
//! the two LSM shapes against each other: `Flat` rebuilds the whole base
//! per cycle (one engine to probe, `O(n)` merged volume), `Leveled` stacks
//! frozen runs — each its own learned index — and compacts level-locally
//! (bounded merged volume, more engines to probe). The `merged/cycle` and
//! `fanout` columns make that trade explicit, and the run self-gates on
//! it: on every churn mix, the leveled rows must move strictly less volume
//! per merge cycle than the flat row of the same configuration.
//!
//! The sweep crosses **write/remove ratio × merge threshold × base
//! family × merge policy × merge mode**, driven by the same
//! `MixedWorkload` streams (including a Zipf read-skew mix) as the `ext01`
//! dynamic baselines, and re-runs those baselines alongside for a direct
//! comparison. Every run's op-result checksum is validated against the
//! others on the same workload before its timing is reported, so a wrong
//! payload anywhere — a stale tombstone, a resurrected key — fails the
//! experiment rather than skewing a row.
//!
//! Merge thresholds are expressed relative to the stream's expected write
//! count (`writes/8`, `writes/2`), so quick-mode smoke runs still cross
//! them and exercise real merge (and compaction) cycles. Background-mode
//! rows include the drain of any merge still in flight when the stream
//! ends (triggered work is billed to the run that triggered it).

use sosd_bench::dynamic::{run_mixed, run_mixed_writebehind, DynFamily, MixedRunResult};
use sosd_bench::registry::{DeltaKind, EngineSpec, Family};
use sosd_bench::report::{fmt_mb, write_json, Report};
use sosd_bench::Args;
use sosd_core::{
    MergeMode, MergePolicy, QueryEngine, SearchStrategy, SortedData, WriteBehindEngine,
};
use sosd_datasets::{generate_mixed, DatasetId, MixedConfig, ReadSkew};
use std::sync::Arc;
use std::time::Instant;

/// The write-behind base layouts under test: unsharded learned, unsharded
/// traditional, and a sharded learned base (rebuilt and re-partitioned at
/// every base fold).
const BASES: [(Family, usize); 3] = [(Family::Rmi, 1), (Family::BTree, 1), (Family::Rmi, 4)];

/// Insert fraction × remove fraction × read skew mixes. Remove ratios
/// above zero are the churn workloads the tombstone path exists for.
const MIXES: [(f64, f64, ReadSkew); 4] = [
    (0.25, 0.0, ReadSkew::Uniform),
    (0.25, 0.10, ReadSkew::Uniform),
    (0.40, 0.20, ReadSkew::Uniform),
    (0.25, 0.10, ReadSkew::Zipf(1.1)),
];

/// Merge thresholds as divisors of the expected write (insert + remove)
/// count: `writes/8` (many small merges) and `writes/2` (few large ones).
const THRESHOLD_DIVISORS: [usize; 2] = [8, 2];

/// The merge policies under test: the flat rebuild against two leveled
/// shapes (deep/narrow and shallow/wide fan-out).
const POLICIES: [MergePolicy; 3] =
    [MergePolicy::Flat, MergePolicy::leveled(4, 3), MergePolicy::leveled(8, 2)];

/// The in-place dynamic baselines re-run on every mix.
const BASELINES: [DynFamily; 3] = [DynFamily::BPlusTree, DynFamily::Alex, DynFamily::DynamicPgm];

fn main() {
    let args = Args::parse();
    let num_ops = args.lookups;

    let mut report = Report::new(
        "ext07_writebehind",
        &[
            "mix",
            "engine",
            "threshold",
            "policy",
            "Mops_per_s",
            "ns_per_op",
            "merges",
            "merged_per_cycle",
            "fanout",
            "probes_per_lkp",
            "filter_skips",
            "size_mb",
            "vs_btree",
        ],
    );
    let mut rows = Vec::new();

    for (insert_fraction, delete_fraction, read_skew) in MIXES {
        let cfg = MixedConfig {
            bulk_fraction: 0.5,
            insert_fraction,
            delete_fraction,
            range_fraction: 0.05,
            range_span_keys: 100,
            read_skew,
        };
        let w = generate_mixed(DatasetId::Amzn, args.n, num_ops, cfg, args.seed);
        let expected_writes = w
            .ops
            .iter()
            .filter(|op| matches!(op, sosd_core::Op::Insert(..) | sosd_core::Op::Remove(..)))
            .count()
            .max(1);
        eprintln!(
            "[ext07] {} ({} ops, {} writes, {} bulk keys)",
            w.label,
            w.num_ops(),
            expected_writes,
            w.bulk_keys.len()
        );

        // The dynamic baselines set the reference checksum and the
        // B+Tree reference rate for the vs_btree column.
        let mut checksum = None;
        let mut btree_rate = None;
        let mut validate = |r_checksum: u64, who: &str| match checksum {
            None => checksum = Some(r_checksum),
            Some(c) => assert_eq!(c, r_checksum, "{who} returned wrong payloads on this mix"),
        };
        for family in BASELINES {
            let r = run_mixed(family, &w.label, &w.bulk_keys, &w.bulk_payloads, &w.ops);
            validate(r.checksum, &r.family);
            if family == DynFamily::BPlusTree {
                btree_rate = Some(r.mops_per_s);
            }
            push_row(&mut report, &w.label, &r, "-", "-", btree_rate);
            rows.push(r);
        }

        for divisor in THRESHOLD_DIVISORS {
            let merge_threshold = (expected_writes / divisor).max(64);
            for (base_family, shards) in BASES {
                // Per-cycle merged volume of the flat row of each (mode),
                // for the leveled-beats-flat self-gate.
                let mut flat_volume = [None::<f64>; 2];
                for policy in POLICIES {
                    let spec = EngineSpec::WriteBehind {
                        shards,
                        inner: base_family.default_spec::<u64>(),
                        delta: DeltaKind::BTree,
                        merge_threshold,
                        policy,
                    };
                    for (m, mode) in
                        [MergeMode::Sync, MergeMode::Background].into_iter().enumerate()
                    {
                        let r = run_mixed_writebehind(
                            &spec,
                            mode,
                            &w.label,
                            &w.bulk_keys,
                            &w.bulk_payloads,
                            &w.ops,
                        )
                        .unwrap_or_else(|e| panic!("{} failed to build: {e}", spec.label::<u64>()));
                        validate(r.checksum, &r.family);
                        let volume = per_cycle_volume(&r);
                        match (policy, volume, flat_volume[m]) {
                            (MergePolicy::Flat, v, _) => flat_volume[m] = v,
                            (MergePolicy::Leveled { .. }, Some(lv), Some(fv)) => assert!(
                                lv < fv,
                                "{}: leveled merged volume/cycle {lv:.0} must be strictly \
                                 below flat {fv:.0} on the same mix",
                                r.family
                            ),
                            _ => {}
                        }
                        push_row(
                            &mut report,
                            &w.label,
                            &r,
                            &format!("w/{divisor}"),
                            policy_tag(policy),
                            btree_rate,
                        );
                        rows.push(r);
                    }
                }
            }
        }
    }

    deep_stack_sweep(&mut report, &mut rows, &args);

    report.emit(&args.out_dir).expect("write results");
    write_json(&args.out_dir, "ext07_writebehind", &rows).expect("write json");
    println!(
        "\n(write-behind rows: merges counts completed merge cycles; merged_per_cycle \
         is the entries written into immutable structures per cycle — the volume the \
         leveled policy bounds (self-gated: leveled < flat on every mix); fanout is \
         runs+base, the worst-case engine probes per point read after missing the \
         delta. bg rows overlap merge work with the op stream, sync rows block on it. \
         vs_btree > 1 means the run beat the in-place B+Tree on the same mix)"
    );
}

/// Frozen runs stacked by the deep-stack sweep.
const DEEP_RUNS: usize = 8;
/// Self-gate factor: filtered leveled point reads must land within this
/// factor of the flat policy on the same cold/negative probe stream.
const DEEP_GATE: f64 = 1.2;
/// Re-time attempts before the gate fails — shared machines jitter.
const DEEP_RETRIES: usize = 2;

/// Deep-stack point-read sweep: freeze [`DEEP_RUNS`] disjoint runs above
/// an untouched base, then time point reads that miss *every* run —
/// alternating cold base hits and true negatives. Without per-run
/// filters each read probes all stacked runs before reaching the base;
/// with them the stack costs a few hash probes. Self-gates: filtered
/// leveled throughput within [`DEEP_GATE`] of the flat policy on
/// identical reads, realized probes/lookup below one, filters skipping
/// ≥80% of stack probes, and leveled merge volume still strictly below
/// flat's.
fn deep_stack_sweep(report: &mut Report, rows: &mut Vec<MixedRunResult>, args: &Args) {
    let n = args.n.max(4_096) as u64;
    let bulk_keys: Vec<u64> = (0..n).map(|i| i * 4).collect();
    let payloads: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E37) ^ 0xA5).collect();
    let data = Arc::new(SortedData::with_payloads(bulk_keys, payloads).expect("sorted bulk"));
    let run_size = 1_024usize;
    let base_top = n * 4 + 4;

    // Run `b` holds keys `base_top + b*2 + j*(DEEP_RUNS*2)` — the runs
    // interleave, so every run's [min, max] span covers the whole insert
    // region and min/max range pruning cannot skip any of them. Probe
    // keys alternate cold base hits (`i*4`, below every run) and true
    // negatives at *odd* offsets inside the shared span (inside all
    // DEEP_RUNS run ranges, present in none) — only the per-run filters
    // can prune those stack probes.
    let span = (run_size * DEEP_RUNS * 2) as u64;
    let n_probes = args.lookups.clamp(20_000, 2_000_000);
    let probes: Vec<u64> = (0..n_probes as u64)
        .map(|i| {
            let r = i.wrapping_mul(0x9E3779B97F4A7C15) >> 17;
            if i % 2 == 0 {
                (r % n) * 4
            } else {
                base_top + (r % (span / 2)) * 2 + 1
            }
        })
        .collect();

    let mut engines = Vec::new();
    for policy in [MergePolicy::Flat, MergePolicy::leveled(DEEP_RUNS + 2, 2)] {
        let spec = EngineSpec::WriteBehind {
            shards: 1,
            inner: Family::Rmi.default_spec::<u64>(),
            delta: DeltaKind::BTree,
            merge_threshold: run_size * 4,
            policy,
        };
        let engine = spec
            .writebehind_engine(&data, SearchStrategy::Binary, MergeMode::Sync)
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", spec.label::<u64>()));
        for b in 0..DEEP_RUNS {
            let start = base_top + (b * 2) as u64;
            for j in 0..run_size {
                engine.insert(start + (j * DEEP_RUNS * 2) as u64, j as u64);
            }
            engine.force_merge();
        }
        engines.push((spec, engine));
    }
    let (_, flat) = &engines[0];
    let (_, lvl) = &engines[1];
    assert!(
        lvl.run_count() >= DEEP_RUNS,
        "deep-stack sweep needs {DEEP_RUNS}+ stacked runs, got {}",
        lvl.run_count()
    );

    let (mut flat_rate, flat_sum) = time_probes(flat, &probes);
    let (mut lvl_rate, lvl_sum) = time_probes(lvl, &probes);
    assert_eq!(lvl_sum, flat_sum, "deep-stack reads diverged between policies");
    for _ in 0..DEEP_RETRIES {
        if lvl_rate * DEEP_GATE >= flat_rate {
            break;
        }
        flat_rate = time_probes(flat, &probes).0;
        lvl_rate = time_probes(lvl, &probes).0;
    }
    assert!(
        lvl_rate * DEEP_GATE >= flat_rate,
        "deep stack: filtered leveled point reads ({lvl_rate:.2} Mops/s) fell more \
         than {DEEP_GATE}x behind flat ({flat_rate:.2} Mops/s)"
    );
    let ppl = lvl.probes_per_lookup();
    assert!(
        ppl < 1.0,
        "filters must prune realized fan-out below one run probe per lookup, got {ppl:.2}"
    );
    let consulted = lvl.filter_skips() + lvl.stack_probes();
    assert!(
        lvl.filter_skips() * 10 >= consulted * 8,
        "filters skipped {} of {} consulted stack probes — below the 80% floor",
        lvl.filter_skips(),
        consulted
    );
    assert!(
        lvl.merged_entries() < flat.merged_entries(),
        "leveled total merge volume {} must stay below flat {}",
        lvl.merged_entries(),
        flat.merged_entries()
    );
    eprintln!(
        "[ext07] deep stack: {} runs, flat {flat_rate:.2} vs leveled {lvl_rate:.2} Mops/s, \
         {ppl:.2} probes/lookup, {} filter skips",
        lvl.run_count(),
        lvl.filter_skips()
    );

    for ((spec, engine), (rate, tag)) in
        engines.iter().zip([(flat_rate, "flat"), (lvl_rate, "deep8")])
    {
        let r = deep_row(spec, engine, rate, n_probes);
        push_row(report, "deep8-cold", &r, "force", tag, None);
        rows.push(r);
    }
}

/// Time the cold/negative probe stream, folding results into a checksum
/// so the reads cannot be optimized away (and so both policies can be
/// proven to serve identical answers).
fn time_probes(engine: &WriteBehindEngine<u64>, probes: &[u64]) -> (f64, u64) {
    let t = Instant::now();
    let mut checksum = 0u64;
    for &k in probes {
        checksum =
            checksum.wrapping_mul(0x100000001B3).wrapping_add(engine.get(k).unwrap_or(0x9E37));
    }
    (probes.len() as f64 / t.elapsed().as_secs_f64() / 1e6, checksum)
}

/// Assemble a [`MixedRunResult`] for one deep-stack engine so its row
/// lands in `results.json` beside the churn-mix rows.
fn deep_row(
    spec: &EngineSpec,
    engine: &WriteBehindEngine<u64>,
    mops: f64,
    n_probes: usize,
) -> MixedRunResult {
    MixedRunResult {
        family: format!("{}/sync", spec.label::<u64>()),
        workload: "deep8-cold".into(),
        bulk_ms: 0.0,
        mops_per_s: mops,
        ns_per_op: 1e3 / mops,
        size_bytes: engine.size_bytes(),
        checksum: 0,
        ops: n_probes,
        merges: engine.merges_completed(),
        merged_entries: engine.merged_entries(),
        compactions: engine.compactions(),
        runs: engine.run_count(),
        filter_skips: engine.filter_skips(),
        probes_per_lookup: engine.probes_per_lookup(),
    }
}

/// Entries merged per completed cycle, when any cycle completed.
fn per_cycle_volume(r: &MixedRunResult) -> Option<f64> {
    (r.merges > 0).then(|| r.merged_entries as f64 / r.merges as f64)
}

fn policy_tag(policy: MergePolicy) -> &'static str {
    match policy {
        MergePolicy::Flat => "flat",
        MergePolicy::Leveled { fanout: 4, .. } => "lvl4x3",
        MergePolicy::Leveled { .. } => "lvl8x2",
    }
}

fn push_row(
    report: &mut Report,
    mix: &str,
    r: &MixedRunResult,
    threshold: &str,
    policy: &str,
    btree_rate: Option<f64>,
) {
    report.push_row(vec![
        mix.to_string(),
        r.family.clone(),
        threshold.to_string(),
        policy.to_string(),
        format!("{:.2}", r.mops_per_s),
        format!("{:.1}", r.ns_per_op),
        r.merges.to_string(),
        per_cycle_volume(r).map_or("-".into(), |v| format!("{v:.0}")),
        if threshold == "-" { "-".into() } else { (r.runs + 1).to_string() },
        if threshold == "-" { "-".into() } else { format!("{:.2}", r.probes_per_lookup) },
        if threshold == "-" { "-".into() } else { r.filter_skips.to_string() },
        fmt_mb(r.size_bytes),
        btree_rate.map_or("-".into(), |b| format!("{:.2}x", r.mops_per_s / b)),
    ]);
}
