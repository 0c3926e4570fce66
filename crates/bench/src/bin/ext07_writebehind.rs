//! Extension experiment 7: write-behind serving vs the in-place dynamic
//! structures, across leveled merge shapes and churn (insert + remove)
//! mixes.
//!
//! The paper's updatable-index experiments (Section 5 / Figure 18 of the
//! extended report) show learned structures falling behind B-trees as the
//! write fraction grows, because every insert disturbs the learned model.
//! The LSM answer — and this experiment's subject — is to never write to
//! the learned structure at all: `WriteBehindEngine` keeps the base
//! immutable, absorbs inserts *and tombstoned removes* in a bounded delta
//! buffer, and freezes it into a leveled stack of runs — each its own
//! learned index — that compacts level-locally and folds into the base
//! only when the bottom level overflows. The [`MergePolicy`] axis compares
//! two stack shapes (deep/narrow `4×3`, shallow/wide `8×2`): the
//! `merged/cycle` and `fanout` columns show their merge-work/read-fan-out
//! trade, and the run self-gates on the bound the stack exists for: every
//! write-behind row moves fewer entries per merge cycle than the
//! bulk-loaded key count a full base rebuild would move.
//!
//! The sweep crosses **write/remove ratio × merge threshold × base
//! family × merge shape × merge mode**, driven by the same
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
//!
//! The read cost of a deep filtered run stack is not timed here: the
//! stackbench `writebehind.*` metrics time it at 10M keys, and
//! `tests/filter_compaction.rs` holds its deterministic filter-skip,
//! probe-count and merge-volume gates.

use sosd_bench::dynamic::{run_mixed, run_mixed_writebehind, DynFamily, MixedRunResult};
use sosd_bench::registry::{EngineSpec, Family};
use sosd_bench::report::{fmt_mb, write_json, Report};
use sosd_bench::Args;
use sosd_core::{MergeMode, MergePolicy};
use sosd_datasets::{generate_mixed, DatasetId, MixedConfig, ReadSkew};

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

/// The leveled shapes under test: deep/narrow and shallow/wide fan-out.
const POLICIES: [MergePolicy; 2] = [MergePolicy::leveled(4, 3), MergePolicy::leveled(8, 2)];

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
                for policy in POLICIES {
                    let spec = EngineSpec::WriteBehind {
                        shards,
                        inner: base_family.default_spec::<u64>(),
                        merge_threshold,
                        policy,
                    };
                    for mode in [MergeMode::Sync, MergeMode::Background] {
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
                        if let Some(volume) = per_cycle_volume(&r) {
                            assert!(
                                volume < w.bulk_keys.len() as f64,
                                "{}: merged volume/cycle {volume:.0} must stay below the {} \
                                 bulk-loaded keys a full base rebuild moves",
                                r.family,
                                w.bulk_keys.len()
                            );
                        }
                        push_row(
                            &mut report,
                            &w.label,
                            &r,
                            &format!("w/{divisor}"),
                            &format!("lvl{}x{}", policy.fanout, policy.max_levels),
                            btree_rate,
                        );
                        rows.push(r);
                    }
                }
            }
        }
    }

    report.emit(&args.out_dir).expect("write results");
    write_json(&args.out_dir, "ext07_writebehind", &rows).expect("write json");
    println!(
        "\n(write-behind rows: merges counts completed merge cycles; merged_per_cycle \
         is the entries written into immutable structures per cycle — the volume the \
         leveled stack bounds (self-gated: below the bulk-loaded key count on every \
         row); fanout is runs+base, the worst-case engine probes per point read after \
         missing the delta. bg rows overlap merge work with the op stream, sync rows \
         block on it. vs_btree > 1 means the run beat the in-place B+Tree on the same mix)"
    );
}

/// Entries merged per completed cycle, when any cycle completed.
fn per_cycle_volume(r: &MixedRunResult) -> Option<f64> {
    (r.merges > 0).then(|| r.merged_entries as f64 / r.merges as f64)
}

/// One report row. A `threshold` of `-` marks an in-place baseline, which
/// has no run stack, so its fanout, probe and filter cells print `-`.
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
