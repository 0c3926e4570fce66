//! Harness support for the mixed read/write experiments (the paper's
//! future-work benchmark): construction of every dynamic structure behind a
//! uniform factory, a timed op-stream executor, and the write-behind
//! counterpart that drives the same streams through a
//! [`sosd_core::WriteBehindEngine`] for checksum-identical comparison.

use crate::registry::EngineSpec;
use serde::Serialize;
use sosd_core::dynamic::{BulkLoad, DynamicOrderedIndex, Op};
use sosd_core::{BuildError, DynamicEngine, MergeMode, QueryEngine, SearchStrategy, SortedData};
use std::sync::Arc;
use std::time::Instant;

/// The dynamic structures under test, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynFamily {
    /// ALEX (ref. \[11\]): gapped model arrays.
    Alex,
    /// Dynamic PGM (ref. \[13\]): logarithmic method over static PGMs.
    DynamicPgm,
    /// FITing-Tree (ref. \[14\]): cone segments with delta buffers.
    Fiting,
    /// Insertable B+Tree: the traditional, insert-optimized yardstick.
    BPlusTree,
}

impl DynFamily {
    /// All dynamic families.
    pub const ALL: [DynFamily; 4] =
        [DynFamily::Alex, DynFamily::DynamicPgm, DynFamily::Fiting, DynFamily::BPlusTree];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DynFamily::Alex => "ALEX",
            DynFamily::DynamicPgm => "DynamicPGM",
            DynFamily::Fiting => "FITing(dyn)",
            DynFamily::BPlusTree => "B+Tree(dyn)",
        }
    }

    /// Bulk-load a fresh instance with the given sorted seed data.
    pub fn bulk_load(self, keys: &[u64], payloads: &[u64]) -> Box<dyn DynamicOrderedIndex<u64>> {
        match self {
            DynFamily::Alex => Box::new(sosd_alex::AlexTree::bulk_load(keys, payloads)),
            DynFamily::DynamicPgm => Box::new(sosd_pgm::DynamicPgm::bulk_load(keys, payloads)),
            DynFamily::Fiting => {
                Box::new(sosd_fiting::DynamicFitingTree::bulk_load(keys, payloads))
            }
            DynFamily::BPlusTree => Box::new(sosd_btree::DynamicBTree::bulk_load(keys, payloads)),
        }
    }

    /// Bulk-load and wrap in the serving-facing [`QueryEngine`] facade —
    /// the dynamic counterpart of `IndexSpec::engine`.
    pub fn engine(self, keys: &[u64], payloads: &[u64]) -> Box<dyn QueryEngine<u64>> {
        Box::new(DynamicEngine::new(self.bulk_load(keys, payloads)))
    }
}

/// Timing breakdown for one (structure, workload) run.
#[derive(Debug, Clone, Serialize)]
pub struct MixedRunResult {
    /// Structure name.
    pub family: String,
    /// Workload label.
    pub workload: String,
    /// Bulk-load wall time in milliseconds.
    pub bulk_ms: f64,
    /// Op-stream throughput in million operations per second.
    pub mops_per_s: f64,
    /// Mean nanoseconds per operation.
    pub ns_per_op: f64,
    /// Structure size after the stream, in bytes.
    pub size_bytes: usize,
    /// Checksum over all op results (proves runs did identical work).
    pub checksum: u64,
    /// Number of operations executed.
    pub ops: usize,
    /// Merge cycles completed during the stream (always 0 for the plain
    /// dynamic structures; the write-behind runner fills it in).
    pub merges: u64,
    /// Entries written into new immutable structures by merges and
    /// compactions (write-behind only) — `merged_entries / merges` is the
    /// per-cycle merged volume the leveled policy bounds.
    pub merged_entries: u64,
    /// Compaction steps completed (write-behind leveled policy only).
    pub compactions: u64,
    /// Immutable runs stacked above the base when the stream ended
    /// (write-behind leveled policy only) — `runs + 1` is the worst-case
    /// engine probes per point read, the read fan-out the leveled policy
    /// trades merge work against.
    pub runs: usize,
    /// Frozen-run probes skipped because the run's filter proved the key
    /// absent (write-behind leveled policy only).
    pub filter_skips: u64,
    /// Mean frozen-run probes per stack lookup after filter pruning —
    /// the realized read fan-out, vs the `runs + 1` worst case.
    pub probes_per_lookup: f64,
}

/// Bulk-load `family` and drive the op stream through it, timing both.
///
/// The checksum folds every operation's observable result, so two correct
/// structures on the same workload must produce identical checksums — the
/// dynamic analogue of the paper's payload-sum validation.
pub fn run_mixed(
    family: DynFamily,
    label: &str,
    bulk_keys: &[u64],
    bulk_payloads: &[u64],
    ops: &[Op<u64>],
) -> MixedRunResult {
    let t0 = Instant::now();
    let mut idx = family.bulk_load(bulk_keys, bulk_payloads);
    let bulk_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let mut checksum = 0u64;
    for &op in ops {
        let r = sosd_core::dynamic::apply_op(idx.as_mut(), op);
        checksum = checksum.wrapping_mul(0x100000001B3).wrapping_add(r.unwrap_or(0x9E37));
    }
    let elapsed = t1.elapsed().as_secs_f64();
    let ns_per_op = elapsed * 1e9 / ops.len().max(1) as f64;

    MixedRunResult {
        family: family.name().to_string(),
        workload: label.to_string(),
        bulk_ms,
        mops_per_s: ops.len() as f64 / elapsed / 1e6,
        ns_per_op,
        size_bytes: idx.size_bytes(),
        checksum,
        ops: ops.len(),
        merges: 0,
        merged_entries: 0,
        compactions: 0,
        runs: 0,
        filter_skips: 0,
        probes_per_lookup: 0.0,
    }
}

/// Drive the same mixed stream through a [`sosd_core::WriteBehindEngine`]
/// built from `spec`: inserts land in the delta, merges fire as thresholds are
/// crossed, and the clock includes the drain of any in-flight background
/// merge — triggered work is billed to the run that triggered it.
///
/// The checksum folds op results exactly like [`run_mixed`], so a correct
/// write-behind engine must reproduce the dynamic baselines' checksum on
/// the same workload — `Remove` ops included, which land as tombstones in
/// the delta and replay churn mixes (`delete_fraction > 0`) honestly.
pub fn run_mixed_writebehind(
    spec: &EngineSpec,
    mode: MergeMode,
    label: &str,
    bulk_keys: &[u64],
    bulk_payloads: &[u64],
    ops: &[Op<u64>],
) -> Result<MixedRunResult, BuildError> {
    let data = Arc::new(
        SortedData::with_payloads(bulk_keys.to_vec(), bulk_payloads.to_vec())
            .map_err(BuildError::Data)?,
    );
    let t0 = Instant::now();
    let engine = spec.writebehind_engine(&data, SearchStrategy::Binary, mode)?;
    let bulk_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let mut checksum = 0u64;
    for &op in ops {
        let r = match op {
            Op::Insert(k, v) => engine.insert(k, v),
            Op::Remove(k) => engine.remove(k),
            Op::Lookup(k) => engine.get(k),
            Op::RangeSum(lo, hi) => Some(engine.range_sum(lo, hi)),
        };
        checksum = checksum.wrapping_mul(0x100000001B3).wrapping_add(r.unwrap_or(0x9E37));
    }
    // Bill in-flight background merges to this run before stopping the
    // clock: the stream triggered them.
    engine.wait_for_merges();
    let elapsed = t1.elapsed().as_secs_f64();

    let mode_tag = match mode {
        MergeMode::Sync => "sync",
        MergeMode::Background => "bg",
    };
    Ok(MixedRunResult {
        family: format!("{}/{mode_tag}", spec.label::<u64>()),
        workload: label.to_string(),
        bulk_ms,
        mops_per_s: ops.len() as f64 / elapsed / 1e6,
        ns_per_op: elapsed * 1e9 / ops.len().max(1) as f64,
        size_bytes: engine.size_bytes(),
        checksum,
        ops: ops.len(),
        merges: engine.merges_completed(),
        merged_entries: engine.merged_entries(),
        compactions: engine.compactions(),
        runs: engine.run_count(),
        filter_skips: engine.filter_skips(),
        probes_per_lookup: engine.probes_per_lookup(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sosd_datasets::{generate_mixed, DatasetId, MixedConfig};

    #[test]
    fn all_families_produce_identical_checksums() {
        let w = generate_mixed(DatasetId::Amzn, 20_000, 5_000, MixedConfig::default(), 42);
        let results: Vec<MixedRunResult> = DynFamily::ALL
            .iter()
            .map(|&f| run_mixed(f, &w.label, &w.bulk_keys, &w.bulk_payloads, &w.ops))
            .collect();
        let first = results[0].checksum;
        for r in &results {
            assert_eq!(r.checksum, first, "{} diverged from {}", r.family, results[0].family);
            assert!(r.ns_per_op > 0.0);
            assert!(r.size_bytes > 0);
        }
    }

    #[test]
    fn dynamic_engines_serve_the_facade() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 2).collect();
        let payloads: Vec<u64> = keys.iter().map(|&k| k + 1).collect();
        for family in DynFamily::ALL {
            let engine = family.engine(&keys, &payloads);
            assert_eq!(engine.len(), keys.len(), "{}", family.name());
            assert_eq!(engine.get(2_468), Some(2_469), "{}", family.name());
            assert_eq!(engine.get(2_469), None, "{}", family.name());
            assert_eq!(engine.lower_bound(3).map(|e| e.0), Some(4), "{}", family.name());
            let batch = engine.lookup_batch(&[0, 1, 9_998]);
            assert_eq!(batch, vec![Some(1), None, Some(9_999)], "{}", family.name());
        }
    }

    #[test]
    fn writebehind_matches_dynamic_baselines_checksum() {
        use crate::registry::{DeltaKind, Family};
        use sosd_core::MergePolicy;
        // A churn mix: removes land as tombstones in the write-behind tier
        // and must fold the same observable results as the in-place
        // baseline, in both merge policies and both merge modes.
        let cfg = MixedConfig {
            insert_fraction: 0.3,
            delete_fraction: 0.1,
            range_fraction: 0.1,
            ..MixedConfig::default()
        };
        let w = generate_mixed(DatasetId::Amzn, 20_000, 6_000, cfg, 42);
        let baseline =
            run_mixed(DynFamily::BPlusTree, &w.label, &w.bulk_keys, &w.bulk_payloads, &w.ops);
        for policy in [MergePolicy::Flat, MergePolicy::leveled(4, 2)] {
            let spec = EngineSpec::WriteBehind {
                shards: 1,
                inner: Family::BTree.default_spec::<u64>(),
                delta: DeltaKind::BTree,
                merge_threshold: 400,
                policy,
            };
            for mode in [MergeMode::Sync, MergeMode::Background] {
                let wb = run_mixed_writebehind(
                    &spec,
                    mode,
                    &w.label,
                    &w.bulk_keys,
                    &w.bulk_payloads,
                    &w.ops,
                )
                .unwrap();
                assert_eq!(
                    wb.checksum, baseline.checksum,
                    "{} diverged from the B+Tree baseline",
                    wb.family
                );
                assert!(wb.merges >= 1, "threshold 400 should have merged ({})", wb.family);
                if policy != MergePolicy::Flat {
                    assert!(wb.merged_entries > 0, "merge volume must be tracked");
                }
            }
        }
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<&str> = DynFamily::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DynFamily::ALL.len());
    }
}
