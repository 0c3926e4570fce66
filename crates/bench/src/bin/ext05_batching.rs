//! Extension experiment 5: batched lookups through the `QueryEngine`
//! facade.
//!
//! The paper's Figure 15 shows single lookups serialize on cache-miss
//! stalls (fencing between lookups barely moves the needle because
//! out-of-order windows are shorter than a miss); its multithreaded figure
//! recovers throughput with parallelism. Batching is the single-threaded
//! counterpart: the `StaticEngine` computes model predictions for a group
//! of lookups and prefetches each bound window before any last-mile search
//! runs, overlapping stalls across the batch. This experiment sweeps batch
//! sizes 1 → 64 over the Figure-7 families and reports ns/lookup per size,
//! validating every run's payload checksum against the workload's expected
//! value.
//!
//! Engines are constructed from serialized `IndexSpec`s (also written to
//! the JSON output) — the experiment is config-driven end to end.

use sosd_bench::registry::Family;
use sosd_bench::report::{write_json, Report};
use sosd_bench::timing::time_lookups_batched;
use sosd_bench::Args;
use sosd_core::{QueryEngine, SearchStrategy};
use sosd_datasets::make_workload;
use std::sync::Arc;

/// Batch sizes swept (1 = the unbatched facade baseline).
const BATCH_SIZES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn main() {
    let args = Args::parse();
    let repeats = if args.quick { 1 } else { 3 };
    let mut report = Report::new(
        "ext05_batching",
        &["dataset", "index", "config", "batch", "ns_per_lookup", "speedup_vs_1"],
    );
    let mut rows: Vec<serde_json::Value> = Vec::new();

    for &dataset in &args.datasets {
        let workload = make_workload(dataset, args.n, args.lookups, args.seed);
        let (lookups, expected_checksum) = (workload.lookups, workload.expected_checksum);
        let data = Arc::new(workload.data);
        for family in Family::FIGURE7 {
            let spec = family.default_spec::<u64>();
            let engine = match spec.engine(&data, SearchStrategy::Binary) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("skipping {}: {e}", spec.label::<u64>());
                    continue;
                }
            };
            let mut baseline_ns = None;
            for batch in BATCH_SIZES {
                let t = time_lookups_batched(
                    engine.as_ref(),
                    QueryEngine::get_batch,
                    &lookups,
                    batch,
                    repeats,
                );
                assert_eq!(
                    t.checksum,
                    expected_checksum,
                    "{} batch={batch} returned wrong payloads",
                    spec.label::<u64>()
                );
                let baseline = *baseline_ns.get_or_insert(t.ns_per_lookup);
                report.push_row(vec![
                    dataset.name().to_string(),
                    family.name().to_string(),
                    spec.label::<u64>(),
                    batch.to_string(),
                    format!("{:.1}", t.ns_per_lookup),
                    format!("{:.2}", baseline / t.ns_per_lookup),
                ]);
                rows.push(serde_json::json!({
                    "dataset": dataset.name(),
                    "spec": spec.label::<u64>(),
                    "batch": batch,
                    "ns_per_lookup": t.ns_per_lookup,
                    "checksum": t.checksum,
                }));
            }
        }
    }

    report.emit(&args.out_dir).expect("write results");
    write_json(&args.out_dir, "ext05_batching", &rows).expect("write json");
    println!(
        "\n(speedup_vs_1 > 1 means the engine's prefetching batch path amortized \
         cache-miss stalls across interleaved lookups)"
    );
}
