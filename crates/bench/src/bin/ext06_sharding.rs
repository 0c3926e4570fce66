//! Extension experiment 6: key-range sharded serving vs the
//! shared-everything loop.
//!
//! Figure 16 measures every thread hammering one big index. A serving
//! system instead partitions the key space: `ShardedEngine` builds one
//! inner index per key range and routes through a fence array. This
//! experiment sweeps shard count × thread count × inner index family and
//! measures three execution modes through the same honest harness
//! (`mt.rs`: per-worker clocks, no empty-shard spinning):
//!
//! * `point@T` — T worker threads issuing point lookups against the shared
//!   engine (the Figure-16 loop, now engine-generic);
//! * `batch` — one thread driving the serial shard-grouped batch path;
//! * `par_batch` — one thread driving `QueryEngine::par_get_batch`, which
//!   a `ShardedEngine` answers by fanning key-balanced spans of the grouped
//!   batch across scoped threads capped at host parallelism (an unsharded
//!   engine runs its serial batch). The stream is tiled up to
//!   [`PAR_STREAM_LEN`] keys per call so the spawn-amortization floor
//!   (`PAR_MIN_KEYS_PER_WORKER`) is cleared even in `--quick` mode —
//!   throughput measurement repeats the stream either way, so tiling only
//!   enlarges each call's batch.
//!
//! The `shards == 1` baseline is served by the plain unsharded engine
//! (zero-copy, no fence routing), so `vs_unsharded` ratios compare against
//! the true shared-everything setup. Every engine's lookup results are
//! validated against the workload's expected payload checksum before any
//! timing runs. Engines are constructed from serializable `EngineSpec`s
//! (`{"family":"sharded","params":{"shards":S,"inner":...}}`), which are
//! also written to the JSON output.

use sosd_bench::mt::{measure_batched_throughput, measure_engine_throughput, thread_sweep};
use sosd_bench::registry::{EngineSpec, Family};
use sosd_bench::report::{write_json, Report};
use sosd_bench::Args;
use sosd_core::{QueryEngine, SearchStrategy, ShardedEngine, PAR_MIN_KEYS_PER_WORKER};
use sosd_datasets::{make_workload, DatasetId};
use std::sync::Arc;
use std::time::Duration;

/// Shard counts swept (1 = the unsharded shared-everything baseline).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Figure-7 families used as inner indexes (learned + traditional).
const INNER_FAMILIES: [Family; 3] = [Family::Rmi, Family::Pgm, Family::BTree];

/// Batch size for the serial batched mode: large enough that per-shard
/// groups keep the inner interleave/prefetch paths busy.
const BATCH: usize = 1024;

/// Per-call batch length for the parallel mode: 16 workers' worth of the
/// spawn floor, so up to 16 cores can engage even on tiled quick-mode
/// streams.
const PAR_STREAM_LEN: usize = PAR_MIN_KEYS_PER_WORKER * 16;

/// One built engine: the shared-everything baseline or the concrete
/// sharded construction (which reports its effective shard count).
type BuiltEngine = (Option<Box<dyn QueryEngine<u64>>>, Option<ShardedEngine<u64>>);

fn main() {
    let args = Args::parse();
    let budget = Duration::from_millis(if args.quick { 60 } else { 300 });
    let threads = thread_sweep();
    let workload = make_workload(DatasetId::Amzn, args.n, args.lookups, args.seed);
    let (lookups, expected_checksum) = (workload.lookups, workload.expected_checksum);
    let data = Arc::new(workload.data);

    // The par-mode stream: the lookup stream tiled until one get_batch call
    // clears the spawn floor for every plausible worker count.
    let mut par_stream = lookups.clone();
    while par_stream.len() < PAR_STREAM_LEN {
        let take = (PAR_STREAM_LEN - par_stream.len()).min(lookups.len());
        par_stream.extend_from_within(..take);
    }

    let mut report = Report::new(
        "ext06_sharding",
        &["index", "config", "shards", "mode", "M_lookups_per_sec", "vs_unsharded"],
    );
    let mut rows: Vec<serde_json::Value> = Vec::new();

    for family in INNER_FAMILIES {
        let inner = family.default_spec::<u64>();
        // Baseline rates at shards=1, per mode, for the vs_unsharded column.
        let mut baselines: Vec<(String, f64)> = Vec::new();
        for shards in SHARD_COUNTS {
            let spec = if shards == 1 {
                EngineSpec::Single(inner)
            } else {
                EngineSpec::Sharded { shards, inner }
            };
            eprintln!("[ext06] {}", spec.label::<u64>());
            // shards == 1 builds the plain engine (no data copy, no fence
            // routing): the honest shared-everything baseline.
            let (single, sharded): BuiltEngine = if shards == 1 {
                match spec.engine(&data, SearchStrategy::Binary) {
                    Ok(e) => (Some(e), None),
                    Err(e) => {
                        eprintln!("skipping {}: {e}", spec.label::<u64>());
                        continue;
                    }
                }
            } else {
                match spec.sharded_engine(&data, SearchStrategy::Binary) {
                    Ok(e) => (None, Some(e)),
                    Err(e) => {
                        eprintln!("skipping {}: {e}", spec.label::<u64>());
                        continue;
                    }
                }
            };
            let engine: &dyn QueryEngine<u64> = match &sharded {
                Some(s) => s,
                None => single.as_deref().expect("one of the engines is built"),
            };
            let num_shards = sharded.as_ref().map_or(1, ShardedEngine::num_shards);

            // Correctness gate: both batch paths must reproduce the
            // workload's payload checksum before any throughput is
            // reported.
            let mut fanned = Vec::new();
            engine.par_get_batch(&lookups, &mut fanned);
            for (path, results) in
                [("get_batch", engine.lookup_batch(&lookups)), ("par_get_batch", fanned)]
            {
                let sum = results.into_iter().fold(0u64, |a, r| a.wrapping_add(r.unwrap_or(0)));
                assert_eq!(
                    sum,
                    expected_checksum,
                    "{} {path} returned wrong payloads",
                    spec.label::<u64>()
                );
            }

            let mut measurements: Vec<(String, f64)> = Vec::new();
            for &t in &threads {
                let r = measure_engine_throughput(engine, &lookups, t, false, budget);
                measurements.push((format!("point@{t}"), r.lookups_per_sec));
            }
            let serial =
                measure_batched_throughput(engine, QueryEngine::get_batch, &lookups, BATCH, budget);
            measurements.push(("batch".into(), serial.lookups_per_sec));
            let par = measure_batched_throughput(
                engine,
                QueryEngine::par_get_batch,
                &par_stream,
                par_stream.len(),
                budget,
            );
            measurements.push(("par_batch".into(), par.lookups_per_sec));

            for (mode, rate) in measurements {
                if shards == 1 {
                    baselines.push((mode.clone(), rate));
                }
                let base = baselines.iter().find(|(m, _)| *m == mode).map(|(_, r)| *r);
                report.push_row(vec![
                    family.name().to_string(),
                    spec.label::<u64>(),
                    num_shards.to_string(),
                    mode.clone(),
                    format!("{:.2}", rate / 1e6),
                    base.map_or("-".into(), |b| format!("{:.2}x", rate / b)),
                ]);
                rows.push(serde_json::json!({
                    "spec": spec.label::<u64>(),
                    "family": family.name(),
                    "shards": num_shards,
                    "mode": mode,
                    "lookups_per_sec": rate,
                }));
            }
        }
    }

    report.emit(&args.out_dir).expect("write results");
    write_json(&args.out_dir, "ext06_sharding", &rows).expect("write json");
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    if cores == 1 {
        println!("\n(single-core host: par_batch runs the serial grouped path by design)");
    }
    println!(
        "\n(vs_unsharded > 1 on par_batch rows means shard-parallel batching beat the \
         shared-everything engine at the same mode; point@T rows compare the same \
         thread count against one unsharded index)"
    );
}
