//! Extension experiment 8: hot-key cached serving under read skew.
//!
//! The paper's read benchmarks draw lookup keys uniformly, where a result
//! cache can only lose; real serving traffic is Zipf-skewed, and the
//! workspace has modeled that skew since `ext01` without any engine
//! exploiting it. This experiment puts the `CachedEngine` tier in front of
//! three serving layouts and measures when the cache pays:
//!
//! **capacity** (1/64, 1/8, 1/2 of the dataset) × **read skew** (uniform,
//! Zipf 0.8 / 1.1 / 1.4) × **inner layout** (single RMI, key-range sharded
//! RMI, write-behind over RMI). Every cached run's lookup checksum is
//! validated against its uncached inner engine on the identical key stream
//! before any timing is reported, so a stale or wrong cached payload fails
//! the experiment rather than skewing a row.
//!
//! Reported per row: the timed-pass hit rate, point-lookup throughput,
//! p50/p99 per-lookup latency (sampled on a separate instrumented pass —
//! per-op clocking is not free, so it never pollutes the throughput
//! number), and the throughput ratio against the uncached inner.
//!
//! The experiment also self-gates the caching tier's reason to exist:
//! under Zipf(1.1), the best cached configuration of every inner layout
//! must report a hit rate above 50% *and* beat its uncached inner's
//! throughput, or the run fails.

use serde::Serialize;
use sosd_bench::registry::{EngineSpec, Family};
use sosd_bench::report::{write_json, Report};
use sosd_bench::Args;
use sosd_core::dynamic::Op;
use sosd_core::{QueryEngine, SearchStrategy, SortedData};
use sosd_datasets::{generate_mixed, DatasetId, MixedConfig, ReadSkew};
use std::sync::Arc;
use std::time::Instant;

/// The read-skew sweep: uniform plus three Zipf exponents around the
/// YCSB-standard ~1.
const SKEWS: [ReadSkew; 4] =
    [ReadSkew::Uniform, ReadSkew::Zipf(0.8), ReadSkew::Zipf(1.1), ReadSkew::Zipf(1.4)];

/// Cache capacities as divisors of the dataset size: 1/64 (tiny), 1/8,
/// 1/2 (half the keys fit).
const CAPACITY_DIVISORS: [usize; 3] = [64, 8, 2];

/// Lock stripes per cache (fixed; the stripe sweep is not the subject).
const STRIPES: usize = 8;

/// Per-lookup latencies are sampled on a separate pass over at most this
/// many keys (per-op `Instant` clocking would distort the throughput pass).
const LATENCY_SAMPLE: usize = 20_000;

/// Timed passes per row; the best is reported (see
/// [`measure_points_best`]).
const TIMED_PASSES: usize = 3;

/// One reported row (JSON payload).
#[derive(Debug, Clone, Serialize)]
struct CacheRunResult {
    skew: String,
    engine: String,
    capacity: usize,
    hit_rate: f64,
    mops_per_s: f64,
    p50_ns: f64,
    p99_ns: f64,
    checksum: u64,
}

/// The inner serving layouts the cache is composed over.
fn inner_specs() -> Vec<(&'static str, EngineSpec)> {
    let rmi = Family::Rmi.default_spec::<u64>();
    vec![
        ("single", EngineSpec::Single(rmi)),
        ("sharded", EngineSpec::Sharded { shards: 4, inner: rmi }),
        // An effectively-unbounded threshold: the stream is read-only, so
        // the write-behind tier only contributes its delta-probe overhead.
        (
            "writebehind",
            EngineSpec::WriteBehind {
                shards: 1,
                inner: rmi,
                merge_threshold: 1 << 40,
                policy: sosd_core::MergePolicy::Flat,
            },
        ),
    ]
}

/// Timed point-lookup pass: throughput plus the fold-everything checksum.
fn measure_points(engine: &dyn QueryEngine<u64>, keys: &[u64]) -> (f64, u64) {
    let t = Instant::now();
    let mut checksum = 0u64;
    for &k in keys {
        let r = engine.get(k);
        checksum = checksum.wrapping_mul(0x100000001B3).wrapping_add(r.unwrap_or(0x9E37));
    }
    let elapsed = t.elapsed().as_secs_f64();
    (keys.len() as f64 / elapsed / 1e6, checksum)
}

/// Best of [`TIMED_PASSES`] timed passes (identical checksum asserted on
/// each): quick-mode streams are only a few thousand lookups, so a single
/// sub-millisecond pass is at the mercy of scheduler noise — taking the
/// best of a few, for cached and uncached rows alike, keeps the reported
/// rates (and the self-gate) stable on shared CI runners.
fn measure_points_best(engine: &dyn QueryEngine<u64>, keys: &[u64]) -> (f64, u64) {
    let (mut best_mops, checksum) = measure_points(engine, keys);
    for _ in 1..TIMED_PASSES {
        let (mops, sum) = measure_points(engine, keys);
        assert_eq!(sum, checksum, "repeat pass diverged");
        best_mops = best_mops.max(mops);
    }
    (best_mops, checksum)
}

/// Per-lookup latency sample: p50 and p99 in nanoseconds.
fn latency_percentiles(engine: &dyn QueryEngine<u64>, keys: &[u64]) -> (f64, f64) {
    let sample = &keys[..keys.len().min(LATENCY_SAMPLE)];
    let mut lat: Vec<u64> = Vec::with_capacity(sample.len());
    for &k in sample {
        let t = Instant::now();
        std::hint::black_box(engine.get(k));
        lat.push(t.elapsed().as_nanos() as u64);
    }
    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize] as f64;
    (pct(0.50), pct(0.99))
}

fn main() {
    let args = Args::parse();

    let mut report = Report::new(
        "ext08_caching",
        &["skew", "engine", "capacity", "hit_pct", "Mops_per_s", "p50_ns", "p99_ns", "vs_uncached"],
    );
    let mut rows: Vec<CacheRunResult> = Vec::new();
    // Best cached row per inner layout under Zipf(1.1) → the self-gate:
    // (engine label, inner spec, best capacity, hit rate, cached Mops,
    // uncached Mops).
    let mut gate: Vec<(String, EngineSpec, usize, f64, f64, f64)> = Vec::new();
    // The Zipf(1.1) stream is kept for the gate's re-measure escape hatch.
    let mut gate_ctx: Option<(Arc<SortedData<u64>>, Vec<u64>)> = None;

    for skew in SKEWS {
        // A pure-lookup stream: everything bulk-loaded, reads drawn over
        // the whole key population with the configured skew.
        let cfg = MixedConfig {
            bulk_fraction: 1.0,
            insert_fraction: 0.0,
            delete_fraction: 0.0,
            range_fraction: 0.0,
            range_span_keys: 0,
            read_skew: skew,
        };
        let w = generate_mixed(DatasetId::Amzn, args.n, args.lookups, cfg, args.seed);
        let lookup_keys: Vec<u64> = w
            .ops
            .iter()
            .filter_map(|op| if let Op::Lookup(k) = op { Some(*k) } else { None })
            .collect();
        let skew_label = match skew {
            ReadSkew::Uniform => "uniform".to_string(),
            ReadSkew::Zipf(s) => format!("zipf({s})"),
        };
        let data = Arc::new(
            SortedData::with_payloads(w.bulk_keys.clone(), w.bulk_payloads.clone())
                .expect("bulk keys are sorted unique"),
        );
        eprintln!("[ext08] {skew_label}: {} keys, {} lookups", data.len(), lookup_keys.len());

        for (engine_label, spec) in inner_specs() {
            // Uncached reference: warm pass, then the timed pass sets the
            // checksum every cached run must reproduce.
            let uncached = spec.engine(&data, SearchStrategy::Binary).expect("inner engine builds");
            measure_points(uncached.as_ref(), &lookup_keys); // warm
            let (base_mops, expected_checksum) =
                measure_points_best(uncached.as_ref(), &lookup_keys);
            let (p50, p99) = latency_percentiles(uncached.as_ref(), &lookup_keys);
            report.push_row(vec![
                skew_label.clone(),
                engine_label.to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("{base_mops:.2}"),
                format!("{p50:.0}"),
                format!("{p99:.0}"),
                "1.00x".to_string(),
            ]);
            rows.push(CacheRunResult {
                skew: skew_label.clone(),
                engine: engine_label.to_string(),
                capacity: 0,
                hit_rate: 0.0,
                mops_per_s: base_mops,
                p50_ns: p50,
                p99_ns: p99,
                checksum: expected_checksum,
            });

            let mut best: Option<(f64, f64, usize)> = None; // (hit_rate, mops, capacity)
            for divisor in CAPACITY_DIVISORS {
                let capacity = (data.len() / divisor).max(16);
                let cached_spec = EngineSpec::Cached {
                    capacity,
                    stripes: STRIPES,
                    negative: false,
                    inner: Box::new(spec.clone()),
                };
                let cached = cached_spec
                    .cached_engine(&data, SearchStrategy::Binary)
                    .expect("cached engine builds");
                // Warm pass doubles as the checksum gate: a wrong cached
                // payload anywhere fails here, before any timing.
                let (_, warm_checksum) = measure_points(&cached, &lookup_keys);
                assert_eq!(
                    warm_checksum, expected_checksum,
                    "cached[{engine_label}] cap={capacity} returned wrong payloads ({skew_label})"
                );
                cached.reset_stats();
                let (mops, timed_checksum) = measure_points_best(&cached, &lookup_keys);
                assert_eq!(timed_checksum, expected_checksum, "timed pass diverged");
                let hit_rate = cached.hit_rate();
                let (p50, p99) = latency_percentiles(&cached, &lookup_keys);
                report.push_row(vec![
                    skew_label.clone(),
                    format!("cached[{engine_label}]"),
                    capacity.to_string(),
                    format!("{:.1}", hit_rate * 100.0),
                    format!("{mops:.2}"),
                    format!("{p50:.0}"),
                    format!("{p99:.0}"),
                    format!("{:.2}x", mops / base_mops),
                ]);
                rows.push(CacheRunResult {
                    skew: skew_label.clone(),
                    engine: format!("cached[{engine_label}]"),
                    capacity,
                    hit_rate,
                    mops_per_s: mops,
                    p50_ns: p50,
                    p99_ns: p99,
                    checksum: timed_checksum,
                });
                if best.is_none_or(|(_, m, _)| mops > m) {
                    best = Some((hit_rate, mops, capacity));
                }
            }

            if skew == ReadSkew::Zipf(1.1) {
                let (hit, mops, capacity) = best.expect("capacity sweep is non-empty");
                gate.push((engine_label.to_string(), spec.clone(), capacity, hit, mops, base_mops));
                gate_ctx = Some((Arc::clone(&data), lookup_keys.clone()));
            }
        }
    }

    // The tier's reason to exist, asserted: under the YCSB-like skew the
    // best cached configuration must actually be a win for every layout.
    // The hit-rate half is deterministic; the throughput half is a timing
    // comparison, so a loss from the sweep (sub-millisecond quick-mode
    // passes are at the mercy of a shared runner's scheduler) gets fresh
    // head-to-head re-measures before it can fail the run.
    let (gate_data, gate_keys) = gate_ctx.expect("the sweep includes zipf(1.1)");
    for (engine, inner, capacity, hit, cached_mops, uncached_mops) in &gate {
        assert!(
            *hit > 0.5,
            "cached[{engine}] best hit rate {:.1}% <= 50% under zipf(1.1)",
            hit * 100.0
        );
        let (mut cached_mops, mut uncached_mops) = (*cached_mops, *uncached_mops);
        for retry in 0..2 {
            if cached_mops > uncached_mops {
                break;
            }
            eprintln!(
                "[ext08] gate re-measure #{} for cached[{engine}]: \
                 {cached_mops:.2} <= {uncached_mops:.2} Mops",
                retry + 1
            );
            let uncached =
                inner.engine(&gate_data, SearchStrategy::Binary).expect("inner engine builds");
            let spec = EngineSpec::Cached {
                capacity: *capacity,
                stripes: STRIPES,
                negative: false,
                inner: Box::new(inner.clone()),
            };
            let cached =
                spec.cached_engine(&gate_data, SearchStrategy::Binary).expect("cache builds");
            measure_points(uncached.as_ref(), &gate_keys); // warm
            measure_points(&cached, &gate_keys); // warm (fills)
            (uncached_mops, _) = measure_points_best(uncached.as_ref(), &gate_keys);
            (cached_mops, _) = measure_points_best(&cached, &gate_keys);
        }
        assert!(
            cached_mops > uncached_mops,
            "cached[{engine}] ({cached_mops:.2} Mops) failed to beat its uncached \
             inner ({uncached_mops:.2} Mops) under zipf(1.1)"
        );
    }

    report.emit(&args.out_dir).expect("write results");
    write_json(&args.out_dir, "ext08_caching", &rows).expect("write json");
    println!(
        "\n(hit_pct/Mops are from the timed pass over a pre-warmed cache; p50/p99 \
         from a separate per-op-clocked sample; vs_uncached compares against the \
         same inner layout without the cache. Ranges/lower bounds always bypass \
         the cache and are not measured here.)"
    );
}
