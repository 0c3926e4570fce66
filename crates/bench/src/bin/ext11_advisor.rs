//! ext11 — the self-tuning per-shard index advisor on mixed distributions.
//!
//! The paper's central finding is that no single index family wins
//! everywhere — family rankings flip with the key distribution. This
//! extension stress-tests that finding's constructive consequence: on
//! datasets that *mix* distributions (a linear ramp, a duplicate-heavy
//! run, and a uniform-random segment stitched into one sorted array), a
//! [`sosd_core::advisor::Advisor`] that times every candidate in a pool
//! per key-range shard should match the best fixed single family —
//! without being told which one that is — by picking different winners
//! for different shards.
//!
//! Measured per mixed dataset: every fixed family in the candidate pool
//! served as a homogeneous sharded engine, plus the advisor's auto-tuned
//! heterogeneous engine (same shard count, same candidate pool), with the
//! advisor's per-shard pick labels reported alongside. The auto-tuned
//! row's `build_ms` is the whole advise: every candidate built and timed
//! on every shard.
//!
//! Self-gates (loud failure, no silent drift):
//! * every engine's payload-sum checksum must match the in-RAM data;
//! * the auto-tuned engine must land within [`GATE_FACTOR`]× of the best
//!   fixed family on every dataset AND strictly beat the worst fixed
//!   family (timing half: up to [`GATE_RETRIES`] fresh re-measures of
//!   both sides before failing).
//!
//! Run: `cargo run --release -p sosd-bench --bin ext11_advisor -- --quick`

use serde::Serialize;
use sosd_bench::registry::{EngineSpec, Family};
use sosd_bench::report::{write_json, Report};
use sosd_bench::Args;
use sosd_core::util::splitmix64;
use sosd_core::{LatencyHistogram, QueryEngine, SearchStrategy, SortedData};
use std::sync::Arc;
use std::time::Instant;

/// Auto-tuned must land within this factor of the best fixed family.
const GATE_FACTOR: f64 = 1.15;
/// Timing-half re-measures before the gate fails.
const GATE_RETRIES: usize = 2;
/// Key-range shards for every engine (fixed and auto-tuned alike).
const SHARDS: usize = 8;

/// The candidate pool: two learned families, a radix table, and plain
/// binary search — cheap-to-build structures whose rankings genuinely
/// flip across the mixed segments.
const POOL: [Family; 4] = [Family::Rmi, Family::Pgm, Family::Rbs, Family::Bs];

/// One measured (dataset, engine) cell.
#[derive(Clone, Serialize)]
struct AdvisorRow {
    dataset: String,
    config: String,
    /// Per-shard pick labels (auto-tuned rows only; `-` for fixed).
    picks: String,
    mops_per_s: f64,
    mean_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    build_ms: f64,
    lookups: usize,
    checksum: u64,
}

/// One synthetic mixed-distribution dataset: segments with deliberately
/// different local shapes, offset into disjoint key ranges so the
/// concatenation stays sorted.
struct MixedDataset {
    name: &'static str,
    data: Arc<SortedData<u64>>,
}

/// Per-segment generators. Each takes (index, segment length, rng state)
/// and yields a *local* offset within the segment's key range.
#[derive(Clone, Copy)]
enum Segment {
    /// Constant-gap ramp — the learned families' best case.
    Linear,
    /// Long duplicate runs: every 64 ranks share one key.
    Duplicates,
    /// Uniform-random gaps.
    Random,
}

impl Segment {
    fn offset(self, i: usize, len: usize, seed: u64) -> u64 {
        match self {
            Segment::Linear => 3 * i as u64,
            Segment::Duplicates => (i as u64 / 64) * 97,
            // Scale random draws so the segment span (~16 × len) stays
            // comparable to the others and ranges never collide.
            Segment::Random => splitmix64(seed ^ i as u64) % (16 * len as u64),
        }
    }
}

/// Build one mixed dataset of about `n` keys from the segment recipe.
fn mixed(name: &'static str, recipe: &[Segment], n: usize, seed: u64) -> MixedDataset {
    let seg_len = (n / recipe.len()).max(64);
    let mut keys = Vec::with_capacity(seg_len * recipe.len());
    // Segments occupy disjoint base ranges 2^40 apart, far wider than any
    // segment's local span.
    for (s, &segment) in recipe.iter().enumerate() {
        let base = (s as u64 + 1) << 40;
        let mut local: Vec<u64> =
            (0..seg_len).map(|i| base + segment.offset(i, seg_len, seed)).collect();
        local.sort_unstable();
        keys.append(&mut local);
    }
    MixedDataset { name, data: Arc::new(SortedData::new(keys).expect("sorted non-empty keys")) }
}

/// The benchmark's three mixed datasets: same ingredients, different
/// orders and therefore different shard compositions.
fn datasets(n: usize, seed: u64) -> Vec<MixedDataset> {
    use Segment::{Duplicates, Linear, Random};
    vec![
        mixed("lin+dup+rnd", &[Linear, Duplicates, Random], n, seed),
        mixed("rnd+lin+dup", &[Random, Linear, Duplicates], n, seed ^ 0x9E37),
        mixed("dup+rnd+lin", &[Duplicates, Random, Linear], n, seed ^ 0xC2B2),
    ]
}

fn main() {
    let args = Args::parse();
    let report = run(&args);
    report.emit(&args.out_dir).expect("write results");
}

fn run(args: &Args) -> Report {
    let mut report = Report::new(
        "ext11_advisor",
        &["dataset", "config", "picks", "Mops_per_s", "mean_ns", "p50_ns", "p99_ns", "build_ms"],
    );
    let mut rows: Vec<AdvisorRow> = Vec::new();

    let auto_spec = EngineSpec::AutoTuned {
        shards: SHARDS,
        candidates: POOL.iter().map(|f| f.default_spec::<u64>()).collect(),
    };
    let advisor = auto_spec.advisor::<u64>().expect("candidate pool is non-empty");
    println!(
        "ext11: advisor times {:?} on every shard",
        POOL.iter().map(|f| f.name()).collect::<Vec<_>>()
    );

    for ds in datasets(args.n, args.seed) {
        let data = &ds.data;
        // Lookup keys: uniform draws over ranks, so duplicate-heavy
        // segments are probed as often as they hold ranks.
        let lookups: Vec<u64> = (0..args.lookups)
            .map(|i| data.key(splitmix64(args.seed ^ (i as u64) << 17) as usize % data.len()))
            .collect();
        let expected: u64 =
            lookups.iter().fold(0u64, |acc, &k| acc.wrapping_add(data.payload_sum_at(k)));
        println!("\n  dataset {}: {} keys, {} lookups", ds.name, data.len(), lookups.len());

        // Fixed single-family sharded engines.
        let mut fixed: Vec<AdvisorRow> = POOL
            .iter()
            .map(|family| {
                let spec =
                    EngineSpec::Sharded { shards: SHARDS, inner: family.default_spec::<u64>() };
                let row = measure(ds.name, family.name(), "-", &spec, data, &lookups, expected);
                println!(
                    "    {:<10} {:>8.3} Mops/s (mean {:.0}ns)",
                    row.config, row.mops_per_s, row.mean_ns
                );
                row
            })
            .collect();

        // The advisor's heterogeneous engine over the same shard cuts.
        let mut auto = measure_auto(&ds, &advisor, &lookups, expected);
        println!(
            "    {:<10} {:>8.3} Mops/s (mean {:.0}ns) picks: {}",
            auto.config, auto.mops_per_s, auto.mean_ns, auto.picks
        );

        // Self-gate: within GATE_FACTOR of the best fixed family and
        // strictly ahead of the worst. Timing is noisy at tens of ns per
        // lookup — re-measure both sides afresh before declaring failure.
        let mut retries = 0;
        loop {
            let best = fixed.iter().map(|r| r.mean_ns).fold(f64::INFINITY, f64::min);
            let worst = fixed.iter().map(|r| r.mean_ns).fold(0.0, f64::max);
            let pass = auto.mean_ns <= GATE_FACTOR * best && auto.mean_ns < worst;
            if pass || retries >= GATE_RETRIES {
                assert!(
                    pass,
                    "{}: auto-tuned measured {:.0}ns/lookup; gate needs <= {GATE_FACTOR}x the \
                     best fixed ({:.0}ns) and strictly under the worst fixed ({:.0}ns)",
                    ds.name, auto.mean_ns, best, worst
                );
                break;
            }
            retries += 1;
            println!(
                "    gate retry {retries}: auto {:.0}ns vs best {:.0}ns / worst {:.0}ns",
                auto.mean_ns, best, worst
            );
            for row in fixed.iter_mut() {
                let family =
                    POOL.iter().find(|f| f.name() == row.config).expect("fixed row names a family");
                let spec =
                    EngineSpec::Sharded { shards: SHARDS, inner: family.default_spec::<u64>() };
                let again = measure(ds.name, family.name(), "-", &spec, data, &lookups, expected);
                if again.mean_ns < row.mean_ns {
                    *row = again;
                }
            }
            let again = measure_auto(&ds, &advisor, &lookups, expected);
            if again.mean_ns < auto.mean_ns {
                auto = again;
            }
        }

        for row in fixed {
            push(&mut report, &mut rows, row);
        }
        push(&mut report, &mut rows, auto);
    }

    write_json(&args.out_dir, "ext11_advisor", &rows).expect("write json");
    println!("\n{}", report.to_table());
    println!(
        "(Checksums verified against in-RAM data for every row; the auto-tuned engine landed \
         within {GATE_FACTOR}x of the best fixed family and strictly beat the worst fixed \
         family on every mixed dataset.)"
    );
    report
}

/// Build the spec's engine and measure the lookup workload.
fn measure(
    dataset: &str,
    config: &str,
    picks: &str,
    spec: &EngineSpec,
    data: &Arc<SortedData<u64>>,
    lookups: &[u64],
    expected: u64,
) -> AdvisorRow {
    let t = Instant::now();
    let engine = spec
        .engine(data, SearchStrategy::Binary)
        .unwrap_or_else(|e| panic!("{config} builds on {dataset}: {e}"));
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    timed(dataset, config, picks, engine.as_ref(), build_ms, lookups, expected)
}

/// Advise a fresh heterogeneous engine for the dataset and measure it,
/// with the per-shard picks summarized into the row.
fn measure_auto(
    ds: &MixedDataset,
    advisor: &sosd_core::Advisor<u64>,
    lookups: &[u64],
    expected: u64,
) -> AdvisorRow {
    let t = Instant::now();
    let plan = advisor.advise(&ds.data, SHARDS).expect("advisor plans");
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    // Compress per-shard labels into `family:count` runs, shard order.
    let mut runs: Vec<(String, usize)> = Vec::new();
    for pick in &plan.picks {
        let fam = pick.label.split(['[', '(']).next().unwrap_or(&pick.label).to_string();
        match runs.last_mut() {
            Some((label, count)) if *label == fam => *count += 1,
            _ => runs.push((fam, 1)),
        }
    }
    let picks = runs.iter().map(|(l, c)| format!("{l}x{c}")).collect::<Vec<_>>().join("|");
    timed(ds.name, "auto", &picks, &plan.engine, build_ms, lookups, expected)
}

/// The timed lookup pass (after one warmup pass that also checks the
/// checksum) over an already-built engine.
fn timed(
    dataset: &str,
    config: &str,
    picks: &str,
    engine: &dyn QueryEngine<u64>,
    build_ms: f64,
    lookups: &[u64],
    expected: u64,
) -> AdvisorRow {
    let warm: u64 =
        lookups.iter().fold(0u64, |acc, &k| acc.wrapping_add(engine.get(k).unwrap_or(0)));
    assert_eq!(warm, expected, "{config} on {dataset}: lookups diverged from in-RAM data");
    let hist = LatencyHistogram::new();
    let mut sum = 0u64;
    for &k in lookups {
        let t = Instant::now();
        let got = engine.get(k);
        hist.record(t.elapsed().as_nanos() as u64);
        sum = sum.wrapping_add(got.unwrap_or(0));
    }
    assert_eq!(sum, expected, "{config} on {dataset}: timed pass diverged");
    let mean_ns = hist.mean();
    AdvisorRow {
        dataset: dataset.to_string(),
        config: config.to_string(),
        picks: picks.to_string(),
        mops_per_s: if mean_ns > 0.0 { 1e3 / mean_ns } else { 0.0 },
        mean_ns,
        p50_ns: hist.p50() as f64,
        p99_ns: hist.p99() as f64,
        build_ms,
        lookups: lookups.len(),
        checksum: sum,
    }
}

fn push(report: &mut Report, rows: &mut Vec<AdvisorRow>, row: AdvisorRow) {
    report.push_row(vec![
        row.dataset.clone(),
        row.config.clone(),
        row.picks.clone(),
        format!("{:.3}", row.mops_per_s),
        format!("{:.0}", row.mean_ns),
        format!("{:.0}", row.p50_ns),
        format!("{:.0}", row.p99_ns),
        format!("{:.1}", row.build_ms),
    ]);
    rows.push(row);
}
