//! Extension experiment 9: open-loop serving through the wave-batching
//! request scheduler.
//!
//! Every prior experiment measures engines closed-loop: the bench thread
//! issues a lookup, waits for the answer, issues the next. That hides
//! queueing entirely — the client self-throttles, so the numbers say
//! nothing about tail latency or saturation under independent arrivals.
//! This experiment drives the `RequestScheduler` front end with a
//! deterministic **open-loop** schedule (Poisson arrivals with ×4 burst
//! phases, Zipf(1.1) key skew, 5% guaranteed-miss keys) and measures what
//! serving actually costs:
//!
//! **inner engine** (single RMI, key-range sharded RMI, negative-caching
//! tier over write-behind) × **scheduler** (naive one-request-per-wave vs.
//! wave-batching with a 200µs linger) × **load** (two paced offered rates
//! behind a bounded queue, plus an unpaced **drain** run — the whole
//! schedule submitted back-to-back into a queue roomy enough to never
//! shed — that measures the front end's saturation service rate without
//! the producer/worker timeslice lottery a bounded-queue spin fight
//! degenerates into on small hosts).
//!
//! Reported per row: offered vs. sustained rate, shed fraction, fast-path
//! hit share, mean wave size, and enqueue→complete p50/p99/p999.
//!
//! Correctness is asserted on the drain rows themselves: nothing may be
//! shed there, and each scheduler's commutative result checksum must equal
//! the oracle checksum computed by direct `get` calls on the same engine —
//! a wrong or lost response fails the run before any comparison is read.
//!
//! The experiment self-gates the scheduler's reason to exist: on the
//! batchable engines (single, sharded), wave-batching must either sustain
//! a higher drain-mode rate than the naive scheduler or shed strictly
//! less at the top paced rate; on the cached tier — whose fast path
//! answers the Zipf hot set at submit time identically under either
//! scheduler, diluting the comparison by design — waves must not regress
//! the drain rate. A failing gate panics the run, after fresh re-measures
//! of both sides to absorb shared-runner timing noise.

use serde::Serialize;
use sosd_bench::registry::{EngineSpec, Family};
use sosd_bench::report::{write_json, Report};
use sosd_bench::Args;
use sosd_core::serve::oracle_checksum;
use sosd_core::{MergePolicy, RequestScheduler, SchedulerConfig, SearchStrategy, SortedData};
use sosd_datasets::{generate_openloop, generate_u64, DatasetId, OpenLoopConfig, OpenLoopSchedule};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gap-scale factors for the paced rows: 1.0 replays the generated
/// schedule as-is; 0.25 compresses every gap 4×, the "top" rate intended
/// to push the naive scheduler toward its shed point.
const PACE_FACTORS: [f64; 2] = [1.0, 0.25];

/// Bounded queue for the paced rows (small enough that burst overload
/// sheds rather than buffering the whole schedule). Drain rows override
/// it with the schedule length so nothing is ever shed there.
const QUEUE_CAP: usize = 1024;

/// Measurement passes per drain row; the best pass is reported. Drain
/// throughput is a timing comparison on a shared runner, so a single
/// unlucky descheduling must not decide the gate.
const DRAIN_PASSES: usize = 2;

/// Per-engine gate inputs: label, strictness, spec, then `[naive, wave]`
/// drain sustained rates and top-paced shed percentages.
type GateEntry = (String, bool, EngineSpec, [f64; 2], [f64; 2]);

/// One reported row (JSON payload).
#[derive(Debug, Clone, Serialize)]
struct OpenLoopRow {
    engine: String,
    sched: String,
    mode: String,
    offered_kreq_s: f64,
    sustained_kreq_s: f64,
    shed_pct: f64,
    fast_hit_pct: f64,
    avg_wave: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    mean_us: f64,
    max_us: f64,
    checksum: u64,
}

/// The inner serving layouts the scheduler fronts, with a flag for
/// whether the wave-vs-naive gate binds strictly. The cached layout uses
/// negative mode: 5% of the open-loop keys are guaranteed misses, and
/// without absence caching every repeat of a hot miss would ride a wave.
/// Its gate is non-strict: the Zipf hot set gives the fast path a 70%+
/// hit share, and those requests complete identically under either
/// scheduler — the drain comparison is diluted to noise *by the cache
/// doing its job*, so the gate only forbids wave from regressing it.
fn engine_specs(cache_capacity: usize) -> Vec<(&'static str, bool, EngineSpec)> {
    let rmi = Family::Rmi.default_spec::<u64>();
    vec![
        ("single", true, EngineSpec::Single(rmi)),
        ("sharded", true, EngineSpec::Sharded { shards: 4, inner: rmi }),
        (
            "cached-wb",
            false,
            EngineSpec::Cached {
                capacity: cache_capacity,
                stripes: 8,
                negative: true,
                inner: Box::new(EngineSpec::WriteBehind {
                    shards: 1,
                    inner: rmi,
                    merge_threshold: 1 << 40,
                    policy: MergePolicy::leveled(4, 3),
                }),
            },
        ),
    ]
}

/// The two scheduler shapes under comparison: one request per dispatch
/// (every `get_batch` sees a single key) vs. 32-request waves with a
/// 200µs linger.
fn sched_configs() -> [(&'static str, SchedulerConfig); 2] {
    let naive =
        SchedulerConfig { wave_size: 1, linger: Duration::ZERO, workers: 2, queue_cap: QUEUE_CAP };
    let wave = SchedulerConfig { wave_size: 32, linger: Duration::from_micros(200), ..naive };
    [("naive", naive), ("wave", wave)]
}

/// Replay a schedule against a scheduler. `paced` honors the arrival
/// timestamps (sleeping/spinning until each request is due — the open
/// loop); unpaced submits back-to-back — with a roomy queue that is the
/// drain mode measuring saturation service rate.
fn replay(
    sched: &RequestScheduler<u64>,
    schedule: &OpenLoopSchedule<u64>,
    paced: bool,
) -> OpenLoopRow {
    let start = Instant::now();
    for (i, &key) in schedule.keys.iter().enumerate() {
        if paced {
            let due = Duration::from_nanos(schedule.arrivals_ns[i]);
            loop {
                let now = start.elapsed();
                if now >= due {
                    break;
                }
                let gap = due - now;
                if gap > Duration::from_micros(150) {
                    // Leave a spin margin: sleep wakes late, never early.
                    std::thread::sleep(gap - Duration::from_micros(100));
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        // A shed is the admission controller working, not an error; it is
        // counted by the scheduler itself.
        let _ = sched.submit(key);
    }
    sched.wait_idle();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = sched.stats();
    assert_eq!(stats.submitted, schedule.len() as u64, "every request was submitted");
    assert_eq!(stats.completed + stats.shed, stats.submitted, "no request lost");

    let offered =
        if paced { schedule.offered_rate_per_s() } else { stats.submitted as f64 / elapsed };
    let lat = sched.latency();
    OpenLoopRow {
        engine: String::new(), // filled by the caller
        sched: String::new(),
        mode: if paced { "paced".into() } else { "drain".into() },
        offered_kreq_s: offered / 1e3,
        sustained_kreq_s: stats.completed as f64 / elapsed / 1e3,
        shed_pct: stats.shed as f64 / stats.submitted as f64 * 100.0,
        fast_hit_pct: if stats.completed > 0 {
            stats.fast_hits as f64 / stats.completed as f64 * 100.0
        } else {
            0.0
        },
        avg_wave: stats.avg_wave(),
        p50_us: lat.p50() as f64 / 1e3,
        p99_us: lat.p99() as f64 / 1e3,
        p999_us: lat.p999() as f64 / 1e3,
        mean_us: lat.mean() / 1e3,
        // Exact, not bucket-quantized: the one-off worst request is
        // visible even when every percentile looks healthy.
        max_us: lat.max() as f64 / 1e3,
        checksum: stats.checksum,
    }
}

/// Build a fresh scheduler for a (engine, scheduler) pair. Fresh per row
/// so cache warmth and histograms never leak between measurements.
fn build(
    engine_spec: &EngineSpec,
    sched_config: SchedulerConfig,
    data: &Arc<SortedData<u64>>,
) -> RequestScheduler<u64> {
    engine_spec.scheduler(sched_config, data, SearchStrategy::Binary).expect("scheduler builds")
}

/// One validated drain row: the whole schedule submitted back-to-back
/// into a queue sized to hold it all, best of [`DRAIN_PASSES`] passes.
/// Every pass must shed nothing and reproduce the oracle checksum of
/// direct engine reads — the correctness assertion rides the measurement.
fn drain(
    engine_label: &str,
    engine_spec: &EngineSpec,
    sched_config: SchedulerConfig,
    data: &Arc<SortedData<u64>>,
    schedule: &OpenLoopSchedule<u64>,
) -> OpenLoopRow {
    let roomy = SchedulerConfig { queue_cap: schedule.len().max(QUEUE_CAP), ..sched_config };
    let mut best: Option<OpenLoopRow> = None;
    for _ in 0..DRAIN_PASSES {
        let sched = build(engine_spec, roomy, data);
        let row = replay(&sched, schedule, false);
        assert_eq!(row.shed_pct, 0.0, "{engine_label}: drain queue must not shed");
        let expected = oracle_checksum(sched.engine().as_ref(), &schedule.keys);
        assert_eq!(
            row.checksum, expected,
            "{engine_label}: scheduler answers diverge from direct engine reads"
        );
        if best.as_ref().is_none_or(|b| row.sustained_kreq_s > b.sustained_kreq_s) {
            best = Some(row);
        }
    }
    best.expect("at least one drain pass")
}

fn main() {
    let args = Args::parse();

    let data = Arc::new(generate_u64(DatasetId::Amzn, args.n, args.seed));
    // Guaranteed-absent keys: gaps between consecutive dataset keys.
    let keys = data.keys();
    let mut miss_keys: Vec<u64> = Vec::with_capacity(256);
    for w in keys.windows(2) {
        if w[0] + 1 < w[1] {
            miss_keys.push(w[0] + 1);
            if miss_keys.len() == 256 {
                break;
            }
        }
    }
    let schedule =
        generate_openloop(keys, &miss_keys, args.lookups, OpenLoopConfig::default(), args.seed);
    eprintln!(
        "[ext09] {} keys, {} requests, base offered {:.0} kreq/s ({})",
        data.len(),
        schedule.len(),
        schedule.offered_rate_per_s() / 1e3,
        schedule.label
    );

    // Big enough that the Zipf hot set gets a real fast-path hit share,
    // small enough that a majority of requests still ride waves — the
    // wave-vs-naive comparison must not be absorbed by the cache tier.
    let cache_capacity = (data.len() / 16).max(16);
    let specs = engine_specs(cache_capacity);

    let mut report = Report::new(
        "ext09_openloop",
        &[
            "engine",
            "sched",
            "mode",
            "offered_kreq_s",
            "sustained_kreq_s",
            "shed_pct",
            "fast_hit_pct",
            "avg_wave",
            "p50_us",
            "p99_us",
            "p999_us",
            "mean_us",
            "max_us",
        ],
    );
    let mut rows: Vec<OpenLoopRow> = Vec::new();
    let mut gate: Vec<GateEntry> = Vec::new();

    for (engine_label, strict, engine_spec) in &specs {
        let mut drained = [0.0f64; 2];
        let mut top_shed = [0.0f64; 2];
        for (si, (sched_label, sched_config)) in sched_configs().into_iter().enumerate() {
            for (pi, factor) in PACE_FACTORS.iter().enumerate() {
                let paced_schedule = schedule.scaled(*factor);
                let sched = build(engine_spec, sched_config, &data);
                let mut row = replay(&sched, &paced_schedule, true);
                row.engine = engine_label.to_string();
                row.sched = sched_label.to_string();
                if pi == PACE_FACTORS.len() - 1 {
                    top_shed[si] = row.shed_pct;
                }
                push(&mut report, &mut rows, row);
            }
            let mut row = drain(engine_label, engine_spec, sched_config, &data, &schedule);
            row.engine = engine_label.to_string();
            row.sched = sched_label.to_string();
            drained[si] = row.sustained_kreq_s;
            push(&mut report, &mut rows, row);
        }
        gate.push((engine_label.to_string(), *strict, engine_spec.clone(), drained, top_shed));
    }

    // The front end's reason to exist, asserted per engine. Strict gate
    // (batchable engines, where waves carry the traffic): waves must beat
    // one-request dispatch on saturation service rate, or at least shed
    // less when the offered rate is past the naive scheduler's knee.
    // Non-strict gate (the cached tier, whose fast path answers most
    // requests identically under either scheduler): waves must merely not
    // regress the drain rate by more than 20%. Throughput halves are
    // timing comparisons, so a loss gets fresh head-to-head re-measures
    // before it can fail the run.
    for (engine_label, strict, engine_spec, drained, top_shed) in &gate {
        let (mut naive, mut wave) = (drained[0], drained[1]);
        let sheds_less = top_shed[1] < top_shed[0];
        let passes = |wave: f64, naive: f64| {
            if *strict {
                wave > naive || sheds_less
            } else {
                wave >= 0.8 * naive
            }
        };
        for retry in 0..2 {
            if passes(wave, naive) {
                break;
            }
            eprintln!(
                "[ext09] gate re-measure #{} for {engine_label}: wave {wave:.0} vs \
                 naive {naive:.0} kreq/s sustained",
                retry + 1
            );
            let [(_, naive_config), (_, wave_config)] = sched_configs();
            naive =
                drain(engine_label, engine_spec, naive_config, &data, &schedule).sustained_kreq_s;
            wave = drain(engine_label, engine_spec, wave_config, &data, &schedule).sustained_kreq_s;
        }
        assert!(
            passes(wave, naive),
            "{engine_label}: wave scheduler ({wave:.0} kreq/s sustained, {:.1}% shed at top \
             rate) vs naive ({naive:.0} kreq/s, {:.1}% shed) fails the {} gate",
            top_shed[1],
            top_shed[0],
            if *strict { "beats-naive" } else { "no-regression" }
        );
        eprintln!(
            "[ext09] gate {engine_label}: wave {wave:.0} vs naive {naive:.0} kreq/s drained \
             (shed at top rate: {:.1}% vs {:.1}%)",
            top_shed[1], top_shed[0]
        );
    }

    report.emit(&args.out_dir).expect("write results");
    write_json(&args.out_dir, "ext09_openloop", &rows).expect("write json");
    println!(
        "\n(paced rows honor the generated Poisson+burst arrival times — an open \
         loop, so queueing delay lands in p99/p999 instead of being hidden by \
         client self-throttling; drain rows submit back-to-back into a queue \
         roomy enough to never shed, measuring saturation service rate with \
         the result checksum validated against direct engine reads. shed_pct \
         is admission-controller drops at queue_cap {QUEUE_CAP}; fast_hit_pct \
         is requests answered at submit time by the cache tier's probe \
         without riding a wave.)"
    );
}

/// Append a row to both the human-readable table and the JSON payload.
fn push(report: &mut Report, rows: &mut Vec<OpenLoopRow>, row: OpenLoopRow) {
    report.push_row(vec![
        row.engine.clone(),
        row.sched.clone(),
        row.mode.clone(),
        format!("{:.0}", row.offered_kreq_s),
        format!("{:.0}", row.sustained_kreq_s),
        format!("{:.1}", row.shed_pct),
        format!("{:.1}", row.fast_hit_pct),
        format!("{:.1}", row.avg_wave),
        format!("{:.0}", row.p50_us),
        format!("{:.0}", row.p99_us),
        format!("{:.0}", row.p999_us),
        format!("{:.0}", row.mean_us),
        format!("{:.0}", row.max_us),
    ]);
    rows.push(row);
}
