//! Open-loop serving: push a Poisson+burst request schedule through the
//! wave-batching `RequestScheduler`, compare it against a naive
//! one-request-per-dispatch front end, watch the negative-caching fast
//! path answer hot keys at submit time, and see sparse arrivals served
//! without waiting out the linger.
//!
//! Run with: `cargo run --release --example openloop_serving`

use sosd::bench::registry::{EngineSpec, Family, SchedulerSpec};
use sosd::core::serve::oracle_checksum;
use sosd::core::{RequestScheduler, SearchStrategy};
use sosd::datasets::{
    generate_openloop, generate_u64, DatasetId, OpenLoopConfig, OpenLoopSchedule,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Submit every request back-to-back (saturation mode) and report
/// sustained kreq/s, shed %, fast-path %, and tail latency. Pair it with
/// a queue sized to the schedule for a shed-free drain measurement, or a
/// small bounded queue to watch admission control work.
fn drive(sched: &RequestScheduler<u64>, schedule: &OpenLoopSchedule<u64>) -> f64 {
    let t = Instant::now();
    for &k in &schedule.keys {
        let _ = sched.submit(k); // a shed is admission control, not an error
    }
    sched.wait_idle();
    let elapsed = t.elapsed().as_secs_f64();
    let stats = sched.stats();
    let lat = sched.latency();
    let sustained = stats.completed as f64 / elapsed / 1e3;
    println!(
        "  sustained {sustained:>5.0} kreq/s | shed {:>4.1}% | fast-path {:>4.1}% | \
         avg wave {:>4.1} | p50 {:>4}µs p99 {:>4}µs p999 {:>4}µs",
        stats.shed as f64 / stats.submitted as f64 * 100.0,
        stats.fast_hits as f64 / stats.completed.max(1) as f64 * 100.0,
        stats.avg_wave(),
        lat.p50() / 1_000,
        lat.p99() / 1_000,
        lat.p999() / 1_000,
    );
    sustained
}

fn main() {
    // 1. An amzn-shaped dataset and a deterministic open-loop schedule:
    //    Poisson arrivals with ×4 burst phases, Zipf(1.1) key skew, and 5%
    //    guaranteed-miss keys (the traffic shape closed-loop benchmarks
    //    cannot represent).
    let data = Arc::new(generate_u64(DatasetId::Amzn, 400_000, 42));
    let misses: Vec<u64> =
        data.keys().windows(2).filter(|w| w[0] + 1 < w[1]).map(|w| w[0] + 1).take(256).collect();
    let schedule = generate_openloop(data.keys(), &misses, 200_000, OpenLoopConfig::default(), 42);
    println!(
        "dataset: {} keys | schedule: {} requests, {} ({:.0} kreq/s offered)\n",
        data.len(),
        schedule.len(),
        schedule.label,
        schedule.offered_rate_per_s() / 1e3,
    );

    // 2. Wave batching vs naive dispatch over a plain RMI, drain mode:
    //    the whole schedule is submitted into a queue roomy enough to
    //    never shed, so the measured rate is the serving machinery's
    //    saturation service rate (ext09's gated comparison). The naive
    //    config hands every request to a worker alone (`get_batch` of
    //    one); 32-request waves amortize the queue handoff and let the
    //    engine's interleaved-prefetch batch path work across independent
    //    requests.
    let rmi_spec = EngineSpec::Single(Family::Rmi.default_spec::<u64>());
    let naive_spec = SchedulerSpec::naive(2, schedule.len());
    let wave_spec =
        SchedulerSpec { wave_size: 32, linger_us: 200, workers: 2, queue_cap: schedule.len() };
    println!("single RMI, naive {}", naive_spec.label());
    let naive_rate = drive(
        &naive_spec.scheduler(&rmi_spec, &data, SearchStrategy::Binary).expect("builds"),
        &schedule,
    );
    println!("single RMI, wave  {}", wave_spec.label());
    let wave_rate = drive(
        &wave_spec.scheduler(&rmi_spec, &data, SearchStrategy::Binary).expect("builds"),
        &schedule,
    );
    println!("  → waves sustain {:.2}x the naive rate\n", wave_rate / naive_rate);

    // 3. The negative-mode cache tier in front, this time behind a small
    //    bounded queue so overload is visible: the cache's `peek` becomes
    //    the scheduler's fast path, so hot keys — and hot *misses*, which
    //    negative mode caches — are answered at submit time without ever
    //    riding a wave (or risking a shed), while the queue sheds the
    //    cold-key overflow instead of buffering it without bound.
    let cached_spec = EngineSpec::Cached {
        capacity: 100_000,
        stripes: 8,
        negative: true,
        inner: Box::new(rmi_spec.clone()),
    };
    let bounded_spec = SchedulerSpec { queue_cap: 1024, ..wave_spec };
    println!("cached(negative) RMI, wave {}", bounded_spec.label());
    drive(
        &bounded_spec.scheduler(&cached_spec, &data, SearchStrategy::Binary).expect("builds"),
        &schedule,
    );

    // 4. Correctness spot-check: with a queue big enough to never shed,
    //    the scheduler's commutative result checksum must equal direct
    //    engine reads over the same keys.
    let roomy = SchedulerSpec { queue_cap: schedule.len(), ..wave_spec };
    let sched = roomy.scheduler(&cached_spec, &data, SearchStrategy::Binary).expect("builds");
    for &k in &schedule.keys {
        sched.submit(k).expect("roomy queue never sheds");
    }
    sched.wait_idle();
    assert_eq!(
        sched.stats().checksum,
        oracle_checksum(sched.engine().as_ref(), &schedule.keys),
        "scheduler answers must match direct gets"
    );
    println!(
        "\nchecksum validated: scheduler ≡ direct engine reads over {} requests",
        schedule.len()
    );

    // 5. Sparse paced arrivals: one request every four lingers can never
    //    fill a wave of 32 before its deadline, so no partial wave is held
    //    for company that cannot come — the median queue wait is a worker
    //    wake-up, far below the configured linger (the upper bound).
    let sched = wave_spec.scheduler(&rmi_spec, &data, SearchStrategy::Binary).expect("builds");
    let gap = Duration::from_micros(4 * wave_spec.linger_us);
    for &k in schedule.keys.iter().take(500) {
        let _ = sched.submit(k);
        std::thread::sleep(gap);
    }
    sched.wait_idle();
    println!(
        "\nsparse paced, one request per {}µs, wave {}\n  queue-wait p50 {}µs (linger {}µs) | \
         avg wave {:.1} | p99 {}µs",
        gap.as_micros(),
        wave_spec.label(),
        sched.queue_wait().p50() / 1_000,
        wave_spec.linger_us,
        sched.stats().avg_wave(),
        sched.latency().p99() / 1_000,
    );
}
