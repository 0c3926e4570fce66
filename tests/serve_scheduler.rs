//! Integration suite for the open-loop serving front end: a property test
//! proving the scheduler is observably a `get` loop (same answers, same
//! commutative checksum as direct engine reads) over a write-behind engine
//! with live tombstones, concurrent-submission oracle tests through the
//! negative-caching fast path (one of them mixing paced stretches, whose
//! misses are served on the submitting threads, with back-to-back bursts
//! that queue for the workers), and an admission-control test pinning the
//! shed accounting (`completed + shed == submitted`, queue depth never
//! exceeds `queue_cap`).

use proptest::prelude::*;
use sosd::bench::registry::{EngineSpec, Family};
use sosd::core::serve::{oracle_checksum, FastProbe};
use sosd::core::{
    CachedEngine, MergeMode, MergePolicy, QueryEngine, RequestScheduler, SchedulerConfig,
    SearchStrategy, SortedData, WriteBehindEngine,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A write-behind engine over `keys` with `removed` tombstoned, plus the
/// matching oracle map.
fn build_writebehind(
    keys: &[u64],
    removed: &[u64],
) -> (WriteBehindEngine<u64>, BTreeMap<u64, u64>) {
    let payloads: Vec<u64> = keys.iter().map(|&k| k.wrapping_mul(0x9E37_79B9) ^ 1).collect();
    let mut oracle: BTreeMap<u64, u64> =
        keys.iter().copied().zip(payloads.iter().copied()).collect();
    let data = Arc::new(SortedData::with_payloads(keys.to_vec(), payloads).expect("sorted"));
    let spec = EngineSpec::WriteBehind {
        shards: 1,
        inner: Family::Pgm.default_spec::<u64>(),
        // Effectively unbounded: removes stay live as delta tombstones, the
        // case the scheduler must relay as None rather than a stale payload.
        merge_threshold: 1 << 40,
        policy: MergePolicy::leveled(2, 1),
    };
    let wb =
        spec.writebehind_engine(&data, SearchStrategy::Binary, MergeMode::Sync).expect("builds");
    for &k in removed {
        wb.remove(k);
        oracle.remove(&k);
    }
    (wb, oracle)
}

/// Distinct sorted base keys, extremes included often.
fn base_keys() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(any::<u64>(), 16..200).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Every response equals a direct `get`, for present, absent, and
    /// tombstoned keys alike, across wave/linger shapes — and the
    /// scheduler's running checksum equals the oracle checksum of the
    /// submitted key multiset.
    #[test]
    fn scheduler_is_observably_a_get_loop(
        keys in base_keys(),
        removed_sel in prop::collection::vec(any::<usize>(), 0..8),
        lookup_sel in prop::collection::vec(any::<usize>(), 1..150),
        absent in prop::collection::vec(any::<u64>(), 0..40),
        wave_size in 1usize..8,
        linger_us in 0u64..150,
    ) {
        let removed: Vec<u64> = removed_sel.iter().map(|i| keys[i % keys.len()]).collect();
        let (wb, oracle) = build_writebehind(&keys, &removed);
        let engine: Arc<dyn QueryEngine<u64>> = Arc::new(wb);
        let sched = RequestScheduler::new(
            Arc::clone(&engine),
            SchedulerConfig {
                wave_size,
                linger: Duration::from_micros(linger_us),
                workers: 2,
                queue_cap: 4096,
            },
        )
        .expect("scheduler builds");

        // Lookups mix population keys (including tombstoned ones) with
        // arbitrary, mostly-absent keys.
        let lookups: Vec<u64> = lookup_sel
            .iter()
            .map(|i| keys[i % keys.len()])
            .chain(absent.iter().copied())
            .collect();
        let responses: Vec<_> =
            lookups.iter().map(|&k| sched.submit(k).expect("roomy queue never sheds")).collect();
        for (&k, r) in lookups.iter().zip(&responses) {
            prop_assert_eq!(r.wait(), oracle.get(&k).copied(), "key {}", k);
        }
        sched.wait_idle();
        let stats = sched.stats();
        prop_assert_eq!(stats.completed, lookups.len() as u64);
        prop_assert_eq!(stats.shed, 0);
        prop_assert_eq!(stats.checksum, oracle_checksum(engine.as_ref(), &lookups));
    }
}

/// Concurrent submission from four threads through the negative-caching
/// fast path over a tombstoned write-behind engine: every response still
/// equals the oracle, nothing is lost, and the aggregate checksum matches
/// direct reads of the same key multiset.
#[test]
fn concurrent_submission_matches_direct_gets() {
    let keys: Vec<u64> = (0..4_000u64).map(|k| k * 3).collect();
    let removed: Vec<u64> = keys.iter().copied().filter(|k| k % 30 == 0).collect();
    let (wb, oracle) = build_writebehind(&keys, &removed);
    let cached = Arc::new(CachedEngine::with_negative(wb, 1024, 4, true).expect("cache builds"));
    let probe: FastProbe<u64> = {
        let cache = Arc::clone(&cached);
        Arc::new(move |key| cache.peek(key))
    };
    let sched = RequestScheduler::with_fast_path(
        Arc::clone(&cached),
        SchedulerConfig {
            wave_size: 16,
            linger: Duration::from_micros(100),
            workers: 3,
            queue_cap: 1 << 16,
        },
        probe,
    )
    .expect("scheduler builds");

    // Each thread draws its own deterministic stream over present, absent,
    // and tombstoned keys; repeats guarantee fast-path hits once waves
    // populate the cache (absences included — negative mode).
    let streams: Vec<Vec<u64>> = (0..4u64)
        .map(|t| {
            let mut x = 0x9E37_79B9 ^ t;
            (0..2_000)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    match x % 4 {
                        0 => (x >> 32) % (4_000 * 3 + 8), // arbitrary: mostly absent
                        1 => ((x >> 32) % 4_000) * 3,     // population (some tombstoned)
                        _ => ((x >> 32) % 64) * 3,        // hot set: repeats hit the cache
                    }
                })
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for stream in &streams {
            let sched = &sched;
            let oracle = &oracle;
            scope.spawn(move || {
                for &k in stream {
                    let r = sched.submit(k).expect("roomy queue never sheds");
                    assert_eq!(r.wait(), oracle.get(&k).copied(), "key {k}");
                }
            });
        }
    });
    sched.wait_idle();

    let stats = sched.stats();
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total, "nothing lost under concurrent submission");
    assert_eq!(stats.shed, 0);
    assert!(stats.fast_hits > 0, "hot repeats should be answered at submit time");
    let all: Vec<u64> = streams.iter().flatten().copied().collect();
    assert_eq!(
        stats.checksum,
        oracle_checksum(cached.as_ref(), &all),
        "scheduler answers diverge from direct engine reads"
    );
}

/// An engine counting lookups by where they ran: on a scheduler worker
/// (a thread named `sosd-serve-*`) or on a submitting thread.
struct ThreadTally<E: ?Sized> {
    inner: Arc<E>,
    on_worker: AtomicU64,
    on_submitter: AtomicU64,
}

impl<E: ?Sized> ThreadTally<E> {
    fn note(&self, keys: usize) {
        let worker = std::thread::current().name().is_some_and(|n| n.starts_with("sosd-serve-"));
        let count = if worker { &self.on_worker } else { &self.on_submitter };
        count.fetch_add(keys as u64, Ordering::Relaxed);
    }
}

impl<E: QueryEngine<u64> + ?Sized> QueryEngine<u64> for ThreadTally<E> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn get(&self, key: u64) -> Option<u64> {
        self.note(1);
        self.inner.get(key)
    }
    fn lower_bound(&self, key: u64) -> Option<(u64, u64)> {
        self.inner.lower_bound(key)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner.range(lo, hi)
    }
    fn get_batch(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        self.note(keys.len());
        self.inner.get_batch(keys, out)
    }
}

/// Three submitters alternating paced stretches (one request per linger
/// each) with back-to-back bursts, through the negative-caching fast path
/// over a tombstoned write-behind engine: sparse misses are answered on
/// the submitting threads and burst misses on the workers, and either way
/// every response equals the oracle, nothing is lost, and the checksum
/// matches direct reads of the same key multiset.
#[test]
fn mixed_density_submission_matches_direct_gets() {
    let keys: Vec<u64> = (0..6_000u64).map(|k| k * 3).collect();
    let removed: Vec<u64> = keys.iter().copied().filter(|k| k % 21 == 0).collect();
    let (wb, oracle) = build_writebehind(&keys, &removed);
    let cached = Arc::new(CachedEngine::with_negative(wb, 512, 4, true).expect("cache builds"));
    let probe: FastProbe<u64> = {
        let cache = Arc::clone(&cached);
        Arc::new(move |key| cache.peek(key))
    };
    let tally = Arc::new(ThreadTally {
        inner: Arc::clone(&cached),
        on_worker: AtomicU64::new(0),
        on_submitter: AtomicU64::new(0),
    });
    let linger = Duration::from_millis(1);
    let sched = RequestScheduler::with_fast_path(
        Arc::clone(&tally),
        SchedulerConfig { wave_size: 32, linger, workers: 2, queue_cap: 1 << 16 },
        probe,
    )
    .expect("scheduler builds");

    // Per thread: four rounds of 12 paced keys then a 400-key burst, over
    // present, absent and tombstoned keys (a key space far larger than
    // the cache, so most lookups miss).
    let (paced, burst) = (12, 400);
    let streams: Vec<Vec<u64>> = (0..3u64)
        .map(|t| {
            let mut x = 0x51ED_2701 ^ t;
            (0..4 * (paced + burst))
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x >> 32) % (6_000 * 3 + 16)
                })
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for stream in &streams {
            let (sched, oracle) = (&sched, &oracle);
            scope.spawn(move || {
                for round in stream.chunks(paced + burst) {
                    let (slow, fast) = round.split_at(paced);
                    for &k in slow {
                        let r = sched.submit(k).expect("roomy queue never sheds");
                        assert_eq!(r.wait(), oracle.get(&k).copied(), "paced key {k}");
                        std::thread::sleep(linger + linger / 4);
                    }
                    let responses: Vec<_> = fast
                        .iter()
                        .map(|&k| sched.submit(k).expect("roomy queue never sheds"))
                        .collect();
                    for (&k, r) in fast.iter().zip(&responses) {
                        assert_eq!(r.wait(), oracle.get(&k).copied(), "burst key {k}");
                    }
                }
            });
        }
    });
    sched.wait_idle();

    let stats = sched.stats();
    let all: Vec<u64> = streams.iter().flatten().copied().collect();
    assert_eq!(stats.submitted, all.len() as u64);
    assert_eq!(stats.completed, stats.submitted, "nothing lost or shed");
    assert_eq!(
        stats.checksum,
        oracle_checksum(cached.as_ref(), &all),
        "scheduler answers diverge from direct engine reads"
    );
    let (on_worker, on_submitter) =
        (tally.on_worker.load(Ordering::Relaxed), tally.on_submitter.load(Ordering::Relaxed));
    assert!(on_worker > 0, "burst misses must reach the workers");
    assert!(on_submitter > 0, "paced misses must be served on the submitting threads");
}

/// An engine whose every lookup sleeps, forcing the bounded queue to fill
/// while the submitter runs ahead of the workers.
struct SlowEngine {
    map: BTreeMap<u64, u64>,
    delay: Duration,
}

impl QueryEngine<u64> for SlowEngine {
    fn name(&self) -> String {
        "slow".into()
    }
    fn len(&self) -> usize {
        self.map.len()
    }
    fn size_bytes(&self) -> usize {
        0
    }
    fn get(&self, key: u64) -> Option<u64> {
        std::thread::sleep(self.delay);
        self.map.get(&key).copied()
    }
    fn lower_bound(&self, key: u64) -> Option<(u64, u64)> {
        self.map.range(key..).next().map(|(&k, &v)| (k, v))
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.map.range(lo..hi).map(|(&k, &v)| (k, v)).collect()
    }
}

/// Admission control under overload: the queue never exceeds `queue_cap`,
/// every submission is either completed or shed (none lost), shedding
/// actually happens, and a completed response still carries the right
/// answer.
#[test]
fn overload_sheds_at_queue_cap_and_loses_nothing() {
    let map: BTreeMap<u64, u64> = (0..512u64).map(|k| (k, k + 7)).collect();
    let engine: Arc<dyn QueryEngine<u64>> =
        Arc::new(SlowEngine { map, delay: Duration::from_micros(40) });
    let cfg = SchedulerConfig {
        wave_size: 4,
        linger: Duration::from_micros(10),
        workers: 1,
        queue_cap: 8,
    };
    let sched = RequestScheduler::new(engine, cfg).expect("scheduler builds");

    let mut accepted: Vec<(u64, sosd::core::Response)> = Vec::new();
    let mut shed = 0u64;
    for i in 0..500u64 {
        let key = i % 512;
        match sched.submit(key) {
            Ok(r) => accepted.push((key, r)),
            Err(_) => shed += 1,
        }
    }
    sched.wait_idle();

    let stats = sched.stats();
    assert_eq!(stats.submitted, 500);
    assert_eq!(stats.shed, shed, "scheduler's shed count matches the caller's");
    assert_eq!(stats.completed, 500 - shed, "completed + shed == submitted");
    assert!(stats.shed > 0, "a 40µs-per-lookup engine behind an 8-slot queue must shed");
    assert!(
        stats.peak_queue <= cfg.queue_cap as u64,
        "queue depth {} exceeded queue_cap {}",
        stats.peak_queue,
        cfg.queue_cap
    );
    for (key, r) in &accepted {
        assert_eq!(r.wait(), Some(key + 7), "accepted request answered correctly");
    }
}
