//! Open-loop request serving: wave batching, admission control, latency.
//!
//! Everything below this layer is *driven* — closed-loop bench threads
//! hand an engine a pre-built batch and wait. Real deployments are
//! open-loop: independent point lookups arrive on their own schedule,
//! bursty and latency-SLO-bound, and nobody re-batches them for you.
//! [`RequestScheduler`] is that front end. It accepts single-key requests
//! on a bounded ingest queue, coalesces whatever is in flight into
//! [`QueryEngine::get_batch`] **waves** — so `StaticEngine`'s
//! interleaved-prefetch path fires *across* independent requests, not just
//! within one caller's batch — and dispatches the waves onto a small
//! worker pool.
//!
//! # Wave building
//!
//! A worker pops whatever is queued, up to `wave_size` keys. A full wave
//! is dispatched at once. A **partial** wave is held open only while it
//! is expected to *fill*: the ingest queue keeps an EWMA of the
//! enqueue-to-enqueue gap of queued requests (each sample clamped to
//! `linger`; fast-path hits never queue and do not count), and the worker
//! holds while `gap × (wave_size − wave.len())` fits in the time left to
//! the **oldest** member's linger deadline (its enqueue time + `linger`).
//! Otherwise — arrivals too sparse to fill the wave in time, or no gap
//! observed yet — it dispatches what it has immediately: a lone queued
//! request goes out at wake-up latency, not after `linger` (a sparse miss
//! does not queue at all, see below), while back-to-back arrivals still
//! fill whole waves and a backlog that built up during the previous wave
//! batches without any wait. Every push wakes a holding worker, which
//! re-evaluates the rule with the larger wave and the updated gap.
//!
//! The deadline is the backstop, not the norm: if arrivals stop after the
//! decision to hold, the wave goes out when the head request has waited
//! `linger` — *no request is held past its linger deadline* to benefit
//! requests behind it, and dispatching *early* is always allowed.
//! `linger = 0` never holds; `wave_size = 1, linger = 0` degenerates to a
//! one-request-per-call scheduler (the `ext09_openloop` baseline).
//!
//! # Sparse traffic stays on the submitting thread
//!
//! A worker that would send a request alone buys nothing by taking it:
//! waking a parked thread costs microseconds to milliseconds of scheduler
//! latency, far more than the lookup. So the ingest queue also keeps a
//! **load gap**, an EWMA (weight ⅛, samples clamped to `linger`) of the
//! gap between *all* submits, fast-path hits included: each miss folds
//! the time since the previous miss divided by the submits in between, so
//! the hit path pays no extra shared write. A miss is answered on the
//! submitting thread — one `get`, counted as a wave of one — when
//! `load_gap × wave_size > linger` (fewer than one wave of requests per
//! linger), the queue is empty, and a worker is parked with an empty
//! wave. Otherwise it is queued as above, so dense traffic still batches
//! and `linger = 0` (every sample clamps to zero) never serves inline.
//!
//! # Admission control
//!
//! The ingest queue is bounded by `queue_cap`. A request arriving to a
//! full queue is **shed** — rejected immediately with
//! [`RequestShed`] and counted — so overload degrades to explicit
//! rejections instead of unbounded queueing latency; shedding happens
//! *only* at `queue_cap` (never speculatively). The deepest queue seen at
//! admission is kept as [`SchedulerStats::peak_queue`].
//!
//! # Hit-fast path
//!
//! When the scheduler fronts a [`crate::cache::CachedEngine`], a request
//! whose key is cached should not wait behind a wave of misses. The
//! optional fast path ([`RequestScheduler::with_fast_path`]) is a
//! non-filling cache probe consulted at submit time: a hit completes the
//! request immediately on the submitting thread — it never enters the
//! queue, and therefore never blocks on a wave.
//!
//! # Recording
//!
//! Per-request enqueue→dispatch and enqueue→complete times go into two
//! [`LatencyHistogram`]s — lock-free log-linear bucket arrays, two relaxed
//! `fetch_add`s per sample (bucket and sum) plus a `fetch_max` when the
//! sample is a new maximum — and every completion folds into an
//! order-independent **checksum** (commutative `wrapping_add` of
//! [`result_mix`]) so an open-loop run can be validated byte-for-byte
//! against direct engine reads of the same key multiset regardless of
//! completion order.

use crate::engine::QueryEngine;
use crate::error::BuildError;
use crate::hist::LatencyHistogram;
use crate::key::Key;
use crate::util::splitmix64;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler tuning knobs, checked when a [`RequestScheduler`] starts.
/// The bench registry's `EngineSpec::scheduler` builds a full serving
/// stack from an engine spec and one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum keys per dispatched wave (≥ 1).
    pub wave_size: usize,
    /// Upper bound on how long a partial wave may wait for company,
    /// measured from the enqueue time of its **oldest** request. A partial
    /// wave is held only while the observed arrival gap says it will fill
    /// before that deadline (see the module docs); sparse traffic is
    /// dispatched at once whatever this is, or served on the submitting
    /// thread. Zero never holds and never serves inline.
    pub linger: Duration,
    /// Worker threads dispatching waves (≥ 1).
    pub workers: usize,
    /// Ingest queue bound; a submit finding the queue at this depth is
    /// shed (≥ 1).
    pub queue_cap: usize,
}

impl Default for SchedulerConfig {
    /// A small serving pool: waves of 32, 100 µs linger, 2 workers,
    /// 4096-deep queue.
    fn default() -> Self {
        SchedulerConfig {
            wave_size: 32,
            linger: Duration::from_micros(100),
            workers: 2,
            queue_cap: 4096,
        }
    }
}

impl SchedulerConfig {
    /// Reject zero `wave_size`, `workers`, or `queue_cap`.
    fn validate(&self) -> Result<(), BuildError> {
        if self.wave_size == 0 {
            return Err(BuildError::InvalidConfig("scheduler wave_size must be >= 1".into()));
        }
        if self.workers == 0 {
            return Err(BuildError::InvalidConfig("scheduler workers must be >= 1".into()));
        }
        if self.queue_cap == 0 {
            return Err(BuildError::InvalidConfig("scheduler queue_cap must be >= 1".into()));
        }
        Ok(())
    }
}

/// A request was rejected because the ingest queue was at `queue_cap`
/// (or the scheduler had shut down). The request was **not** executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestShed;

impl fmt::Display for RequestShed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request shed: scheduler queue at capacity")
    }
}

impl std::error::Error for RequestShed {}

/// Completion slot shared between an admitted miss and its [`Response`].
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    done: Condvar,
}

#[derive(Default)]
struct SlotState {
    /// `None` while pending; `Some(result)` once completed.
    result: Option<Option<u64>>,
    /// Set by a blocked `wait()` so completion only pays the wake syscall
    /// when someone is actually parked on this slot.
    waiting: bool,
}

/// Handle to one admitted request's eventual result.
pub struct Response {
    inner: ResponseInner,
}

enum ResponseInner {
    /// Completed at submit time by the hit-fast path.
    Ready(Option<u64>),
    /// Completed through its slot: by a wave, or already at submit time
    /// when a sparse miss was served on the submitting thread.
    Pending(Arc<Slot>),
}

impl Response {
    /// Block until the request completes and return the engine's answer
    /// (`None` = key absent, exactly as [`QueryEngine::get`]).
    pub fn wait(&self) -> Option<u64> {
        match &self.inner {
            ResponseInner::Ready(r) => *r,
            ResponseInner::Pending(slot) => {
                let mut st = slot.state.lock().expect("response slot");
                loop {
                    if let Some(r) = st.result {
                        return r;
                    }
                    st.waiting = true;
                    st = slot.done.wait(st).expect("response slot");
                }
            }
        }
    }

    /// The result if already available, without blocking.
    pub fn try_result(&self) -> Option<Option<u64>> {
        match &self.inner {
            ResponseInner::Ready(r) => Some(*r),
            ResponseInner::Pending(slot) => slot.state.lock().expect("response slot").result,
        }
    }

    /// Whether this request was answered by the hit-fast path (it never
    /// entered the queue). A sparse miss served inline on the submitting
    /// thread is ready at once too, but is not a fast-path hit.
    pub fn is_fast(&self) -> bool {
        matches!(self.inner, ResponseInner::Ready(_))
    }
}

/// One queued request.
struct Request<K> {
    key: K,
    enqueued: Instant,
    slot: Arc<Slot>,
}

/// The lock-protected ingest state: the queue plus the count of workers
/// parked on `not_empty`. Tracking sleepers under the same lock lets
/// `submit` skip the wake syscall entirely when every worker is already
/// running — under saturation that is nearly always, and the per-request
/// futex wake would otherwise dominate the dispatch cost.
struct Ingest<K> {
    deque: VecDeque<Request<K>>,
    sleepers: usize,
    /// Sleepers parked with an empty wave: a request one of them would
    /// only send alone can be served inline instead.
    idle: usize,
    /// Enqueue stamp of the latest queued request.
    last_enqueued: Option<Instant>,
    /// EWMA (weight ⅛) of the gap between consecutive queued requests,
    /// each sample clamped to `linger`. `None` until two have been
    /// queued: unknown means "do not hold".
    gap_ewma: Option<Duration>,
    /// Stamp of the latest miss and the `submitted` count at that time.
    last_miss: Option<(Instant, u64)>,
    /// EWMA (weight ⅛) of the gap between consecutive submits, hits
    /// included, folded once per miss and clamped to `linger`. `None`
    /// until two misses have been seen: unknown means "not sparse".
    load_gap: Option<Duration>,
    /// Deepest queue observed at admission.
    peak_queue: u64,
}

/// Fold `sample` into an EWMA of weight ⅛ (the first sample seeds it).
fn fold(ewma: Option<Duration>, sample: Duration) -> Duration {
    ewma.map_or(sample, |ewma| ewma - ewma / 8 + sample / 8)
}

impl<K> Ingest<K> {
    /// Fold the gap between the previous queued request and this one into
    /// the EWMA. Stamps are taken before the lock, so two submitters can
    /// arrive out of order; that reads as a zero gap.
    fn note_arrival(&mut self, enqueued: Instant, linger: Duration) {
        if let Some(prev) = self.last_enqueued.replace(enqueued) {
            self.gap_ewma =
                Some(fold(self.gap_ewma, enqueued.saturating_duration_since(prev).min(linger)));
        }
    }

    /// Fold the mean submit gap since the previous miss into the load gap
    /// and decide whether this miss is sparse: fewer than one wave of
    /// submits per linger, nothing queued, and a worker idle — so a worker
    /// would only send it alone after a wake-up.
    fn sparse_miss(&mut self, now: Instant, submitted: u64, config: &SchedulerConfig) -> bool {
        if let Some((prev, then)) = self.last_miss.replace((now, submitted)) {
            // Concurrent submitters can read the same count: one at least.
            let submits = u32::try_from(submitted.saturating_sub(then).max(1)).unwrap_or(u32::MAX);
            let gap = (now.saturating_duration_since(prev) / submits).min(config.linger);
            self.load_gap = Some(fold(self.load_gap, gap));
        }
        let wave = u32::try_from(config.wave_size).unwrap_or(u32::MAX);
        self.deque.is_empty()
            && self.idle > 0
            && self.load_gap.is_some_and(|gap| gap.saturating_mul(wave) > config.linger)
    }
}

/// State shared between submitters and workers.
struct Shared<K> {
    queue: Mutex<Ingest<K>>,
    not_empty: Condvar,
    stop: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    fast_hits: AtomicU64,
    waves: AtomicU64,
    wave_requests: AtomicU64,
    checksum: AtomicU64,
    /// Enqueue → wave dispatch (or inline `get`), nanoseconds (fast-path
    /// hits excluded).
    queue_wait: LatencyHistogram,
    /// Enqueue → completion, nanoseconds (fast-path hits included).
    latency: LatencyHistogram,
}

impl<K: Key> Shared<K> {
    fn new() -> Self {
        Shared {
            queue: Mutex::new(Ingest {
                deque: VecDeque::new(),
                sleepers: 0,
                idle: 0,
                last_enqueued: None,
                gap_ewma: None,
                last_miss: None,
                load_gap: None,
                peak_queue: 0,
            }),
            not_empty: Condvar::new(),
            stop: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            fast_hits: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            wave_requests: AtomicU64::new(0),
            checksum: AtomicU64::new(0),
            queue_wait: LatencyHistogram::new(),
            latency: LatencyHistogram::new(),
        }
    }

    /// Complete one request: record latency (against `now`, taken once per
    /// wave by the caller), fold the checksum, publish the result, and wake
    /// the waiter — but only if someone is actually parked on the slot.
    fn complete(&self, key: K, slot: &Slot, enqueued: Instant, now: Instant, result: Option<u64>) {
        self.latency.record(duration_ns(now.saturating_duration_since(enqueued)));
        self.checksum.fetch_add(result_mix(key, result), Ordering::Relaxed);
        let waiting = {
            let mut st = slot.state.lock().expect("response slot");
            st.result = Some(result);
            st.waiting
        };
        if waiting {
            slot.done.notify_all();
        }
        self.completed.fetch_add(1, Ordering::Release);
    }

    /// Complete a request on the submitting thread, so its `Response` is
    /// ready at once. A fast-path hit (`slot: None`) carries its result in
    /// the `Response`; a sparse miss publishes into the slot it was
    /// admitted with.
    fn complete_here(
        &self,
        key: K,
        enqueued: Instant,
        result: Option<u64>,
        slot: Option<Arc<Slot>>,
    ) -> Response {
        let now = Instant::now();
        let inner = match slot {
            Some(slot) => {
                self.complete(key, &slot, enqueued, now, result);
                ResponseInner::Pending(slot)
            }
            None => {
                self.complete(key, &Slot::default(), enqueued, now, result);
                ResponseInner::Ready(result)
            }
        };
        Response { inner }
    }

    /// Count one dispatched wave of `requests` requests.
    fn note_wave(&self, requests: usize) {
        self.waves.fetch_add(1, Ordering::Relaxed);
        self.wave_requests.fetch_add(requests as u64, Ordering::Relaxed);
    }
}

#[inline]
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Non-filling probe used by the hit-fast path: `Some(result)` answers the
/// request immediately, `None` means "no fast answer, enqueue".
pub type FastProbe<K> = Arc<dyn Fn(K) -> Option<Option<u64>> + Send + Sync>;

/// Snapshot of a scheduler's counters. `submitted = completed + shed` once
/// the scheduler is idle; `fast_hits ⊆ completed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Requests offered to `submit` (admitted or not).
    pub submitted: u64,
    /// Requests answered (wave or fast path).
    pub completed: u64,
    /// Requests rejected at `queue_cap`.
    pub shed: u64,
    /// Completions served by the hit-fast path.
    pub fast_hits: u64,
    /// Waves dispatched. A sparse miss served inline on the submitting
    /// thread counts as a wave of one.
    pub waves: u64,
    /// Requests carried by those waves (`completed - fast_hits` once idle).
    pub wave_requests: u64,
    /// Deepest queue observed at admission (≤ `queue_cap` always).
    pub peak_queue: u64,
    /// Commutative completion checksum (see [`result_mix`]).
    pub checksum: u64,
}

impl SchedulerStats {
    /// Mean keys per dispatched wave (0 when no wave was dispatched).
    pub fn avg_wave(&self) -> f64 {
        if self.waves == 0 {
            0.0
        } else {
            self.wave_requests as f64 / self.waves as f64
        }
    }
}

/// Order-independent digest of one request's outcome. Absence hashes
/// distinctly from every payload, so a tombstoned key and a present key
/// can never alias. Summed with `wrapping_add` across requests, the total
/// is invariant to completion order — the property the open-loop
/// experiments rely on to validate against direct engine reads.
#[inline]
pub fn result_mix<K: Key>(key: K, result: Option<u64>) -> u64 {
    const ABSENT: u64 = 0x6E6F_6E65_5F6B_6579; // "none_key"
    match result {
        Some(v) => splitmix64(key.to_u64() ^ splitmix64(v)),
        None => splitmix64(key.to_u64() ^ ABSENT),
    }
}

/// The sum [`result_mix`] over direct `get` calls — the oracle an idle
/// scheduler's `checksum` must equal when every submitted request was
/// admitted (nothing shed).
pub fn oracle_checksum<K: Key, E: QueryEngine<K> + ?Sized>(engine: &E, keys: &[K]) -> u64 {
    keys.iter().fold(0u64, |acc, &k| acc.wrapping_add(result_mix(k, engine.get(k))))
}

/// An open-loop request-serving front end over any [`QueryEngine`]: a
/// bounded ingest queue, wave batching with a linger deadline, a worker
/// pool, shed-on-full admission control, and lock-free latency recording.
/// See the module docs for the design.
///
/// The engine parameter defaults to `dyn QueryEngine<K>`, the form the
/// bench registry builds (`RequestScheduler<u64>` ≡ a scheduler over any
/// boxed engine); concrete engines avoid the dynamic dispatch.
///
/// Dropping the scheduler shuts it down: workers drain every admitted
/// request, then exit ([`RequestScheduler::shutdown`] does the same
/// eagerly).
///
/// ```
/// use sosd_core::serve::{RequestScheduler, SchedulerConfig};
/// use sosd_core::testutil::MirrorIndex;
/// use sosd_core::{SortedData, StaticEngine};
/// use std::sync::Arc;
///
/// let data = Arc::new(SortedData::new((0..1000u64).map(|i| i * 2).collect()).unwrap());
/// let engine = Arc::new(StaticEngine::new(MirrorIndex::over(&data), Arc::clone(&data)));
/// let sched = RequestScheduler::new(engine, SchedulerConfig::default()).unwrap();
///
/// let hit = sched.submit(10).unwrap();
/// let miss = sched.submit(11).unwrap();
/// assert_eq!(hit.wait(), Some(data.payload(5)));
/// assert_eq!(miss.wait(), None);
/// sched.wait_idle();
/// assert_eq!(sched.stats().completed, 2);
/// ```
pub struct RequestScheduler<K: Key, E: QueryEngine<K> + ?Sized + 'static = dyn QueryEngine<K>> {
    shared: Arc<Shared<K>>,
    engine: Arc<E>,
    config: SchedulerConfig,
    fast: Option<FastProbe<K>>,
    workers: Vec<JoinHandle<()>>,
}

impl<K: Key, E: QueryEngine<K> + ?Sized + 'static> RequestScheduler<K, E> {
    /// Start a scheduler over `engine` with `config.workers` worker
    /// threads. Fails on a zero `wave_size`, `workers`, or `queue_cap`.
    pub fn new(engine: Arc<E>, config: SchedulerConfig) -> Result<Self, BuildError> {
        Self::build(engine, config, None)
    }

    /// Like [`RequestScheduler::new`], with a hit-fast path: `fast` is
    /// consulted on the submitting thread before enqueueing, and a
    /// `Some(result)` completes the request immediately — a cache hit
    /// never waits behind a miss wave. The probe must answer from the
    /// *same* state the engine serves (the registry wires a
    /// [`crate::cache::CachedEngine::peek`] of the engine itself).
    pub fn with_fast_path(
        engine: Arc<E>,
        config: SchedulerConfig,
        fast: FastProbe<K>,
    ) -> Result<Self, BuildError> {
        Self::build(engine, config, Some(fast))
    }

    fn build(
        engine: Arc<E>,
        config: SchedulerConfig,
        fast: Option<FastProbe<K>>,
    ) -> Result<Self, BuildError> {
        config.validate()?;
        let shared = Arc::new(Shared::new());
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let engine = Arc::clone(&engine);
                std::thread::Builder::new()
                    .name(format!("sosd-serve-{i}"))
                    .spawn(move || worker_loop(&shared, &*engine, config))
                    .map_err(|e| BuildError::InvalidConfig(format!("spawn worker: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RequestScheduler { shared, engine, config, fast, workers })
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<E> {
        &self.engine
    }

    /// The configuration the scheduler runs with.
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// Submit one point lookup. Returns a [`Response`] handle on
    /// admission (ready at once for a fast-path hit or a sparse miss
    /// served on this thread), or [`RequestShed`] if the queue is at
    /// `queue_cap` — the request was not executed.
    pub fn submit(&self, key: K) -> Result<Response, RequestShed> {
        let sh = &*self.shared;
        sh.submitted.fetch_add(1, Ordering::Relaxed);
        let enqueued = Instant::now();
        if let Some(fast) = &self.fast {
            if let Some(result) = fast(key) {
                sh.fast_hits.fetch_add(1, Ordering::Relaxed);
                // Completes on the submitting thread: ~the latency of one
                // cache probe, recorded like any other completion.
                return Ok(sh.complete_here(key, enqueued, result, None));
            }
        }
        let slot = Arc::new(Slot::default());
        let wake = {
            let mut q = sh.queue.lock().expect("scheduler queue");
            if q.deque.len() >= self.config.queue_cap || sh.stop.load(Ordering::Acquire) {
                drop(q);
                sh.shed.fetch_add(1, Ordering::Release);
                return Err(RequestShed);
            }
            if q.sparse_miss(enqueued, sh.submitted.load(Ordering::Relaxed), &self.config) {
                drop(q);
                // A wave of one on this thread: the parked worker stays
                // parked, and the request skips its wake-up.
                sh.queue_wait.record(duration_ns(enqueued.elapsed()));
                let result = self.engine.get(key);
                sh.note_wave(1);
                return Ok(sh.complete_here(key, enqueued, result, Some(slot)));
            }
            q.deque.push_back(Request { key, enqueued, slot: Arc::clone(&slot) });
            q.note_arrival(enqueued, self.config.linger);
            q.peak_queue = q.peak_queue.max(q.deque.len() as u64);
            q.sleepers > 0
        };
        if wake {
            sh.not_empty.notify_one();
        }
        Ok(Response { inner: ResponseInner::Pending(slot) })
    }

    /// Block until every submitted request has completed or been shed.
    /// Only quiesces if producers have stopped submitting.
    pub fn wait_idle(&self) {
        loop {
            let sh = &self.shared;
            let done = sh.completed.load(Ordering::Acquire) + sh.shed.load(Ordering::Acquire);
            if done >= sh.submitted.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        let sh = &self.shared;
        let peak_queue = sh.queue.lock().expect("scheduler queue").peak_queue;
        SchedulerStats {
            submitted: sh.submitted.load(Ordering::Acquire),
            completed: sh.completed.load(Ordering::Acquire),
            shed: sh.shed.load(Ordering::Acquire),
            fast_hits: sh.fast_hits.load(Ordering::Relaxed),
            waves: sh.waves.load(Ordering::Relaxed),
            wave_requests: sh.wave_requests.load(Ordering::Relaxed),
            peak_queue,
            checksum: sh.checksum.load(Ordering::Relaxed),
        }
    }

    /// Enqueue→completion latencies, nanoseconds (fast hits included).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.shared.latency
    }

    /// Enqueue→dispatch queue waits, nanoseconds (fast hits excluded).
    pub fn queue_wait(&self) -> &LatencyHistogram {
        &self.shared.queue_wait
    }

    /// Stop admitting, drain every already-admitted request, and join the
    /// workers. Subsequent `submit`s are shed. Idempotent; `Drop` calls
    /// this.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.not_empty.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<K: Key, E: QueryEngine<K> + ?Sized + 'static> Drop for RequestScheduler<K, E> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker thread body: collect a wave (full, not expected to fill,
/// linger-expired, or shutdown drain), dispatch it through `get_batch`
/// outside the queue lock, complete each request.
fn worker_loop<K: Key, E: QueryEngine<K> + ?Sized>(
    sh: &Shared<K>,
    engine: &E,
    config: SchedulerConfig,
) {
    let mut wave: Vec<Request<K>> = Vec::with_capacity(config.wave_size);
    let mut keys: Vec<K> = Vec::with_capacity(config.wave_size);
    let mut results: Vec<Option<u64>> = Vec::with_capacity(config.wave_size);
    loop {
        debug_assert!(wave.is_empty());
        {
            let mut q = sh.queue.lock().expect("scheduler queue");
            loop {
                while wave.len() < config.wave_size {
                    match q.deque.pop_front() {
                        Some(r) => wave.push(r),
                        None => break,
                    }
                }
                if wave.len() >= config.wave_size {
                    break;
                }
                if wave.is_empty() {
                    if sh.stop.load(Ordering::Acquire) {
                        return;
                    }
                    q.sleepers += 1;
                    q.idle += 1;
                    q = sh.not_empty.wait(q).expect("scheduler queue");
                    q.sleepers -= 1;
                    q.idle -= 1;
                    continue;
                }
                // Partial wave: hold it only while arrivals at the observed
                // gap would fill it before the *oldest* member's linger
                // deadline, so no request waits more than `linger` past
                // the moment a free worker first held it, and sparse
                // traffic does not wait at all. As a sleeper the worker is
                // woken by every push and decides again.
                let left =
                    (wave[0].enqueued + config.linger).saturating_duration_since(Instant::now());
                let missing = u32::try_from(config.wave_size - wave.len()).unwrap_or(u32::MAX);
                let will_fill = q.gap_ewma.is_some_and(|gap| gap.saturating_mul(missing) <= left);
                if left.is_zero() || !will_fill || sh.stop.load(Ordering::Acquire) {
                    break;
                }
                q.sleepers += 1;
                let (guard, _timeout) =
                    sh.not_empty.wait_timeout(q, left).expect("scheduler queue");
                q = guard;
                q.sleepers -= 1;
            }
        }
        let dispatched = Instant::now();
        keys.clear();
        for r in &wave {
            keys.push(r.key);
            sh.queue_wait.record(duration_ns(dispatched.saturating_duration_since(r.enqueued)));
        }
        results.clear();
        engine.get_batch(&keys, &mut results);
        sh.note_wave(wave.len());
        // One completion timestamp for the whole wave: its members finish
        // together, and per-request clock reads are pure dispatch overhead.
        let completed_at = Instant::now();
        for (req, &result) in wave.drain(..).zip(results.iter()) {
            sh.complete(req.key, &req.slot, req.enqueued, completed_at, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SortedData;
    use crate::engine::StaticEngine;
    use crate::testutil::MirrorIndex;

    fn static_engine(n: u64) -> (Arc<SortedData<u64>>, Arc<StaticEngine<u64, MirrorIndex>>) {
        let data = Arc::new(SortedData::new((0..n).map(|i| i * 2).collect()).unwrap());
        let engine = Arc::new(StaticEngine::new(MirrorIndex::over(&data), Arc::clone(&data)));
        (data, engine)
    }

    #[test]
    fn zero_config_fields_are_rejected() {
        let (_, engine) = static_engine(10);
        for cfg in [
            SchedulerConfig { wave_size: 0, ..Default::default() },
            SchedulerConfig { workers: 0, ..Default::default() },
            SchedulerConfig { queue_cap: 0, ..Default::default() },
        ] {
            assert!(RequestScheduler::new(Arc::clone(&engine), cfg).is_err());
        }
    }

    #[test]
    fn serves_hits_and_misses_like_get() {
        let (_, engine) = static_engine(1_000);
        let sched = RequestScheduler::new(Arc::clone(&engine), SchedulerConfig::default()).unwrap();
        let probes: Vec<u64> = (0..200).collect();
        let responses: Vec<Response> = probes.iter().map(|&k| sched.submit(k).unwrap()).collect();
        for (&k, r) in probes.iter().zip(&responses) {
            assert_eq!(r.wait(), engine.get(k), "key {k}");
        }
        sched.wait_idle();
        let stats = sched.stats();
        assert_eq!(stats.submitted, 200);
        assert_eq!(stats.completed, 200);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.wave_requests, 200);
        assert_eq!(stats.checksum, oracle_checksum(&*engine, &probes));
        assert_eq!(sched.latency().count(), 200);
    }

    #[test]
    fn single_request_dispatches_within_linger() {
        let (data, engine) = static_engine(100);
        let cfg = SchedulerConfig {
            wave_size: 64,
            linger: Duration::from_micros(200),
            ..Default::default()
        };
        let sched = RequestScheduler::new(engine, cfg).unwrap();
        let t0 = Instant::now();
        let r = sched.submit(4).unwrap();
        assert_eq!(r.wait(), Some(data.payload(2)));
        // Far below wave_size: the linger deadline is the latest it can go.
        assert!(t0.elapsed() < Duration::from_millis(500), "linger must bound the wait");
    }

    #[test]
    fn lone_request_on_idle_scheduler_is_not_held() {
        let (data, engine) = static_engine(100);
        let cfg = SchedulerConfig {
            wave_size: 64,
            linger: Duration::from_millis(50),
            ..Default::default()
        };
        let sched = RequestScheduler::new(engine, cfg).unwrap();
        let r = sched.submit(4).unwrap();
        assert_eq!(r.wait(), Some(data.payload(2)));
        sched.wait_idle();
        // No arrival gap is known, so nothing says the wave would fill:
        // it goes out alone at wake-up latency, not after the 50 ms linger.
        let served = Duration::from_nanos(sched.latency().max());
        assert!(served < Duration::from_millis(10), "lone request took {served:?}");
        let stats = sched.stats();
        assert_eq!((stats.waves, stats.wave_requests), (1, 1), "rides a wave of one");
    }

    #[test]
    fn back_to_back_submits_still_batch() {
        let (_, engine) = static_engine(1_000);
        let cfg = SchedulerConfig {
            wave_size: 32,
            linger: Duration::from_micros(200),
            workers: 1,
            queue_cap: 20_000,
        };
        let sched = RequestScheduler::new(Arc::clone(&engine), cfg).unwrap();
        let probes: Vec<u64> = (0..20_000u64).map(|i| i % 2_100).collect();
        for &k in &probes {
            sched.submit(k).expect("roomy queue never sheds");
        }
        sched.wait_idle();
        let stats = sched.stats();
        assert_eq!(stats.completed, 20_000);
        assert!(stats.avg_wave() >= 8.0, "dense arrivals must batch: {}", stats.avg_wave());
        assert_eq!(stats.checksum, oracle_checksum(&*engine, &probes));
    }

    #[test]
    fn sparse_arrivals_are_dispatched_without_lingering() {
        let (_, engine) = static_engine(100);
        let linger = Duration::from_millis(10);
        let cfg = SchedulerConfig { wave_size: 32, linger, workers: 1, queue_cap: 64 };
        let sched = RequestScheduler::new(engine, cfg).unwrap();
        for k in 0..12u64 {
            sched.submit(k).unwrap();
            std::thread::sleep(4 * linger);
        }
        sched.wait_idle();
        // One request per 4 lingers cannot fill a wave of 32 within a
        // linger, so none is held for company that cannot come.
        let stats = sched.stats();
        assert!(stats.avg_wave() < 2.0, "avg wave {}", stats.avg_wave());
        let wait_p50 = Duration::from_nanos(sched.queue_wait().p50());
        assert!(wait_p50 < linger / 2, "median queue wait {wait_p50:?} vs linger {linger:?}");
    }

    /// An engine recording, per looked-up key, whether the lookup ran on a
    /// scheduler worker (a thread named `sosd-serve-*`). Its first lookup
    /// sleeps for `first_stall`.
    struct ThreadTally<E: ?Sized> {
        inner: Arc<E>,
        on_worker: Mutex<Vec<bool>>,
        first_stall: Duration,
    }

    impl<E: ?Sized> ThreadTally<E> {
        fn new(inner: Arc<E>, first_stall: Duration) -> Self {
            ThreadTally { inner, on_worker: Mutex::new(Vec::new()), first_stall }
        }

        fn note(&self, keys: usize) {
            let worker =
                std::thread::current().name().is_some_and(|n| n.starts_with("sosd-serve-"));
            let first = {
                let mut seen = self.on_worker.lock().unwrap();
                seen.extend(std::iter::repeat_n(worker, keys));
                seen.len() == keys
            };
            if first {
                std::thread::sleep(self.first_stall);
            }
        }

        fn seen(&self) -> Vec<bool> {
            self.on_worker.lock().unwrap().clone()
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

    /// Twelve misses `pace` apart through a tallying engine, each awaited
    /// before the next (`check` sees each response straight after
    /// `submit`); returns the final stats, where every lookup ran, and the
    /// oracle checksum of the keys.
    fn paced_misses(
        cfg: SchedulerConfig,
        pace: Duration,
        check: impl Fn(usize, &Response),
    ) -> (SchedulerStats, Vec<bool>, u64) {
        let (_, engine) = static_engine(100);
        let tally = Arc::new(ThreadTally::new(Arc::clone(&engine), Duration::ZERO));
        let sched = RequestScheduler::new(Arc::clone(&tally), cfg).unwrap();
        let keys: Vec<u64> = (0..12u64).collect();
        for (i, &k) in keys.iter().enumerate() {
            let r = sched.submit(k).unwrap();
            check(i, &r);
            assert_eq!(r.wait(), engine.get(k), "key {k}");
            std::thread::sleep(pace);
        }
        sched.wait_idle();
        (sched.stats(), tally.seen(), oracle_checksum(&*engine, &keys))
    }

    #[test]
    fn sparse_misses_are_served_on_the_submitting_thread() {
        let linger = Duration::from_millis(2);
        let cfg = SchedulerConfig { wave_size: 32, linger, workers: 1, queue_cap: 64 };
        let (stats, seen, oracle) = paced_misses(cfg, 4 * linger, |i, r| {
            if i >= 2 {
                assert!(r.try_result().is_some(), "miss {i} is answered inside submit");
                assert!(!r.is_fast(), "an inline miss is not a fast-path hit");
            }
        });
        assert_eq!(seen.len(), 12, "one lookup per miss");
        assert!(seen[2..].iter().all(|&w| !w), "misses from the third on stay inline: {seen:?}");
        assert_eq!(stats.fast_hits, 0);
        assert_eq!((stats.waves, stats.wave_requests), (12, 12), "each miss is a wave of one");
        assert_eq!(stats.checksum, oracle);
    }

    #[test]
    fn zero_linger_never_serves_inline() {
        let cfg =
            SchedulerConfig { wave_size: 1, linger: Duration::ZERO, workers: 1, queue_cap: 64 };
        let (stats, seen, oracle) = paced_misses(cfg, Duration::from_millis(8), |_, _| {});
        assert_eq!(seen, vec![true; 12], "every lookup runs on the worker");
        assert_eq!((stats.waves, stats.wave_requests), (12, 12));
        assert_eq!(stats.checksum, oracle);
    }

    #[test]
    fn a_miss_behind_a_busy_worker_is_queued() {
        let (_, engine) = static_engine(100);
        let tally = Arc::new(ThreadTally::new(Arc::clone(&engine), Duration::from_millis(200)));
        let linger = Duration::from_millis(1);
        let cfg = SchedulerConfig { wave_size: 32, linger, workers: 1, queue_cap: 64 };
        let sched = RequestScheduler::new(Arc::clone(&tally), cfg).unwrap();
        // The first miss always queues, and its lookup holds the worker.
        let first = sched.submit(0).unwrap();
        std::thread::sleep(4 * linger);
        // The gap says sparse and the queue is empty, but no worker is
        // parked: there is no wake-up to save, so the miss queues.
        let second = sched.submit(2).unwrap();
        assert_eq!(second.try_result(), None, "queued behind the busy worker");
        assert_eq!((first.wait(), second.wait()), (engine.get(0), engine.get(2)));
        assert_eq!(tally.seen(), vec![true, true], "both lookups ran on the worker");
    }

    #[test]
    fn naive_config_is_one_request_per_wave() {
        let (_, engine) = static_engine(100);
        let cfg =
            SchedulerConfig { wave_size: 1, linger: Duration::ZERO, workers: 1, queue_cap: 1024 };
        let sched = RequestScheduler::new(engine, cfg).unwrap();
        let responses: Vec<_> = (0..50u64).map(|k| sched.submit(k).unwrap()).collect();
        for r in &responses {
            r.wait();
        }
        sched.wait_idle();
        let stats = sched.stats();
        assert_eq!(stats.waves, 50, "every request must ride its own wave");
        assert!((stats.avg_wave() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let (_, engine) = static_engine(1_000);
        let mut sched =
            RequestScheduler::new(Arc::clone(&engine), SchedulerConfig::default()).unwrap();
        let responses: Vec<_> = (0..100u64).map(|k| sched.submit(k).unwrap()).collect();
        sched.shutdown();
        for (k, r) in (0..100u64).zip(&responses) {
            assert_eq!(r.wait(), engine.get(k), "drained key {k}");
        }
        assert!(sched.submit(1).is_err(), "post-shutdown submits are shed");
    }

    #[test]
    fn fast_path_completes_without_queueing() {
        let (data, engine) = static_engine(100);
        let fast: FastProbe<u64> = Arc::new(|k| if k == 8 { Some(Some(777)) } else { None });
        let sched =
            RequestScheduler::with_fast_path(engine, SchedulerConfig::default(), fast).unwrap();
        let r = sched.submit(8).unwrap();
        assert!(r.is_fast());
        assert_eq!(r.try_result(), Some(Some(777)), "ready before any wave");
        assert_eq!(r.wait(), Some(777));
        let slow = sched.submit(10).unwrap();
        assert!(!slow.is_fast());
        assert_eq!(slow.wait(), Some(data.payload(5)));
        sched.wait_idle();
        let stats = sched.stats();
        assert_eq!(stats.fast_hits, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.wave_requests, 1, "fast hit never rode a wave");
    }

    #[test]
    fn result_mix_separates_absent_from_payloads() {
        assert_ne!(result_mix(5u64, None), result_mix(5u64, Some(0)));
        assert_ne!(result_mix(5u64, Some(1)), result_mix(5u64, Some(2)));
        assert_ne!(result_mix(5u64, None), result_mix(6u64, None));
    }
}
