//! The four workloads: their frozen sizes, their input streams, and the
//! untraced runs that produce the end-to-end metrics.
//!
//! Work is a fixed operation count — `--seconds` times a per-workload
//! constant frozen below — never a wall-clock budget, so for a given seed
//! and `--seconds` every count (hits, merges, merged entries) repeats
//! exactly. The constants were sized once so the timed section lasts about
//! `--seconds` on the 2-core reference host.

use crate::gen::{self, Op, Rng, Skew};
use crate::oracle::{Answer, Mirror, SortedOracle};
use crate::probe::{CacheRung, Data, ServeRung, ServeStats, Ticket, LINGER_US, QUEUE_CAP};
use crate::report::{Metrics, END_TO_END};
use crate::stats::{median, summarize, summarize_windows, WINDOWS};
use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::Instant;

/// Operations per timed span on the point workloads (`mixed-rw` times
/// every operation singly).
pub const BLOCK: usize = 32;
/// Ladder builds per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Delta entries that trigger a merge on the `writebehind` rung. On
/// `mixed-rw` at full scale this yields 64+ freezes, so the leveled 4×3
/// stack compacts 20+ times and folds into the base at least once.
pub const MERGE_THRESHOLD: usize = 24_000;
/// The fixed base rate of the end-to-end served latency.
pub const BASE_RATE: f64 = 100_000.0;
/// Seed of everything that is database state rather than traffic: the
/// dataset, which keys are popular, which absent keys get asked for. Only
/// the traffic — which key comes when, the arrival times — follows
/// `--seed`, so two seeds load the same stack with statistically and
/// structurally identical work (the same hot keys fall on the same cache
/// stripes) and differ only in the order of arrival.
pub const WORLD_SEED: u64 = 0x5EED_0011;
/// Latency booked for a shed request: it misses any limit.
pub const SHED_LATENCY_NS: f64 = 1e9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointCold,
    PointHot,
    MixedRw,
    ServeOpenloop,
}

/// One workload's frozen shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub dataset: &'static str,
    /// Keys generated at full scale.
    pub keys: usize,
    pub clients: usize,
    /// Operations per timed span.
    pub block: usize,
    /// Operations per `--seconds` second, all clients together (paced
    /// requests for `serve-openloop` come from [`BASE_RATE`] instead).
    pub ops_per_second: usize,
    /// Length of one client's stream; a client cycles through it (0: the
    /// stream is as long as the run, no cycling).
    pub cycle: usize,
    /// Operations replayed per rung by the traced run, per second.
    pub trace_ops_per_second: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "point-cold",
        kind: Kind::PointCold,
        dataset: "osm",
        keys: 10_000_000,
        clients: 1,
        block: BLOCK,
        ops_per_second: 1_250_000,
        cycle: 1 << 22,
        trace_ops_per_second: 100_000,
    },
    Spec {
        name: "point-hot",
        kind: Kind::PointHot,
        dataset: "amzn",
        keys: 10_000_000,
        clients: 2,
        block: BLOCK,
        ops_per_second: 4_000_000,
        cycle: 1 << 22,
        trace_ops_per_second: 100_000,
    },
    Spec {
        name: "mixed-rw",
        kind: Kind::MixedRw,
        dataset: "amzn",
        keys: 8_000_000,
        clients: 1,
        block: 1,
        ops_per_second: 750_000,
        cycle: 0,
        trace_ops_per_second: 100_000,
    },
    Spec {
        name: "serve-openloop",
        kind: Kind::ServeOpenloop,
        dataset: "amzn",
        keys: 10_000_000,
        clients: 1,
        block: BLOCK,
        // The drain phase; the paced phase adds BASE_RATE * seconds / 2.
        ops_per_second: 800_000,
        cycle: 1 << 22,
        trace_ops_per_second: 100_000,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every reported number uses.
    Full,
    /// 1/50 of the keys and operations: seconds, for the package's own
    /// tests only.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn shrink(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 50).max(1),
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub spec: Spec,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: u64,
}

impl Run {
    pub fn keys(&self) -> usize {
        self.scale.shrink(self.spec.keys)
    }

    pub fn merge_threshold(&self) -> usize {
        self.scale.shrink(MERGE_THRESHOLD)
    }

    /// Operations of the untraced timed section, all clients together.
    pub fn total_ops(&self) -> usize {
        self.scale.shrink(self.spec.ops_per_second * self.seconds as usize)
    }

    pub fn cycle(&self) -> usize {
        self.scale.shrink(self.spec.cycle)
    }

    pub fn trace_ops(&self) -> usize {
        self.scale.shrink(self.spec.trace_ops_per_second * self.seconds as usize)
    }

    /// Requests of the paced phase at `rate` for `share` of `--seconds`.
    pub fn paced_requests(&self, rate: f64, share: f64) -> usize {
        self.scale.shrink((rate * self.seconds as f64 * share) as usize)
    }
}

/// The inputs of one run, all generated before the clock starts.
pub struct Inputs {
    /// The dataset the ladder is built over (for `mixed-rw`, the
    /// bulk-loaded half).
    pub data: Data,
    /// One stream per client.
    pub streams: Vec<Vec<Op>>,
    /// Expected answer of every operation of every stream.
    pub expected: Vec<Vec<Answer>>,
    pub inputs_hash: u64,
    pub gen_ms: f64,
    pub oracle_ms: f64,
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generate the dataset, `clients` streams of `len` operations each, and
/// their expected answers.
pub fn make_inputs(run: &Run, clients: usize, len: usize) -> Inputs {
    let t = Instant::now();
    let generated = Data::generate(run.spec.dataset, run.keys(), WORLD_SEED);
    let gen_ms = ms_since(t);
    let mut world_rng = Rng::new(WORLD_SEED, 0);
    let client_rng = |c: usize| Rng::new(run.seed, 1 + c as u64);

    let (data, streams): (Data, Vec<Vec<Op>>) = match run.spec.kind {
        Kind::PointCold => {
            let streams = (0..clients)
                .map(|c| gen::uniform_gets(generated.keys(), len, &mut client_rng(c)))
                .collect();
            (generated.clone(), streams)
        }
        Kind::PointHot | Kind::ServeOpenloop => {
            let skew = Skew::new(generated.keys(), &mut world_rng);
            let streams = (0..clients)
                .map(|c| skew.gets(generated.keys(), len, &mut client_rng(c)))
                .collect();
            (generated.clone(), streams)
        }
        Kind::MixedRw => {
            let (keys, payloads) = gen::bulk_half(generated.keys(), generated.payloads());
            let streams = (0..clients)
                .map(|c| gen::mixed_ops(generated.keys(), len, &mut world_rng, &mut client_rng(c)))
                .collect();
            (Data::from_columns(keys, payloads), streams)
        }
    };

    let t = Instant::now();
    let expected = match run.spec.kind {
        Kind::MixedRw => {
            assert_eq!(clients, 1, "the mirror replays one ordered stream");
            vec![Mirror::bulk(data.keys(), data.payloads()).expected(&streams[0])]
        }
        _ => {
            let oracle = SortedOracle::new(data.keys(), data.payloads());
            streams.iter().map(|s| oracle.expected(s, 2)).collect()
        }
    };
    let oracle_ms = ms_since(t);

    let mut inputs_hash = gen::hash_u64s(run.seed, data.keys().iter().copied());
    inputs_hash = gen::hash_u64s(inputs_hash, data.payloads().iter().copied());
    for s in &streams {
        inputs_hash = gen::hash_ops(inputs_hash, s);
    }
    Inputs { data, streams, expected, inputs_hash, gen_ms, oracle_ms }
}

/// Build the top rung [`SETUP_REPEATS`] times, keeping the last build;
/// returns it with every build's seconds.
pub fn repeated_build<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), secs)
}

/// What one closed-loop client measured.
#[derive(Debug, Default)]
pub struct ClientOutcome {
    /// ns per operation of every timed span, in execution order.
    pub span_ns_per_op: Vec<f32>,
    pub failed: u64,
    /// Merge cycles whose fold rebuilt the base.
    pub base_folds: u64,
}

/// One closed-loop client: `total` operations cycling through `ops`, a
/// timed span per `block` operations. Every answer is compared with
/// `expected` as it arrives — the comparison is the client reading its
/// reply, a few ns per block of sequential memory, and it is inside the
/// span; nothing is buffered, so no bulk check ever sweeps the CPU caches
/// between spans.
pub fn closed_loop_client(
    cache: &CacheRung,
    ops: &[Op],
    expected: &[Answer],
    total: usize,
    block: usize,
    start: &Barrier,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    out.span_ns_per_op.reserve(total / block + 1);
    let mut merges = cache.merges();
    let mut base_len = cache.counters().base_len;
    let mut remaining = total;
    start.wait();
    while remaining > 0 {
        let cycle_len = remaining.min(ops.len());
        let mut stamp = Instant::now();
        for (ops, expected) in ops[..cycle_len].chunks(block).zip(expected.chunks(block)) {
            for (op, want) in ops.iter().zip(expected) {
                out.failed += (cache.apply(*op) != *want) as u64;
            }
            let now = Instant::now();
            out.span_ns_per_op.push((now - stamp).as_nanos() as f32 / ops.len() as f32);
            stamp = now;
            let m = cache.merges();
            if m != merges {
                merges = m;
                let len = cache.counters().base_len;
                out.base_folds += (len != base_len) as u64;
                base_len = len;
                stamp = Instant::now();
            }
        }
        remaining -= cycle_len;
    }
    out
}

/// Untimed cache warm-up: the tail of the stream, so the timed cycles that
/// follow start from the steady state a long-running server is in.
pub fn warm_up(cache: &CacheRung, ops: &[Op], count: usize) {
    for op in &ops[ops.len() - count.min(ops.len())..] {
        std::hint::black_box(cache.apply(*op));
    }
}

/// What a run, untraced or traced, hands back.
pub struct Outcome {
    pub metrics: Metrics,
    pub inputs_hash: u64,
    pub attempted: u64,
    /// Answers that differ from the oracle's.
    pub mismatched: u64,
    /// Requests refused at the base rate: they count as failed operations
    /// (and as missing any latency limit), not as wrong answers.
    pub shed: u64,
    /// Guards that cannot trip by chance (counts that repeat exactly): the
    /// run is refused.
    pub invalid: Vec<String>,
    /// Guards the host can trip: the run is reported and flagged.
    pub disturbed: Vec<String>,
}

/// The closed-loop workloads: `point-cold`, `point-hot`, `mixed-rw`.
pub fn run_closed_loop(run: &Run) -> Outcome {
    let spec = run.spec;
    let per_client = run.total_ops() / spec.clients;
    let stream_len = if spec.cycle == 0 { per_client } else { run.cycle() };
    let inputs = make_inputs(run, spec.clients, stream_len);
    let (cache, build_secs) =
        repeated_build(|| CacheRung::build(&inputs.data, run.merge_threshold()));
    if spec.cycle != 0 {
        warm_up(&cache, &inputs.streams[0], stream_len / 4);
    }

    let start = Barrier::new(spec.clients);
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .zip(&inputs.expected)
            .map(|(ops, expected)| {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    closed_loop_client(cache, ops, expected, per_client, spec.block, start)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let attempted = (per_client * spec.clients) as u64;
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    // Span k of a stream that cycles is operation block k mod (cycle/block).
    let is_get = |client: usize, span: usize| {
        let first_op = (span * spec.block) % stream_len;
        matches!(inputs.streams[client][first_op], Op::Get(_))
    };
    // Each client's spans are cut into WINDOWS consecutive windows. A
    // window's throughput is its operations over its time; the reported
    // throughput is the clients' median windows added up, the reported
    // latencies are medians over every client's windows — so a stretch in
    // which the host stalled moves one window, not the result.
    let mut throughput = 0.0;
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut get_spans = 0;
    for (c, o) in outcomes.iter().enumerate() {
        let window = o.span_ns_per_op.len().div_ceil(WINDOWS);
        let mut per_window = Vec::with_capacity(WINDOWS);
        for (w, spans) in o.span_ns_per_op.chunks(window).enumerate() {
            let ns_per_op = spans.iter().map(|&v| f64::from(v)).sum::<f64>() / spans.len() as f64;
            per_window.push(1e3 / ns_per_op);
            let mut gets: Vec<f64> = spans
                .iter()
                .enumerate()
                .filter(|(i, _)| is_get(c, w * window + i))
                .map(|(_, &v)| f64::from(v))
                .collect();
            let summary = summarize(&mut gets, 0.99);
            p50s.push(summary.p50);
            p99s.push(summary.tail);
            get_spans += summary.samples;
        }
        let shown: Vec<String> = per_window.iter().map(|t| format!("{t:.3}")).collect();
        eprintln!("stackbench: client {c} Mops/s per window: {}", shown.join(" "));
        throughput += median(&mut per_window);
    }

    let mut m = Metrics::new(END_TO_END);
    m.put("setup_s", median(&mut build_secs.clone()), build_secs.len());
    m.put("mem_bytes_per_key", cache.size_bytes() as f64 / inputs.data.len() as f64, 1);
    m.put("throughput_mops", throughput, attempted as usize);
    m.put("get_ns_p50", median(&mut p50s), get_spans);
    m.put("get_ns_p99", median(&mut p99s), get_spans);

    let mut invalid = Vec::new();
    if spec.kind == Kind::MixedRw {
        // Background work must have completed several cycles, or the run
        // says nothing about merges, compactions and folds.
        let c = cache.counters();
        let folds: u64 = outcomes.iter().map(|o| o.base_folds).sum();
        let cycles = format!(
            "mixed-rw completed {} freezes, {} level compactions, {} base folds",
            c.merges, c.compactions, folds
        );
        eprintln!("stackbench: {cycles}");
        if run.scale == Scale::Full && (c.merges < 16 || c.compactions < 4 || folds < 1) {
            invalid.push(format!("{cycles}; it needs 16, 4 and 1"));
        }
    }
    Outcome {
        metrics: m,
        inputs_hash: inputs.inputs_hash,
        attempted,
        mismatched: failed,
        shed: 0,
        invalid,
        disturbed: Vec::new(),
    }
}

/// What one paced open-loop phase measured.
#[derive(Debug, Default)]
pub struct PacedOutcome {
    /// Due time → completion of every request, ns ([`SHED_LATENCY_NS`] for
    /// a shed one).
    pub served_ns: Vec<f64>,
    /// How late the generator sent each request, ns.
    pub late_ns: Vec<f64>,
    /// Duration of each `submit` call, ns.
    pub submit_ns: Vec<f64>,
    pub shed: u64,
    pub failed: u64,
    /// Requests still queued when the last one was sent: a backlog that
    /// grows with the run shows here.
    pub backlog_at_end: usize,
}

/// Replay an open-loop schedule from one generator thread: send each
/// request when it is due, never waiting for answers, and stamp
/// completions by polling the outstanding handles between sends.
pub fn paced_phase(
    serve: &ServeRung,
    ops: &[Op],
    due_ns: &[u64],
    expected: &[Answer],
) -> PacedOutcome {
    let n = due_ns.len();
    let mut out = PacedOutcome {
        served_ns: vec![0.0; n],
        late_ns: Vec::with_capacity(n),
        submit_ns: Vec::with_capacity(n),
        ..Default::default()
    };
    let mut outstanding: VecDeque<(usize, Ticket)> = VecDeque::new();
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    // One worker completes waves in order, so only the oldest handle can
    // be the next to finish.
    let reap = |outstanding: &mut VecDeque<(usize, Ticket)>, out: &mut PacedOutcome| {
        while let Some((i, ticket)) = outstanding.front() {
            let Some(answer) = ticket.poll() else { break };
            out.served_ns[*i] = now_ns().saturating_sub(due_ns[*i]) as f64;
            out.failed += (answer != expected[*i]) as u64;
            outstanding.pop_front();
        }
    };
    for i in 0..n {
        let key = ops[i].get_key();
        let mut now = now_ns();
        while now < due_ns[i] {
            reap(&mut outstanding, &mut out);
            std::hint::spin_loop();
            now = now_ns();
        }
        out.late_ns.push((now - due_ns[i]) as f64);
        let ticket = serve.submit(key);
        let after = now_ns();
        out.submit_ns.push((after - now) as f64);
        match ticket {
            None => {
                out.shed += 1;
                out.served_ns[i] = SHED_LATENCY_NS;
            }
            Some(ticket) => match ticket.poll() {
                Some(answer) => {
                    out.served_ns[i] = after.saturating_sub(due_ns[i]) as f64;
                    out.failed += (answer != expected[i]) as u64;
                }
                None => outstanding.push_back((i, ticket)),
            },
        }
    }
    out.backlog_at_end = outstanding.len();
    while !outstanding.is_empty() {
        reap(&mut outstanding, &mut out);
        std::hint::spin_loop();
    }
    out
}

/// Attempts a base-rate paced phase gets before its lateness is final.
pub const PACED_ATTEMPTS: usize = 2;

/// A base-rate paced phase together with what the scheduler recorded and
/// the generator's p99 lateness in ns (median over windows).
pub struct BasePhase {
    pub paced: PacedOutcome,
    pub stats: ServeStats,
    pub late_p99_ns: f64,
}

impl BasePhase {
    /// The generator-lateness guard: offered load is what the schedule
    /// says only while the generator sends within the linger. On a shared
    /// host the usual cause is the host, not the program, so this marks
    /// the run *disturbed* — reported, flagged, refused as a trajectory
    /// point — rather than failing a command other tools gate on.
    pub fn guard(&self, run: &Run, disturbed: &mut Vec<String>) {
        if run.scale == Scale::Full && self.late_p99_ns > LATE_LIMIT_NS {
            disturbed.push(format!(
                "the generator ran {:.1} us late at p99, beyond the {LINGER_US} us linger: the \
                 served latencies of this run are the host's, not the program's",
                self.late_p99_ns / 1e3
            ));
        }
    }
}

const LATE_LIMIT_NS: f64 = LINGER_US as f64 * 1e3;

/// The paced phase at the base rate, on a fresh scheduler. A host stall
/// long enough to make the generator late or the queue shed says nothing
/// about the program, so such a phase is measured again (once) instead of
/// being reported; what the last attempt saw is final. `ops` and `expected`
/// hold one stretch of `due_ns.len()` requests per attempt, so a second
/// attempt does not find the first one's keys freshly cached.
pub fn base_rate_phase(
    cache: &CacheRung,
    ops: &[Op],
    due_ns: &[u64],
    expected: &[Answer],
) -> BasePhase {
    let n = due_ns.len();
    assert_eq!(ops.len(), n * PACED_ATTEMPTS);
    let mut last: Option<BasePhase> = None;
    for (ops, expected) in ops.chunks(n).zip(expected.chunks(n)) {
        if let Some(disturbed) = &last {
            eprintln!(
                "stackbench: paced phase disturbed (generator p99 {:.1} us late, {} shed): \
                 measuring it again",
                disturbed.late_p99_ns / 1e3,
                disturbed.paced.shed
            );
        }
        let serve = ServeRung::start(cache, QUEUE_CAP);
        let paced = paced_phase(&serve, ops, due_ns, expected);
        serve.wait_idle();
        let late_p99_ns = summarize_windows(&paced.late_ns, 0.99).tail;
        let quiet = late_p99_ns <= LATE_LIMIT_NS && paced.shed == 0;
        last = Some(BasePhase { paced, stats: serve.stats(), late_p99_ns });
        if quiet {
            break;
        }
    }
    last.expect("at least one attempt")
}

/// Submit requests back to back into a queue that cannot shed, in
/// [`WINDOWS`] stretches, waiting after each for its last completion.
/// Returns the median stretch's throughput in Mops/s and the failures.
pub fn drain_phase(cache: &CacheRung, ops: &[Op], expected: &[Answer]) -> (f64, u64) {
    let stretch = ops.len().div_ceil(WINDOWS).max(1);
    let serve = ServeRung::start(cache, stretch);
    let mut failed = 0u64;
    let mut sum = 0u64;
    let mut mops = Vec::with_capacity(WINDOWS);
    for (ops, expected) in ops.chunks(stretch).zip(expected.chunks(stretch)) {
        let start = Instant::now();
        let tickets: Vec<Option<Ticket>> =
            ops.iter().map(|op| serve.submit(op.get_key())).collect();
        serve.wait_idle();
        mops.push(ops.len() as f64 / start.elapsed().as_secs_f64() / 1e6);
        for ((ticket, want), op) in tickets.iter().zip(expected).zip(ops) {
            failed += ticket.as_ref().is_none_or(|t| t.wait() != *want) as u64;
            sum = sum.wrapping_add(crate::probe::completion_mix(op.get_key(), *want));
        }
    }
    // The scheduler's own commutative digest must agree with the oracle's
    // whenever every single answer did.
    if failed == 0 && serve.stats().checksum != sum {
        failed = 1;
    }
    (median(&mut mops), failed)
}

/// `serve-openloop`: a paced phase at [`BASE_RATE`] for half of
/// `--seconds`, then the drain.
pub fn run_serve_openloop(run: &Run) -> Outcome {
    let paced = run.paced_requests(BASE_RATE * 1.25, 0.5);
    let spare = paced * PACED_ATTEMPTS;
    let drain = run.total_ops();
    let inputs = make_inputs(run, 1, spare + drain);
    let (ops, expected) = (&inputs.streams[0], &inputs.expected[0]);
    let due = gen::poisson_schedule(BASE_RATE, paced, &mut Rng::new(run.seed, 1 << 32));
    let inputs_hash = gen::hash_u64s(inputs.inputs_hash, due.iter().copied());

    let ((cache, serve), build_secs) = repeated_build(|| {
        let cache = CacheRung::build(&inputs.data, run.merge_threshold());
        let serve = ServeRung::start(&cache, QUEUE_CAP);
        (cache, serve)
    });
    drop(serve);
    warm_up(&cache, ops, run.cycle() / 4);

    let base = base_rate_phase(&cache, &ops[..spare], &due, &expected[..spare]);
    let (drain_mops, drain_failed) = drain_phase(&cache, &ops[spare..], &expected[spare..]);
    let served = summarize_windows(&base.paced.served_ns, 0.99);

    let mut m = Metrics::new(END_TO_END);
    m.put("setup_s", median(&mut build_secs.clone()), build_secs.len());
    m.put("mem_bytes_per_key", cache.size_bytes() as f64 / inputs.data.len() as f64, 1);
    m.put("throughput_mops", drain_mops, drain);
    m.put("get_ns_p50", served.p50, served.samples);
    m.put("get_ns_p99", served.tail, served.samples);

    let mut disturbed = Vec::new();
    base.guard(run, &mut disturbed);
    Outcome {
        metrics: m,
        inputs_hash,
        attempted: (paced + drain) as u64,
        mismatched: base.paced.failed + drain_failed,
        shed: base.paced.shed,
        invalid: Vec::new(),
        disturbed,
    }
}

pub fn run_untraced(run: &Run) -> Outcome {
    match run.spec.kind {
        Kind::ServeOpenloop => run_serve_openloop(run),
        _ => run_closed_loop(run),
    }
}
