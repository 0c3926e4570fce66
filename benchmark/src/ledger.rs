//! The traced run: an outside-in per-layer ledger.
//!
//! Every rung of the ladder is built alone, with its own copy of the
//! workload's dataset, and the workload's stream is replayed through each
//! in the same blocks. One span is recorded per block at each rung boundary
//! (rung, block id, operations, start, end; the parent is the rung above).
//! A rung replays what reaches it: `cache` sees the whole stream, and its
//! miss counter, read after every operation, says what it handed down.
//! The benchmark cannot see inside the program, so a layer's self time for
//! a block is `span(rung k) − span(rung k−1)` for the same block id — the
//! outside-in form of "span minus children" — per operation that reached
//! rung k, and `<layer>.self_ns` is the median of those. The replay goes in
//! stretches (see [`STRETCH_OPS`]): the spans one self time subtracts are
//! taken moments apart, yet no rung's pass pre-loads the CPU caches for the
//! next.
//!
//! Around the replay, short probes measure what a block replay cannot:
//! model inference and last-mile search apart, batch paths, pinned reads,
//! hit and miss paths, the write path, a rate ladder through the
//! scheduler, and the storage side rung. Every probe runs on every
//! workload, on that workload's dataset and key stream.

use crate::gen::{self, Op, Rng};
use crate::oracle::{mismatches, Answer, Mirror, SortedOracle};
use crate::probe::{
    CacheRung, EngineRung, IndexRung, ServeRung, ShardRung, StoreRung, WbCounters, WbRung,
    QUEUE_CAP,
};
use crate::report::{Metrics, PER_LAYER};
use crate::stats::{mean, median, summarize, summarize_windows};
use crate::workloads::{
    base_rate_phase, drain_phase, make_inputs, ms_since, paced_phase, Kind, Outcome, Run,
    BASE_RATE, PACED_ATTEMPTS,
};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The ladder, bottom to top. A span's parent is the next name.
pub const RUNGS: [&str; 6] = ["index", "engine", "shard", "writebehind", "cache", "serve"];
const INDEX: usize = 0;
const ENGINE: usize = 1;
const SHARD: usize = 2;
const WRITEBEHIND: usize = 3;
const CACHE: usize = 4;
const SERVE: usize = 5;

/// Most blocks the `serve` rung replays (and never more than half the
/// stream): a closed-loop block that leaves a partial wave waits out the
/// linger, so the full stream would take minutes.
const SERVE_REPLAY_BLOCKS: usize = 4096;
/// Operations per stretch of the ladder replay: every rung replays one
/// stretch before any replays the next, so the spans a self time subtracts
/// were taken moments apart, under the same host conditions — and a
/// stretch touches several times more memory than the L2 holds, so one
/// rung's pass does not pre-load the CPU caches for the next. A multiple of
/// every block size.
const STRETCH_OPS: usize = 1 << 16;
/// Gets the short probes (batch paths, pinned reads, storage) replay.
const PROBE_GETS: usize = 1 << 16;
const BATCH: usize = 256;
const RANGE_PROBES: usize = 2048;
/// Spans per rung written to the trace file (medians use all of them).
const TRACE_FILE_SPANS: usize = 4096;
/// Fixed rates of the ladder through the scheduler, requests per second.
const RATE_LADDER: [f64; 5] = [100_000.0, 200_000.0, 300_000.0, 450_000.0, 600_000.0];
/// The served-latency limit of `serve.slo_rate_kreq_s`: p99 within 1 ms.
const SLO_NS: f64 = 1e6;

/// One call block at one rung boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub rung: u8,
    /// Block id: the same block of the stream carries the same id at every
    /// rung it reaches.
    pub block: u32,
    /// Operations of the block that reached this rung.
    pub ops: u32,
    /// Whether the block holds gets (on `mixed-rw` a block is one
    /// operation of any kind).
    pub get: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }

    pub fn ns_per_op(&self) -> f64 {
        self.ns() / self.ops as f64
    }
}

/// Outside-in self time of the upper rung, ns per operation that reached
/// it: for every block, its span minus the span of the same block id one
/// rung down. A block the lower rung never saw (every operation was
/// answered above it) has no child span, so all of its time is the upper
/// rung's own. Both slices are in block order.
pub fn self_times(upper: &[Span], lower: &[Span]) -> Vec<f64> {
    let mut lower = lower.iter().peekable();
    upper
        .iter()
        .map(|u| {
            while lower.next_if(|l| l.block < u.block).is_some() {}
            let child = lower.next_if(|l| l.block == u.block).map_or(0.0, Span::ns);
            (u.ns() - child) / u.ops as f64
        })
        .collect()
}

/// The part of a stream that reaches one rung: its operations, the answers
/// the rung must give, and the block each operation belongs to.
#[derive(Debug, Clone, Default)]
struct Reach {
    ops: Vec<Op>,
    expected: Vec<Answer>,
    /// `(block id, start, end)` into `ops`, in block order, none empty.
    blocks: Vec<(u32, usize, usize)>,
}

impl Reach {
    /// A stretch of the stream in blocks of `block` operations, the first
    /// of which has id `first_block`.
    fn whole(ops: &[Op], expected: &[Answer], block: usize, first_block: usize) -> Self {
        let blocks = (0..ops.len().div_ceil(block))
            .map(|b| ((first_block + b) as u32, b * block, ((b + 1) * block).min(ops.len())))
            .collect();
        Reach { ops: ops.to_vec(), expected: expected.to_vec(), blocks }
    }

    /// The operations `keep` lets through to the rung below, with the
    /// answer `answer` says that rung owes; blocks left empty disappear.
    fn below(
        &self,
        keep: impl Fn(usize, Op) -> bool,
        answer: impl Fn(usize, Op) -> Answer,
    ) -> Self {
        let mut out = Reach::default();
        for &(id, start, end) in &self.blocks {
            let first = out.ops.len();
            for i in (start..end).filter(|&i| keep(i, self.ops[i])) {
                out.ops.push(self.ops[i]);
                out.expected.push(answer(i, self.ops[i]));
            }
            if out.ops.len() > first {
                out.blocks.push((id, first, out.ops.len()));
            }
        }
        out
    }

    fn gets(&self, limit: usize) -> (Vec<u64>, Vec<Answer>) {
        gets_of(&self.ops, &self.expected, limit)
    }
}

/// Up to `limit` get keys of a stream with their answers, in stream order.
fn gets_of(ops: &[Op], expected: &[Answer], limit: usize) -> (Vec<u64>, Vec<Answer>) {
    ops.iter()
        .zip(expected)
        .filter_map(|(op, want)| if let Op::Get(k) = op { Some((*k, *want)) } else { None })
        .take(limit)
        .unzip()
}

struct Clock(Instant);

impl Clock {
    fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Correctness tally over every replay and probe of the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Answers that differ from the oracle's.
    failed: u64,
    /// Requests shed at the base rate.
    shed: u64,
}

impl Tally {
    fn check(&mut self, got: &[Answer], want: &[Answer]) {
        self.attempted += got.len() as u64;
        self.failed += mismatches(got, want);
    }
}

/// Replay what reaches one rung through it, one span per block, checking
/// every answer.
fn replay(
    clock: &Clock,
    rung: usize,
    reach: &Reach,
    mut exec: impl FnMut(&[Op], &mut Vec<Answer>),
    tally: &mut Tally,
) -> Vec<Span> {
    let mut spans = Vec::with_capacity(reach.blocks.len());
    let mut answers = Vec::new();
    for &(block, start, end) in &reach.blocks {
        let chunk = &reach.ops[start..end];
        answers.clear();
        let start_ns = clock.ns();
        exec(chunk, &mut answers);
        let end_ns = clock.ns();
        spans.push(Span {
            rung: rung as u8,
            block,
            ops: chunk.len() as u32,
            get: matches!(chunk[0], Op::Get(_)),
            start_ns,
            end_ns,
        });
        tally.check(&answers, &reach.expected[start..end]);
    }
    spans
}

/// A block executor that applies operations one by one.
fn one_by_one(apply: impl Fn(Op) -> Answer) -> impl FnMut(&[Op], &mut Vec<Answer>) {
    move |ops, out| out.extend(ops.iter().map(|&op| apply(op)))
}

/// Spans whose block holds gets.
fn get_spans(spans: &[Span]) -> Vec<Span> {
    spans.iter().copied().filter(|s| s.get).collect()
}

fn median_ns_per_op(spans: &[Span]) -> (f64, usize) {
    let mut v: Vec<f64> = spans.iter().map(Span::ns_per_op).collect();
    (median(&mut v), v.len())
}

/// Time `exec` over `keys` in blocks; returns the median ns per key.
fn time_blocks(keys: &[u64], block: usize, mut exec: impl FnMut(&[u64])) -> (f64, usize) {
    let mut v: Vec<f64> = keys
        .chunks(block)
        .map(|chunk| {
            let t = Instant::now();
            exec(chunk);
            t.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    (median(&mut v), v.len())
}

/// Median cost of reading the clock twice.
fn timer_overhead_ns() -> (f64, usize) {
    let mut v: Vec<f64> = (0..100_000)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    (median(&mut v), v.len())
}

/// The write-path metrics, from the write spans of a `writebehind` replay.
fn write_metrics(
    m: &mut Metrics,
    spans: &[Span],
    ops: &[Op],
    before: WbCounters,
    after: WbCounters,
) {
    let of = |pick: fn(&Op) -> bool| -> Vec<f64> {
        spans.iter().filter(|s| pick(&ops[s.block as usize])).map(Span::ns_per_op).collect()
    };
    let mut inserts = of(|op| matches!(op, Op::Insert(..)));
    let mut removes = of(|op| matches!(op, Op::Remove(_)));
    let mut writes = of(Op::is_write);
    m.put("writebehind.insert_ns", median(&mut inserts), inserts.len());
    m.put("writebehind.remove_ns", median(&mut removes), removes.len());
    let stalls: Vec<f64> = writes.iter().copied().filter(|&ns| ns > 1e6).collect();
    m.put("writebehind.stall_ms_total", stalls.iter().sum::<f64>() / 1e6, stalls.len());
    m.put(
        "writebehind.stall_ms_max",
        writes.iter().copied().fold(0.0, f64::max) / 1e6,
        writes.len(),
    );
    let w = summarize(&mut writes, 0.99);
    m.put("writebehind.write_ns_p50", w.p50, w.samples);
    m.put("writebehind.write_ns_p99", w.tail, w.samples);
    let merged = after.merged_entries - before.merged_entries;
    m.put("writebehind.write_amp", merged as f64 / w.samples as f64, w.samples);
    m.put("writebehind.merges", (after.merges - before.merges) as f64, 1);
    m.put("writebehind.compactions", (after.compactions - before.compactions) as f64, 1);
    m.put("writebehind.merged_entries", merged as f64, 1);
    m.put("writebehind.run_count_end", after.run_count as f64, 1);
}

/// The rate ladder through the `serve` rung plus the drain.
fn serve_probes(
    m: &mut Metrics,
    run: &Run,
    cache: &CacheRung,
    ops: &[Op],
    expected: &[Answer],
    tally: &mut Tally,
    disturbed: &mut Vec<String>,
) {
    let mut slo_rate = 0.0;
    let mut slo_open = true;
    // Each step takes the next stretch of the stream (wrapping around), so
    // no step replays keys the one before it just made resident.
    let mut at = 0;
    let mut stretch = |n: usize| -> (Vec<Op>, Vec<Answer>) {
        let picks = (at..at + n).map(|i| i % ops.len());
        at += n;
        (picks.clone().map(|i| ops[i]).collect(), picks.map(|i| expected[i]).collect())
    };
    for (step, rate) in RATE_LADDER.into_iter().enumerate() {
        // The base rate runs three times as long as the other steps: its
        // numbers are reported one by one, and its lateness guard needs
        // windows long enough that one short stall does not fill a p99.
        let base = rate == BASE_RATE;
        let n = run.paced_requests(rate * 1.25, if base { 0.15 } else { 0.05 });
        let due = gen::poisson_schedule(rate, n, &mut Rng::new(run.seed, (2 << 32) + step as u64));
        tally.attempted += n as u64;
        let p = if base {
            let (ops, expected) = stretch(n * PACED_ATTEMPTS);
            let base = base_rate_phase(cache, &ops, &due, &expected);
            base.guard(run, disturbed);
            tally.shed += base.paced.shed;
            let stats = base.stats;
            m.put("serve.generator_late_us_p99", base.late_p99_ns / 1e3, n);
            m.put("serve.submit_ns", median(&mut base.paced.submit_ns.clone()), n);
            let waved = (stats.completed - stats.fast_hits) as usize;
            m.put("serve.queue_wait_us_p50", stats.queue_wait_ns_p50 as f64 / 1e3, waved);
            m.put("serve.queue_wait_us_p99", stats.queue_wait_ns_p99 as f64 / 1e3, waved);
            m.put("serve.internal_us_p50", stats.internal_ns_p50 as f64 / 1e3, n);
            m.put("serve.avg_wave", stats.avg_wave, waved);
            m.put("serve.fast_hit_ratio", stats.fast_hits as f64 / stats.submitted as f64, n);
            m.put("serve.shed_ratio", stats.shed as f64 / stats.submitted as f64, n);
            m.put("serve.peak_queue", stats.peak_queue as f64, n);
            base.paced
        } else {
            // Above the base rate sheds are an outcome, not a failure.
            let (ops, expected) = stretch(n);
            let serve = ServeRung::start(cache, QUEUE_CAP);
            paced_phase(&serve, &ops, &due, &expected)
        };
        tally.failed += p.failed;
        let served = summarize_windows(&p.served_ns, 0.99);
        // The limit holds at a rate only if nothing was shed and no
        // backlog was left growing; the reported rate is the highest one
        // below the first failure.
        let backlog_grew = p.backlog_at_end > QUEUE_CAP / 2;
        if slo_open && served.tail <= SLO_NS && p.shed == 0 && !backlog_grew {
            slo_rate = rate;
        } else {
            slo_open = false;
        }
        let rate_k = (rate / 1e3) as u64;
        if rate_k == 100 || rate_k == 300 {
            m.put(&format!("serve.served_us_p50_r{rate_k}"), served.p50 / 1e3, served.samples);
            m.put(&format!("serve.served_us_p99_r{rate_k}"), served.tail / 1e3, served.samples);
        }
    }
    m.put("serve.slo_rate_kreq_s", slo_rate / 1e3, RATE_LADDER.len());

    let n = run.trace_ops();
    let (ops, expected) = stretch(n);
    let (mops, failed) = drain_phase(cache, &ops, &expected);
    tally.attempted += n as u64;
    tally.failed += failed;
    m.put("serve.drain_mops", mops, n);
}

fn write_trace(path: &Path, rungs: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "{{\"rungs\": {RUNGS:?}, \"spans_per_rung_kept\": {TRACE_FILE_SPANS}, \"spans\": ["
    )?;
    let kept: Vec<&Span> = rungs.iter().flat_map(|r| r.iter().take(TRACE_FILE_SPANS)).collect();
    for (i, s) in kept.iter().enumerate() {
        let parent = match RUNGS.get(s.rung as usize + 1) {
            Some(p) => format!("\"{p}\""),
            None => "null".into(),
        };
        let comma = if i + 1 < kept.len() { "," } else { "" };
        writeln!(
            f,
            "{{\"name\": \"{}\", \"parent\": {parent}, \"block\": {}, \"ops\": {}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
            RUNGS[s.rung as usize], s.block, s.ops, s.start_ns, s.end_ns
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}

/// Time `get` over `keys` in blocks of 32; the median ns per key.
fn time_gets(keys: &[u64], get: impl Fn(u64) -> Answer) -> (f64, usize) {
    time_blocks(keys, 32, |chunk| {
        for &k in chunk {
            std::hint::black_box(get(k));
        }
    })
}

/// The traced run of one workload; writes the spans to `trace_path`.
pub fn run_traced(run: &Run, trace_path: &Path) -> std::io::Result<Outcome> {
    let block = run.spec.block;
    let mixed = run.spec.kind == Kind::MixedRw;
    let threshold = run.merge_threshold();
    let mut m = Metrics::new(PER_LAYER);
    let mut tally = Tally::default();
    let mut disturbed = Vec::new();

    // Inputs: the replayed stream, a quarter more for the tracing-overhead
    // comparison, and a warm-up tail for the stateful rungs.
    let traced = run.trace_ops() / block * block;
    let compared = traced + traced / 4 / block * block;
    let warm = if mixed { 0 } else { run.cycle() / 4 };
    let inputs = make_inputs(run, 1, compared + warm);
    let data = &inputs.data;
    let n = data.len() as f64;
    let (ops, expected) = (&inputs.streams[0][..], &inputs.expected[0][..]);
    m.put("datasets.gen_ms", inputs.gen_ms, 1);
    m.put("harness.oracle_ms", inputs.oracle_ms, ops.len());
    let (overhead, samples) = timer_overhead_ns();
    m.put("harness.timer_overhead_ns", overhead, samples);

    // The five engine rungs, each built alone over the same dataset. The
    // timed builds come first, while the process is still small: on this
    // VM memory touched for the first time beyond what earlier runs left
    // warm costs several times more, and that is not the builders' cost.
    let t = Instant::now();
    let index = IndexRung::build(data);
    m.put("index.build_ms", ms_since(t), 1);
    m.put("index.size_bytes_per_key", index.size_bytes() as f64 / n, 1);
    let t = Instant::now();
    let shard = ShardRung::build(data);
    m.put("shard.build_ms", ms_since(t), 1);
    let t = Instant::now();
    let wb = WbRung::build(data, threshold);
    m.put("writebehind.build_ms", ms_since(t), 1);
    let index = index.on_own_copy();
    let engine = EngineRung::build(data);
    let cache = CacheRung::build(data, threshold);
    crate::workloads::warm_up(&cache, ops, warm);

    // The ladder replay, one stretch of the stream at a time. `cache` sees
    // the whole stretch; its miss counter, read after every operation,
    // tells what it handed down, and that goes through `writebehind`; the
    // gets among it go through `shard`, `engine` and `index`. On mixed-rw
    // the read-only rungs hold only the bulk-loaded half, so they owe the
    // sorted oracle's answer, not the mirror's.
    let clock = Clock(Instant::now());
    let sorted = SortedOracle::new(data.keys(), data.payloads());
    let mut rungs: [Vec<Span>; 6] = Default::default();
    let (mut gets, mut gets_expected) = (Vec::new(), Vec::new());
    let (hits0, misses0) = cache.hits_misses();
    let mut misses = misses0;
    let wb_before = wb.counters();
    for start in (0..traced).step_by(STRETCH_OPS) {
        let end = (start + STRETCH_OPS).min(traced);
        let top = Reach::whole(&ops[start..end], &expected[start..end], block, start / block);
        let mut went_below = Vec::with_capacity(end - start);
        rungs[CACHE].extend(replay(
            &clock,
            CACHE,
            &top,
            |chunk, out| {
                for &op in chunk {
                    out.push(cache.apply(op));
                    let now = cache.hits_misses().1;
                    went_below.push(!matches!(op, Op::Get(_)) || now != misses);
                    misses = now;
                }
            },
            &mut tally,
        ));
        let wb_reach = top.below(|i, _| went_below[i], |i, _| top.expected[i]);
        rungs[WRITEBEHIND].extend(replay(
            &clock,
            WRITEBEHIND,
            &wb_reach,
            one_by_one(|op| wb.apply(op)),
            &mut tally,
        ));
        let static_reach = wb_reach.below(
            |_, op| matches!(op, Op::Get(_)),
            |i, op| if mixed { sorted.get(op.get_key()) } else { wb_reach.expected[i] },
        );
        let shard_spans =
            replay(&clock, SHARD, &static_reach, one_by_one(|op| shard.apply(op)), &mut tally);
        rungs[SHARD].extend(shard_spans);
        let engine_spans =
            replay(&clock, ENGINE, &static_reach, one_by_one(|op| engine.apply(op)), &mut tally);
        rungs[ENGINE].extend(engine_spans);
        let index_spans = replay(
            &clock,
            INDEX,
            &static_reach,
            one_by_one(|op| index.get(op.get_key())),
            &mut tally,
        );
        rungs[INDEX].extend(index_spans);
        // The short probes below run on keys that reach the read-only rungs.
        let (keys, want) = static_reach.gets(PROBE_GETS - gets.len());
        gets.extend(keys);
        gets_expected.extend(want);
    }
    let (hits1, misses1) = cache.hits_misses();
    let probed = (hits1 - hits0) + (misses1 - misses0);
    m.put("cache.hit_ratio", (hits1 - hits0) as f64 / probed.max(1) as f64, probed as usize);
    m.put("cache.size_bytes_per_key", cache.own_size_bytes() as f64 / n, 1);
    let wb_after = wb.counters();
    let lookups = wb_after.stack_lookups - wb_before.stack_lookups;
    let probes = wb_after.stack_probes - wb_before.stack_probes;
    let skips = wb_after.filter_skips - wb_before.filter_skips;
    m.put("writebehind.probes_per_lookup", probes as f64 / lookups.max(1) as f64, lookups as usize);
    let consults = (skips + probes) as usize;
    m.put("writebehind.filter_skip_ratio", skips as f64 / consults.max(1) as f64, consults);
    if mixed {
        write_metrics(&mut m, &rungs[WRITEBEHIND], &ops[..traced], wb_before, wb_after);
    }

    // `cache` again, alone, over the next quarter of the stream: every
    // other block records a span, the blocks between only add up their
    // time, so both kinds sample the same stretch of time.
    let mut scratch = Vec::new();
    let (mut recorded_ns, mut recorded_ops, mut plain_ns, mut plain_ops) = (0u64, 0u64, 0u64, 0u64);
    let mut answers = Vec::with_capacity(block);
    let extra = ops[traced..compared].chunks(block).zip(expected[traced..compared].chunks(block));
    for (b, (chunk, want)) in extra.enumerate() {
        answers.clear();
        let start_ns = clock.ns();
        answers.extend(chunk.iter().map(|&op| cache.apply(op)));
        let end_ns = clock.ns();
        let get = matches!(chunk[0], Op::Get(_));
        let ops = chunk.len() as u32;
        if b % 2 == 0 {
            scratch.push(Span { rung: CACHE as u8, block: b as u32, ops, get, start_ns, end_ns });
            recorded_ns += if get { end_ns - start_ns } else { 0 };
            recorded_ops += if get { ops as u64 } else { 0 };
        } else if get {
            plain_ns += end_ns - start_ns;
            plain_ops += ops as u64;
        }
        tally.check(&answers, want);
    }
    drop(scratch);
    let ratio = (recorded_ns as f64 / recorded_ops.max(1) as f64)
        / (plain_ns as f64 / plain_ops.max(1) as f64).max(f64::MIN_POSITIVE);
    m.put("harness.trace_overhead_ratio", ratio - 1.0, plain_ops as usize);
    // Hit path: keys made resident a moment ago. Miss path: uniform keys
    // the stream almost surely never touched.
    let (recent, _) = gets_of(&ops[traced..compared], &expected[traced..compared], 1024);
    recent.iter().for_each(|&k| {
        cache.get(k);
    });
    let (hit_ns, samples) = time_gets(&recent.repeat(8), |k| cache.get(k));
    m.put("cache.hit_ns", hit_ns, samples);
    let mut miss_rng = Rng::new(run.seed, 5 << 32);
    let cold: Vec<u64> =
        (0..8192).map(|_| data.keys()[miss_rng.below(data.len() as u64) as usize]).collect();
    let (miss_ns, samples) = time_gets(&cold, |k| cache.get(k));
    m.put("cache.miss_ns", miss_ns, samples);
    drop(cache);

    // `writebehind` probes: live against pinned reads of the same keys in
    // the same end state (answers are not checked against the
    // per-operation expectations once mixed-rw's writes have moved the
    // state on; the replay checked all), the batch path, ranges, and — for
    // a workload with no writes of its own — a write probe, last, so the
    // reads above saw the stack the untraced run serves from.
    let pinned = wb.pin();
    let (pinned_ns, samples) = time_gets(&gets, |k| pinned.get(k));
    let (live_ns, _) = time_gets(&gets, |k| wb.get(k));
    m.put("writebehind.pinned_get_ns", pinned_ns, samples);
    m.put("writebehind.live_pinned_ratio", live_ns / pinned_ns, samples);
    drop(pinned);
    let mut batch_out = Vec::with_capacity(gets.len());
    let (batch, samples) = time_blocks(&gets, BATCH, |keys| wb.get_batch(keys, &mut batch_out));
    if !mixed {
        tally.check(&batch_out, &gets_expected);
    }
    m.put("writebehind.batch_ns", batch, samples);
    // Range probes shared with `engine`: RANGE_SPAN positions each.
    let mut range_rng = Rng::new(run.seed, 3 << 32);
    let ranges: Vec<(u64, u64)> = (0..RANGE_PROBES)
        .map(|_| {
            let lo = range_rng.below((data.len() - gen::RANGE_SPAN) as u64) as usize;
            (data.keys()[lo], data.keys()[lo + gen::RANGE_SPAN])
        })
        .collect();
    let mut range_ns: Vec<f64> = ranges
        .iter()
        .map(|&(lo, hi)| {
            let t = Instant::now();
            std::hint::black_box(wb.range_len(lo, hi));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    m.put("writebehind.range_ns_p50", median(&mut range_ns), range_ns.len());
    if !mixed {
        let probe_ops = gen::write_probe_ops(
            data.keys(),
            threshold * 4 + threshold / 4,
            &mut Rng::new(run.seed, 4 << 32),
        );
        let want = Mirror::bulk(data.keys(), data.payloads()).expected(&probe_ops);
        let before = wb.counters();
        let spans = replay(
            &clock,
            WRITEBEHIND,
            &Reach::whole(&probe_ops, &want, 1, 0),
            one_by_one(|op| wb.apply(op)),
            &mut tally,
        );
        write_metrics(&mut m, &spans, &probe_ops, before, wb.counters());
    }
    drop(wb);

    // Batch paths of `shard` and `engine`, ranges of `engine`.
    batch_out.clear();
    let (batch, samples) = time_blocks(&gets, BATCH, |keys| shard.get_batch(keys, &mut batch_out));
    tally.check(&batch_out, &gets_expected);
    m.put("shard.batch_ns", batch, samples);
    drop(shard);
    batch_out.clear();
    let (batch, samples) = time_blocks(&gets, BATCH, |keys| engine.get_batch(keys, &mut batch_out));
    tally.check(&batch_out, &gets_expected);
    m.put("engine.batch_ns", batch, samples);
    let mut per_entry: Vec<f64> = ranges
        .iter()
        .map(|&(lo, hi)| {
            let t = Instant::now();
            let len = engine.range_len(lo, hi);
            t.elapsed().as_nanos() as f64 / len.max(1) as f64
        })
        .collect();
    m.put("engine.range_ns_per_entry", median(&mut per_entry), per_entry.len());
    drop(engine);

    // `index`: the model and the last mile apart.
    let mut bounds = Vec::with_capacity(gets.len());
    let (predict, samples) =
        time_blocks(&gets, 32, |keys| bounds.extend(keys.iter().map(|&k| index.bound(k))));
    m.put("index.predict_ns", predict, samples);
    let mut at = 0;
    let (last_mile, samples) = time_blocks(&gets, 32, |keys| {
        for &k in keys {
            std::hint::black_box(index.find(k, bounds[at]));
            at += 1;
        }
    });
    m.put("search.last_mile_ns", last_mile, samples);
    let widths: Vec<f64> = bounds.iter().map(|&(lo, hi)| hi.saturating_sub(lo) as f64).collect();
    let log2: Vec<f64> = widths.iter().map(|&w| if w <= 1.0 { 0.0 } else { w.log2() }).collect();
    let floor: Vec<f64> = widths.iter().map(|&w| (w + 1.0).log2().ceil()).collect();
    m.put("index.log2_err_mean", mean(&log2), log2.len());
    m.put("search.steps_floor", mean(&floor), floor.len());
    drop(index);

    // Rung `serve`: a prefix of the stream as closed-loop blocks (submit
    // the block, wait for all of it) over a cache rung of its own, then
    // the open-loop probes on the stream that follows the prefix.
    let cache = CacheRung::build(data, threshold);
    crate::workloads::warm_up(&cache, ops, warm);
    let serve_ops = (SERVE_REPLAY_BLOCKS * block).min(traced / 2 / block * block);
    rungs[SERVE] = {
        let serve = ServeRung::start(&cache, QUEUE_CAP);
        let mut tickets = Vec::with_capacity(block);
        replay(
            &clock,
            SERVE,
            &Reach::whole(&ops[..serve_ops], &expected[..serve_ops], block, 0),
            |chunk, out| {
                if !matches!(chunk[0], Op::Get(_)) {
                    return out.extend(chunk.iter().map(|&op| cache.apply(op)));
                }
                tickets.clear();
                tickets.extend(chunk.iter().map(|op| serve.submit(op.get_key())));
                out.extend(tickets.iter().map(|t| t.as_ref().and_then(|t| t.wait())));
            },
            &mut tally,
        )
    };
    // The probes offer gets only. On mixed-rw their answers depend on the
    // writes this rung's engine has seen, so they come from a mirror
    // brought to the same point of the stream.
    let (keys, mut want) =
        gets_of(&ops[serve_ops..traced], &expected[serve_ops..traced], usize::MAX);
    if mixed {
        let mut mirror = Mirror::bulk(data.keys(), data.payloads());
        for &op in ops[..serve_ops].iter().filter(|op| op.is_write()) {
            mirror.apply(op);
        }
        want = keys.iter().map(|&k| mirror.apply(Op::Get(k))).collect();
    }
    let keys: Vec<Op> = keys.into_iter().map(Op::Get).collect();
    serve_probes(&mut m, run, &cache, &keys, &want, &mut tally, &mut disturbed);
    drop(cache);

    // Side rung `store`.
    let t = Instant::now();
    let written = StoreRung::write(data);
    m.put("store.snapshot_write_ms", ms_since(t), 1);
    let t = Instant::now();
    let store = StoreRung::cold_open(written);
    m.put("store.cold_open_ms", ms_since(t), 1);
    m.put("store.bytes_per_key", store.snapshot_bytes as f64 / n, 1);
    store.take_pages_read();
    let mut store_out = Vec::with_capacity(gets.len());
    let (store_ns, samples) =
        time_blocks(&gets, 32, |keys| store_out.extend(keys.iter().map(|&k| store.get(k))));
    tally.check(&store_out, &gets_expected);
    m.put("store.get_ns", store_ns, samples);
    let pages = store.take_pages_read();
    m.put("store.pages_per_lookup", pages as f64 / gets.len().max(1) as f64, gets.len());
    drop(store);

    // The ledger: per-rung cost of a get that reaches the rung, and its
    // outside-in self time.
    let get_rungs: Vec<Vec<Span>> = rungs.iter().map(|r| get_spans(r)).collect();
    for (k, name) in RUNGS.iter().enumerate() {
        let (total, samples) = median_ns_per_op(&get_rungs[k]);
        m.put(&format!("{name}.get_ns"), total, samples);
        if k > 0 {
            let mut own = self_times(&get_rungs[k], &get_rungs[k - 1]);
            m.put(&format!("{name}.self_ns"), median(&mut own), own.len());
        }
    }

    write_trace(trace_path, &rungs)?;
    Ok(Outcome {
        metrics: m,
        inputs_hash: inputs.inputs_hash,
        attempted: tally.attempted,
        mismatched: tally.failed,
        shed: tally.shed,
        invalid: Vec::new(),
        disturbed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rung: usize, block: u32, ops: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { rung: rung as u8, block, ops, get: true, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_the_span_minus_the_child_span_of_the_same_block() {
        // The upper rung saw blocks 0..=2 of 4 operations each; it answered
        // block 1 itself and handed 4, then 2 operations down.
        let upper =
            [span(4, 0, 4, 5000, 6000), span(4, 1, 4, 6000, 6400), span(4, 2, 4, 7000, 8000)];
        let lower = [span(3, 0, 4, 0, 400), span(3, 2, 2, 1000, 1800), span(3, 3, 4, 2000, 2400)];
        // Block 0: (1000 - 400) / 4. Block 1: no child, all 400 its own.
        // Block 2: (1000 - 800) / 4. Block 3 never reached the upper rung.
        assert_eq!(self_times(&upper, &lower), vec![150.0, 100.0, 50.0]);
        assert_eq!(self_times(&upper, &[]), vec![250.0, 100.0, 250.0]);
        // Noise can make a rung read cheaper than the one below it on one
        // block; the difference is kept, not clamped.
        assert_eq!(self_times(&lower[..1], &upper[..1]), vec![-150.0]);
        // Per reached operation, self times add up to the top span.
        let own_upper: f64 = self_times(&upper, &lower).iter().map(|ns| ns * 4.0).sum();
        let own_lower: f64 = lower[..2].iter().map(Span::ns).sum();
        assert_eq!(own_upper + own_lower, upper.iter().map(Span::ns).sum::<f64>());
    }

    #[test]
    fn reach_keeps_block_ids_and_drops_empty_blocks() {
        let ops: Vec<Op> = (0..10).map(Op::Get).collect();
        let expected: Vec<Answer> = (0..10).map(Some).collect();
        let top = Reach::whole(&ops, &expected, 4, 0);
        assert_eq!(top.blocks, [(0, 0, 4), (1, 4, 8), (2, 8, 10)]);
        // Only keys 1, 2 and 9 go below; block 1 disappears.
        let below =
            top.below(|i, _| [1, 2, 9].contains(&i), |i, _| top.expected[i].map(|v| v + 100));
        assert_eq!(below.ops, [Op::Get(1), Op::Get(2), Op::Get(9)]);
        assert_eq!(below.expected, [Some(101), Some(102), Some(109)]);
        assert_eq!(below.blocks, [(0, 0, 2), (2, 2, 3)]);
        assert_eq!(below.gets(2), (vec![1, 2], vec![Some(101), Some(102)]));
    }

    #[test]
    fn replay_records_one_span_per_block_and_checks_every_answer() {
        let ops = [Op::Get(1), Op::Insert(2, 2), Op::Get(3), Op::Get(4)];
        let expected = [Some(1), None, Some(3), None];
        let clock = Clock(Instant::now());
        let mut tally = Tally::default();
        let reach = Reach::whole(&ops, &expected, 1, 0);
        let spans = replay(
            &clock,
            WRITEBEHIND,
            &reach,
            one_by_one(|op| if let Op::Get(k) = op { Some(k) } else { None }),
            &mut tally,
        );
        assert_eq!(
            spans.iter().map(|s| (s.block, s.get)).collect::<Vec<_>>(),
            [(0, true), (1, false), (2, true), (3, true)]
        );
        assert!(spans.iter().all(|s| s.rung == WRITEBEHIND as u8 && s.ops == 1));
        assert!(spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[0].end_ns && w[0].end_ns <= w[1].start_ns));
        assert_eq!((tally.attempted, tally.failed), (4, 1)); // Get(4) answered Some(4), not None
        assert_eq!(get_spans(&spans).len(), 3);
    }
}
