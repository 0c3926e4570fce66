//! Single-threaded lookup timing: the paper's core measurement loop.
//!
//! Each lookup maps the key to a search bound, runs the last-mile search,
//! and sums the payloads of all matching records; the running checksum both
//! validates correctness and keeps the optimizer honest. Optional memory
//! fences between lookups reproduce Figure 15 (no overlap between adjacent
//! lookups); an optional eviction pass between lookups reproduces the
//! hardware side of Figure 14's cold-cache mode. [`time_lookups_batched`]
//! times a [`QueryEngine`] batch entry point the caller names —
//! [`QueryEngine::get_batch`] or the shard-parallel
//! [`QueryEngine::par_get_batch`] — with the same checksum contract.

use sosd_core::search::SearchStrategy;
use sosd_core::{Index, Key, QueryEngine, SortedData};
use std::hint::black_box;
use std::sync::atomic::{fence, Ordering};
use std::time::Instant;

/// Result of one timing run.
#[derive(Debug, Clone, Copy)]
pub struct LookupTiming {
    /// Mean wall-clock nanoseconds per lookup.
    pub ns_per_lookup: f64,
    /// Sum over lookups of matching payload sums (must equal the workload's
    /// expected checksum).
    pub checksum: u64,
}

/// Sum the payloads of every record equal to `x` starting at its lower
/// bound — zero when absent (the shared [`SortedData::payload_sum_from`]
/// contract).
#[inline]
fn payload_sum<K: Key>(data: &SortedData<K>, x: K, lb: usize) -> u64 {
    data.payload_sum_from(x, lb).unwrap_or(0)
}

/// Knobs for [`time_lookups`].
#[derive(Debug, Clone, Copy)]
pub struct TimingOptions {
    /// Last-mile search function (Figure 11).
    pub strategy: SearchStrategy,
    /// Insert a sequentially-consistent fence between lookups (Figure 15).
    pub fence: bool,
    /// Evict caches between lookups by streaming a large buffer
    /// (Figure 14's "cold" mode; expensive — use few lookups).
    pub cold: bool,
    /// Measurement repetitions; the median is reported.
    pub repeats: usize,
}

impl Default for TimingOptions {
    fn default() -> Self {
        TimingOptions { strategy: SearchStrategy::Binary, fence: false, cold: false, repeats: 3 }
    }
}

/// Buffer big enough to evict typical LLCs (64 MiB).
const EVICTION_BYTES: usize = 64 << 20;

fn evict_caches(buffer: &mut [u64]) {
    for (i, slot) in buffer.iter_mut().enumerate() {
        *slot = slot.wrapping_add(i as u64);
    }
    black_box(&buffer[buffer.len() / 2]);
}

/// Time the lookup loop; returns median ns/lookup and the checksum of the
/// last repetition.
pub fn time_lookups<K: Key, I: Index<K> + ?Sized>(
    index: &I,
    data: &SortedData<K>,
    lookups: &[K],
    options: TimingOptions,
) -> LookupTiming {
    assert!(!lookups.is_empty(), "need lookups to time");
    let keys = data.keys();
    let mut eviction = if options.cold { vec![0u64; EVICTION_BYTES / 8] } else { Vec::new() };

    let mut times = Vec::with_capacity(options.repeats.max(1));
    let mut checksum = 0u64;
    for _ in 0..options.repeats.max(1) {
        checksum = 0;
        let mut elapsed_ns = 0u128;
        if options.cold {
            // Cold mode: time each lookup separately, evicting in between so
            // the eviction pass is not billed to the lookup.
            for &x in lookups {
                evict_caches(&mut eviction);
                let start = Instant::now();
                let bound = index.search_bound(black_box(x));
                let lb = options.strategy.find(keys, x, bound);
                checksum = checksum.wrapping_add(payload_sum(data, x, lb));
                black_box(checksum);
                elapsed_ns += start.elapsed().as_nanos();
            }
        } else {
            let start = Instant::now();
            if options.fence {
                for &x in lookups {
                    fence(Ordering::SeqCst);
                    let bound = index.search_bound(black_box(x));
                    let lb = options.strategy.find(keys, x, bound);
                    checksum = checksum.wrapping_add(payload_sum(data, x, lb));
                }
            } else {
                for &x in lookups {
                    let bound = index.search_bound(black_box(x));
                    let lb = options.strategy.find(keys, x, bound);
                    checksum = checksum.wrapping_add(payload_sum(data, x, lb));
                }
            }
            black_box(checksum);
            elapsed_ns = start.elapsed().as_nanos();
        }
        times.push(elapsed_ns as f64 / lookups.len() as f64);
    }
    times.sort_by(f64::total_cmp);
    LookupTiming { ns_per_lookup: times[times.len() / 2], checksum }
}

/// Time lookups through a [`QueryEngine`]'s batched entry point.
///
/// The lookup stream is cut into groups of `batch_size` and each group is
/// executed with `batch_fn` — [`QueryEngine::get_batch`] or
/// [`QueryEngine::par_get_batch`]. With `get_batch`, `batch_size == 1`
/// measures the facade's one-at-a-time path and larger sizes measure how
/// much an adapter's interleaved/prefetching override amortizes per-lookup
/// stalls. Present keys contribute their payload sum to the checksum
/// (identical to [`time_lookups`]'s contract), so a run over present-key
/// workloads must reproduce the workload's expected checksum.
///
/// Works unchanged over composite engines — a `ShardedEngine` regroups
/// each timed batch per shard internally (and fans it out under
/// `par_get_batch`), so sharded and unsharded configurations are timed by
/// identical code.
pub fn time_lookups_batched<K: Key, E: QueryEngine<K> + ?Sized>(
    engine: &E,
    batch_fn: impl Fn(&E, &[K], &mut Vec<Option<u64>>),
    lookups: &[K],
    batch_size: usize,
    repeats: usize,
) -> LookupTiming {
    assert!(!lookups.is_empty(), "need lookups to time");
    let batch_size = batch_size.max(1);
    let mut results: Vec<Option<u64>> = Vec::with_capacity(batch_size);

    let mut times = Vec::with_capacity(repeats.max(1));
    let mut checksum = 0u64;
    for _ in 0..repeats.max(1) {
        checksum = 0;
        let start = Instant::now();
        for batch in lookups.chunks(batch_size) {
            results.clear();
            batch_fn(engine, black_box(batch), &mut results);
            for r in &results {
                checksum = checksum.wrapping_add(r.unwrap_or(0));
            }
        }
        black_box(checksum);
        times.push(start.elapsed().as_nanos() as f64 / lookups.len() as f64);
    }
    times.sort_by(f64::total_cmp);
    LookupTiming { ns_per_lookup: times[times.len() / 2], checksum }
}

/// Single-threaded build-time measurement (Figure 17): seconds to build.
pub fn time_build<K: Key>(
    builder: &dyn crate::registry::DynBuilder<K>,
    data: &SortedData<K>,
) -> (f64, Box<dyn Index<K>>) {
    let start = Instant::now();
    let index = builder.build_boxed(data).expect("builder must succeed on benchmark data");
    (start.elapsed().as_secs_f64(), index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sosd_baselines::BsBuilder;
    use sosd_core::IndexBuilder;
    use sosd_datasets::workload::{sample_present_keys, Workload};

    fn workload() -> Workload<u64> {
        let data = SortedData::new((0..50_000u64).map(|i| i * 2).collect()).unwrap();
        let lookups = sample_present_keys(&data, 2_000, 42);
        Workload::new(data, lookups)
    }

    #[test]
    fn checksum_matches_expected() {
        let w = workload();
        let idx = <BsBuilder as IndexBuilder<u64>>::build(&BsBuilder, &w.data).unwrap();
        for strategy in SearchStrategy::ALL {
            let t = time_lookups(
                &idx,
                &w.data,
                &w.lookups,
                TimingOptions { strategy, repeats: 1, ..Default::default() },
            );
            assert_eq!(t.checksum, w.expected_checksum, "{strategy:?}");
            assert!(t.ns_per_lookup > 0.0);
        }
    }

    #[test]
    fn fence_mode_still_correct() {
        let w = workload();
        let idx = <BsBuilder as IndexBuilder<u64>>::build(&BsBuilder, &w.data).unwrap();
        let t = time_lookups(
            &idx,
            &w.data,
            &w.lookups,
            TimingOptions { fence: true, repeats: 1, ..Default::default() },
        );
        assert_eq!(t.checksum, w.expected_checksum);
    }

    #[test]
    fn batched_lookups_match_expected_checksum() {
        use sosd_core::StaticEngine;
        use std::sync::Arc;
        let w = workload();
        let data = Arc::new(w.data.clone());
        let idx = <BsBuilder as IndexBuilder<u64>>::build(&BsBuilder, &data).unwrap();
        let engine = StaticEngine::new(idx, data);
        for batch_size in [1usize, 2, 7, 8, 64, 10_000] {
            let t =
                time_lookups_batched(&engine, QueryEngine::get_batch, &w.lookups, batch_size, 1);
            assert_eq!(t.checksum, w.expected_checksum, "batch_size={batch_size}");
            assert!(t.ns_per_lookup > 0.0);
        }
    }

    #[test]
    fn batched_checksum_agrees_with_scalar_loop() {
        use sosd_core::StaticEngine;
        use std::sync::Arc;
        let w = workload();
        let data = Arc::new(w.data.clone());
        let idx = <BsBuilder as IndexBuilder<u64>>::build(&BsBuilder, &data).unwrap();
        let scalar = time_lookups(
            &idx,
            &w.data,
            &w.lookups,
            TimingOptions { repeats: 1, ..Default::default() },
        );
        let engine = StaticEngine::new(idx, data);
        let batched = time_lookups_batched(&engine, QueryEngine::get_batch, &w.lookups, 16, 1);
        assert_eq!(batched.checksum, scalar.checksum);
    }

    #[test]
    fn sharded_engines_time_and_checksum_like_unsharded_ones() {
        use crate::registry::{EngineSpec, Family};
        use std::sync::Arc;
        let w = workload();
        let data = Arc::new(w.data.clone());
        let spec = EngineSpec::Sharded { shards: 4, inner: Family::Bs.default_spec::<u64>() };
        let engine = spec.sharded_engine(&data, SearchStrategy::Binary).expect("builds");
        for batch_size in [1usize, 13, 64] {
            let t =
                time_lookups_batched(&engine, QueryEngine::get_batch, &w.lookups, batch_size, 1);
            assert_eq!(t.checksum, w.expected_checksum, "batch_size={batch_size}");
            let tp = time_lookups_batched(
                &engine,
                QueryEngine::par_get_batch,
                &w.lookups,
                batch_size,
                1,
            );
            assert_eq!(tp.checksum, w.expected_checksum, "parallel batch_size={batch_size}");
        }
    }

    #[test]
    fn build_timer_returns_working_index() {
        let w = workload();
        let builder: Box<dyn crate::registry::DynBuilder<u64>> = Box::new(BsBuilder);
        let (secs, idx) = time_build(builder.as_ref(), &w.data);
        assert!(secs >= 0.0);
        assert!(idx.search_bound(100).contains(w.data.lower_bound(100)));
    }
}
