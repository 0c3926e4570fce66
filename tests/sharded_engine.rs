//! Regression coverage for `QueryEngine` edge cases the property suite
//! misses, asserting `ShardedEngine` agrees with an unsharded
//! `StaticEngine` oracle on every one of them: degenerate (empty/tiny)
//! inputs, inverted (`hi <= lo`) ranges, duplicate-heavy keys spanning a
//! shard boundary, and batch sizes that don't divide the engines' internal
//! interleave chunk.

use sosd::bench::registry::{EngineSpec, Family};
use sosd::core::{DataError, QueryEngine, SearchStrategy, ShardedEngine, SortedData};
use std::sync::Arc;

/// The unsharded ground truth: exact binary search over the whole array.
fn oracle(data: &Arc<SortedData<u64>>) -> Box<dyn QueryEngine<u64>> {
    Family::Bs.default_spec::<u64>().engine(data, SearchStrategy::Binary).expect("bs builds")
}

fn sharded(data: &Arc<SortedData<u64>>, shards: usize) -> ShardedEngine<u64> {
    EngineSpec::Sharded { shards, inner: Family::Bs.default_spec::<u64>() }
        .sharded_engine(data, SearchStrategy::Binary)
        .expect("sharded builds")
}

/// Keys with long duplicate runs placed where equal-width cuts would land,
/// plus extremes.
fn dup_heavy_keys() -> Vec<u64> {
    let mut keys = vec![0u64, 0, 0];
    keys.extend((1..250u64).map(|i| i * 3));
    keys.extend(std::iter::repeat_n(750u64, 120)); // swallows the midpoint cut
    keys.extend((251..500u64).map(|i| i * 3));
    keys.extend(std::iter::repeat_n(u64::MAX, 4));
    keys.sort_unstable();
    keys
}

/// `par_get_batch` into a fresh vector.
fn par_lookup(e: &ShardedEngine<u64>, keys: &[u64]) -> Vec<Option<u64>> {
    let mut out = Vec::new();
    e.par_get_batch(keys, &mut out);
    out
}

fn probes(keys: &[u64]) -> Vec<u64> {
    let mut probes: Vec<u64> = keys.iter().flat_map(|&k| [k, k.wrapping_add(1)]).collect();
    probes.extend([0, 1, 2, u64::MAX, u64::MAX - 1, u64::MAX / 2]);
    probes
}

#[test]
fn empty_data_is_rejected_before_any_engine_exists() {
    // The whole engine stack sits on `SortedData`, which rejects empty key
    // sets — so "sharded over empty data" cannot be constructed, only
    // observed as this error.
    assert_eq!(SortedData::<u64>::new(vec![]).unwrap_err(), DataError::Empty);
    // The nearest representable degenerate cases must still work sharded.
    let tiny = Arc::new(SortedData::new(vec![42u64]).unwrap());
    let e = sharded(&tiny, 8);
    let o = oracle(&tiny);
    assert_eq!(e.num_shards(), 1, "one key cannot be cut");
    assert_eq!(e.len(), 1);
    assert_eq!(e.get(42), o.get(42));
    assert_eq!(e.get(41), None);
    assert_eq!(e.lower_bound(0), o.lower_bound(0));
    assert_eq!(e.lower_bound(43), None);
    assert!(e.range(0, u64::MAX).len() == 1);
    // Empty batches in and out.
    assert!(e.lookup_batch(&[]).is_empty());
    assert!(par_lookup(&e, &[]).is_empty());
}

#[test]
fn inverted_and_empty_ranges_agree_with_oracle() {
    let data = Arc::new(SortedData::new((0..1_000u64).map(|i| i * 2).collect()).unwrap());
    let o = oracle(&data);
    for shards in [2usize, 3, 8] {
        let e = sharded(&data, shards);
        for (lo, hi) in [
            (10u64, 10u64),  // empty window
            (500, 100),      // inverted across shards
            (u64::MAX, 0),   // inverted extremes
            (1_999, 1_998),  // inverted at the top
            (0, 0),          // empty at the bottom
            (2_000, 10_000), // beyond every key
        ] {
            assert_eq!(e.range(lo, hi), o.range(lo, hi), "shards={shards} range [{lo},{hi})");
            assert_eq!(e.range_sum(lo, hi), o.range_sum(lo, hi), "shards={shards} sum [{lo},{hi})");
        }
    }
}

#[test]
fn duplicate_runs_spanning_cut_positions_agree_with_oracle() {
    let keys = dup_heavy_keys();
    let data = Arc::new(SortedData::new(keys.clone()).unwrap());
    let o = oracle(&data);
    for shards in [2usize, 4, 7] {
        let e = sharded(&data, shards);
        assert_eq!(e.len(), o.len(), "shards={shards}");
        for &p in &probes(&keys) {
            assert_eq!(e.get(p), o.get(p), "shards={shards} get({p})");
            assert_eq!(e.lower_bound(p), o.lower_bound(p), "shards={shards} lower_bound({p})");
        }
        // Ranges straddling the duplicate run and the fences.
        for (lo, hi) in [(700u64, 800u64), (0, u64::MAX), (749, 751), (750, 750), (740, 750)] {
            assert_eq!(e.range(lo, hi), o.range(lo, hi), "shards={shards} range [{lo},{hi})");
            assert_eq!(e.range_sum(lo, hi), o.range_sum(lo, hi), "shards={shards}");
        }
    }
}

#[test]
fn batch_sizes_coprime_to_the_interleave_chunk_agree_with_oracle() {
    // The static engines interleave batches in chunks of 8; sharding then
    // regroups arbitrary slices per shard. Odd/coprime batch sizes exercise
    // every partial-tail path on both levels.
    let keys = dup_heavy_keys();
    let data = Arc::new(SortedData::new(keys.clone()).unwrap());
    let o = oracle(&data);
    let stream = probes(&keys);
    for shards in [3usize, 5] {
        let e = sharded(&data, shards);
        for batch in [1usize, 3, 5, 7, 9, 13, 63, 65] {
            for group in stream.chunks(batch) {
                let serial = e.lookup_batch(group);
                let parallel = par_lookup(&e, group);
                for (i, &p) in group.iter().enumerate() {
                    assert_eq!(serial[i], o.get(p), "shards={shards} batch={batch} get({p})");
                    assert_eq!(parallel[i], serial[i], "shards={shards} batch={batch} par({p})");
                }
            }
        }
    }
}

#[test]
fn learned_inner_families_agree_with_oracle_across_shard_counts() {
    // The same contract must hold when the inner engines are learned
    // indexes with approximate bounds, not just exact binary search.
    let data = Arc::new(SortedData::new((0..20_000u64).map(|i| i * 5 + 7).collect()).unwrap());
    let o = oracle(&data);
    let stream: Vec<u64> = (0..4_000u64).map(|i| (i * 7919) % 100_100).collect();
    for family in [Family::Rmi, Family::Pgm] {
        for shards in [2usize, 8] {
            let e = EngineSpec::Sharded { shards, inner: family.default_spec::<u64>() }
                .sharded_engine(&data, SearchStrategy::Binary)
                .expect("builds");
            let got = e.lookup_batch(&stream);
            for (i, &p) in stream.iter().enumerate() {
                assert_eq!(got[i], o.get(p), "{} shards={shards} get({p})", family.name());
            }
            assert_eq!(
                e.lower_bound(data.max_key() + 1),
                None,
                "{} shards={shards}",
                family.name()
            );
        }
    }
}
