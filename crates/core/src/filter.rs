//! Per-run membership filters for the write-behind run stack.
//!
//! A leveled stack pays one engine probe per run on negative or cold keys:
//! key-range pruning cannot reject a point probe that lands inside every
//! run's fence range. The filter here answers "might this run contain the
//! key?" in one cache-line touch, letting the read path skip runs that
//! provably lack the key.
//!
//! Every frozen run owns a [`BlockedBloom`] — a blocked Bloom filter. One
//! 64-byte block per ~51 keys (~10 bits/key), all probe bits of a key land
//! in a single block, so a negative query costs one cache line.
//! False-positive rate is ~1% at this sizing.
//!
//! It is *approximate* on the positive side and *exact* on the negative
//! side: `may_contain` may return `true` for an absent key (false
//! positive, costs one wasted probe) but never returns `false` for a
//! present key (a false negative would silently drop data). A run's filter
//! indexes every key frozen into it **including tombstones**: a probe must
//! still find the tombstone so it can shadow older tiers.
//!
//! Filters are derived state, like learned models: rebuildable from the
//! run's key column at any time, and persisted in the spool snapshot as
//! an optional checksummed section purely so cold re-opens skip the
//! rebuild. The persisted bytes depend on [`splitmix64`] and the constants
//! below; the golden test at the bottom of this file pins both.

use crate::util::splitmix64;

/// 64-byte Bloom block: 512 bits, all probe bits of a key land in one
/// 64-bit word of it.
const BLOCK_WORDS: usize = 8;
const BLOCK_BITS: u64 = (BLOCK_WORDS * 64) as u64;
/// Probe bits per key, all set in a single word of the block so a
/// membership test is one load and one mask compare.
const BLOOM_PROBES: usize = 3;
/// Filter sizing: bits budgeted per indexed key.
const BLOOM_BITS_PER_KEY: usize = 10;

/// Kind code a persisted [`BlockedBloom`] section carries in the snapshot
/// header's `FILTER_KIND` field (docs/FORMATS.md) — the only kind written
/// or read: code 2 (`fence`) was retired in PR 23.
pub(crate) const SNAPSHOT_KIND: u32 = 1;

/// Fast-range block selection: maps a full-width hash onto `0..n_blocks`
/// with one widening multiply — no per-probe integer division.
#[inline]
fn block_of(h: u64, n_blocks: usize) -> usize {
    (((h as u128) * (n_blocks as u128)) >> 64) as usize
}

/// The word-within-block index and `BLOOM_PROBES`-bit probe mask for
/// one key, derived from non-overlapping windows of a second hash.
#[inline]
fn probe_word_mask(h: u64) -> (usize, u64) {
    let bits = splitmix64(h);
    let word = (bits & (BLOCK_WORDS as u64 - 1)) as usize;
    let mut mask = 0u64;
    for i in 0..BLOOM_PROBES {
        mask |= 1u64 << ((bits >> (3 + 6 * i)) & 63);
    }
    (word, mask)
}

/// One lookup key's precomputed filter probe. The hash work depends only
/// on the key, not the filter — an N-run stack consults N filters per
/// lookup, and sharing the probe makes that one hash, not N. A Bloom
/// consult against a prepared probe is one fast-range multiply, one
/// word load, and one mask compare.
#[derive(Debug, Clone, Copy)]
pub struct FilterProbe {
    h: u64,
    word: usize,
    mask: u64,
}

impl FilterProbe {
    /// Hash `key` once for any number of filter consultations.
    #[inline]
    pub fn new(key: u64) -> FilterProbe {
        let h = splitmix64(key);
        let (word, mask) = probe_word_mask(h);
        FilterProbe { h, word, mask }
    }
}

/// Blocked Bloom filter over `u64` key images.
///
/// One hash picks a block (fast-range multiply); a second picks one
/// 64-bit word of it and a `BLOOM_PROBES`-bit mask inside that word.
/// Construction is a single pass over the key column; a membership test
/// is one cache-line touch, one load, and one mask compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedBloom {
    blocks: Vec<[u64; BLOCK_WORDS]>,
}

impl BlockedBloom {
    /// Build from an iterator of key images; one pass, no sorting required.
    pub fn build(keys: impl Iterator<Item = u64>, n_hint: usize) -> BlockedBloom {
        let n_blocks = (n_hint.max(1) * BLOOM_BITS_PER_KEY).div_ceil(BLOCK_BITS as usize).max(1);
        let mut blocks = vec![[0u64; BLOCK_WORDS]; n_blocks];
        for key in keys {
            let h = splitmix64(key);
            let (word, mask) = probe_word_mask(h);
            blocks[block_of(h, n_blocks)][word] |= mask;
        }
        BlockedBloom { blocks }
    }

    /// `false` means the key is definitely absent from the indexed set.
    #[inline]
    pub fn may_contain(&self, key: u64) -> bool {
        self.may_contain_probe(&FilterProbe::new(key))
    }

    /// [`BlockedBloom::may_contain`] with the hash work already done.
    #[inline]
    pub fn may_contain_probe(&self, p: &FilterProbe) -> bool {
        self.blocks[block_of(p.h, self.blocks.len())][p.word] & p.mask == p.mask
    }

    /// Serialized payload for the snapshot's optional filter section:
    /// the block count, then every block word, little-endian.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.blocks.len() * 64);
        out.extend_from_slice(&(self.blocks.len() as u64).to_le_bytes());
        for block in &self.blocks {
            for word in block {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`BlockedBloom::to_bytes`]; `None` on a malformed payload.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Option<BlockedBloom> {
        let n = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?) as usize;
        if n == 0 || bytes.len() != 8 + n * BLOCK_WORDS * 8 {
            return None;
        }
        let mut blocks = vec![[0u64; BLOCK_WORDS]; n];
        for (i, chunk) in bytes[8..].chunks_exact(8).enumerate() {
            blocks[i / BLOCK_WORDS][i % BLOCK_WORDS] = u64::from_le_bytes(chunk.try_into().ok()?);
        }
        Some(BlockedBloom { blocks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| i.wrapping_mul(2654435761) % (n * 16)).collect()
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let keys = sample_keys(5_000);
        let f = BlockedBloom::build(keys.iter().copied(), keys.len());
        for &k in &keys {
            assert!(f.may_contain(k), "false negative for {k}");
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_low() {
        let keys = sample_keys(5_000);
        let f = BlockedBloom::build(keys.iter().copied(), keys.len());
        let present: std::collections::HashSet<u64> = keys.iter().copied().collect();
        let mut fp = 0usize;
        let mut probes = 0usize;
        for i in 0..50_000u64 {
            let k = 1_000_000_000 + i * 7;
            if present.contains(&k) {
                continue;
            }
            probes += 1;
            if f.may_contain(k) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.05, "bloom FP rate {rate} too high");
    }

    #[test]
    fn filters_round_trip_through_bytes() {
        let keys = sample_keys(2_000);
        let f = BlockedBloom::build(keys.iter().copied(), keys.len());
        assert_eq!(BlockedBloom::from_bytes(&f.to_bytes()), Some(f));
    }

    #[test]
    fn malformed_filter_bytes_are_rejected() {
        let keys = sample_keys(100);
        let mut bytes = BlockedBloom::build(keys.iter().copied(), keys.len()).to_bytes();
        bytes.pop();
        assert!(BlockedBloom::from_bytes(&bytes).is_none(), "truncated");
        assert!(BlockedBloom::from_bytes(&[]).is_none(), "empty");
    }

    /// Persisted Bloom sections are a function of `splitmix64` and the
    /// block layout: if either drifts, every filter already in a spool
    /// starts rejecting keys its run holds. Values computed independently
    /// of this crate.
    #[test]
    fn hash_and_serialized_layout_are_pinned() {
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        let f = BlockedBloom::build([1u64, 2, 3].into_iter(), 3);
        let words: [u64; 9] = [1, 0, 0, 0, 0, 0x8000_0040_0004, 0, 0x5_0008_0000_0000, 0x4_0018];
        let golden: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(f.to_bytes(), golden);
    }

    #[test]
    fn single_key_and_empty_edge_cases() {
        assert!(BlockedBloom::build(std::iter::once(42), 1).may_contain(42));
    }
}
