//! "Last mile" search functions (Section 2 and Figure 11 of the paper).
//!
//! Given a valid [`SearchBound`], these locate the exact lower bound of a
//! lookup key inside the bound. The paper compares binary, linear, and
//! interpolation search; we additionally provide a branch-free binary search
//! as an ablation of the branch-miss analysis in Section 4.3.

use crate::bound::SearchBound;
use crate::key::Key;
use crate::trace::{addr_of_index, Tracer};

/// Window size below which interpolation search falls back to binary search.
const INTERP_CUTOFF: usize = 32;

/// The last-mile search technique to use after the index produced a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Classic binary search (`partition_point`).
    Binary,
    /// Branch-free binary search (conditional-move friendly).
    BranchlessBinary,
    /// Forward linear scan from the low end of the bound.
    Linear,
    /// Interpolation search with a binary fallback for small windows.
    Interpolation,
    /// Exponential (galloping) search from the low end of the bound — the
    /// integration the paper lists as future work (Section 4.2.3).
    Exponential,
    /// SIP-style interpolation (Van Sandt et al., ref. \[30\] — the other
    /// future-work integration of Section 4.2.3): the interpolation slope is
    /// computed once from the window ends and *reused* for subsequent
    /// probes, with a sequential finish once the expected distance is small
    /// and a binary-search guard against pathological distributions.
    Sip,
}

impl SearchStrategy {
    /// All strategies evaluated in Figure 11 (plus the branchless,
    /// exponential, and SIP ablations).
    pub const ALL: [SearchStrategy; 6] = [
        SearchStrategy::Binary,
        SearchStrategy::BranchlessBinary,
        SearchStrategy::Linear,
        SearchStrategy::Interpolation,
        SearchStrategy::Exponential,
        SearchStrategy::Sip,
    ];

    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            SearchStrategy::Binary => "binary",
            SearchStrategy::BranchlessBinary => "branchless",
            SearchStrategy::Linear => "linear",
            SearchStrategy::Interpolation => "interpolation",
            SearchStrategy::Exponential => "exponential",
            SearchStrategy::Sip => "sip",
        }
    }

    /// Find the lower bound of `x` within `bound` using this strategy.
    #[inline]
    pub fn find<K: Key>(self, keys: &[K], x: K, bound: SearchBound) -> usize {
        match self {
            SearchStrategy::Binary => binary_search(keys, x, bound),
            SearchStrategy::BranchlessBinary => branchless_binary_search(keys, x, bound),
            SearchStrategy::Linear => linear_search(keys, x, bound),
            SearchStrategy::Interpolation => interpolation_search(keys, x, bound),
            SearchStrategy::Exponential => exponential_search(keys, x, bound),
            SearchStrategy::Sip => sip_search(keys, x, bound),
        }
    }
}

#[inline]
fn clamp_window(keys_len: usize, bound: SearchBound) -> (usize, usize) {
    let hi = bound.hi.min(keys_len);
    let lo = bound.lo.min(hi);
    (lo, hi)
}

/// Classic binary search for the first key `>= x` within `bound`.
///
/// Requires the bound to be valid for `x`; returns the exact lower bound.
#[inline]
pub fn binary_search<K: Key>(keys: &[K], x: K, bound: SearchBound) -> usize {
    let (lo, hi) = clamp_window(keys.len(), bound);
    lo + keys[lo..hi].partition_point(|&k| k < x)
}

/// Branch-free binary search: the comparison feeds a conditional move rather
/// than a conditional jump, trading branch misses for a fixed instruction
/// stream (see the branch-miss discussion in Section 4.3).
#[inline]
pub fn branchless_binary_search<K: Key>(keys: &[K], x: K, bound: SearchBound) -> usize {
    let (lo, hi) = clamp_window(keys.len(), bound);
    let mut base = lo;
    let mut size = hi - lo;
    if size == 0 {
        return base;
    }
    while size > 1 {
        let half = size / 2;
        // cmov: advance base only when the probe key is too small.
        let probe = unsafe { *keys.get_unchecked(base + half) };
        base = if probe < x { base + half } else { base };
        size -= half;
    }
    base + usize::from(keys[base] < x)
}

/// Forward linear scan from the low end of the bound.
#[inline]
pub fn linear_search<K: Key>(keys: &[K], x: K, bound: SearchBound) -> usize {
    let (lo, hi) = clamp_window(keys.len(), bound);
    let mut i = lo;
    while i < hi && keys[i] < x {
        i += 1;
    }
    i
}

/// Interpolation search: estimate the position of `x` from the key values at
/// the window ends, then narrow. Falls back to binary search for small or
/// flat windows. Works best on locally linear data (amzn), poorly on erratic
/// data (osm) — exactly the Figure 11 result.
#[inline]
pub fn interpolation_search<K: Key>(keys: &[K], x: K, bound: SearchBound) -> usize {
    let (mut lo, mut hi) = clamp_window(keys.len(), bound);
    // Invariant: LB(x) within [lo, hi]; all positions < lo hold keys < x and,
    // when hi was lowered, keys[hi] >= x.
    while hi - lo > INTERP_CUTOFF {
        let kl = keys[lo].to_f64();
        let kr = keys[hi - 1].to_f64();
        if kr <= kl {
            break; // flat or single-valued window: interpolation is useless
        }
        let frac = ((x.to_f64() - kl) / (kr - kl)).clamp(0.0, 1.0);
        let pos = lo + (frac * (hi - 1 - lo) as f64) as usize;
        let pos = pos.clamp(lo, hi - 1);
        if keys[pos] < x {
            lo = pos + 1;
        } else {
            hi = pos;
        }
    }
    lo + keys[lo..hi].partition_point(|&k| k < x)
}

/// Exponential (galloping) search: double the step from the low end of the
/// bound until a key `>= x` is found, then binary search the final gallop
/// interval. Integrates with search bounds by galloping only inside
/// `[lo, hi)`; cost is `O(log d)` where `d` is the answer's distance from
/// the low end, which favours indexes whose bounds skew low.
#[inline]
pub fn exponential_search<K: Key>(keys: &[K], x: K, bound: SearchBound) -> usize {
    let (lo, hi) = clamp_window(keys.len(), bound);
    if lo >= hi || keys[lo] >= x {
        return lo;
    }
    // keys[lo] < x, so the answer is in (lo, hi].
    let mut offset = 1usize;
    while lo + offset < hi && keys[lo + offset] < x {
        offset *= 2;
    }
    // keys[lo + offset/2] < x (or offset == 1), and either lo+offset >= hi
    // or keys[lo + offset] >= x.
    let sub_lo = lo + offset / 2 + 1;
    let sub_hi = (lo + offset).min(hi);
    sub_lo + keys[sub_lo.min(sub_hi)..sub_hi].partition_point(|&k| k < x)
}

/// Switch from SIP probing to a sequential scan when the predicted distance
/// drops below this (Van Sandt et al. report the sequential finish beating
/// further probes once the target is a cache line or two away).
const SIP_SEQ_CUTOFF: f64 = 16.0;
/// Interpolation probes before SIP gives up and binary-searches the rest
/// (the "guard" making the worst case logarithmic).
const SIP_MAX_PROBES: u32 = 4;

/// SIP-style interpolation search (ref. \[30\] of the paper).
///
/// Unlike [`interpolation_search`], which recomputes the slope from the
/// shrinking window every iteration (two divisions per step), SIP computes
/// the slope *once* from the initial window ends and reuses it: each probe
/// moves by `slope * (x - keys[pos])` from the current probe. When the
/// predicted move is small, a sequential scan finishes; after
/// `SIP_MAX_PROBES` probes a binary search over the narrowed window guards
/// the worst case.
#[inline]
pub fn sip_search<K: Key>(keys: &[K], x: K, bound: SearchBound) -> usize {
    let (mut lo, mut hi) = clamp_window(keys.len(), bound);
    if hi - lo <= INTERP_CUTOFF {
        return lo + keys[lo..hi].partition_point(|&k| k < x);
    }
    let kl = keys[lo].to_f64();
    let kr = keys[hi - 1].to_f64();
    if kr <= kl {
        return lo + keys[lo..hi].partition_point(|&k| k < x);
    }
    // Positions per key unit, computed once (SIP's slope reuse).
    let slope = (hi - 1 - lo) as f64 / (kr - kl);

    let mut pos = (lo as f64 + slope * (x.to_f64() - kl)) as usize;
    pos = pos.clamp(lo, hi - 1);
    for _ in 0..SIP_MAX_PROBES {
        let here = keys[pos].to_f64();
        let delta = slope * (x.to_f64() - here);
        if keys[pos] < x {
            lo = pos + 1;
            if delta <= SIP_SEQ_CUTOFF {
                // Sequential finish rightward.
                while lo < hi && keys[lo] < x {
                    lo += 1;
                }
                return lo;
            }
            pos = (pos as f64 + delta) as usize;
        } else {
            hi = pos;
            if -delta <= SIP_SEQ_CUTOFF {
                // Sequential finish leftward: find the first key >= x.
                let mut i = pos;
                while i > lo && keys[i - 1] >= x {
                    i -= 1;
                }
                return i;
            }
            pos = (pos as f64 + delta) as usize;
        }
        if lo >= hi {
            return lo;
        }
        pos = pos.clamp(lo, hi - 1);
    }
    lo + keys[lo..hi].partition_point(|&k| k < x)
}

/// Traced binary search: like [`binary_search`] but reports each probe (one
/// 8-byte read), its branch outcome, and an instruction estimate per
/// iteration to `tracer`. Used by the instrumented index lookups.
pub fn binary_search_traced<K: Key>(
    keys: &[K],
    x: K,
    bound: SearchBound,
    tracer: &mut dyn Tracer,
) -> usize {
    let (mut lo, mut hi) = clamp_window(keys.len(), bound);
    let site = keys.as_ptr() as usize; // stable per-array branch site id
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        tracer.read(addr_of_index(keys, mid), std::mem::size_of::<K>());
        tracer.instr(6); // cmp + jcc + index arithmetic per iteration
        let less = keys[mid] < x;
        tracer.branch(site, less);
        if less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CountingTracer;

    const KEYS: [u64; 10] = [1, 3, 9, 12, 56, 57, 58, 95, 98, 99];

    fn oracle(x: u64) -> usize {
        KEYS.partition_point(|&k| k < x)
    }

    fn full() -> SearchBound {
        SearchBound::full(KEYS.len())
    }

    #[test]
    fn all_strategies_agree_with_oracle_on_full_bound() {
        for x in 0..=120u64 {
            let want = oracle(x);
            for s in SearchStrategy::ALL {
                assert_eq!(s.find(&KEYS, x, full()), want, "{s:?} x={x}");
            }
        }
    }

    #[test]
    fn all_strategies_agree_on_partial_bounds() {
        for x in 0..=120u64 {
            let want = oracle(x);
            // Any bound that contains the answer must produce the answer.
            for lo in 0..=want {
                for hi in want..=KEYS.len() {
                    let b = SearchBound { lo, hi };
                    for s in SearchStrategy::ALL {
                        assert_eq!(s.find(&KEYS, x, b), want, "{s:?} x={x} bound={b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_window_returns_lo() {
        let b = SearchBound { lo: 4, hi: 4 };
        for s in SearchStrategy::ALL {
            assert_eq!(s.find(&KEYS, 56, b), 4, "{s:?}");
        }
    }

    #[test]
    fn bound_past_end_is_clamped() {
        let b = SearchBound { lo: 8, hi: 1000 };
        for s in SearchStrategy::ALL {
            assert_eq!(s.find(&KEYS, 200, b), 10, "{s:?}");
        }
    }

    #[test]
    fn duplicates_find_first_occurrence() {
        let keys = [5u64, 7, 7, 7, 7, 9];
        for s in SearchStrategy::ALL {
            assert_eq!(s.find(&keys, 7, SearchBound::full(6)), 1, "{s:?}");
        }
    }

    #[test]
    fn flat_window_falls_back_to_binary() {
        let keys = vec![42u64; 100];
        assert_eq!(interpolation_search(&keys, 42, SearchBound::full(100)), 0);
        assert_eq!(interpolation_search(&keys, 43, SearchBound::full(100)), 100);
        assert_eq!(interpolation_search(&keys, 1, SearchBound::full(100)), 0);
    }

    #[test]
    fn traced_search_emits_events_and_agrees() {
        let mut t = CountingTracer::default();
        for x in [0u64, 12, 57, 99, 150] {
            let mut local = CountingTracer::default();
            assert_eq!(binary_search_traced(&KEYS, x, full(), &mut local), oracle(x));
            assert!(local.reads >= 3, "binary search over 10 keys probes >= 3 times");
            t.reads += local.reads;
        }
        assert!(t.reads > 0);
    }

    #[test]
    fn interpolation_on_uniform_data_is_correct() {
        let keys: Vec<u64> = (0..10_000).map(|i| i * 17).collect();
        for probe in (0..170_000u64).step_by(191) {
            assert_eq!(
                interpolation_search(&keys, probe, SearchBound::full(keys.len())),
                keys.partition_point(|&k| k < probe)
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SearchStrategy::Binary.label(), "binary");
        assert_eq!(SearchStrategy::Interpolation.label(), "interpolation");
        assert_eq!(SearchStrategy::Exponential.label(), "exponential");
    }

    #[test]
    fn exponential_gallops_to_far_answers() {
        let keys: Vec<u64> = (0..100_000u64).map(|i| i * 2).collect();
        for probe in [0u64, 1, 2, 77_776, 199_998, 199_999, 300_000] {
            assert_eq!(
                exponential_search(&keys, probe, SearchBound::full(keys.len())),
                keys.partition_point(|&k| k < probe),
                "probe={probe}"
            );
        }
    }

    #[test]
    fn exponential_respects_window_edges() {
        // Answer exactly at the window's high end.
        assert_eq!(exponential_search(&KEYS, 200, SearchBound { lo: 3, hi: 10 }), 10);
        // Answer exactly at the window's low end.
        assert_eq!(exponential_search(&KEYS, 12, SearchBound { lo: 3, hi: 10 }), 3);
    }

    #[test]
    fn sip_on_uniform_data_matches_oracle() {
        let keys: Vec<u64> = (0..50_000).map(|i| i * 13 + 5).collect();
        for probe in (0..650_100u64).step_by(311) {
            assert_eq!(
                sip_search(&keys, probe, SearchBound::full(keys.len())),
                keys.partition_point(|&k| k < probe),
                "probe={probe}"
            );
        }
    }

    #[test]
    fn sip_guard_handles_pathological_skew() {
        // One huge outlier makes the reused slope nearly useless; the binary
        // guard must still give the exact answer.
        let mut keys: Vec<u64> = (0..10_000).collect();
        keys.push(u64::MAX);
        for probe in [0u64, 5_000, 9_999, 10_000, u64::MAX - 1, u64::MAX] {
            assert_eq!(
                sip_search(&keys, probe, SearchBound::full(keys.len())),
                keys.partition_point(|&k| k < probe),
                "probe={probe}"
            );
        }
    }

    #[test]
    fn sip_sequential_finish_near_target() {
        // Probe keys adjacent to present keys so predicted distances are
        // tiny and the sequential paths (both directions) run.
        let keys: Vec<u64> = (0..1_000).map(|i| i * 100).collect();
        for base in (0..100_000u64).step_by(700) {
            for probe in [base.saturating_sub(1), base, base + 1] {
                assert_eq!(
                    sip_search(&keys, probe, SearchBound::full(keys.len())),
                    keys.partition_point(|&k| k < probe),
                    "probe={probe}"
                );
            }
        }
    }
}
