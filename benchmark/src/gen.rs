//! The benchmark's own input generators: a PRNG, a Zipf sampler, a
//! rank-scattering bijection, Poisson arrival schedules, and the four
//! workloads' operation streams. Nothing here calls program code, so a
//! change in `sosd-datasets` or `sosd-core` cannot silently change the
//! traffic; every stream is a pure function of its seed and is hashed into
//! the run's `inputs_hash`.

/// SplitMix64 finalizer (the benchmark's own copy, used for hashing inputs
/// and deriving payloads).
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-dependent hash of a `u64` sequence.
pub fn hash_u64s(seed: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(mix(seed), |h, v| mix(h ^ v))
}

/// SplitMix64 sequence generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams of one seed are
    /// independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed) ^ mix(stream.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipf sampler over ranks `1..=n` with exponent `s`, by rejection
/// inversion (Hörmann & Derflinger 1996): constant memory and constant
/// expected time, so a 10M-rank distribution needs no CDF table.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1 && s > 0.0 && s != 1.0, "zipf needs n >= 1 and s > 0, s != 1");
        let mut z = Zipf { n: n as f64, s, h_x1: 0.0, h_n: 0.0, threshold: 0.0 };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(z.n + 0.5);
        z.threshold = 2.0 - z.h_integral_inv(z.h_integral(2.5) - z.h(2.0));
        z
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        let t = (1.0 - self.s) * log_x;
        let helper = if t.abs() > 1e-8 { t.exp_m1() / t } else { 1.0 + t * 0.5 };
        helper * log_x
    }

    fn h_integral_inv(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.s)).max(-1.0);
        let helper = if t.abs() > 1e-8 { t.ln_1p() / t } else { 1.0 - t * 0.5 };
        (helper * x).exp()
    }

    /// One rank in `1..=n`; rank 1 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.unit() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inv(u);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= self.threshold || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64;
            }
        }
    }
}

/// A bijection on `0..n` that scatters popularity ranks over key positions
/// ("a shuffled rank order" without a 10M-entry permutation table).
#[derive(Debug, Clone, Copy)]
pub struct Scatter {
    n: u64,
    mul: u64,
    add: u64,
}

impl Scatter {
    pub fn new(n: u64, rng: &mut Rng) -> Self {
        // Any multiplier coprime to n is a bijection mod n; start near the
        // golden ratio so neighbouring ranks land far apart.
        let mut mul = ((n as f64 * 0.618_033_988_75) as u64).max(1) | 1;
        while gcd(mul, n) != 1 {
            mul += 2;
        }
        Scatter { n, mul, add: rng.below(n) }
    }

    #[inline]
    pub fn index(&self, rank: u64) -> usize {
        ((rank as u128 * self.mul as u128 + self.add as u128) % self.n as u128) as usize
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One operation of a workload stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Insert(u64, u64),
    Remove(u64),
    /// Half-open key range `[lo, hi)`.
    Range(u64, u64),
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert(..) | Op::Remove(_))
    }

    /// The key of a `Get`; read-only streams hold nothing else.
    pub fn get_key(&self) -> u64 {
        match *self {
            Op::Get(key) => key,
            other => panic!("{other:?} where a get was expected"),
        }
    }
}

/// Order-dependent hash of an operation stream.
pub fn hash_ops(seed: u64, ops: &[Op]) -> u64 {
    hash_u64s(
        seed,
        ops.iter().flat_map(|op| match *op {
            Op::Get(k) => [1, k, 0],
            Op::Insert(k, v) => [2, k, v],
            Op::Remove(k) => [3, k, 0],
            Op::Range(lo, hi) => [4, lo, hi],
        }),
    )
}

/// A key guaranteed absent from the sorted, duplicate-free-or-not `keys`:
/// the successor of a random key whose successor is not itself a key.
fn absent_key(keys: &[u64], rng: &mut Rng) -> u64 {
    loop {
        let i = rng.below(keys.len() as u64) as usize;
        let candidate = keys[i].wrapping_add(1);
        let next_is_candidate = keys.get(i + 1).is_some_and(|&k| k == candidate);
        if candidate != 0 && !next_is_candidate {
            return candidate;
        }
    }
}

/// Share of point reads that ask for a key the dataset does not hold.
pub const ABSENT_SHARE: f64 = 0.05;
/// Exponent of every skewed stream.
pub const ZIPF_S: f64 = 1.1;
/// Size of the fixed absent-key set the skewed streams draw from.
pub const ABSENT_SET: usize = 256;

/// `point-cold` traffic: uniform positions, [`ABSENT_SHARE`] absent keys.
pub fn uniform_gets(keys: &[u64], len: usize, rng: &mut Rng) -> Vec<Op> {
    (0..len)
        .map(|_| {
            if rng.unit() < ABSENT_SHARE {
                Op::Get(absent_key(keys, rng))
            } else {
                Op::Get(keys[rng.below(keys.len() as u64) as usize])
            }
        })
        .collect()
}

/// The shared shape of skewed traffic: Zipf ranks scattered over the key
/// positions plus a small fixed absent set. One `Skew` is shared by every
/// client of a workload so they contend for the same hot keys.
#[derive(Debug, Clone)]
pub struct Skew {
    zipf: Zipf,
    scatter: Scatter,
    absent: Vec<u64>,
}

impl Skew {
    pub fn new(keys: &[u64], rng: &mut Rng) -> Self {
        let n = keys.len() as u64;
        let absent = (0..ABSENT_SET).map(|_| absent_key(keys, rng)).collect();
        Skew { zipf: Zipf::new(n, ZIPF_S), scatter: Scatter::new(n, rng), absent }
    }

    /// Position in `keys` of one Zipf-drawn present key.
    #[inline]
    pub fn position(&self, rng: &mut Rng) -> usize {
        self.scatter.index(self.zipf.sample(rng) - 1)
    }

    /// One read key: Zipf-present, or absent with [`ABSENT_SHARE`].
    #[inline]
    pub fn key(&self, keys: &[u64], rng: &mut Rng) -> u64 {
        if rng.unit() < ABSENT_SHARE {
            self.absent[rng.below(self.absent.len() as u64) as usize]
        } else {
            keys[self.position(rng)]
        }
    }

    /// `point-hot` / `serve-openloop` traffic.
    pub fn gets(&self, keys: &[u64], len: usize, rng: &mut Rng) -> Vec<Op> {
        (0..len).map(|_| Op::Get(self.key(keys, rng))).collect()
    }
}

/// `mixed-rw` operation mix, in percent.
pub const MIXED_GET_PCT: u64 = 60;
pub const MIXED_INSERT_PCT: u64 = 25;
pub const MIXED_REMOVE_PCT: u64 = 10;
/// Key positions a `mixed-rw` range spans in the full key array (about
/// half of them are bulk-loaded, so a range returns at most this many).
pub const RANGE_SPAN: usize = 100;

/// The bulk-loaded half of `mixed-rw`: every even position of `all`.
pub fn bulk_half(all_keys: &[u64], all_payloads: &[u64]) -> (Vec<u64>, Vec<u64>) {
    (
        all_keys.iter().step_by(2).copied().collect(),
        all_payloads.iter().step_by(2).copied().collect(),
    )
}

/// `mixed-rw` traffic over `all` keys of which the even positions are
/// bulk-loaded: 60% gets (nine in ten Zipf over loaded keys, one in ten a
/// recently inserted key, so reads reach the delta and the run stack),
/// 25% inserts of not-yet-loaded keys in scattered order, 10% removes of a
/// uniform loaded-or-inserted key, 5% ranges of [`RANGE_SPAN`] positions.
///
/// `world` fixes which keys are popular and the order inserts arrive in;
/// `rng` draws the operations.
pub fn mixed_ops(all: &[u64], len: usize, world: &mut Rng, rng: &mut Rng) -> Vec<Op> {
    let loaded = all.len().div_ceil(2) as u64;
    let pool = (all.len() / 2) as u64;
    let loaded_key = |i: u64| all[2 * i as usize];
    let pool_key = |scatter: &Scatter, j: u64| all[2 * scatter.index(j % pool) + 1];
    let zipf = Zipf::new(loaded, ZIPF_S);
    let hot = Scatter::new(loaded, world);
    let order = Scatter::new(pool, world);
    let mut inserted = 0u64;
    (0..len)
        .map(|_| {
            let roll = rng.below(100);
            if roll < MIXED_GET_PCT {
                if inserted > 0 && rng.below(10) == 0 {
                    // Recent inserts: among the last 64k, still in the
                    // delta or the newest runs.
                    let back = rng.below(inserted.min(1 << 16));
                    Op::Get(pool_key(&order, inserted - 1 - back))
                } else {
                    Op::Get(loaded_key(hot.index(zipf.sample(rng) - 1) as u64))
                }
            } else if roll < MIXED_GET_PCT + MIXED_INSERT_PCT {
                let key = pool_key(&order, inserted);
                inserted += 1;
                Op::Insert(key, mix(key ^ inserted))
            } else if roll < MIXED_GET_PCT + MIXED_INSERT_PCT + MIXED_REMOVE_PCT {
                let i = rng.below(loaded + inserted.min(pool));
                Op::Remove(if i < loaded { loaded_key(i) } else { pool_key(&order, i - loaded) })
            } else {
                let start = 2 * hot.index(zipf.sample(rng) - 1);
                let end = (start + RANGE_SPAN).min(all.len() - 1);
                Op::Range(all[start], all[end])
            }
        })
        .collect()
}

/// A write-only probe stream for workloads that have no writes of their
/// own: inserts of fresh keys (successors of present keys) and removes of
/// uniform present keys, two to one.
pub fn write_probe_ops(keys: &[u64], len: usize, rng: &mut Rng) -> Vec<Op> {
    (0..len)
        .map(|i| {
            if i % 3 == 2 {
                Op::Remove(keys[rng.below(keys.len() as u64) as usize])
            } else {
                let key = absent_key(keys, rng);
                Op::Insert(key, mix(key))
            }
        })
        .collect()
}

/// Every this-many phases of an open-loop schedule, one runs at
/// [`BURST_FACTOR`] times the base rate.
pub const BURST_EVERY: u64 = 4;
pub const BURST_FACTOR: f64 = 2.0;
pub const PHASE_NS: u64 = 10_000_000;

/// Due times (ns from the start) of `count` Poisson arrivals at
/// `base_rate_per_s`, with one [`PHASE_NS`] phase in [`BURST_EVERY`] sped
/// up by [`BURST_FACTOR`].
pub fn poisson_schedule(base_rate_per_s: f64, count: usize, rng: &mut Rng) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let burst = (t as u64 / PHASE_NS) % BURST_EVERY == BURST_EVERY - 1;
            let rate_per_ns = base_rate_per_s * if burst { BURST_FACTOR } else { 1.0 } / 1e9;
            t += -(1.0 - rng.unit()).ln() / rate_per_ns;
            t as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(1_000_000, ZIPF_S);
        let draw = |seed| {
            let mut rng = Rng::new(seed, 0);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|&r| (1..=1_000_000).contains(&r)));
        // P(rank 1) = 1 / H(1e6, 1.1) ~ 0.124; the top 100 ranks hold ~53%.
        let ones = a.iter().filter(|&&r| r == 1).count() as f64 / a.len() as f64;
        let top = a.iter().filter(|&&r| r <= 100).count() as f64 / a.len() as f64;
        assert!((0.10..0.15).contains(&ones), "P(rank 1) = {ones}");
        assert!((0.49..0.57).contains(&top), "P(rank <= 100) = {top}");
    }

    #[test]
    fn scatter_is_a_bijection() {
        for n in [1u64, 2, 10, 97, 1000, 4096] {
            let s = Scatter::new(n, &mut Rng::new(3, n));
            let mut seen = vec![false; n as usize];
            for r in 0..n {
                assert!(!std::mem::replace(&mut seen[s.index(r)], true), "n={n} r={r}");
            }
        }
    }

    #[test]
    fn poisson_schedule_is_deterministic_and_hits_its_rate() {
        let a = poisson_schedule(100_000.0, 50_000, &mut Rng::new(11, 0));
        assert_eq!(a, poisson_schedule(100_000.0, 50_000, &mut Rng::new(11, 0)));
        assert_ne!(a, poisson_schedule(100_000.0, 50_000, &mut Rng::new(12, 0)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // One phase in four runs at twice the base rate: mean 1.25x.
        let rate = a.len() as f64 / (*a.last().unwrap() as f64 / 1e9);
        assert!((118_000.0..132_000.0).contains(&rate), "offered {rate}/s");
    }

    #[test]
    fn streams_repeat_per_seed_and_absent_keys_are_absent() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 3 + 1).collect();
        let make = |seed| {
            let mut rng = Rng::new(seed, 1);
            let skew = Skew::new(&keys, &mut rng);
            (uniform_gets(&keys, 5_000, &mut rng), skew.gets(&keys, 5_000, &mut rng))
        };
        let (cold, hot) = make(5);
        assert_eq!((cold.clone(), hot.clone()), make(5));
        assert_ne!(hash_ops(0, &cold), hash_ops(0, &make(6).0));
        for stream in [&cold, &hot] {
            let absent = stream
                .iter()
                .filter(|op| matches!(op, Op::Get(k) if keys.binary_search(k).is_err()))
                .count() as f64;
            let share = absent / stream.len() as f64;
            assert!((0.03..0.07).contains(&share), "absent share {share}");
        }
    }

    #[test]
    fn mixed_ops_follow_the_mix_and_insert_only_unloaded_keys() {
        let all: Vec<u64> = (0..20_000u64).map(|i| i * 5 + 2).collect();
        let make = |seed| mixed_ops(&all, 20_000, &mut Rng::new(1, 0), &mut Rng::new(seed, 2));
        let ops = make(9);
        assert_eq!(ops, make(9));
        assert_ne!(ops, make(10));
        let share = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 20_000.0;
        assert!((0.57..0.63).contains(&share(|o| matches!(o, Op::Get(_)))));
        assert!((0.22..0.28).contains(&share(|o| matches!(o, Op::Insert(..)))));
        assert!((0.08..0.12).contains(&share(|o| matches!(o, Op::Remove(_)))));
        assert!((0.03..0.07).contains(&share(|o| matches!(o, Op::Range(..)))));
        let mut seen = std::collections::BTreeSet::new();
        for op in &ops {
            match *op {
                Op::Insert(k, _) => {
                    let pos = all.binary_search(&k).expect("inserted keys come from `all`");
                    assert_eq!(pos % 2, 1, "inserts draw from the unloaded half");
                    assert!(seen.insert(k), "each pool key is inserted once");
                }
                Op::Range(lo, hi) => assert!(lo < hi),
                _ => {}
            }
        }
    }
}
