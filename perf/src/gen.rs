//! The benchmark's own seeded load generator.
//!
//! Kept inside `perf/` (and independent of `crates/workload` and the vendored
//! `rand`) so that a later change to those crates cannot change the inputs a
//! seed produces: `--seed` is the only source of randomness.

/// Keys of preloaded entries are `KEY_STRIDE * i`, leaving gaps for new keys.
pub const KEY_STRIDE: u64 = 16;

/// splitmix64 finaliser: seeds the generator and derives every value from its key.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value stored under `key`, everywhere in the benchmark: the oracle needs
/// no table, only the set of keys that exist.
pub fn value_of(key: u64) -> u64 {
    mix(key ^ 0x5EED_F00D)
}

/// The preloaded entries of an `n`-entry tree: sorted, duplicate-free.
pub fn preload(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (i * KEY_STRIDE, value_of(i * KEY_STRIDE))).collect()
}

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    /// An independent stream of `seed`: distinct `stream` tags (workload
    /// inputs, warm-up, each client) never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = mix(seed) ^ mix(stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = mix(z);
            *slot = z;
        }
        Rng(s)
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias at these `n` is below 2⁻⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `[0, n)` (Gray et al.'s method, as YCSB uses it). Rank 0
/// is the hottest; callers scatter ranks over the key space with [`Zipf::scatter`].
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64).min(self.n - 1)
    }

    /// Spreads a rank over `[0, n)` so hot ranks are not neighbours in key order
    /// (and so land on both shards).
    pub fn scatter(&self, rank: u64) -> u64 {
        mix(rank) % self.n
    }
}

/// One `multi_search` batch over an `n`-entry preloaded tree: 15 in 16 keys
/// exist, the rest fall in a gap and must come back `None`.
pub fn lookup_batch(rng: &mut Rng, n: u64, width: usize) -> Vec<u64> {
    (0..width)
        .map(|_| {
            let r = rng.next_u64();
            let key = ((u128::from(r >> 4) * u128::from(n)) >> 60) as u64 * KEY_STRIDE;
            if r & 0xF == 0 {
                key + 7
            } else {
                key
            }
        })
        .collect()
}

/// The expected answer for a key of [`lookup_batch`] on a tree nobody has written to.
pub fn expected_preloaded(key: u64) -> Option<u64> {
    key.is_multiple_of(KEY_STRIDE).then(|| value_of(key))
}

/// One `insert_batch` with keys uniform over the whole key space of an
/// `n`-entry preloaded tree: 1 in 16 overwrites a preloaded key, the rest are new.
pub fn insert_batch(rng: &mut Rng, n: u64, width: usize) -> Vec<(u64, u64)> {
    (0..width)
        .map(|_| {
            let key = rng.below(n * KEY_STRIDE);
            (key, value_of(key))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        let a: Vec<u64> = lookup_batch(&mut Rng::new(7, 1), 1000, 64);
        let b: Vec<u64> = lookup_batch(&mut Rng::new(7, 1), 1000, 64);
        let c: Vec<u64> = lookup_batch(&mut Rng::new(7, 2), 1000, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&k| k < 1000 * KEY_STRIDE));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 0.9);
        let mut rng = Rng::new(1, 0);
        let mut hot = 0;
        for _ in 0..10_000 {
            let r = z.rank(&mut rng);
            assert!(r < 10_000);
            assert!(z.scatter(r) < 10_000);
            hot += u64::from(r < 100);
        }
        assert!(
            hot > 3_000,
            "1% of the ranks should draw well over 30% of the picks, got {hot}"
        );
    }
}
