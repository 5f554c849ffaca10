//! Seeded, deterministic random number generation.
//!
//! All stochastic pieces of the reproduction (RMAT edge generation, ASLR,
//! synthetic CPU workloads, shbench size mixes) draw from [`DetRng`] so that
//! every experiment is exactly reproducible from its seed.
//!
//! The generator is an in-tree xoshiro256++ (Blackman & Vigna) seeded
//! through SplitMix64 — the same construction the `rand` crate's
//! `SmallRng` uses on 64-bit targets. Carrying the ~60 lines here instead
//! of depending on crates.io keeps the whole library workspace building
//! with zero external crates (the build-system analogue of the paper's
//! devirtualization: remove the indirection layer when you can hold the
//! resource directly), and pins the bit-stream so seeds stay stable across
//! toolchain and dependency upgrades.

/// SplitMix64 step (Steele, Lea & Flood): used only to expand the user
/// seed into the 256-bit xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic RNG with convenience samplers for simulator needs.
///
/// Implements xoshiro256++ directly; the wrapper exists so downstream
/// crates share one generator and one seeding policy, and so the sampled
/// streams are a fixed, documented part of the reproduction.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro's all-zero state is a fixed point; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0; 4] {
            return Self { s: [1, 0, 0, 0] };
        }
        Self { s }
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` (Lemire's multiply-shift with
    /// rejection, so the draw is exactly uniform).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`: [`DetRng::unit_bits`] times `2^-53`,
    /// which is exact.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.unit_bits() as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The 53 high bits of one draw, the integer behind [`DetRng::unit`]:
    /// comparing it with `ceil(t * 2^53)` decides `unit() >= t` exactly,
    /// without the float conversion.
    #[inline]
    pub fn unit_bits(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fork a child generator whose stream is independent of, but fully
    /// determined by, this one. Used to give each simulated engine or
    /// workload its own stream without shared mutable state.
    pub fn fork(&mut self) -> Self {
        Self::new(self.next_u64())
    }

    /// Sample from a discrete power-law-ish distribution over `[0, n)`:
    /// repeatedly halve the candidate range with probability `skew`,
    /// producing the hub-heavy reference patterns used by the synthetic
    /// CPU workloads. `skew == 0.0` degenerates to uniform.
    pub fn skewed_below(&mut self, n: u64, skew: f64) -> u64 {
        assert!(n > 0);
        let mut hi = n;
        while hi > 1 && self.chance(skew) {
            hi = hi.div_ceil(2);
        }
        self.below(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // First outputs of SplitMix64 from state 0, per the reference
        // implementation — anchors the seeding path for all seeds.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
        }
    }

    #[test]
    fn below_covers_small_range_uniformly() {
        let mut rng = DetRng::new(17);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[rng.below(8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn range_bounds() {
        let mut rng = DetRng::new(4);
        for _ in 0..1000 {
            let v = rng.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn unit_in_zero_one() {
        let mut rng = DetRng::new(5);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = DetRng::new(9);
        let mut b = DetRng::new(9);
        assert_eq!(a.fork().next_u64(), b.fork().next_u64());
    }

    #[test]
    fn skewed_below_biases_low() {
        let mut rng = DetRng::new(11);
        let n = 1_000u64;
        let draws = 20_000;
        let low = (0..draws)
            .filter(|_| rng.skewed_below(n, 0.7) < n / 10)
            .count();
        // Uniform would put ~10% below n/10; skew should push it far higher.
        assert!(low > draws / 4, "low draws: {low}");
    }

    #[test]
    fn skewed_zero_is_roughly_uniform() {
        let mut rng = DetRng::new(12);
        let n = 100u64;
        let draws = 20_000;
        let low = (0..draws)
            .filter(|_| rng.skewed_below(n, 0.0) < n / 2)
            .count();
        let frac = low as f64 / draws as f64;
        assert!((0.45..0.55).contains(&frac), "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        DetRng::new(1).below(0);
    }
}
