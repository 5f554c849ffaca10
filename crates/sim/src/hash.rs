//! Dependency-free hashing: 64-bit FNV-1a, the content hash behind the
//! report cache's file names and entry checksums and the pinned digests of
//! the dataset generators' output; and [`U64Hasher`], a multiplicative
//! hasher for the OS model's maps keyed by frame or page number.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a over `bytes`. Changing any one byte always changes the
/// hash: each step is a bijection of the running state.
///
/// # Examples
///
/// ```
/// assert_eq!(dvm_sim::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fibonacci hashing for `u64` keys: multiply by 2^64 / φ, then fold the
/// high half (where the product mixes best) into the low half, which picks
/// the table bucket. One multiply and one shift-xor per key instead of
/// SipHash's rounds, and enough spread for frame and page numbers, which
/// are dense and never adversarial.
#[derive(Debug, Default, Clone, Copy)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = product ^ (product >> 32);
    }

    /// Keys other than `u64` still hash correctly, a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// A `HashMap` keyed by `u64` under [`U64Hasher`].
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

/// A `HashSet` of `u64` under [`U64Hasher`].
pub type U64Set = HashSet<u64, BuildHasherDefault<U64Hasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn u64_maps_spread_dense_keys_and_round_trip() {
        // Dense frame numbers must land in distinct low bits, or every
        // lookup would probe a long chain.
        let low_bits: HashSet<u64> = (0..1024u64)
            .map(|k| {
                let mut h = U64Hasher::default();
                h.write_u64(k);
                h.finish() & 1023
            })
            .collect();
        assert!(low_bits.len() > 600, "{} distinct buckets", low_bits.len());
        let mut map = U64Map::default();
        for k in (0..10_000u64).map(|i| i * 4097) {
            map.insert(k, k + 1);
        }
        assert!((0..10_000u64).all(|i| map[&(i * 4097)] == i * 4097 + 1));
        let set: U64Set = [3, 5, 3].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
