//! 64-bit FNV-1a: the dependency-free content hash behind the report
//! cache's file names and entry checksums, and the pinned digests of the
//! dataset generators' output.

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
}
