//! Hash maps keyed by cache-line address.
//!
//! The directory, busy-line, writeback-buffer and prefetch maps are
//! looked up on nearly every simulated memory transaction. Their keys
//! are line addresses the simulator itself produces, so a keyed,
//! DoS-resistant hash (std's SipHash) buys nothing; one multiply does.
//! The hasher is fixed and deterministic. Nothing iterates these maps,
//! so the hash never influences a simulation's results, only its speed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map from line address to `V`.
pub type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// A set of line addresses.
pub type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;

/// Multiplicative hashing by an odd 64-bit constant (2^64 / φ).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A multiplicative hasher for `u64` keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(K);
    }

    /// The product's low bits depend only on the key's low bits, which
    /// are clear in a line address, and the table picks its bucket from
    /// the low bits: rotate the well-mixed high bits down onto them.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn line_addresses_spread_over_the_low_bits() {
        // 4,096 lines, consecutive or one 96-bank interleave apart, must
        // reach most of 4,096 buckets picked by the low 12 bits (a hash
        // that kept the key's clear low 6 bits would reach at most 64).
        let build = BuildHasherDefault::<LineHasher>::default();
        for stride in [64, 96 * 64] {
            let buckets: HashSet<u64> = (0..4096u64)
                .map(|i| build.hash_one(0x4000_0000 + i * stride) & 4095)
                .collect();
            assert!(buckets.len() > 2048, "stride {stride}: {}", buckets.len());
        }
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: LineMap<u32> = LineMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m.get(&(i * 64)) == Some(&(i as u32))));
        assert_eq!(m.get(&32), None);
    }
}
