//! A small FxHash-style hasher.
//!
//! The search data structures key hash maps almost exclusively by small
//! integers and short byte strings; SipHash's HashDoS protection is wasted
//! there. This is the well-known multiply-rotate hash used by rustc
//! (`rustc-hash`), implemented locally so the workspace keeps zero external
//! hashing dependencies.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rem) = bytes.as_chunks::<8>();
        for word in words {
            self.add_to_hash(u64::from_le_bytes(*word));
        }
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreading() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        // Nearby keys land in different buckets for small table sizes.
        let buckets: std::collections::HashSet<u64> = (0..64u64).map(|i| h(i) % 64).collect();
        assert!(buckets.len() > 16, "hash should spread nearby integers");
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m[&1], "one");
        let mut s: FxHashSet<[u32; 3]> = FxHashSet::default();
        assert!(s.insert([1, 2, 3]));
        assert!(!s.insert([1, 2, 3]));
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let h = |b: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(b);
            hasher.finish()
        };
        assert_eq!(h(b"hello world"), h(b"hello world"));
        assert_ne!(h(b"hello world"), h(b"hello worle"));
        // Tail handling: lengths not divisible by 8.
        assert_ne!(h(b"abc"), h(b"abd"));
    }
}
