//! Deterministic hash maps for sim-path state.
//!
//! `std::collections::HashMap`'s default `RandomState` is seeded from OS
//! entropy once per map, so *iteration order differs between two maps
//! with identical contents in the same process*, let alone between runs.
//! Any sim-path code that iterates such a map — to drain completions,
//! aggregate metrics, or pick a victim — silently breaks the bit-exact
//! golden contract (tests/determinism.rs).
//!
//! [`DetHashMap`]/[`DetHashSet`] are drop-in replacements backed by
//! [`FxBuildHasher`], a fixed-seed FxHash: same keys → same buckets →
//! same iteration order, every run, every process. The workspace
//! `clippy.toml` disallows the std types everywhere else, which steers
//! all map usage here (or to `BTreeMap`, when sorted iteration is itself
//! meaningful).
//!
//! [`FxHasher`] (`rotate_left(5) ^ word`, multiplied by the Fx constant)
//! is the hasher behind both.

#![allow(
    clippy::disallowed_types,
    reason = "defines DetHashMap/DetHashSet over std HashMap with a fixed FxHash hasher; the one sanctioned HashMap use"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// FxHash multiplier (Firefox's hash; also used by rustc).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed-seed FxHash `Hasher`: fast, deterministic, not DoS-resistant
/// (irrelevant in a closed simulation).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s. Zero-sized and `Default`, so
/// `DetHashMap::default()` replaces `HashMap::new()` one-for-one.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Deterministic-iteration `HashMap`. Construct with `::default()` or
/// [`det_map_with_capacity`].
pub type DetHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Deterministic-iteration `HashSet`. Construct with `::default()` or
/// [`det_set_with_capacity`].
pub type DetHashSet<T> = HashSet<T, FxBuildHasher>;

/// `DetHashMap` with pre-allocated capacity (the inherent
/// `with_capacity` constructor only exists for `RandomState`).
pub fn det_map_with_capacity<K, V>(cap: usize) -> DetHashMap<K, V> {
    DetHashMap::with_capacity_and_hasher(cap, FxBuildHasher)
}

/// `DetHashSet` with pre-allocated capacity.
pub fn det_set_with_capacity<T>(cap: usize) -> DetHashSet<T> {
    DetHashSet::with_capacity_and_hasher(cap, FxBuildHasher)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_contents_identical_iteration() {
        // The exact property RandomState lacks: two separately built
        // maps with the same keys iterate in the same order.
        let mut a: DetHashMap<u64, u64> = DetHashMap::default();
        let mut b: DetHashMap<u64, u64> = DetHashMap::default();
        for k in [17u64, 3, 99, 42, 7, 1000, 23, 5] {
            a.insert(k, k * 2);
            b.insert(k, k * 2);
        }
        let ka: Vec<u64> = a.keys().copied().collect();
        let kb: Vec<u64> = b.keys().copied().collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn insertion_order_does_not_matter_for_order() {
        let mut a: DetHashSet<u32> = DetHashSet::default();
        let mut b: DetHashSet<u32> = DetHashSet::default();
        for k in [1u32, 2, 3, 4, 5, 6, 7, 8] {
            a.insert(k);
        }
        for k in [8u32, 7, 6, 5, 4, 3, 2, 1] {
            b.insert(k);
        }
        let ka: Vec<u32> = a.iter().copied().collect();
        let kb: Vec<u32> = b.iter().copied().collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn hasher_matches_known_stream() {
        // Pin the hash function itself so a refactor cannot silently
        // change bucket assignment (and thus iteration order) while the
        // tests above still pass relative to each other.
        let mut h = FxHasher::default();
        h.write_u64(0xDEAD_BEEF);
        let one = h.finish();
        let mut h2 = FxHasher::default();
        h2.write_u64(0xDEAD_BEEF);
        assert_eq!(one, h2.finish());
        assert_eq!(
            one,
            (0u64.rotate_left(5) ^ 0xDEAD_BEEF).wrapping_mul(FX_SEED)
        );
    }

    #[test]
    fn capacity_constructors() {
        let m: DetHashMap<u8, u8> = det_map_with_capacity(64);
        assert!(m.capacity() >= 64);
        let s: DetHashSet<u8> = det_set_with_capacity(64);
        assert!(s.capacity() >= 64);
    }
}
