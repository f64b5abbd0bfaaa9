//! Random replacement: the one eviction policy of both hardware cache
//! models.
//!
//! A [`Domain`] is the resident set of one cache: a dense `keys` vector
//! in replacement order, a capacity and a [`SplitMix64`] victim stream.
//! Its owner keeps a `u32` entry per key, `tag | position + 1`, in an
//! array of its own, and `keys` holds each resident key's entry location.
//! The pair is a sparse set (Briggs & Torczon, 1993): an entry counts only
//! if `keys[position]` names it back ([`Domain::holds`]), so an eviction
//! overwrites one `keys` word and leaves the victim's entry stale. The
//! NIC's QP-context cache ([`crate::niccache`]) indexes its entries by
//! `QpId`, the LLC ([`crate::llc`]) by a page pool over registered regions.
//!
//! Random replacement rather than strict LRU: hardware caches are
//! hashed or set-associative, so an oversized cyclic working set
//! degrades *proportionally* (hit rate ≈ capacity / working set), the
//! gradual decline of the paper's Fig. 1(b) and Fig. 3(b), instead of
//! collapsing to zero the way strict LRU does.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use simcore::SplitMix64;

/// Where every domain's victim stream starts. Each domain draws exactly
/// one value per eviction, so a run's replacement decisions are a pure
/// function of its access sequence.
const VICTIM_SEED: u64 = 0x853C_49E6_748F_EA9B;

/// One cache domain: the resident keys in replacement order.
#[derive(Clone, Debug)]
pub(crate) struct Domain {
    /// Entry location of each resident key. Insertion pushes, eviction
    /// replaces in place and removal swap-removes — victim selection
    /// indexes this vector, so its exact order is part of the
    /// deterministic replacement contract. It grows by doubling up to
    /// `capacity` and never reserves more.
    pub(crate) keys: Vec<u32>,
    pub(crate) capacity: usize,
    pub(crate) rng: SplitMix64,
    /// Or-ed into every entry this domain writes: `0`, or a bit above
    /// the 31-bit position field that tells the owner's domains apart.
    pub(crate) tag: u32,
}

impl Domain {
    /// A domain of `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the 31-bit position
    /// field of an entry.
    pub(crate) fn new(capacity: usize, tag: u32) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(
            capacity < 1 << 31,
            "a cache of {capacity} entries exceeds the 31-bit position field"
        );
        Domain {
            keys: Vec::new(),
            capacity,
            rng: SplitMix64(VICTIM_SEED),
            tag,
        }
    }

    /// Whether `entry`, read at `loc` of the owner's array, is resident
    /// here: its position names `loc` back. `0`, stale and other domains'
    /// entries read absent.
    #[inline]
    pub(crate) fn holds(&self, entry: u32, loc: usize) -> bool {
        let pos = (entry ^ self.tag).wrapping_sub(1) as usize;
        self.keys.get(pos) == Some(&(loc as u32))
    }

    /// Makes the key whose entry sits at `entries[loc]` (held by no
    /// domain sharing `entries`) resident here, evicting a uniformly
    /// random resident key when full. Returns the evicted key's entry
    /// location, whose entry is left stale.
    #[inline]
    pub(crate) fn insert(&mut self, entries: &mut [u32], loc: usize) -> Option<u32> {
        let (pos, evicted) = if self.keys.len() == self.capacity {
            let victim = (self.rng.next_u64() % self.capacity as u64) as usize;
            let old = std::mem::replace(&mut self.keys[victim], loc as u32); // victim < capacity == keys.len()
            (victim, Some(old))
        } else {
            let len = self.keys.len();
            if len == self.keys.capacity() {
                // Double, but never past `capacity`: the last step
                // reserves exactly the rest.
                self.keys.reserve_exact(len.max(4).min(self.capacity - len));
            }
            self.keys.push(loc as u32);
            (len, None)
        };
        entries[loc] = self.tag | (pos as u32 + 1); // the owner passes a location inside entries
        evicted
    }

    /// Swap-removes the resident key at `keys[pos]`, leaving its entry
    /// stale for the caller to overwrite.
    #[inline]
    pub(crate) fn remove_at(&mut self, entries: &mut [u32], pos: usize) {
        self.keys.swap_remove(pos);
        if let Some(&filler) = self.keys.get(pos) {
            entries[filler as usize] = self.tag | (pos as u32 + 1); // keys hold locations of live entries
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::Domain;
    use std::collections::BTreeMap;

    #[test]
    fn keys_grow_by_doubling_up_to_capacity_exactly() {
        // The default LLC's main domain (442 368 lines), which plain
        // `Vec` doubling would give 524 288 slots, and a tiny domain.
        for (capacity, want) in [(442_368, &[4, 8, 16, 32][..]), (6, &[4, 6][..])] {
            let mut domain = Domain::new(capacity, 0);
            let mut entries = vec![0; capacity + 1];
            let mut seen = Vec::new();
            for loc in 0..capacity {
                assert_eq!(domain.insert(&mut entries, loc), None);
                if seen.last() != Some(&domain.keys.capacity()) {
                    seen.push(domain.keys.capacity());
                }
            }
            assert_eq!(&seen[..want.len()], want);
            assert_eq!(seen.last(), Some(&capacity));
            // Full: an insert evicts and allocates nothing.
            assert!(domain.insert(&mut entries, capacity).is_some());
            assert_eq!(domain.keys.capacity(), capacity);
        }
    }

    /// The reference random-replacement set both caches are checked
    /// against: the seed's map index + `keys` vector, with its own copy
    /// of the SplitMix64 victim stream.
    pub(crate) struct RefRandomSet<K> {
        map: BTreeMap<K, usize>,
        pub(crate) keys: Vec<K>,
        capacity: usize,
        pub(crate) rng_state: u64,
    }

    impl<K: Ord + Copy> RefRandomSet<K> {
        pub(crate) fn new(capacity: usize) -> Self {
            RefRandomSet {
                map: BTreeMap::new(),
                keys: Vec::new(),
                capacity,
                rng_state: 0x853C_49E6_748F_EA9B,
            }
        }

        fn next_rand(&mut self) -> u64 {
            self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.rng_state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn contains(&self, key: &K) -> bool {
            self.map.contains_key(key)
        }

        /// Returns `(hit, evicted)`, inserting `key` on a miss.
        pub(crate) fn touch(&mut self, key: K) -> (bool, Option<K>) {
            if self.map.contains_key(&key) {
                return (true, None);
            }
            if self.keys.len() == self.capacity {
                let victim = (self.next_rand() % self.capacity as u64) as usize;
                let old = self.keys[victim];
                self.map.remove(&old);
                self.keys[victim] = key;
                self.map.insert(key, victim);
                return (false, Some(old));
            }
            self.keys.push(key);
            self.map.insert(key, self.keys.len() - 1);
            (false, None)
        }

        /// Swap-removes `key`; returns whether it was resident.
        pub(crate) fn remove(&mut self, key: &K) -> bool {
            let Some(idx) = self.map.remove(key) else {
                return false;
            };
            let last = self.keys.len() - 1;
            if idx != last {
                self.keys.swap(idx, last);
                self.map.insert(self.keys[idx], idx);
            }
            self.keys.pop();
            true
        }
    }
}
