//! Random-replacement sets: the one eviction policy of both hardware
//! cache models.
//!
//! [`RandomSet`] is the generic hashed set — the NIC's QP-context cache
//! ([`crate::niccache`]) keys it by `QpId`, and the LLC's per-line
//! reference model (in [`crate::llc`]'s tests) by `(MrId, line)`. The
//! LLC model proper does not hash: its keys are lines of contiguous
//! registered regions, so it finds residency by address and shares only
//! the victim stream (`VictimRng`) and the `keys`-vector discipline
//! with this set.
//!
//! (The module name is historical: nothing in it is LRU.)

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use simcore::FxHasher;
use std::hash::{Hash, Hasher};

/// The SplitMix64 stream eviction victims are drawn from. Every cache
/// domain owns one, started from the same constant, and draws exactly
/// one value per eviction — so a run's replacement decisions are a pure
/// function of its access sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct VictimRng(pub(crate) u64);

impl VictimRng {
    pub(crate) fn new() -> Self {
        VictimRng(0x853C_49E6_748F_EA9B)
    }

    /// Draws the position of the next victim in a full `keys` vector of
    /// `capacity` entries.
    #[inline]
    pub(crate) fn victim(&mut self, capacity: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % capacity as u64) as usize
    }
}

/// A fixed-capacity set with *random replacement*.
///
/// Models hashed / set-associative hardware caches (like the NIC's QP
/// context cache) whose effective hit rate under an oversized working set
/// degrades *proportionally* (`≈ capacity / working_set`) instead of
/// collapsing to zero the way strict LRU does under cyclic access. This
/// is what gives the gradual throughput decline of the paper's Fig. 1(b)
/// rather than a cliff.
///
/// Replacement choices come from an internal `VictimRng`, so runs are
/// deterministic. The index is a linear-probed open-addressed table over
/// FxHash: [`access`](Self::access) resolves hit-or-insert in a single
/// probe sequence. The table starts tiny and grows with residency, so a
/// simulation with hundreds of nodes does not pre-allocate
/// capacity-sized maps.
#[derive(Clone)]
pub struct RandomSet<K> {
    /// Resident keys. Insertion pushes, eviction replaces in place and
    /// removal swap-removes — victim selection indexes this vector, so
    /// its exact order is part of the deterministic replacement contract.
    pub(crate) keys: Vec<K>,
    /// Open-addressed index. Each slot packs `hash32 << 32 | keys
    /// position + 1` (`0` = empty); caching the hash lets probes skip
    /// the random `keys` load on mismatched slots and lets erase/grow
    /// walk the table without rehashing any key.
    table: Vec<u64>,
    /// Back-pointers: `slots[i]` is the table slot currently indexing
    /// `keys[i]`, so eviction and swap-remove need not re-hash and
    /// re-probe the victim / relocated key.
    slots: Vec<u32>,
    capacity: usize,
    pub(crate) rng: VictimRng,
}

#[inline]
fn slot_entry(h32: u32, idx: usize) -> u64 {
    (h32 as u64) << 32 | (idx as u64 + 1)
}

#[inline]
fn slot_idx(e: u64) -> usize {
    (e as u32 - 1) as usize
}

#[inline]
fn slot_hash(e: u64) -> u32 {
    (e >> 32) as u32
}

impl<K> std::fmt::Debug for RandomSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomSet")
            .field("len", &self.keys.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

const RANDOM_SET_MIN_TABLE: usize = 16;

impl<K: Eq + Hash + Clone> RandomSet<K> {
    /// Creates a set holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RandomSet capacity must be positive");
        RandomSet {
            keys: Vec::new(),
            table: vec![0; RANDOM_SET_MIN_TABLE],
            slots: Vec::new(),
            capacity,
            rng: VictimRng::new(),
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The 32-bit table hash of `key` (upper half of the FxHash word,
    /// where the multiplies have mixed the most).
    #[inline]
    fn hash32(key: &K) -> u32 {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        (h.finish() >> 32) as u32
    }

    /// Probes for `key` (whose hash is `h32`): `Ok(table_slot)` when
    /// resident, `Err(slot)` of the first empty slot otherwise (where an
    /// insert would land). Slots whose cached hash differs are skipped
    /// without touching `keys`.
    #[inline]
    fn probe(&self, key: &K, h32: u32) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut i = (h32 as usize) & mask;
        loop {
            let e = self.table[i]; // i is masked by table.len() - 1 (power of two)
            if e == 0 {
                return Err(i);
            }
            // occupied entries hold live key indices
            if slot_hash(e) == h32 && self.keys[slot_idx(e)] == *key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes the entry at `slot`, backward-shifting the probe chain so
    /// later lookups never cross a stale hole. Walks the table only —
    /// chain positions come from the cached hashes.
    fn erase_slot(&mut self, mut i: usize) {
        let mask = self.table.len() - 1;
        self.table[i] = 0; // i is a masked table position
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let e = self.table[j]; // j is a masked table position
            if e == 0 {
                return;
            }
            let ideal = (slot_hash(e) as usize) & mask;
            // Move `j` back into the hole when its probe chain spans it.
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(i) & mask) {
                self.table[i] = e; // i/j are masked; occupied entries hold live key indices
                self.table[j] = 0;
                self.slots[slot_idx(e)] = i as u32; // slot_idx(e) < keys.len() for occupied entries
                i = j;
            }
        }
    }

    /// Doubles the table when residency approaches 1/2 load, keeping
    /// probes and shift chains short. Redistribution reuses the cached
    /// hashes (no key is rehashed) and is a pure function of the
    /// resident set, so determinism is unaffected.
    fn maybe_grow(&mut self) {
        if (self.keys.len() + 1) * 2 < self.table.len() {
            return;
        }
        let new_len = (self.table.len() * 2).max(RANDOM_SET_MIN_TABLE);
        let old = std::mem::replace(&mut self.table, vec![0; new_len]);
        let mask = self.table.len() - 1;
        for e in old {
            if e == 0 {
                continue;
            }
            let mut i = (slot_hash(e) as usize) & mask;
            // i is masked by the new table's mask
            while self.table[i] != 0 {
                i = (i + 1) & mask;
            }
            self.table[i] = e; // masked position; occupied entries hold live key indices
            self.slots[slot_idx(e)] = i as u32;
        }
    }

    /// Accesses `key`: reports a hit if resident, otherwise inserts it,
    /// evicting a uniformly random resident key when full. Hit-or-insert
    /// is resolved by a single probe sequence.
    ///
    /// Returns `(hit, evicted)`.
    pub fn access(&mut self, key: K) -> (bool, Option<K>) {
        let h32 = Self::hash32(&key);
        self.maybe_grow();
        match self.probe(&key, h32) {
            Ok(_) => (true, None),
            Err(slot) => {
                if self.keys.len() == self.capacity {
                    let victim = self.rng.victim(self.capacity);
                    // The back-pointer gives the victim's index entry
                    // directly — no rehash, no probe of its chain.
                    let old_slot = self.slots[victim] as usize; // victim < capacity == keys.len() == slots.len()
                    self.erase_slot(old_slot);
                    let old = std::mem::replace(&mut self.keys[victim], key); // victim < keys.len()

                    // Re-probe: the backward shift may have opened a hole
                    // earlier in the new key's chain than the slot the
                    // first probe found, and inserting past a hole would
                    // make the key unfindable.
                    #[allow(
                        clippy::expect_used,
                        reason = "the first probe missed and erase_slot only removes, so the key is still absent"
                    )]
                    let ins = self
                        .probe(&self.keys[victim], h32) // victim is a live key index
                        .expect_err("fresh key cannot be resident");
                    self.table[ins] = slot_entry(h32, victim); // ins is a masked probe position; victim < keys.len()
                    self.slots[victim] = ins as u32;
                    (false, Some(old))
                } else {
                    self.table[slot] = slot_entry(h32, self.keys.len()); // slot from probe: a masked table position
                    self.slots.push(slot as u32);
                    self.keys.push(key);
                    (false, None)
                }
            }
        }
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &K) -> bool {
        self.probe(key, Self::hash32(key)).is_ok()
    }

    /// Removes `key` if resident (swap-remove); returns whether it was
    /// present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Ok(slot) = self.probe(key, Self::hash32(key)) else {
            return false;
        };
        let idx = slot_idx(self.table[slot]); // probe returned an occupied slot: entry holds a live index
        self.erase_slot(slot);
        let last = self.keys.len() - 1;
        if idx != last {
            // The back-pointer (kept current by the backward shift in
            // `erase_slot`) locates the swap-filler's index entry without
            // rehashing or probing; the entry itself still carries the
            // filler's cached hash.
            let moved_slot = self.slots[last] as usize;
            let e = self.table[moved_slot]; // back-pointers are masked table positions
            self.keys.swap(idx, last);
            self.table[moved_slot] = slot_entry(slot_hash(e), idx); // moved_slot is occupied; idx < keys.len()
            self.slots[idx] = moved_slot as u32;
        }
        self.keys.pop();
        self.slots.pop();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn random_set_hits_within_capacity() {
        let mut s = RandomSet::new(8);
        for k in 0..8u32 {
            assert_eq!(s.access(k), (false, None));
        }
        for k in 0..8u32 {
            assert_eq!(s.access(k), (true, None));
        }
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn random_set_degrades_proportionally() {
        // Cyclic access over 2x capacity: strict LRU would miss 100%;
        // random replacement should hit roughly capacity/working-set.
        let mut s = RandomSet::new(64);
        let mut hits = 0u32;
        let mut total = 0u32;
        for round in 0..200u32 {
            for k in 0..128u32 {
                let (hit, _) = s.access(k);
                if round >= 10 {
                    total += 1;
                    hits += hit as u32;
                }
            }
        }
        // For cyclic access the steady-state hit rate solves
        // h = exp(-(WS/C)·(1-h)); for WS = 2C that is h ≈ 0.20 — far
        // above strict LRU's 0, and degrading smoothly with WS.
        let rate = hits as f64 / total as f64;
        assert!(
            (0.10..0.35).contains(&rate),
            "expected ~0.20 hit rate, got {rate:.2}"
        );
    }

    #[test]
    fn random_set_eviction_keeps_len_at_capacity() {
        let mut s = RandomSet::new(4);
        for k in 0..100u32 {
            s.access(k);
            assert!(s.len() <= 4);
        }
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn random_set_is_deterministic() {
        let run = || {
            let mut s = RandomSet::new(16);
            let mut trace = Vec::new();
            for k in 0..200u32 {
                trace.push(s.access(k % 48).0);
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn random_set_zero_capacity_rejected() {
        let _ = RandomSet::<u32>::new(0);
    }

    /// The pre-optimization `RandomSet`: map index + `keys` vector, kept
    /// as a reference model for the open-addressed rewrite.
    struct RefRandomSet {
        map: BTreeMap<u64, usize>,
        keys: Vec<u64>,
        capacity: usize,
        rng_state: u64,
    }

    impl RefRandomSet {
        fn new(capacity: usize) -> Self {
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

        fn touch(&mut self, key: u64) -> (bool, Option<u64>) {
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

        fn remove(&mut self, key: &u64) -> bool {
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

    proptest::proptest! {
        /// The open-addressed `RandomSet` must be bit-identical to the
        /// old map-indexed implementation: same hit/evict results, same
        /// victim sequence (RNG stream), same internal key order.
        #[test]
        fn random_set_matches_hashmap_reference(
            cap in 1usize..40,
            ops in proptest::collection::vec((0u8..4, 0u64..64), 0..400),
        ) {
            let mut fast = RandomSet::new(cap);
            let mut slow = RefRandomSet::new(cap);
            for (op, k) in ops {
                match op {
                    0 | 1 => proptest::prop_assert_eq!(fast.access(k), slow.touch(k)),
                    2 => proptest::prop_assert_eq!(fast.remove(&k), slow.remove(&k)),
                    _ => proptest::prop_assert_eq!(fast.contains(&k), slow.map.contains_key(&k)),
                }
                proptest::prop_assert_eq!(&fast.keys, &slow.keys);
                proptest::prop_assert_eq!(fast.rng.0, slow.rng_state);
            }
        }
    }

    #[test]
    fn random_set_grows_table_lazily() {
        // A large-capacity set must not pre-size its index: hundreds of
        // simulated nodes each own a NIC cache that stays nearly empty.
        let set: RandomSet<u64> = RandomSet::new(1 << 20);
        assert_eq!(set.table.len(), RANDOM_SET_MIN_TABLE);
        let mut set = set;
        for k in 0..10_000 {
            set.access(k);
        }
        assert_eq!(set.len(), 10_000);
        for k in 0..10_000 {
            assert!(set.contains(&k));
        }
    }
}
