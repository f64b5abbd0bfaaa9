//! The hash index and slot allocator.
//!
//! A lossless open-addressing index (linear probing over power-of-two
//! buckets, MICA's "lossless" mode) maps keys to fixed-size item slots in
//! the flat byte region. A bucket holds only a slot; the key lives once,
//! in the item header, and a probe confirms a match there, as MICA does.
//! Slots are fixed-size because the transaction workloads (object store,
//! SmallBank) use fixed-size records, and fixed slots keep every
//! one-sided address computable.
//!
//! Slots are taken in arrival order, so while the keys placed so far
//! form one ascending arithmetic progression (every shard ScaleTX loads
//! does), a key's slot is its index in the progression and the index is
//! arithmetic: no bucket array exists. The first key off the progression
//! builds the buckets, placing the earlier keys in slot order, which
//! leaves every bucket where placing each key on arrival would have.

use crate::item;
use simcore::SplitMix64;

/// Errors from table operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvError {
    /// The table is at capacity.
    Full,
    /// The value exceeds the slot's value capacity.
    ValueTooLarge,
    /// The key is not present.
    NotFound,
    /// The item is locked by another owner.
    Locked,
}

/// The key→slot index plus slot allocator for one shard.
///
/// All item bytes live in the caller's buffer (`mem`), which the server
/// registers as an RDMA region; the table itself holds only the index.
pub struct KvTable {
    /// Slot + 1 of the item a bucket refers to; 0 is an empty bucket.
    /// Empty while the keys form a progression.
    buckets: Vec<u32>,
    mask: usize,
    /// While `buckets` is empty, slot `s` holds key `first + stride × s`;
    /// `stride` is 1 until a second key sets it.
    first: u64,
    stride: u64,
    slot_bytes: usize,
    value_capacity: usize,
    next_slot: u32,
    capacity: u32,
    len: u32,
}

impl KvTable {
    /// Creates a table for up to `capacity` items with values of at most
    /// `value_capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u32, value_capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        KvTable {
            buckets: Vec::new(),
            mask: (capacity as usize * 2).next_power_of_two() - 1,
            first: 0,
            stride: 1,
            slot_bytes: Self::slot_bytes_for(value_capacity),
            value_capacity,
            next_slot: 0,
            capacity,
            len: 0,
        }
    }

    /// Bytes of backing memory the table requires.
    pub fn required_bytes(&self) -> usize {
        self.capacity as usize * self.slot_bytes
    }

    /// Number of stored items.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte offset of a slot's item.
    pub fn slot_offset(&self, slot: u32) -> usize {
        slot as usize * self.slot_bytes
    }

    fn hash(key: u64) -> usize {
        SplitMix64(key).next_u64() as usize
    }

    /// Finds the item offset for `key`, comparing it with the key in
    /// each probed item's header.
    pub fn lookup(&self, mem: &[u8], key: u64) -> Option<usize> {
        if self.buckets.is_empty() {
            let off = self.slot_offset(self.term_index(key)?);
            return (item::read_key(mem, off) == key).then_some(off);
        }
        let mut i = Self::hash(key) & self.mask;
        loop {
            let slot = self.buckets[i].checked_sub(1)?;
            let off = self.slot_offset(slot);
            if item::read_key(mem, off) == key {
                return Some(off);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts a new key (or overwrites an existing one), returning the
    /// item offset.
    pub fn insert(&mut self, mem: &mut [u8], key: u64, value: &[u8]) -> Result<usize, KvError> {
        if value.len() > self.value_capacity {
            return Err(KvError::ValueTooLarge);
        }
        if let Some(off) = self.lookup(mem, key) {
            item::update_value(mem, off, value);
            return Ok(off);
        }
        let slot = self.place(key)?;
        let off = self.slot_offset(slot);
        item::write_item(mem, off, key, 1, value);
        Ok(off)
    }

    /// Loads `keys`, each with `value`, into an empty table: the set-up
    /// of a shard. Strictly ascending keys are distinct, so none can be
    /// present and no key is looked up; each is placed as
    /// [`insert`](Self::insert) places a missing one, and slots follow
    /// key order. Every key is placed before any item is written, so a
    /// bucket array, once a key off the progression builds one, stays in
    /// cache while the probes walk it; the item writes, interleaved,
    /// would stream the region through the cache.
    /// On [`KvError::Full`] the keys before the one refused stay loaded;
    /// [`KvError::ValueTooLarge`] loads nothing.
    ///
    /// # Panics
    ///
    /// Panics, naming the key, on a key not above the one before it or on
    /// a first key for a table that already holds items.
    pub fn load(
        &mut self,
        mem: &mut [u8],
        keys: impl IntoIterator<Item = u64, IntoIter: Clone>,
        value: &[u8],
    ) -> Result<(), KvError> {
        if value.len() > self.value_capacity {
            return Err(KvError::ValueTooLarge);
        }
        let keys = keys.into_iter();
        let mut prev = None;
        let placed = keys.clone().try_for_each(|key| {
            match prev {
                None => assert!(
                    self.is_empty(),
                    "load of key {key} into a table holding {} items",
                    self.len
                ),
                Some(p) => assert!(key > p, "load of key {key} after key {p}: keys must ascend"),
            }
            prev = Some(key);
            self.place(key).map(drop)
        });
        for (slot, key) in (0..self.next_slot).zip(keys) {
            item::write_item(mem, self.slot_offset(slot), key, 1, value);
        }
        placed
    }

    /// The slot of `key` if it is one of the progression's `len` terms.
    fn term_index(&self, key: u64) -> Option<u32> {
        let d = key.checked_sub(self.first)?;
        let index = d / self.stride;
        (d % self.stride == 0 && index < u64::from(self.len)).then_some(index as u32)
    }

    /// Whether `key` continues the progression as its next term; the
    /// first two keys set it, if the second is above the first.
    fn extends_progression(&mut self, key: u64) -> bool {
        match self.next_slot {
            0 => self.first = key,
            1 if key > self.first => self.stride = key - self.first,
            1 => return false,
            n => {
                let term = self.stride.checked_mul(n.into());
                return term.and_then(|d| d.checked_add(self.first)) == Some(key);
            }
        }
        true
    }

    /// Takes the next slot for `key`, known to be absent. Off the
    /// progression, the key is referred to from the first empty bucket
    /// on from its hash; the first key off it builds the buckets.
    fn place(&mut self, key: u64) -> Result<u32, KvError> {
        if self.next_slot == self.capacity {
            return Err(KvError::Full);
        }
        if self.buckets.is_empty() && !self.extends_progression(key) {
            self.buckets = vec![0; self.mask + 1];
            for slot in 0..self.next_slot {
                self.refer(self.first + self.stride * u64::from(slot), slot);
            }
        }
        let slot = self.next_slot;
        if !self.buckets.is_empty() {
            self.refer(key, slot);
        }
        self.next_slot += 1;
        self.len += 1;
        Ok(slot)
    }

    /// Refers to `slot` from the first empty bucket on from `key`'s hash.
    fn refer(&mut self, key: u64, slot: u32) {
        let mut i = Self::hash(key) & self.mask;
        while self.buckets[i] != 0 {
            i = (i + 1) & self.mask;
        }
        self.buckets[i] = slot + 1;
    }

    /// Reads an item by key.
    pub fn get<'a>(&self, mem: &'a [u8], key: u64) -> Result<item::ItemRef<'a>, KvError> {
        let off = self.lookup(mem, key).ok_or(KvError::NotFound)?;
        Ok(item::read_item(mem, off))
    }

    /// Tries to lock `key`'s item for `owner` (non-zero). Fails when held
    /// by someone else; re-locking by the same owner succeeds.
    pub fn try_lock(&self, mem: &mut [u8], key: u64, owner: u64) -> Result<usize, KvError> {
        debug_assert_ne!(owner, 0, "owner 0 means unlocked");
        let off = self.lookup(mem, key).ok_or(KvError::NotFound)?;
        let cur = item::read_lock(mem, off);
        if cur == 0 || cur == owner {
            item::write_lock(mem, off, owner);
            Ok(off)
        } else {
            Err(KvError::Locked)
        }
    }

    /// Releases a lock held by `owner` (a no-op if not held by them).
    pub fn unlock(&self, mem: &mut [u8], key: u64, owner: u64) -> Result<(), KvError> {
        let off = self.lookup(mem, key).ok_or(KvError::NotFound)?;
        if item::read_lock(mem, off) == owner {
            item::write_lock(mem, off, 0);
        }
        Ok(())
    }

    /// Locally commits a new value (bumps the version, releases the
    /// lock). Used by the RPC-only commit path (ScaleTX-O).
    pub fn commit_local(&self, mem: &mut [u8], key: u64, value: &[u8]) -> Result<(), KvError> {
        if value.len() > self.value_capacity {
            return Err(KvError::ValueTooLarge);
        }
        let off = self.lookup(mem, key).ok_or(KvError::NotFound)?;
        item::update_value(mem, off, value);
        item::write_lock(mem, off, 0);
        Ok(())
    }

    /// Slot stride (bytes) for items with `value_capacity`-byte values —
    /// the same 8-byte-aligned layout [`new`](Self::new) uses, with which
    /// ScaleTX's crash-recovery lock sweep (`TxSim::sweep_locks`) and its
    /// leaked-lock check walk a participant's region without the table.
    pub fn slot_bytes_for(value_capacity: usize) -> usize {
        (item::ITEM_HEADER + value_capacity).div_ceil(8) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cap: u32) -> (KvTable, Vec<u8>) {
        let t = KvTable::new(cap, 40);
        let mem = vec![0u8; t.required_bytes()];
        (t, mem)
    }

    #[test]
    fn insert_get_round_trip() {
        let (mut t, mut mem) = setup(64);
        let off = t.insert(&mut mem, 7, b"value-7").unwrap();
        assert_eq!(t.lookup(&mem, 7), Some(off));
        let it = t.get(&mem, 7).unwrap();
        assert_eq!(it.key, 7);
        assert_eq!(it.value, b"value-7");
        assert_eq!(it.version, 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn overwrite_bumps_version_in_place() {
        let (mut t, mut mem) = setup(8);
        let a = t.insert(&mut mem, 1, b"one").unwrap();
        let b = t.insert(&mut mem, 1, b"uno").unwrap();
        assert_eq!(a, b, "overwrite must reuse the slot");
        assert_eq!(t.get(&mem, 1).unwrap().version, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn missing_key() {
        let (mut t, mut mem) = setup(8);
        t.insert(&mut mem, 5, b"x").unwrap();
        assert_eq!(t.get(&mem, 6), Err(KvError::NotFound));
        assert_eq!(t.lookup(&mem, 6), None);
    }

    #[test]
    fn capacity_enforced() {
        let (mut t, mut mem) = setup(4);
        for k in 0..4 {
            t.insert(&mut mem, k, b"v").unwrap();
        }
        assert_eq!(t.insert(&mut mem, 99, b"v"), Err(KvError::Full));
        // Overwrites still work at capacity.
        assert!(t.insert(&mut mem, 2, b"w").is_ok());
    }

    #[test]
    fn oversized_value_rejected() {
        let (mut t, mut mem) = setup(4);
        assert_eq!(
            t.insert(&mut mem, 1, &[0u8; 41]),
            Err(KvError::ValueTooLarge)
        );
    }

    #[test]
    fn lock_protocol() {
        let (mut t, mut mem) = setup(8);
        t.insert(&mut mem, 3, b"locked").unwrap();
        let off = t.try_lock(&mut mem, 3, 100).unwrap();
        assert_eq!(crate::item::read_lock(&mem, off), 100);
        // Re-entrant for the same owner, refused for another.
        assert!(t.try_lock(&mut mem, 3, 100).is_ok());
        assert_eq!(t.try_lock(&mut mem, 3, 200), Err(KvError::Locked));
        // Unlock by non-owner is ignored.
        t.unlock(&mut mem, 3, 200).unwrap();
        assert_eq!(t.try_lock(&mut mem, 3, 200), Err(KvError::Locked));
        t.unlock(&mut mem, 3, 100).unwrap();
        assert!(t.try_lock(&mut mem, 3, 200).is_ok());
    }

    /// Bucket choice, and so probe order, is a pure function of the key.
    #[test]
    fn hash_is_pinned() {
        let keys = [0, 1, 1 << 32, u64::MAX];
        let got = keys.map(|k| KvTable::hash(k) as u64);
        assert_eq!(
            got,
            [
                0xe220_a839_7b1d_cdaf,
                0x910a_2dec_8902_5cc1,
                0xc42c_5a1a_a382_0138,
                0xe4d9_7177_1b65_2c20,
            ]
        );
    }

    /// Where a SmallBank-shaped shard puts every key, and that misses stay
    /// misses: shard 0 of `TxSim::build`'s three (capacity 100 013, keys
    /// `k ≡ 0 (mod 3)` below 300 006, 8-byte values, loaded in order).
    /// `try_lock` reports the offset the index found, or `NotFound`.
    #[test]
    fn index_is_pinned() {
        let mut t = KvTable::new(100_013, 8);
        let mut mem = vec![0u8; t.required_bytes()];
        let keys = (0..300_006u64).step_by(3);
        for k in keys.clone() {
            t.insert(&mut mem, k, &1_000i64.to_le_bytes()).unwrap();
        }
        let misses = (0..1_000u64).map(|i| 3 * i * 97 + 1);
        let mut h = 0u64;
        for k in keys.chain(misses) {
            let off = match t.try_lock(&mut mem, k, 1) {
                Ok(off) => off as u64,
                Err(KvError::NotFound) => u64::MAX,
                Err(e) => panic!("key {k}: {e:?}"),
            };
            h = SplitMix64(h ^ k).next_u64();
            h = SplitMix64(h ^ off).next_u64();
        }
        assert_eq!(t.len(), 100_002);
        assert_eq!(h, 0xdd43_1159_6b3b_5440);
    }

    /// `load` places `index_is_pinned`'s shard exactly where its insert
    /// loop does.
    #[test]
    fn load_reproduces_the_pinned_index() {
        let mut t = KvTable::new(100_013, 8);
        let mut mem = vec![0u8; t.required_bytes()];
        let keys = (0..300_006u64).step_by(3);
        t.load(&mut mem, keys.clone(), &1_000i64.to_le_bytes())
            .unwrap();
        let misses = (0..1_000u64).map(|i| 3 * i * 97 + 1);
        let mut h = 0u64;
        for k in keys.chain(misses) {
            let off = match t.try_lock(&mut mem, k, 1) {
                Ok(off) => off as u64,
                Err(KvError::NotFound) => u64::MAX,
                Err(e) => panic!("key {k}: {e:?}"),
            };
            h = SplitMix64(h ^ k).next_u64();
            h = SplitMix64(h ^ off).next_u64();
        }
        assert_eq!(t.len(), 100_002);
        assert_eq!(h, 0xdd43_1159_6b3b_5440);
    }

    /// `key`'s offset in `t` is the model's: the slot of its index among
    /// the keys in the order they arrived, or a miss.
    fn agrees(t: &KvTable, mem: &[u8], arrived: &[u64], key: u64) {
        let slot = arrived.iter().position(|&k| k == key);
        let want = slot.map(|s| t.slot_offset(s as u32));
        assert_eq!(t.lookup(mem, key), want, "key {key}");
    }

    /// Any ascending key set and value: `load` gives the per-key insert
    /// loop's result, buckets, region bytes, offsets and misses — also
    /// past capacity, where both keep the keys before the one refused.
    /// Half the cases load a progression (an edgy first key, a stride of
    /// 1, 3 or edgy, up to capacity terms), some going on with keys off
    /// its step, and then insert into both tables the term after the
    /// last, which may pass `u64::MAX` and wrap. Keys between terms,
    /// below the first, a stride past the last and across the wrap miss.
    #[test]
    fn load_matches_the_insert_loop() {
        simcore::check_cases("load_matches_the_insert_loop", |rng| {
            let (mut loaded, mut loaded_mem) = setup(rng.between(1, 64) as u32);
            let (mut inserted, mut inserted_mem) = setup(loaded.capacity);
            let mut keys = rng.vec(0..80, |r| r.edgy());
            keys.sort_unstable();
            keys.dedup();
            let mut probes = rng.vec(0..16, |r| r.edgy());
            let mut next = None;
            if rng.chance(0.5) {
                let first = rng.edgy();
                let stride = match rng.below(3) {
                    0 => 1,
                    1 => 3,
                    _ => rng.edgy().max(1),
                };
                let n = rng.between(0, loaded.capacity.into());
                let terms = (0..n).map_while(|i| stride.checked_mul(i)?.checked_add(first));
                let mut terms: Vec<u64> = terms.collect();
                let last = terms.last().copied();
                keys.retain(|&k| last.is_none_or(|l| k > l));
                keys.truncate(rng.below(3) as usize);
                let after = first.wrapping_add(stride.wrapping_mul(terms.len() as u64));
                probes.extend(terms.iter().map(|&k| k.wrapping_add(1)));
                probes.extend([first.wrapping_sub(1), after]);
                next = Some(after);
                terms.append(&mut keys);
                keys = terms;
            }
            let value = rng.vec(0..41, |r| r.below(256) as u8);
            let got = loaded.load(&mut loaded_mem, keys.iter().copied(), &value);
            let want = keys.iter().try_for_each(|&k| {
                let off = inserted.insert(&mut inserted_mem, k, &value)?;
                assert_eq!(loaded.lookup(&loaded_mem, k), Some(off), "key {k}");
                Ok(())
            });
            assert_eq!(got, want);
            let mut arrived = keys[..loaded.len() as usize].to_vec();
            for key in [next, None] {
                assert_eq!(loaded.buckets, inserted.buckets);
                assert_eq!(loaded_mem, inserted_mem);
                assert_eq!(loaded.len(), inserted.len());
                for &k in keys.iter().chain(&probes) {
                    agrees(&loaded, &loaded_mem, &arrived, k);
                    agrees(&inserted, &inserted_mem, &arrived, k);
                }
                let Some(k) = key else { break };
                let got = loaded.insert(&mut loaded_mem, k, &value);
                assert_eq!(got, inserted.insert(&mut inserted_mem, k, &value));
                if got.is_ok() && !arrived.contains(&k) {
                    arrived.push(k);
                }
            }
        });
    }

    #[test]
    fn load_keeps_the_prefix_that_fits() {
        let (mut t, mut mem) = setup(4);
        assert_eq!(t.load(&mut mem, 10..20, b"v"), Err(KvError::Full));
        assert_eq!(t.len(), 4);
        for k in 10..20 {
            assert_eq!(t.lookup(&mem, k).is_some(), k < 14, "key {k}");
        }
    }

    #[test]
    fn load_of_an_oversized_value_changes_nothing() {
        let (mut t, mut mem) = setup(4);
        assert_eq!(
            t.load(&mut mem, 0..2, &[0u8; 41]),
            Err(KvError::ValueTooLarge)
        );
        assert!(t.is_empty());
        assert!(t.buckets.iter().all(|&b| b == 0));
        assert!(mem.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "load of key 5 after key 7")]
    fn load_refuses_a_descending_key() {
        let (mut t, mut mem) = setup(8);
        let _ = t.load(&mut mem, [3, 7, 5], b"v");
    }

    #[test]
    #[should_panic(expected = "load of key 7 after key 7")]
    fn load_refuses_a_duplicate_key() {
        let (mut t, mut mem) = setup(8);
        let _ = t.load(&mut mem, [3, 7, 7], b"v");
    }

    #[test]
    #[should_panic(expected = "load of key 9 into a table holding 1 items")]
    fn load_refuses_a_table_that_holds_items() {
        let (mut t, mut mem) = setup(8);
        t.insert(&mut mem, 20, b"v").unwrap();
        let _ = t.load(&mut mem, [9], b"v");
    }

    /// Keys that all hash to the last bucket probe on from bucket 0, and
    /// a miss walks the wrapped chain, comparing item keys, to its end.
    #[test]
    fn probe_chain_wraps_past_the_last_bucket() {
        let (mut t, mut mem) = setup(4);
        let last: Vec<u64> = (0..)
            .filter(|&k| KvTable::hash(k) & t.mask == t.mask)
            .take(4)
            .collect();
        let offs: Vec<usize> = last[..3]
            .iter()
            .map(|&k| t.insert(&mut mem, k, b"v").unwrap())
            .collect();
        assert_eq!(t.buckets, [2, 3, 0, 0, 0, 0, 0, 1]);
        for (&k, &off) in last.iter().zip(&offs) {
            assert_eq!(t.lookup(&mem, k), Some(off));
        }
        assert_eq!(t.lookup(&mem, last[3]), None);
    }

    /// `load` walks the same wrapped chain to the same buckets.
    #[test]
    fn load_wraps_the_probe_chain_as_insert_does() {
        let (mut t, mut mem) = setup(4);
        let last: Vec<u64> = (0..)
            .filter(|&k| KvTable::hash(k) & t.mask == t.mask)
            .take(3)
            .collect();
        t.load(&mut mem, last.iter().copied(), b"v").unwrap();
        assert_eq!(t.buckets, [2, 3, 0, 0, 0, 0, 0, 1]);
    }

    /// A coordinator's one-sided commit rewrites the whole item header,
    /// the key the index compares included.
    #[test]
    fn commit_image_keeps_the_key_findable() {
        let (mut t, mut mem) = setup(8);
        for k in [11, 12, 13] {
            t.insert(&mut mem, k, b"old").unwrap();
        }
        let off = t.try_lock(&mut mem, 12, 5).unwrap();
        let mut img = [0u8; item::ITEM_HEADER + 3];
        item::write_commit_image(&mut img, 12, 2, b"new");
        mem[off..off + img.len()].copy_from_slice(&img);
        assert_eq!(t.lookup(&mem, 12), Some(off));
        let it = t.get(&mem, 12).unwrap();
        assert_eq!((it.key, it.version, it.lock), (12, 2, 0));
        assert_eq!(it.value, b"new");
        assert!(t.try_lock(&mut mem, 12, 6).is_ok());
        assert_eq!(t.get(&mem, 13).unwrap().value, b"old");
    }

    #[test]
    fn commit_local_bumps_and_unlocks() {
        let (mut t, mut mem) = setup(8);
        t.insert(&mut mem, 4, b"v1").unwrap();
        t.try_lock(&mut mem, 4, 9).unwrap();
        t.commit_local(&mut mem, 4, b"v2").unwrap();
        let it = t.get(&mem, 4).unwrap();
        assert_eq!(it.value, b"v2");
        assert_eq!(it.version, 2);
        assert_eq!(it.lock, 0);
    }

    #[test]
    fn slots_are_aligned_and_disjoint() {
        let (mut t, mut mem) = setup(32);
        let mut offs = std::collections::BTreeSet::new();
        for k in 0..32u64 {
            let off = t.insert(&mut mem, k * 1000, b"x").unwrap();
            assert_eq!(off % 8, 0, "8-byte alignment for atomics/versions");
            assert!(offs.insert(off));
        }
    }

    #[test]
    fn many_keys_against_reference_model() {
        use std::collections::BTreeMap;
        let (mut t, mut mem) = setup(512);
        let mut reference: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        // Deterministic pseudo-random workload.
        let mut x = 0x12345678u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 400;
            let val = format!("v{}", x % 97).into_bytes();
            match t.insert(&mut mem, key, &val) {
                Ok(_) => {
                    reference.insert(key, val);
                }
                Err(KvError::Full) => {
                    assert!(reference.len() >= 512 || !reference.contains_key(&key));
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        for (k, v) in &reference {
            assert_eq!(&t.get(&mem, *k).unwrap().value, v, "key {k}");
        }
        assert_eq!(t.len() as usize, reference.len());
    }
}
