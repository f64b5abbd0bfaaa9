//! The hash index and slot allocator.
//!
//! A lossless open-addressing index (linear probing over power-of-two
//! buckets, MICA's "lossless" mode) maps keys to fixed-size item slots in
//! the flat byte region. A bucket holds only a slot; the key lives once,
//! in the item header, and a probe confirms a match there, as MICA does.
//! Slots are fixed-size because the transaction workloads (object store,
//! SmallBank) use fixed-size records, and fixed slots keep every
//! one-sided address computable.

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
    buckets: Vec<u32>,
    mask: usize,
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
        let buckets = (capacity as usize * 2).next_power_of_two();
        KvTable {
            buckets: vec![0; buckets],
            mask: buckets - 1,
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
        if self.next_slot == self.capacity {
            return Err(KvError::Full);
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.len += 1;
        let mut i = Self::hash(key) & self.mask;
        while self.buckets[i] != 0 {
            i = (i + 1) & self.mask;
        }
        self.buckets[i] = slot + 1;
        let off = self.slot_offset(slot);
        item::write_item(mem, off, key, 1, value);
        Ok(off)
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
