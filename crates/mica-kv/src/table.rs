//! The hash index and slot allocator.
//!
//! A lossless open-addressing index (linear probing over power-of-two
//! buckets, MICA's "lossless" mode) maps keys to fixed-size item slots in
//! the flat byte region. Slots are fixed-size because the transaction
//! workloads (object store, SmallBank) use fixed-size records, and fixed
//! slots keep every one-sided address computable.

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

#[derive(Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Empty,
    Occupied { key: u64, slot: u32 },
}

/// The key→slot index plus slot allocator for one shard.
///
/// All item bytes live in the caller's buffer (`mem`), which the server
/// registers as an RDMA region; the table itself holds only the index.
pub struct KvTable {
    buckets: Vec<Bucket>,
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
            buckets: vec![Bucket::Empty; buckets],
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

    /// Finds the item offset for `key`.
    pub fn lookup(&self, key: u64) -> Option<usize> {
        let mut i = Self::hash(key) & self.mask;
        loop {
            match self.buckets[i] {
                Bucket::Empty => return None,
                Bucket::Occupied { key: k, slot } if k == key => {
                    return Some(self.slot_offset(slot))
                }
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Inserts a new key (or overwrites an existing one), returning the
    /// item offset.
    pub fn insert(&mut self, mem: &mut [u8], key: u64, value: &[u8]) -> Result<usize, KvError> {
        if value.len() > self.value_capacity {
            return Err(KvError::ValueTooLarge);
        }
        if let Some(off) = self.lookup(key) {
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
        while !matches!(self.buckets[i], Bucket::Empty) {
            i = (i + 1) & self.mask;
        }
        self.buckets[i] = Bucket::Occupied { key, slot };
        let off = self.slot_offset(slot);
        item::write_item(mem, off, key, 1, value);
        Ok(off)
    }

    /// Reads an item by key.
    pub fn get<'a>(&self, mem: &'a [u8], key: u64) -> Result<item::ItemRef<'a>, KvError> {
        let off = self.lookup(key).ok_or(KvError::NotFound)?;
        Ok(item::read_item(mem, off))
    }

    /// Tries to lock `key`'s item for `owner` (non-zero). Fails when held
    /// by someone else; re-locking by the same owner succeeds.
    pub fn try_lock(&self, mem: &mut [u8], key: u64, owner: u64) -> Result<usize, KvError> {
        debug_assert_ne!(owner, 0, "owner 0 means unlocked");
        let off = self.lookup(key).ok_or(KvError::NotFound)?;
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
        let off = self.lookup(key).ok_or(KvError::NotFound)?;
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
        let off = self.lookup(key).ok_or(KvError::NotFound)?;
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
        assert_eq!(t.lookup(7), Some(off));
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
        assert_eq!(t.lookup(6), None);
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
