//! On-"disk" item layout.
//!
//! ```text
//! offset  size  field
//! 0       8     version   (bumped on every committed write)
//! 8       8     lock      (0 = free; otherwise the owner's id)
//! 16      8     key
//! 24      4     value length
//! 28      4     padding
//! 32      ..    value bytes
//! ```
//!
//! The version sits first so `item_offset` doubles as the "version
//! address" a coordinator validates with an 8-byte RDMA read, and a
//! commit can overwrite `version | lock | value` in one RDMA write whose
//! final byte ordering (RDMA writes land in increasing address order)
//! makes the new version visible only together with the released lock...
//! strictly speaking the version is written *first*; ScaleTX relies on
//! the validation read re-checking the lock word, as FaRM does.

/// Bytes of header before the value.
pub const ITEM_HEADER: usize = 32;

/// A decoded view of one item; the value is read where it lies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItemRef<'a> {
    /// Current version.
    pub version: u64,
    /// Lock word (0 = unlocked).
    pub lock: u64,
    /// The key stored at this slot.
    pub key: u64,
    /// Value bytes, borrowed from the region.
    pub value: &'a [u8],
}

/// Reads the version field at `item_off`.
pub fn read_version(mem: &[u8], item_off: usize) -> u64 {
    u64::from_le_bytes(mem[item_off..item_off + 8].try_into().expect("8 bytes"))
}

/// Reads the lock word.
pub fn read_lock(mem: &[u8], item_off: usize) -> u64 {
    u64::from_le_bytes(
        mem[item_off + 8..item_off + 16]
            .try_into()
            .expect("8 bytes"),
    )
}

/// Writes the lock word.
pub fn write_lock(mem: &mut [u8], item_off: usize, lock: u64) {
    mem[item_off + 8..item_off + 16].copy_from_slice(&lock.to_le_bytes());
}

/// Reads the stored key.
pub fn read_key(mem: &[u8], item_off: usize) -> u64 {
    u64::from_le_bytes(
        mem[item_off + 16..item_off + 24]
            .try_into()
            .expect("8 bytes"),
    )
}

/// Decodes the whole item.
pub fn read_item(mem: &[u8], item_off: usize) -> ItemRef<'_> {
    let len = u32::from_le_bytes(
        mem[item_off + 24..item_off + 28]
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    ItemRef {
        version: read_version(mem, item_off),
        lock: read_lock(mem, item_off),
        key: read_key(mem, item_off),
        value: &mem[item_off + ITEM_HEADER..item_off + ITEM_HEADER + len],
    }
}

/// Initializes an item slot.
pub fn write_item(mem: &mut [u8], item_off: usize, key: u64, version: u64, value: &[u8]) {
    mem[item_off..item_off + 8].copy_from_slice(&version.to_le_bytes());
    mem[item_off + 8..item_off + 16].copy_from_slice(&0u64.to_le_bytes());
    mem[item_off + 16..item_off + 24].copy_from_slice(&key.to_le_bytes());
    mem[item_off + 24..item_off + 28].copy_from_slice(&(value.len() as u32).to_le_bytes());
    mem[item_off + ITEM_HEADER..item_off + ITEM_HEADER + value.len()].copy_from_slice(value);
}

/// Overwrites the value and bumps the version (a committed local write).
pub fn update_value(mem: &mut [u8], item_off: usize, value: &[u8]) {
    let v = read_version(mem, item_off) + 1;
    mem[item_off..item_off + 8].copy_from_slice(&v.to_le_bytes());
    mem[item_off + 24..item_off + 28].copy_from_slice(&(value.len() as u32).to_le_bytes());
    mem[item_off + ITEM_HEADER..item_off + ITEM_HEADER + value.len()].copy_from_slice(value);
}

/// Writes into `out` — the caller's send buffer, `ITEM_HEADER +
/// value.len()` bytes — the image a coordinator RDMA-writes at commit
/// time: new version, cleared lock, and the new value — one contiguous
/// write releasing the lock and installing the update together (§4.2,
/// step 3). That is a freshly initialized item.
pub fn write_commit_image(out: &mut [u8], key: u64, new_version: u64, value: &[u8]) {
    debug_assert_eq!(out.len(), ITEM_HEADER + value.len());
    out[28..ITEM_HEADER].fill(0); // padding
    write_item(out, 0, key, new_version, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut mem = vec![0u8; 256];
        write_item(&mut mem, 64, 42, 7, b"hello");
        let it = read_item(&mem, 64);
        assert_eq!(it.key, 42);
        assert_eq!(it.version, 7);
        assert_eq!(it.lock, 0);
        assert_eq!(it.value, b"hello");
    }

    #[test]
    fn update_bumps_version() {
        let mut mem = vec![0u8; 256];
        write_item(&mut mem, 0, 1, 0, b"aaaa");
        update_value(&mut mem, 0, b"bbbb");
        let it = read_item(&mem, 0);
        assert_eq!(it.version, 1);
        assert_eq!(it.value, b"bbbb");
    }

    #[test]
    fn lock_word_round_trip() {
        let mut mem = vec![0u8; 64];
        write_item(&mut mem, 0, 5, 0, b"");
        assert_eq!(read_lock(&mem, 0), 0);
        write_lock(&mut mem, 0, 0xC0FFEE);
        assert_eq!(read_lock(&mem, 0), 0xC0FFEE);
    }

    #[test]
    fn commit_image_matches_layout() {
        let mut mem = vec![0u8; 128];
        write_item(&mut mem, 0, 9, 3, b"old-");
        write_lock(&mut mem, 0, 77); // locked by a coordinator
        let mut img = [0u8; ITEM_HEADER + 4];
        write_commit_image(&mut img, 9, 4, b"new!");
        mem[0..img.len()].copy_from_slice(&img);
        let it = read_item(&mem, 0);
        assert_eq!(it.version, 4);
        assert_eq!(it.lock, 0, "commit releases the lock");
        assert_eq!(it.value, b"new!");
        assert_eq!(it.key, 9);
    }
}
