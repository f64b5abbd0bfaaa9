//! Message-pool geometry.
//!
//! Every RPC in the workspace lands requests in a server-side pool of
//! `zones × slots` fixed-size blocks; what differs is who a zone belongs
//! to. The static mapping RawWrite and HERD share gives every *client* a
//! zone, so the pool grows with the client count until it stops fitting
//! the LLC (Fig. 3(b)); ScaleRPC's virtualized mapping (§3.3) gives every
//! *member of the group being served* a zone, so it never grows. The
//! arithmetic is the same.

/// Geometry of one pool: `zones × slots` blocks of `block_size` bytes.
#[derive(Clone, Copy, Debug)]
pub struct BlockPool {
    /// Zones (one per client, or per member of the served group).
    pub zones: usize,
    /// Message blocks per zone (supports batching; the paper uses up to
    /// 20 per client in the Fig. 3(b) experiment).
    pub slots: usize,
    /// Bytes per block.
    pub block_size: usize,
}

impl BlockPool {
    /// Creates a pool geometry.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn new(zones: usize, slots: usize, block_size: usize) -> Self {
        assert!(zones > 0 && slots > 0 && block_size > 0, "degenerate pool");
        BlockPool {
            zones,
            slots,
            block_size,
        }
    }

    /// Total bytes the pool occupies.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.zones * self.zone_bytes()
    }

    /// Bytes per zone.
    #[inline]
    pub fn zone_bytes(&self) -> usize {
        self.slots * self.block_size
    }

    /// Byte offset of `(zone, slot)`'s block.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn offset(&self, zone: usize, slot: usize) -> usize {
        assert!(zone < self.zones && slot < self.slots, "out of range");
        (zone * self.slots + slot) * self.block_size
    }

    /// Maps a byte offset back to `(zone, slot)`.
    #[inline]
    pub fn locate(&self, offset: usize) -> Option<(usize, usize)> {
        let block = offset / self.block_size;
        let zone = block / self.slots;
        (zone < self.zones).then_some((zone, block % self.slots))
    }

    /// Start of the block containing byte `offset`.
    #[inline]
    pub fn block_start(&self, offset: usize) -> usize {
        offset / self.block_size * self.block_size
    }

    /// The slot a sequence number maps to. Both ends compute this, so the
    /// slot index never travels on the wire; a client must simply keep at
    /// most `slots` requests in flight.
    #[inline]
    pub fn slot_of_seq(&self, seq: u64) -> usize {
        (seq % self.slots as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_disjoint_and_invertible() {
        let p = BlockPool::new(7, 5, 256);
        let mut seen = std::collections::BTreeSet::new();
        for z in 0..7 {
            for s in 0..5 {
                let off = p.offset(z, s);
                assert!(off + 256 <= p.bytes());
                assert_eq!(off % 256, 0);
                assert!(seen.insert(off), "overlapping blocks");
                assert_eq!(p.locate(off), Some((z, s)));
                assert_eq!(p.locate(off + 255), Some((z, s)));
                assert_eq!(p.block_start(off + 255), off);
            }
        }
        assert_eq!(p.locate(p.bytes()), None);
        assert!(p.locate(p.bytes() - 1).is_some());
        assert_eq!(p.offset(2, 0), 2 * p.zone_bytes());
    }

    #[test]
    fn seq_slots_cycle() {
        let p = BlockPool::new(1, 4, 64);
        assert_eq!(p.slot_of_seq(0), 0);
        assert_eq!(p.slot_of_seq(3), 3);
        assert_eq!(p.slot_of_seq(4), 0);
        assert_eq!(p.slot_of_seq(7), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_bounds_checked() {
        BlockPool::new(2, 2, 64).offset(2, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_bounds_checked() {
        BlockPool::new(2, 2, 64).offset(0, 2);
    }

    #[test]
    fn fig3b_static_geometry_outgrows_the_llc() {
        // 400 clients × 20 blocks × 2 KB ≈ 16 MB, comparable to the LLC.
        let p = BlockPool::new(400, 20, 2048);
        assert_eq!(p.bytes(), 16_384_000);
    }

    #[test]
    fn virtualized_pool_is_group_sized_not_client_sized() {
        // 40-client group, 8 slots, 4 KB blocks: 1.25 MB regardless of
        // whether 40 or 4000 clients are connected — the virtualized-
        // mapping claim.
        let p = BlockPool::new(40, 8, 4096);
        assert_eq!(p.bytes(), 40 * 8 * 4096);
    }
}
