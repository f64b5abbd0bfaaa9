//! Statically mapped message pools.
//!
//! The classic design RawWrite and HERD share (and the foil for
//! ScaleRPC's virtualized mapping): the server formats one *zone* per
//! client, each zone holding a fixed number of fixed-size message blocks.
//! The pool therefore grows linearly with the number of clients — which
//! is exactly why it stops fitting in the LLC (Fig. 3(b) of the paper)
//! and why HERD-style RPC "only supports a limited number of clients once
//! the message pool has been formatted" (§3.4).

use bytes::Bytes;
use rdma_fabric::{MrId, QpId, RemoteAddr, WorkRequest};
use rpc_core::cluster::ClientId;
use rpc_core::driver::Cx;
use rpc_core::message::MsgBuf;

/// Geometry of a static pool: `clients × slots` blocks of `block_size`.
#[derive(Clone, Copy, Debug)]
pub struct StaticPool {
    /// Number of client zones.
    pub clients: usize,
    /// Message blocks per zone (supports batching; the paper uses up to
    /// 20 per client in the Fig. 3(b) experiment).
    pub slots: usize,
    /// Bytes per block (4 KB by default, the largest message UD-based
    /// RPCs support).
    pub block_size: usize,
}

impl StaticPool {
    /// Creates a pool geometry.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn new(clients: usize, slots: usize, block_size: usize) -> Self {
        assert!(
            clients > 0 && slots > 0 && block_size > 0,
            "degenerate pool"
        );
        StaticPool {
            clients,
            slots,
            block_size,
        }
    }

    /// Total bytes the pool occupies.
    pub fn total_bytes(&self) -> usize {
        self.clients * self.slots * self.block_size
    }

    /// Byte offset of `(client, slot)`'s block.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn offset(&self, client: usize, slot: usize) -> usize {
        assert!(client < self.clients && slot < self.slots, "out of range");
        (client * self.slots + slot) * self.block_size
    }

    /// Maps a byte offset back to `(client, slot)`.
    pub fn locate(&self, offset: usize) -> Option<(usize, usize)> {
        let block = offset / self.block_size;
        let client = block / self.slots;
        if client < self.clients {
            Some((client, block % self.slots))
        } else {
            None
        }
    }

    /// The slot a sequence number maps to. Both ends compute this, so the
    /// slot index never travels on the wire; a client must simply keep at
    /// most `slots` requests in flight.
    pub fn slot_of_seq(&self, seq: u64) -> usize {
        (seq % self.slots as u64) as usize
    }

    /// Start of the block containing byte `offset`.
    pub fn block_start(&self, offset: usize) -> usize {
        offset / self.block_size * self.block_size
    }
}

/// Frames `payload` for `(client, seq)` and writes it, right-aligned,
/// into the `block_size` block starting at `block_start` of `mr` — one
/// RDMA write on `qp`, with `imm` if given.
pub fn write_block<A>(
    qp: QpId,
    (mr, block_start, block_size): (MrId, usize, usize),
    imm: Option<u32>,
    (client, seq): (ClientId, u64),
    payload: &Bytes,
    cx: &mut Cx<'_, A>,
) {
    let (enc_off, data) =
        MsgBuf::encode_rpc(client, seq, 0, payload, block_size).expect("message fits block");
    let remote = RemoteAddr::new(mr, block_start + enc_off);
    cx.post(qp, WorkRequest::Write { data, remote, imm }, false, None)
        .expect("block write");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_disjoint_and_invertible() {
        let p = StaticPool::new(7, 5, 256);
        let mut seen = std::collections::HashSet::new();
        for c in 0..7 {
            for s in 0..5 {
                let off = p.offset(c, s);
                assert!(off + 256 <= p.total_bytes());
                assert_eq!(off % 256, 0);
                assert!(seen.insert(off), "overlapping blocks");
                assert_eq!(p.locate(off), Some((c, s)));
                assert_eq!(p.locate(off + 255), Some((c, s)));
            }
        }
    }

    #[test]
    fn locate_rejects_out_of_pool() {
        let p = StaticPool::new(2, 2, 64);
        assert_eq!(p.locate(p.total_bytes()), None);
        assert!(p.locate(p.total_bytes() - 1).is_some());
    }

    #[test]
    fn seq_slots_cycle() {
        let p = StaticPool::new(1, 4, 64);
        assert_eq!(p.slot_of_seq(0), 0);
        assert_eq!(p.slot_of_seq(3), 3);
        assert_eq!(p.slot_of_seq(4), 0);
        assert_eq!(p.slot_of_seq(7), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_bounds_checked() {
        StaticPool::new(2, 2, 64).offset(2, 0);
    }

    #[test]
    fn any_offset_inside_a_block_names_it() {
        let p = StaticPool::new(3, 2, 64);
        assert_eq!(p.block_start(0), 0);
        assert_eq!(p.block_start(64 + 59), 64);
        assert_eq!(p.block_start(p.offset(2, 1) + 63), p.offset(2, 1));
    }

    #[test]
    fn fig3b_geometry() {
        // 400 clients × 20 blocks × 2 KB ≈ 16 MB, comparable to the LLC.
        let p = StaticPool::new(400, 20, 2048);
        assert_eq!(p.total_bytes(), 16_384_000);
    }
}
