//! UD receive rings: datagram QPs with a fixed set of pre-posted receive
//! slots, used at the server (FaSST requests, one ring per worker) and
//! at the clients (HERD and FaSST responses, one ring per thread).

use std::collections::VecDeque;

use bytes::Bytes;
use rdma_fabric::{CqId, Fabric, MrId, NodeId, QpId, Transport, Upcall, WcOpcode, WorkRequest};
use rpc_core::cluster::ClientId;
use rpc_core::driver::Cx;
use rpc_core::message::RpcHeader;

use crate::Received;

/// One UD QP with its ring buffer and a FIFO mirror of the fabric's
/// receive queue: datagrams land in posted order, so the front of
/// `ring_order` is always the slot the next completion filled.
struct Ring {
    qp: QpId,
    ring_mr: MrId,
    ring_order: VecDeque<usize>,
}

impl Ring {
    /// Posts a receive on `slot` (a block of `block` bytes) at the back
    /// of the ring.
    fn post_slot(&mut self, slot: usize, block: usize, fabric: &mut Fabric) {
        fabric
            .post_recv(self.qp, self.ring_mr, slot * block, block)
            .expect("ring recv");
        self.ring_order.push_back(slot);
    }
}

/// One side of a datagram RPC: a ring of `slots` blocks per node given,
/// and the CQ → ring map that routes receive completions to them.
pub struct UdRings {
    rings: Vec<Ring>,
    by_cq: simcore::DetHashMap<CqId, usize>,
    block: usize,
}

impl UdRings {
    /// Creates, on each of `nodes` in order, a CQ, a UD QP completing
    /// into it, and a ring buffer of `slots` blocks of `block` bytes with
    /// a receive posted on every slot, in slot order.
    pub fn new(
        fabric: &mut Fabric,
        nodes: impl Iterator<Item = NodeId>,
        slots: usize,
        block: usize,
    ) -> Self {
        let mut rings = Vec::new();
        let mut by_cq = simcore::DetHashMap::default();
        for node in nodes {
            let cq = fabric.create_cq(node).expect("cq");
            let qp = fabric.create_qp(node, Transport::Ud, cq, cq).expect("qp");
            let ring_mr = fabric.register_mr(node, slots * block).expect("mr");
            let mut ring = Ring {
                qp,
                ring_mr,
                ring_order: VecDeque::with_capacity(slots),
            };
            for slot in 0..slots {
                ring.post_slot(slot, block, fabric);
            }
            by_cq.insert(cq, rings.len());
            rings.push(ring);
        }
        UdRings {
            rings,
            by_cq,
            block,
        }
    }

    /// The datagram QP of ring `i` (send from it, address sends to it).
    pub fn qp(&self, i: usize) -> QpId {
        self.rings[i].qp
    }

    /// Every ring's QP, in ring order.
    pub fn qps(&self) -> Vec<QpId> {
        self.rings.iter().map(|r| r.qp).collect()
    }

    /// If `up` is a receive completing on one of these rings, consumes
    /// the datagram: takes the slot it filled, re-posts that slot at the
    /// back of the ring, and reads the bytes through the LLC. `keep`
    /// copies the payload out of the ring. `queue` is the ring's index.
    /// `None` also for a runt datagram.
    #[inline]
    pub fn receive<P>(
        &mut self,
        up: &Upcall,
        fabric: &mut Fabric,
        keep: impl FnOnce(&[u8]) -> P,
    ) -> Option<Received<P>> {
        let Upcall::Completion { cq, wc, .. } = *up else {
            return None;
        };
        if wc.opcode != WcOpcode::Recv {
            return None;
        }
        let &i = self.by_cq.get(&cq)?;
        let ring = &mut self.rings[i];
        let slot = ring.ring_order.pop_front().expect("ring in sync");
        ring.post_slot(slot, self.block, fabric);
        let (mr, offset) = (ring.ring_mr, slot * self.block);
        let raw = fabric.mr(mr).expect("ring mr").read(offset, wc.byte_len);
        let decoded = RpcHeader::decode(&raw.expect("ring bounds")).map(|(h, p)| (h, keep(p)));
        let read_cost = fabric
            .cpu_access(mr, offset, wc.byte_len)
            .expect("ring access");
        decoded.map(|(header, payload)| Received {
            queue: i,
            header,
            payload,
            read_cost,
        })
    }
}

/// Frames `payload` for `(client, seq)` and sends it from `from` to `to`.
pub fn send_datagram<A>(
    (from, to): (QpId, QpId),
    client: ClientId,
    seq: u64,
    payload: &Bytes,
    cx: &mut Cx<'_, A>,
) {
    let data = RpcHeader::frame(client, seq, 0, payload);
    cx.post(from, WorkRequest::Send { data, imm: None }, false, Some(to))
        .expect("ud send");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_fabric::FabricParams;
    use rpc_core::driver::Logic;
    use rpc_core::ShardedSim;

    #[test]
    fn a_new_ring_has_each_slot_posted_once_in_slot_order() {
        let mut fabric = Fabric::new(FabricParams::default());
        let node = fabric.add_node("n");
        let side = UdRings::new(&mut fabric, [node, node].into_iter(), 8, 128);
        for i in 0..2 {
            assert_eq!(fabric.posted_recvs(side.qp(i)).unwrap(), 8);
            assert_eq!(side.rings[i].ring_order, (0..8).collect::<VecDeque<_>>());
        }
        assert_ne!(side.qp(0), side.qp(1));
    }

    /// Sends `total` numbered datagrams, one at a time, into a 4-slot
    /// ring and records what `receive` decodes for each completion.
    struct Stream {
        src: QpId,
        side: UdRings,
        total: u64,
        got: Vec<(u64, Vec<u8>)>,
        slots_seen: Vec<usize>,
    }

    impl Stream {
        fn send(&self, seq: u64, cx: &mut Cx<'_, ()>) {
            let payload = Bytes::copy_from_slice(&seq.to_le_bytes());
            send_datagram((self.src, self.side.qp(0)), 3, seq, &payload, cx);
        }
    }

    impl Logic for Stream {
        type Ev = ();

        fn init(&mut self, cx: &mut Cx<'_, ()>) {
            self.send(0, cx);
        }

        fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, ()>) {
            let front = *self.side.rings[0].ring_order.front().unwrap();
            let Some(m) = self.side.receive(&up, cx.fabric, <[u8]>::to_vec) else {
                return;
            };
            self.slots_seen.push(front);
            self.got.push((m.header.seq, m.payload));
            if m.header.seq + 1 < self.total {
                self.send(m.header.seq + 1, cx);
            }
        }

        fn on_app(&mut self, _: (), _: &mut Cx<'_, ()>) {}
    }

    #[test]
    fn consume_and_replenish_stays_fifo_across_wrap_around() {
        let mut fabric = Fabric::new(FabricParams::default());
        let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
        let src_cq = fabric.create_cq(a).unwrap();
        let src = fabric.create_qp(a, Transport::Ud, src_cq, src_cq).unwrap();
        let logic = Stream {
            src,
            side: UdRings::new(&mut fabric, [b].into_iter(), 4, 64),
            total: 11,
            got: Vec::new(),
            slots_seen: Vec::new(),
        };
        let mut sim = ShardedSim::new_sequential(fabric, logic);
        sim.run_sequential_to_quiescence();
        let s = sim.logic(0);
        // Every datagram decoded from the slot it actually landed in: a
        // mirror out of step with the fabric's RQ would read a stale or
        // empty slot and break the sequence.
        let want: Vec<_> = (0..11u64).map(|i| (i, i.to_le_bytes().to_vec())).collect();
        assert_eq!(s.got, want);
        // Slots are consumed round-robin, wrapping 0,1,2,3,0,1,…
        let cycle: Vec<_> = (0..11).map(|i| i % 4).collect();
        assert_eq!(s.slots_seen, cycle);
        // The ring is full again and still in FIFO order after wrapping.
        assert_eq!(sim.fabric(0).posted_recvs(s.side.qp(0)).unwrap(), 4);
        assert_eq!(s.side.rings[0].ring_order, VecDeque::from(vec![3, 0, 1, 2]));
    }
}
