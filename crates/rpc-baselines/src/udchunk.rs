//! UD large-message transfer strawman (§5.1 of the paper).
//!
//! UD cannot move more than 4 KB per datagram, so ordered large transfers
//! must be sliced into contiguous 4 KB chunks with the receiver
//! acknowledging each slice before the next is sent. The paper's
//! prototype of this scheme reached only ~0.8 GB/s single-threaded —
//! about 12.5 % of RC bandwidth. [`measure_ud_bandwidth`] and
//! [`measure_rc_bandwidth`] reproduce that comparison.

use bytes::Bytes;
use rdma_fabric::{
    Fabric, FabricParams, MrId, NodeId, QpId, RemoteAddr, Transport, Upcall, WcOpcode, WorkRequest,
};
use rpc_core::driver::{Cx, Logic};
use rpc_core::sharded::ShardedSim;
use simcore::SimTime;

/// Stop-and-wait UD transfer of `total` bytes in 4 KB slices.
struct UdChunkLogic {
    src_qp: QpId,
    dst_qp: QpId,
    dst_mr: MrId,
    slice: usize,
    total: usize,
    sent: usize,
    finished_at: Option<SimTime>,
}

/// Events for the UD chunk transfer.
pub enum UdChunkEv {
    /// Send the next slice.
    Next,
}

impl UdChunkLogic {
    fn send_slice(&mut self, cx: &mut Cx<'_, UdChunkEv>) {
        let len = self.slice.min(self.total - self.sent);
        // Post the receive for this slice, then the datagram.
        cx.fabric
            .post_recv(self.dst_qp, self.dst_mr, self.sent % (1 << 20), len)
            .expect("slice recv");
        cx.post(
            self.src_qp,
            WorkRequest::Send {
                data: Bytes::from(vec![0xAB; len]),
                imm: None,
            },
            false,
            Some(self.dst_qp),
        )
        .expect("slice send");
        self.sent += len;
    }
}

impl Logic for UdChunkLogic {
    type Ev = UdChunkEv;

    fn init(&mut self, cx: &mut Cx<'_, UdChunkEv>) {
        cx.at(SimTime::ZERO, UdChunkEv::Next);
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, UdChunkEv>) {
        // Each received slice is acknowledged by the receiver before the
        // sender may continue: the ack is the MTU-sized round trip that
        // caps throughput. We model the ack as a small reverse datagram's
        // latency folded into the receiver→sender notification delay.
        if let Upcall::Completion { wc, .. } = up {
            if wc.opcode == WcOpcode::Recv {
                if self.sent < self.total {
                    // Ack travel time before the next slice can go out.
                    cx.after(cx.fabric.params().wire_latency(), UdChunkEv::Next);
                } else {
                    self.finished_at = Some(cx.now + cx.fabric.params().wire_latency());
                }
            }
        }
    }

    fn on_app(&mut self, _ev: UdChunkEv, cx: &mut Cx<'_, UdChunkEv>) {
        self.send_slice(cx);
    }
}

/// A sender and a receiver node with one QP of kind `transport` each:
/// `(fabric, sender QP, receiver QP, receiver node)`.
fn sender_and_receiver(params: FabricParams, transport: Transport) -> (Fabric, QpId, QpId, NodeId) {
    let mut fabric = Fabric::new(params);
    let a = fabric.add_node("sender");
    let b = fabric.add_node("receiver");
    let cq_a = fabric.create_cq(a).unwrap();
    let cq_b = fabric.create_cq(b).unwrap();
    let qa = fabric.create_qp(a, transport, cq_a, cq_a).unwrap();
    let qb = fabric.create_qp(b, transport, cq_b, cq_b).unwrap();
    (fabric, qa, qb, b)
}

/// Measures single-threaded ordered-transfer bandwidth over UD with 4 KB
/// slices and per-slice acknowledgements. Returns GB/s.
pub fn measure_ud_bandwidth(params: FabricParams, total_bytes: usize) -> f64 {
    let slice = params.ud_mtu;
    let (mut fabric, src_qp, dst_qp, b) = sender_and_receiver(params, Transport::Ud);
    let dst_mr = fabric.register_mr(b, 1 << 20).unwrap();
    let logic = UdChunkLogic {
        src_qp,
        dst_qp,
        dst_mr,
        slice,
        total: total_bytes,
        sent: 0,
        finished_at: None,
    };
    let mut sim = ShardedSim::new_sequential(fabric, logic);
    sim.run_sequential_to_quiescence();
    let end = sim.logic(0).finished_at.expect("transfer completes");
    total_bytes as f64 / end.as_secs_f64() / 1e9
}

/// One-shot RC transfer state.
struct RcXferLogic {
    qp: QpId,
    dst_mr: MrId,
    total: usize,
    finished_at: Option<SimTime>,
}

impl Logic for RcXferLogic {
    type Ev = ();

    fn init(&mut self, cx: &mut Cx<'_, ()>) {
        cx.post(
            self.qp,
            WorkRequest::Write {
                data: Bytes::from(vec![0xCD; self.total]),
                remote: RemoteAddr::new(self.dst_mr, 0),
                imm: None,
            },
            true,
            None,
        )
        .expect("rc write");
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, ()>) {
        if let Upcall::MemWrite { .. } = up {
            self.finished_at = Some(cx.now);
        }
    }

    fn on_app(&mut self, _: (), _: &mut Cx<'_, ()>) {}
}

/// Measures single-threaded RC write bandwidth for the same transfer
/// (one message — RC supports up to 2 GB). Returns GB/s.
pub fn measure_rc_bandwidth(params: FabricParams, total_bytes: usize) -> f64 {
    let (mut fabric, qp, qb, b) = sender_and_receiver(params, Transport::Rc);
    fabric.connect(qp, qb).unwrap();
    let dst_mr = fabric.register_mr(b, total_bytes).unwrap();
    let logic = RcXferLogic {
        qp,
        dst_mr,
        total: total_bytes,
        finished_at: None,
    };
    let mut sim = ShardedSim::new_sequential(fabric, logic);
    sim.run_sequential_to_quiescence();
    let end = sim.logic(0).finished_at.expect("transfer completes");
    total_bytes as f64 / end.as_secs_f64() / 1e9
}

/// Convenience struct naming the §5.1 experiment.
pub struct UdChunk;

impl UdChunk {
    /// Runs the §5.1 comparison on `total_bytes` and returns
    /// `(ud_gbps, rc_gbps)`.
    pub fn compare(total_bytes: usize) -> (f64, f64) {
        (
            measure_ud_bandwidth(FabricParams::default(), total_bytes),
            measure_rc_bandwidth(FabricParams::default(), total_bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ud_chunking_is_far_slower_than_rc() {
        let (ud, rc) = UdChunk::compare(1 << 20); // 1 MB
        assert!(ud > 0.0 && rc > 0.0);
        // The paper reports UD ordered transfer at ~12.5% of RC; accept a
        // generous band for the shape.
        let ratio = ud / rc;
        assert!(
            ratio < 0.45,
            "UD should be a small fraction of RC: ud={ud:.2} rc={rc:.2} ratio={ratio:.2}"
        );
    }

    #[test]
    fn rc_bandwidth_approaches_link_rate() {
        let rc = measure_rc_bandwidth(FabricParams::default(), 8 << 20);
        // 56 Gbps ≈ 7 GB/s raw.
        assert!(rc > 4.0 && rc < 7.5, "rc={rc:.2} GB/s");
    }
}
