//! Statically mapped message pools.
//!
//! The classic design RawWrite and HERD share (and the foil for
//! ScaleRPC's virtualized mapping): the server formats one *zone* per
//! client, each zone holding a fixed number of fixed-size message blocks
//! (a [`BlockPool`](rpc_core::BlockPool) with `zones = clients`).
//! The pool therefore grows linearly with the number of clients — which
//! is exactly why it stops fitting in the LLC (Fig. 3(b) of the paper)
//! and why HERD-style RPC "only supports a limited number of clients once
//! the message pool has been formatted" (§3.4).

use bytes::Bytes;
use rdma_fabric::{MrId, QpId, RemoteAddr, WorkRequest};
use rpc_core::cluster::ClientId;
use rpc_core::driver::Cx;
use rpc_core::message::MsgBuf;

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
