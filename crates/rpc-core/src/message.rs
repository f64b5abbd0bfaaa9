//! Wire format of pool-based RPC messages.
//!
//! §3.1 of the paper: RDMA updates memory in increasing address order, so
//! each message block uses a *right-aligned* layout with three fields —
//! `Data`, `MsgLen`, `Valid` — where the `Valid` byte sits at the very end
//! of the block. Once `Valid` is observed set, the preceding fields are
//! guaranteed complete, so the server detects new requests by polling a
//! single byte per block.
//!
//! Because ScaleRPC's physical pool is re-used by successive groups
//! *without resetting*, a consumer must clear the `Valid` byte after
//! processing a message; otherwise a stale message from the previous
//! occupant would be mistaken for a fresh one.

use std::borrow::Cow;

use crate::cluster::ClientId;
use bytes::Bytes;
use rdma_fabric::{MrMut, MrRef};

/// Trailer size: 4-byte little-endian `MsgLen` + 1-byte `Valid`.
pub const TRAILER: usize = 5;

/// Value of a set `Valid` byte.
pub const VALID: u8 = 0x7E;

/// Fixed RPC header carried at the front of `Data` by every transport in
/// this workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcHeader {
    /// Dispatch key selecting the server-side handler.
    pub call_type: u16,
    /// Flags; bit 0 is the piggybacked `context_switch_event` of §3.3.
    pub flags: u16,
    /// The issuing client.
    pub client_id: u32,
    /// Client-assigned sequence number matching responses to calls.
    pub seq: u64,
}

/// Flag bit: the response carries a `context_switch_event`.
pub const FLAG_CTX_SWITCH: u16 = 1 << 0;
/// Flag bit: the request asks for legacy-mode (long-running) execution
/// (§3.5 of the paper).
pub const FLAG_LEGACY: u16 = 1 << 1;

/// Encoded header size in bytes.
pub const HEADER: usize = 16;

impl RpcHeader {
    /// Serializes the header.
    pub fn encode(&self) -> [u8; HEADER] {
        let mut out = [0u8; HEADER];
        out[0..2].copy_from_slice(&self.call_type.to_le_bytes());
        out[2..4].copy_from_slice(&self.flags.to_le_bytes());
        out[4..8].copy_from_slice(&self.client_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.seq.to_le_bytes());
        out
    }

    /// Deserializes a header from the front of `data`.
    ///
    /// Returns `None` when `data` is too short.
    pub fn decode(data: &[u8]) -> Option<(RpcHeader, &[u8])> {
        if data.len() < HEADER {
            return None;
        }
        let h = RpcHeader {
            call_type: u16::from_le_bytes(data[0..2].try_into().ok()?),
            flags: u16::from_le_bytes(data[2..4].try_into().ok()?),
            client_id: u32::from_le_bytes(data[4..8].try_into().ok()?),
            seq: u64::from_le_bytes(data[8..16].try_into().ok()?),
        };
        Some((h, &data[HEADER..]))
    }

    /// Frames an application payload as a datagram: the header followed
    /// by `payload`, delimited by the receive completion's length.
    /// [`MsgBuf::encode_rpc`] without the block trailer.
    #[inline]
    pub fn frame(client: ClientId, seq: u64, flags: u16, payload: &[u8]) -> Bytes {
        framed(client, seq, flags, payload, false)
    }

    /// Whether the context-switch flag is set.
    pub fn is_ctx_switch(&self) -> bool {
        self.flags & FLAG_CTX_SWITCH != 0
    }

    /// Whether the legacy-mode flag is set.
    pub fn is_legacy(&self) -> bool {
        self.flags & FLAG_LEGACY != 0
    }
}

/// Writes the `MsgLen | Valid` trailer of a `msg_len`-byte message.
fn put_trailer(trailer: &mut [u8], msg_len: usize) {
    trailer[..4].copy_from_slice(&(msg_len as u32).to_le_bytes());
    trailer[4] = VALID;
}

/// The header every transport here sends (`call_type` 0, the given
/// `flags`), `payload`, and the block trailer if asked for, built in one
/// allocation. The one place a request or response header is built.
#[inline]
fn framed(client: ClientId, seq: u64, flags: u16, payload: &[u8], trailer: bool) -> Bytes {
    let header = RpcHeader {
        call_type: 0,
        flags,
        client_id: client as u32,
        seq,
    };
    let msg_len = HEADER + payload.len();
    Bytes::build(msg_len + if trailer { TRAILER } else { 0 }, |buf| {
        buf[..HEADER].copy_from_slice(&header.encode());
        buf[HEADER..msg_len].copy_from_slice(payload);
        if trailer {
            put_trailer(&mut buf[msg_len..], msg_len);
        }
    })
}

/// Helpers for reading and writing right-aligned messages in fixed-size
/// blocks.
pub struct MsgBuf;

impl MsgBuf {
    /// Largest message payload a block of `block_size` bytes can carry.
    pub const fn capacity(block_size: usize) -> usize {
        block_size.saturating_sub(TRAILER)
    }

    /// Encodes `payload` right-aligned for a block of `block_size` bytes.
    ///
    /// Returns `(offset_in_block, bytes)`: writing `bytes` at
    /// `block_start + offset_in_block` places `Data`, `MsgLen` and `Valid`
    /// flush against the end of the block. A single RDMA write of this
    /// buffer is all a client needs.
    ///
    /// Returns `None` when the payload does not fit.
    pub fn encode(payload: &[u8], block_size: usize) -> Option<(usize, Bytes)> {
        let msg_len = payload.len();
        if msg_len > Self::capacity(block_size) {
            return None;
        }
        let bytes = Bytes::build(msg_len + TRAILER, |buf| {
            buf[..msg_len].copy_from_slice(payload);
            put_trailer(&mut buf[msg_len..], msg_len);
        });
        Some((block_size - bytes.len(), bytes))
    }

    /// Frames an RPC message — header, `payload`, `MsgLen`, `Valid` — for
    /// a block of `block_size` bytes in one pass and one allocation: what
    /// [`encode`](Self::encode) makes of the header followed by
    /// `payload`, same offset, same bytes, `None` in the same cases.
    #[inline]
    pub fn encode_rpc(
        client: ClientId,
        seq: u64,
        flags: u16,
        payload: &[u8],
        block_size: usize,
    ) -> Option<(usize, Bytes)> {
        if HEADER + payload.len() > Self::capacity(block_size) {
            return None;
        }
        let bytes = framed(client, seq, flags, payload, true);
        Some((block_size - bytes.len(), bytes))
    }

    /// Offset of the `Valid` byte within a block.
    pub const fn valid_offset(block_size: usize) -> usize {
        block_size - 1
    }

    /// Checks whether `block` (the full block bytes) holds a valid
    /// message and returns its payload slice.
    ///
    /// Returns `None` when `Valid` is clear or `MsgLen` is inconsistent
    /// (e.g. torn remnants from a previous pool occupant).
    pub fn decode(block: &[u8]) -> Option<&[u8]> {
        if block.len() < TRAILER || block[block.len() - 1] != VALID {
            return None;
        }
        let len_start = block.len() - TRAILER;
        let msg_len = u32::from_le_bytes(block[len_start..len_start + 4].try_into().ok()?) as usize;
        if msg_len > len_start {
            return None;
        }
        Some(&block[len_start - msg_len..len_start])
    }

    /// Quick check of the `Valid` byte alone (what the polling loop
    /// reads before paying for the full message).
    pub fn is_valid(block: &[u8]) -> bool {
        block.last().copied() == Some(VALID)
    }

    /// Clears the `Valid` byte of the block at `block_start` of `region`,
    /// so whatever the block holds is not (or no longer) a message.
    ///
    /// # Panics
    ///
    /// Panics when the block is not inside `region`.
    #[inline]
    pub fn clear_valid(region: &mut MrMut<'_>, block_start: usize, block_size: usize) {
        region
            .write(block_start + Self::valid_offset(block_size), &[0])
            .expect("block inside its region");
    }

    /// The header and payload length of the RPC message in the block at
    /// `block_start` of `region`, left in place: what
    /// [`decode`](Self::decode) followed by [`RpcHeader::decode`] makes
    /// of the whole block, read from its trailer and header alone.
    /// `None` when the block holds no complete message: torn or stale.
    ///
    /// # Panics
    ///
    /// Panics when the block is not inside `region`.
    #[inline]
    pub fn peek_rpc(
        region: MrRef<'_>,
        block_start: usize,
        block_size: usize,
    ) -> Option<(RpcHeader, usize)> {
        region
            .check(block_start, block_size)
            .expect("block inside its region");
        let len_start = block_size.checked_sub(TRAILER)?;
        let trailer = region
            .read(block_start + len_start, TRAILER)
            .expect("inside the block");
        if trailer[4] != VALID {
            return None;
        }
        let msg_len = u32::from_le_bytes(trailer[..4].try_into().ok()?) as usize;
        if msg_len > len_start || msg_len < HEADER {
            return None;
        }
        let header = region.read(block_start + len_start - msg_len, HEADER);
        let (header, _) = RpcHeader::decode(&header.expect("inside the block"))?;
        Some((header, msg_len - HEADER))
    }

    /// Consumes the RPC message in the block at `block_start` of
    /// `region`: decodes it as [`peek_rpc`](Self::peek_rpc) does and
    /// clears `Valid`, so the block can be reused and is never decoded
    /// twice. The payload is read last, borrowed from the fabric's memory
    /// when it lies in one page. `None` (block untouched) when it holds
    /// no complete message: torn or stale.
    ///
    /// # Panics
    ///
    /// Panics when the block is not inside `region`.
    #[inline]
    pub fn take_rpc(
        mut region: MrMut<'_>,
        block_start: usize,
        block_size: usize,
    ) -> Option<(RpcHeader, Cow<'_, [u8]>)> {
        let (header, len) = Self::peek_rpc(region.view(), block_start, block_size)?;
        Self::clear_valid(&mut region, block_start, block_size);
        let payload = MrRef::from(region).read(block_start + block_size - TRAILER - len, len);
        Some((header, payload.expect("inside the block")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_fabric::{Fabric, FabricParams, MrId};

    #[test]
    fn header_round_trips() {
        let h = RpcHeader {
            call_type: 7,
            flags: FLAG_CTX_SWITCH,
            client_id: 42,
            seq: 0xDEAD_BEEF_0123,
        };
        let enc = h.encode();
        let (dec, rest) = RpcHeader::decode(&enc).unwrap();
        assert_eq!(dec, h);
        assert!(rest.is_empty());
        assert!(dec.is_ctx_switch());
        assert!(!dec.is_legacy());
    }

    #[test]
    fn framed_block_round_trips() {
        let (offset, bytes) = MsgBuf::encode_rpc(9, 77, FLAG_LEGACY, b"payload", 64).unwrap();
        let mut block = vec![0u8; 64];
        block[offset..].copy_from_slice(&bytes);
        let (h, p) = MsgBuf::decode(&block).and_then(RpcHeader::decode).unwrap();
        assert_eq!((h.client_id, h.seq, h.call_type), (9, 77, 0));
        assert!(h.is_legacy());
        assert_eq!(p, b"payload");
    }

    /// `encode_rpc` replaced "frame the header and payload, then encode
    /// that for the block": same offset, same bytes, `None` together.
    #[test]
    fn encode_rpc_is_frame_then_encode() {
        let payload: Vec<u8> = (0..8192u32).map(|i| (i * 7 + 1) as u8).collect();
        for block_size in [64, 256, 4096, 8192] {
            // One past the largest payload that fits, so `None` is compared too.
            for len in 0..=MsgBuf::capacity(block_size) - HEADER + 1 {
                let (seq, flags) = (len as u64 * 0x0101_0101, len as u16 & 3);
                let payload = &payload[..len];
                let two_step =
                    MsgBuf::encode(&RpcHeader::frame(5, seq, flags, payload), block_size);
                let one_step = MsgBuf::encode_rpc(5, seq, flags, payload, block_size);
                assert_eq!(one_step, two_step, "block {block_size}, payload {len}");
                assert_eq!(
                    one_step.is_none(),
                    len > MsgBuf::capacity(block_size) - HEADER
                );
            }
        }
    }

    /// A fabric holding one registered region of `len` bytes.
    fn one_region(len: usize) -> (Fabric, MrId) {
        let mut fabric = Fabric::new(FabricParams::default());
        let node = fabric.add_node("host");
        let mr = fabric.register_mr(node, len).unwrap();
        (fabric, mr)
    }

    #[test]
    fn take_rpc_consumes_exactly_once() {
        let (mut fabric, mr) = one_region(2 * 64);
        let (off, bytes) = MsgBuf::encode_rpc(5, 9, 0, b"hello", 64).unwrap();
        fabric.mr_mut(mr).unwrap().write(64 + off, &bytes).unwrap();
        assert!(
            MsgBuf::take_rpc(fabric.mr_mut(mr).unwrap(), 0, 64).is_none(),
            "empty block"
        );
        let (h, p) = MsgBuf::take_rpc(fabric.mr_mut(mr).unwrap(), 64, 64).expect("valid block");
        assert_eq!((h.client_id, h.seq, &*p), (5, 9, &b"hello"[..]));
        assert!(
            MsgBuf::take_rpc(fabric.mr_mut(mr).unwrap(), 64, 64).is_none(),
            "consumed"
        );
        // Only `Valid` changed.
        assert_eq!(
            &*fabric
                .mr(mr)
                .unwrap()
                .read(64 + off, bytes.len() - 1)
                .unwrap(),
            &bytes[..bytes.len() - 1]
        );
    }

    /// `peek_rpc` and `take_rpc` read the trailer, the header and the
    /// payload, not the block: they must agree with decoding the dense
    /// block — for every frame `encode_rpc_is_frame_then_encode` builds,
    /// with a truthful and with an arbitrary `MsgLen`, in blocks that
    /// start on and off a page boundary, so frames cross page seams.
    #[test]
    fn peek_and_take_agree_with_the_dense_block() {
        let payload: Vec<u8> = (0..8192u32).map(|i| (i * 7 + 1) as u8).collect();
        for block_size in [64, 256, 4096, 8192] {
            let (mut fabric, mr) = one_region(3 * block_size + 100);
            let zeros = vec![0; 3 * block_size + 100];
            for len in 0..=MsgBuf::capacity(block_size) - HEADER + 1 {
                let (seq, flags) = (len as u64 * 0x0101_0101, len as u16 & 3);
                let framed = MsgBuf::encode_rpc(5, seq, flags, &payload[..len], block_size);
                for (start, lie) in [(block_size, false), (block_size + 100, true)] {
                    let mut region = fabric.mr_mut(mr).unwrap();
                    region.write(0, &zeros).unwrap();
                    if let Some((off, bytes)) = &framed {
                        region.write(start + off, bytes).unwrap();
                    }
                    if lie {
                        let msg_len = (len as u32).wrapping_mul(2_654_435_761) % 9000;
                        let at = start + block_size - TRAILER;
                        region.write(at, &msg_len.to_le_bytes()).unwrap();
                    }
                    let dense = region.view().read(start, block_size).unwrap().into_owned();
                    let want = MsgBuf::decode(&dense).and_then(RpcHeader::decode);
                    let peeked = MsgBuf::peek_rpc(region.view(), start, block_size);
                    assert_eq!(
                        peeked,
                        want.map(|(h, p)| (h, p.len())),
                        "{block_size}/{len}"
                    );
                    let taken = MsgBuf::take_rpc(region, start, block_size)
                        .map(|(h, p)| (h, p.into_owned()));
                    assert_eq!(
                        taken,
                        want.map(|(h, p)| (h, p.to_vec())),
                        "{block_size}/{len}"
                    );
                    // Taking cleared `Valid` and nothing else.
                    let mut after = dense.clone();
                    if want.is_some() {
                        after[block_size - 1] = 0;
                    }
                    let region = fabric.mr(mr).unwrap();
                    assert_eq!(&*region.read(start, block_size).unwrap(), &after[..]);
                }
            }
        }
    }

    #[test]
    fn header_decode_rejects_short_input() {
        assert!(RpcHeader::decode(&[0u8; 15]).is_none());
    }

    #[test]
    fn message_round_trips_right_aligned() {
        let block_size = 128;
        let payload = b"metadata-lookup:/a/b/c";
        let (offset, bytes) = MsgBuf::encode(payload, block_size).unwrap();
        assert_eq!(offset + bytes.len(), block_size, "must end flush");
        let mut block = vec![0u8; block_size];
        block[offset..].copy_from_slice(&bytes);
        assert!(MsgBuf::is_valid(&block));
        assert_eq!(MsgBuf::decode(&block).unwrap(), payload);
    }

    #[test]
    fn empty_payload_is_legal() {
        let (offset, bytes) = MsgBuf::encode(b"", 64).unwrap();
        assert_eq!(bytes.len(), TRAILER);
        assert_eq!(offset, 64 - TRAILER);
        let mut block = vec![0u8; 64];
        block[offset..].copy_from_slice(&bytes);
        assert_eq!(MsgBuf::decode(&block).unwrap(), b"");
    }

    #[test]
    fn oversize_payload_rejected() {
        assert!(MsgBuf::encode(&[0u8; 59], 64).is_some());
        assert!(MsgBuf::encode(&[0u8; 60], 64).is_none());
        assert_eq!(MsgBuf::capacity(64), 59);
    }

    #[test]
    fn invalid_block_not_decoded() {
        let block = vec![0u8; 64];
        assert!(!MsgBuf::is_valid(&block));
        assert!(MsgBuf::decode(&block).is_none());
    }

    #[test]
    fn clearing_valid_invalidates() {
        let (offset, bytes) = MsgBuf::encode(b"x", 32).unwrap();
        let mut block = vec![0u8; 32];
        block[offset..].copy_from_slice(&bytes);
        assert!(MsgBuf::decode(&block).is_some());
        block[MsgBuf::valid_offset(32)] = 0;
        assert!(MsgBuf::decode(&block).is_none());
    }

    #[test]
    fn corrupt_len_rejected() {
        let (offset, bytes) = MsgBuf::encode(b"abc", 32).unwrap();
        let mut block = vec![0u8; 32];
        block[offset..].copy_from_slice(&bytes);
        // Claim a length larger than the space before the trailer.
        let len_start = 32 - TRAILER;
        block[len_start..len_start + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(MsgBuf::decode(&block).is_none());
    }
}
