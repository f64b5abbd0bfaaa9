//! Registered memory regions.
//!
//! A [`MemoryRegion`] is the simulated analogue of an `ibv_reg_mr`'d
//! buffer: a real byte buffer that one-sided verbs read and write and that
//! the local CPU polls. Keeping actual bytes here (rather than abstract
//! tokens) means the RPC layers above execute their real wire formats —
//! the right-aligned `Data | MsgLen | Valid` layout of §3.1, endpoint
//! entries, log records — and tests can assert on them.
//!
//! A region also remembers which of its 64-byte lines were ever written.
//! An RDMA READ of a 32 KB staging zone holding eight 53-byte messages is
//! *charged* for 32 KB by the NIC, PCIe and LLC models, but the host only
//! has to carry the eight lines that can differ from zero: a `Snapshot`
//! is the written lines of a range, and restoring it reproduces the range
//! byte for byte.

use crate::error::{VerbError, VerbResult};
use crate::types::MrId;

/// Bytes per tracked line (the cache line the LLC and PCIe models count).
const LINE: usize = 64;

/// A registered memory region on one node.
#[derive(Clone, Debug)]
pub struct MemoryRegion {
    id: MrId,
    buf: Vec<u8>,
    /// One bit per `LINE` bytes of `buf`. Invariant: a clear bit means
    /// the line is all zero (a set bit promises nothing). Bits past the
    /// last line are never read.
    written: Vec<u64>,
    /// [`as_mut_slice`](Self::as_mut_slice) handed out raw memory, so
    /// stores can no longer be seen: every line counts as written until
    /// [`clear`](Self::clear).
    latched: bool,
}

/// The written lines of a byte range of a [`MemoryRegion`], held by
/// value: what an RDMA READ response carries from the responder to the
/// requester. A range with every line written is the same representation
/// with every bit set.
#[derive(Clone, Debug, Default)]
pub(crate) struct Snapshot {
    /// Length of the range in bytes.
    len: usize,
    /// Offset of the range's first byte within its first source line.
    skew: usize,
    /// One bit per source line the range touches, first line at bit 0;
    /// set when the line was written at the source.
    mask: Vec<u64>,
    /// The bytes of the set lines (clipped to the range), in address
    /// order.
    data: Vec<u8>,
}

impl Snapshot {
    /// Length of the captured range in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Source lines the range touches.
    fn lines(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            (self.skew + self.len).div_ceil(LINE)
        }
    }
}

/// The run of equal bits starting at bit `from` of `bits[..n]`: its value
/// and the bit after its end. Requires `from < n <= 64 * bits.len()`.
fn run_at(bits: &[u64], n: usize, from: usize) -> (bool, usize) {
    let mut w = from / 64;
    let set = bits[w] >> (from % 64) & 1 != 0; // from < n <= 64 * bits.len()
    let flip = if set { !0 } else { 0 };
    // Bits of the run read 0 after the flip; the first 1 ends it.
    let mut word = (bits[w] ^ flip) & (!0 << (from % 64)); // same word as above
    loop {
        if word != 0 {
            return (set, (w * 64 + word.trailing_zeros() as usize).min(n));
        }
        w += 1;
        if w * 64 >= n {
            return (set, n);
        }
        word = bits[w] ^ flip; // w * 64 < n <= 64 * bits.len()
    }
}

impl MemoryRegion {
    /// Creates a zero-filled region of `len` bytes.
    pub fn new(id: MrId, len: usize) -> Self {
        MemoryRegion {
            id,
            buf: vec![0; len],
            written: vec![0; len.div_ceil(LINE).div_ceil(64)],
            latched: false,
        }
    }

    /// The region id.
    pub fn id(&self) -> MrId {
        self.id
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True for zero-length regions (never produced by `register_mr`, but
    /// kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bounds-checks an access.
    pub fn check(&self, offset: usize, len: usize) -> VerbResult<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.buf.len())
        {
            Err(VerbError::OutOfBounds {
                mr: self.id,
                offset,
                len,
                size: self.buf.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(&self, offset: usize, len: usize) -> VerbResult<&[u8]> {
        self.check(offset, len)?;
        Ok(&self.buf[offset..offset + len])
    }

    /// Marks the lines of the (bounds-checked) range as written.
    fn mark(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let (first, last) = (offset / LINE, (offset + len - 1) / LINE);
        let (fw, lw) = (first / 64, last / 64);
        let from_first = !0u64 << (first % 64);
        let to_last = !0u64 >> (63 - last % 64);
        // The range is inside `buf`, so its lines have words in `written`.
        if fw == lw {
            self.written[fw] |= from_first & to_last;
        } else {
            self.written[fw] |= from_first;
            self.written[fw + 1..lw].fill(!0);
            self.written[lw] |= to_last;
        }
    }

    /// Writes `data` at `offset`.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> VerbResult<()> {
        self.check(offset, data.len())?;
        self.buf[offset..offset + data.len()].copy_from_slice(data);
        self.mark(offset, data.len());
        Ok(())
    }

    /// Reads an aligned little-endian `u64` (used by atomics and lock
    /// words).
    pub fn read_u64(&self, offset: usize) -> VerbResult<u64> {
        if !offset.is_multiple_of(8) {
            return Err(VerbError::BadAtomicTarget);
        }
        let bytes = self.read(offset, 8)?;
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("length checked"),
        ))
    }

    /// Writes an aligned little-endian `u64`.
    pub fn write_u64(&mut self, offset: usize, value: u64) -> VerbResult<()> {
        if !offset.is_multiple_of(8) {
            return Err(VerbError::BadAtomicTarget);
        }
        self.write(offset, &value.to_le_bytes())
    }

    /// Zeroes the whole region (used by tests; the ScaleRPC message pool
    /// explicitly does *not* need this between group switches — that is
    /// the point of the stateless-pool design).
    pub fn clear(&mut self) {
        self.buf.fill(0);
        self.written.fill(0);
        self.latched = false;
    }

    /// Raw view of the whole buffer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable raw view (local CPU access by the owning server, e.g. a
    /// KV store laid out inside the region).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        if !self.latched {
            self.latched = true;
            self.written.fill(!0);
        }
        &mut self.buf
    }

    /// Captures the written lines of `[offset, offset + len)` into `snap`
    /// (whose buffers are reused).
    pub(crate) fn snapshot(
        &self,
        offset: usize,
        len: usize,
        snap: &mut Snapshot,
    ) -> VerbResult<()> {
        self.check(offset, len)?;
        snap.len = len;
        snap.skew = offset % LINE;
        snap.mask.clear();
        snap.data.clear();
        let (first, lines) = (offset / LINE, snap.lines());
        // `written[first..first + lines]` moved down to bit 0, bits past
        // `lines` clear. The range is inside `buf`, so `base + i` is a
        // word of `written`; `base + i + 1` is read only if it exists.
        let (base, shift) = (first / 64, first % 64);
        snap.mask.extend((0..lines.div_ceil(64)).map(|i| {
            let low = self.written[base + i] >> shift;
            let high = match self.written.get(base + i + 1) {
                Some(next) if shift > 0 => next << (64 - shift),
                _ => 0,
            };
            let live = lines - i * 64;
            (low | high) & if live < 64 { !(!0 << live) } else { !0 }
        }));
        let mut line = 0;
        while line < lines {
            let (set, end) = run_at(&snap.mask, lines, line);
            if set {
                let lo = ((first + line) * LINE).max(offset);
                let hi = ((first + end) * LINE).min(offset + len);
                snap.data.extend_from_slice(&self.buf[lo..hi]); // inside the checked range
            }
            line = end;
        }
        Ok(())
    }

    /// Makes `[offset, offset + snap.len())` equal to the range `snap`
    /// was taken from: its written lines are copied in, and where the
    /// source had none the bytes are zeroed unless this region never
    /// wrote them either.
    pub(crate) fn restore(&mut self, offset: usize, snap: &Snapshot) -> VerbResult<()> {
        self.check(offset, snap.len)?;
        let lines = snap.lines();
        let (mut line, mut taken) = (0, 0);
        while line < lines {
            let (set, end) = run_at(&snap.mask, lines, line);
            // Where source lines `line..end` fall in the range.
            let lo = (line * LINE).saturating_sub(snap.skew);
            let hi = (end * LINE - snap.skew).min(snap.len);
            if set {
                // `data` holds exactly the set lines' bytes, in order.
                self.buf[offset + lo..offset + hi]
                    .copy_from_slice(&snap.data[taken..taken + hi - lo]);
                self.mark(offset + lo, hi - lo);
                taken += hi - lo;
            } else {
                self.zero_written(offset + lo, hi - lo);
            }
            line = end;
        }
        Ok(())
    }

    /// Zeroes the bytes of the (bounds-checked, non-empty) range that lie
    /// in written lines; the rest are zero already.
    fn zero_written(&mut self, offset: usize, len: usize) {
        let end_line = (offset + len - 1) / LINE + 1;
        let mut line = offset / LINE;
        while line < end_line {
            let (set, end) = run_at(&self.written, end_line, line);
            if set {
                let lo = (line * LINE).max(offset);
                let hi = (end * LINE).min(offset + len);
                self.buf[lo..hi].fill(0); // inside the checked range
            }
            line = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut mr = MemoryRegion::new(MrId(0), 128);
        mr.write(10, b"hello").unwrap();
        assert_eq!(mr.read(10, 5).unwrap(), b"hello");
        assert_eq!(mr.read(0, 5).unwrap(), &[0; 5]);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut mr = MemoryRegion::new(MrId(1), 16);
        assert!(mr.write(12, b"xxxxx").is_err());
        assert!(mr.read(16, 1).is_err());
        assert!(mr.read(0, 17).is_err());
        assert!(mr.read(usize::MAX, 2).is_err()); // overflow-safe
        assert!(mr.read(16, 0).is_ok()); // empty access at end is fine
    }

    #[test]
    fn u64_requires_alignment() {
        let mut mr = MemoryRegion::new(MrId(2), 64);
        mr.write_u64(8, 0xDEAD_BEEF).unwrap();
        assert_eq!(mr.read_u64(8).unwrap(), 0xDEAD_BEEF);
        assert_eq!(mr.read_u64(4), Err(VerbError::BadAtomicTarget));
        assert_eq!(mr.write_u64(3, 1), Err(VerbError::BadAtomicTarget));
    }

    #[test]
    fn clear_zeroes() {
        let mut mr = MemoryRegion::new(MrId(3), 8);
        mr.write(0, &[1; 8]).unwrap();
        mr.clear();
        assert_eq!(mr.as_slice(), &[0; 8]);
    }

    #[test]
    fn runs_are_found_across_words() {
        let bits = [!0 << 60, 0b111, 0];
        assert_eq!(run_at(&bits, 192, 0), (false, 60));
        assert_eq!(run_at(&bits, 192, 60), (true, 67));
        assert_eq!(run_at(&bits, 192, 67), (false, 192));
        assert_eq!(run_at(&bits, 66, 61), (true, 66), "clipped to n");
        assert_eq!(run_at(&[!0, !0], 128, 3), (true, 128));
    }

    #[test]
    fn a_snapshot_carries_only_written_lines() {
        let mut src = MemoryRegion::new(MrId(4), 32 * 1024);
        for block in 0..8 {
            src.write(block * 4096 + 4096 - 53, &[7; 53]).unwrap();
        }
        let mut snap = Snapshot::default();
        src.snapshot(0, 32 * 1024, &mut snap).unwrap();
        assert_eq!((snap.len(), snap.data.len()), (32 * 1024, 8 * LINE));
        let mut dst = MemoryRegion::new(MrId(5), 64 * 1024);
        dst.restore(4096, &snap).unwrap();
        assert_eq!(dst.read(4096, 32 * 1024).unwrap(), src.as_slice());
        assert_eq!(dst.written.iter().map(|w| w.count_ones()).sum::<u32>(), 8);
    }

    /// Written-line invariant: a clear bit means the line is all zero.
    fn clear_bits_mean_zero_lines(mr: &MemoryRegion) -> bool {
        mr.buf.chunks(LINE).enumerate().all(|(line, bytes)| {
            mr.written[line / 64] >> (line % 64) & 1 != 0 || bytes.iter().all(|&b| b == 0)
        })
    }

    // The last line of region 0 is 13 bytes long; both regions span
    // more than one bitmap word.
    const SIZES: [usize; 2] = [70 * LINE + 13, 66 * LINE];

    /// A `(offset, len)` inside a region of `size` bytes: up to three
    /// lines long, or up to a few KB, at any alignment.
    fn span(size: usize, at: u64, len: u64, long: bool) -> (usize, usize) {
        let len = (len as usize % if long { 4000 } else { 3 * LINE + 1 }).min(size);
        (at as usize % (size - len + 1), len)
    }

    proptest::proptest! {
        #[test]
        fn sparse_snapshots_equal_dense_copies(
            script in proptest::collection::vec(
                (0u8..12, proptest::any::<u64>(), proptest::any::<u64>(), proptest::any::<u64>()),
                1..60,
            )
        ) {
            let mut mrs = [0, 1].map(|i| MemoryRegion::new(MrId(i), SIZES[i as usize]));
            let mut model = SIZES.map(|size| vec![0u8; size]);
            // The snapshot in flight and the bytes a dense copy would carry.
            let mut held: Option<(Snapshot, Vec<u8>)> = None;
            for (op, a, b, c) in script {
                let r = (a >> 63) as usize;
                let (off, len) = span(SIZES[r], a, b, b >> 62 == 0);
                let fill: Vec<u8> = (0..len).map(|i| (c >> (i % 8 * 8)) as u8 | 1).collect();
                match op {
                    0..=2 => {
                        mrs[r].write(off, &fill).unwrap();
                        model[r][off..off + len].copy_from_slice(&fill);
                    }
                    3 => {
                        let off = off.min(SIZES[r] - 8) / 8 * 8;
                        mrs[r].write_u64(off, c).unwrap();
                        model[r][off..off + 8].copy_from_slice(&c.to_le_bytes());
                    }
                    4 => {
                        mrs[r].clear();
                        model[r].fill(0);
                    }
                    5 => {
                        mrs[r].as_mut_slice()[off..off + len].copy_from_slice(&fill);
                        model[r][off..off + len].copy_from_slice(&fill);
                    }
                    6..=8 => {
                        let mut snap = held.take().map(|h| h.0).unwrap_or_default();
                        mrs[r].snapshot(off, len, &mut snap).unwrap();
                        held = Some((snap, model[r][off..off + len].to_vec()));
                    }
                    _ => {
                        // Lands wherever it fits, whatever was stored at
                        // the source since it was taken.
                        let Some((snap, dense)) = &held else { continue };
                        let off = c as usize % (SIZES[r] - dense.len() + 1);
                        mrs[r].restore(off, snap).unwrap();
                        model[r][off..off + dense.len()].copy_from_slice(dense);
                        proptest::prop_assert_eq!(mrs[r].as_slice(), &model[r][..]);
                    }
                }
                proptest::prop_assert!(mrs.iter().all(clear_bits_mean_zero_lines));
            }
            for r in 0..2 {
                proptest::prop_assert_eq!(mrs[r].as_slice(), &model[r][..]);
            }
        }
    }
}
