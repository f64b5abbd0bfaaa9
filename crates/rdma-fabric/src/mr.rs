//! Registered memory regions.
//!
//! A registered region is the simulated analogue of an `ibv_reg_mr`'d
//! buffer: real bytes that one-sided verbs read and write and that the
//! local CPU polls. Keeping actual bytes here (rather than abstract
//! tokens) means the RPC layers above execute their real wire formats —
//! the right-aligned `Data | MsgLen | Valid` layout of §3.1, endpoint
//! entries, log records — and tests can assert on them.
//!
//! Only the 256-byte pages that were stored to exist. They live in one
//! page store per fabric, shared by all its regions, and a region is a
//! page table of `u32` page numbers into it (`0` = never stored, so all
//! zero). A message pool of
//! 4 KB blocks that each see one line at the block's edge holds one page
//! per block, not the block, and registering a region reserves no page
//! memory at all. The store is one vector of pages that grows by whole
//! 512 KB chunks, so it allocates no more often than the per-region pools
//! it replaced, which doubled on their own.
//!
//! A region is reached through a view that pairs it with the store:
//! [`MrRef`] to read, [`MrMut`] to store. [`MrRef::read`] borrows within
//! one page (a never-stored page reads from a static zero page) and
//! gathers across pages. The first [`MrMut::as_mut_slice`] latches the
//! region: it copies its bytes into a dense buffer of its own, in address
//! order, so raw access sees one slice. The pages it had carved stay in
//! the store (it never frees a page), and from then on the region reads
//! and stores only its dense buffer.
//!
//! The page table is also what an RDMA READ consults. A READ of a 32 KB
//! staging zone holding eight 53-byte messages is *charged* for 32 KB by
//! the NIC, PCIe and LLC models, but the host only carries the eight
//! 64-byte lines that hold a non-zero byte: a `Snapshot` walks the range's
//! stored pages (every page, once latched) and keeps their non-zero
//! lines, and restoring it reproduces the range byte for byte.

use std::borrow::Cow;

use crate::error::{VerbError, VerbResult};
use crate::types::MrId;

/// Bytes per line a snapshot carries or skips (the cache line the LLC and
/// PCIe models count).
const LINE: usize = 64;

/// Runs a [`Snapshot`] makes room for at once: a warm-up READ finds one
/// per message staged in the zone, up to ScaleRPC's 8 message slots. A
/// fresh snapshot's runs then take one allocation, not the two that
/// pushing from empty takes (room for four, then for eight).
const RUNS: usize = 8;

/// Bytes per storage page.
const PAGE: usize = 256;

/// Pages per [`PageStore`] chunk: 512 KB. The chunk is the store's unit
/// of growth, and it must make the store allocate no more often than the
/// per-region pools it replaced (8 KB reserved at registration, then
/// doubled on demand): at 64 KB, replays allocated more often per
/// operation and per event than those pools did. At 512 KB the one
/// raw-inbound region's 8 000 stored pages fill four chunks, as they
/// filled its doubled 2 MB pool.
const CHUNK_PAGES: usize = 2048;

/// One storage page.
type Page = [u8; PAGE];

/// What a never-stored page reads as.
static ZERO_PAGE: Page = [0; PAGE];

/// The stored pages of every region of one fabric, carved in first-store
/// order and named by number from 1 (page `n` is `pages[n - 1]`, so a
/// page table can keep `0` for "never stored"): one vector whose capacity
/// grows by exactly one chunk of [`CHUNK_PAGES`] pages whenever it is
/// full. A carved page is never freed, and keeps its number when the
/// vector grows.
///
/// One vector, not a list of chunks that never move: a page lookup is
/// then one index into it. A second level (chunk, then page) put a
/// dependent load on every read and store of registered memory, and cost
/// ScaleRPC's replay 3–7 % of its host time.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageStore {
    pages: Vec<Page>,
}

impl PageStore {
    /// Carved page `n`.
    #[inline]
    fn page(&self, n: u32) -> &Page {
        &self.pages[n as usize - 1] // `n` was carved, so it is at least 1
    }

    /// Carved page `n`, to store to.
    #[inline]
    fn page_mut(&mut self, n: u32) -> &mut Page {
        &mut self.pages[n as usize - 1] // `n` was carved, so it is at least 1
    }

    /// Carves a zeroed page, growing the store by a chunk when it is
    /// full, and returns its number.
    ///
    /// # Panics
    ///
    /// Panics at the 2^32nd page (1 TB stored): page tables name a page
    /// by `u32`.
    #[cold]
    fn carve(&mut self) -> u32 {
        let n = u32::try_from(self.pages.len() + 1).expect("fewer than 2^32 stored pages");
        if self.pages.len() == self.pages.capacity() {
            self.pages.reserve_exact(CHUNK_PAGES);
        }
        self.pages.push([0; PAGE]);
        n
    }
}

/// A registered memory region on one node: its page table. Its bytes are
/// in the fabric's [`PageStore`] until it latches.
#[derive(Clone, Debug)]
pub(crate) struct MemoryRegion {
    id: MrId,
    /// Region size in bytes.
    len: usize,
    /// Per page of `PAGE` bytes: `0` while never stored to (all zero),
    /// else its page number in the store. Its capacity is the
    /// region's page count from registration; its length reaches the
    /// highest page stored to, and a page past it reads as never stored.
    /// Emptied when the region latches, so every page then reads from
    /// `dense`.
    pages: Vec<u32>,
    /// Store pages this region carved, latched or not.
    carved: usize,
    /// The region's bytes in address order, once
    /// [`as_mut_slice`](MrMut::as_mut_slice) handed out raw memory.
    /// Consulted only for pages the (then empty) table does not name, so
    /// an unlatched region's stored pages are found without it.
    dense: Option<Box<[u8]>>,
}

impl MemoryRegion {
    /// A zero-filled region of `len` bytes. Nothing is stored yet: only
    /// the page table is reserved, not filled.
    ///
    /// # Panics
    ///
    /// Panics when the region has 2^32 pages (1 TB) or more.
    pub(crate) fn new(id: MrId, len: usize) -> Self {
        let pages = len.div_ceil(PAGE);
        assert!(pages < u32::MAX as usize, "region of {len} bytes");
        MemoryRegion {
            id,
            len,
            pages: Vec::with_capacity(pages),
            carved: 0,
            dense: None,
        }
    }

    /// Region size in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes of host memory holding the region's contents: the store
    /// pages it carved (a latched region's stay carved), and its dense
    /// buffer once latched.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.carved * PAGE + self.dense.as_ref().map_or(0, |d| d.len())
    }
}

/// A region paired with its fabric's page store, to read.
#[derive(Clone, Copy, Debug)]
pub struct MrRef<'a> {
    mr: &'a MemoryRegion,
    store: &'a PageStore,
}

/// A region paired with its fabric's page store, to store to.
#[derive(Debug)]
pub struct MrMut<'a> {
    mr: &'a mut MemoryRegion,
    store: &'a mut PageStore,
}

impl<'a> From<MrMut<'a>> for MrRef<'a> {
    fn from(m: MrMut<'a>) -> Self {
        MrRef::new(m.mr, m.store)
    }
}

/// The lines of a byte range of a region that hold a non-zero byte, held
/// by value: what an RDMA READ response carries from the responder to the
/// requester. Every other byte of the range is zero.
#[derive(Clone, Debug, Default)]
pub(crate) struct Snapshot {
    /// Length of the range in bytes.
    len: usize,
    /// `(offset within the range, length)` of each run of carried lines
    /// (clipped to the range), in address order; adjacent lines share a
    /// run.
    runs: Vec<(usize, usize)>,
    /// The bytes of the runs, in order.
    data: Vec<u8>,
}

impl Snapshot {
    /// Length of the captured range in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Carries `bytes`, found at `at` in the range, after what it carries.
    fn push(&mut self, at: usize, bytes: &[u8]) {
        match self.runs.last_mut() {
            Some((lo, n)) if *lo + *n == at => *n += bytes.len(),
            _ => self.runs.push((at, bytes.len())),
        }
        self.data.extend_from_slice(bytes);
    }
}

/// The pieces of `[lo, hi)` that lie in one `size`-byte granule each, in
/// address order: `(granule, offset within the granule, length)`.
fn pieces(lo: usize, hi: usize, size: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut at = lo;
    std::iter::from_fn(move || {
        (at < hi).then(|| {
            let (granule, skew) = (at / size, at % size);
            let n = (size - skew).min(hi - at);
            at += n;
            (granule, skew, n)
        })
    })
}

impl<'a> MrRef<'a> {
    /// Pairs `mr` with the store of its fabric.
    pub(crate) fn new(mr: &'a MemoryRegion, store: &'a PageStore) -> Self {
        MrRef { mr, store }
    }

    /// Region size in bytes.
    pub fn len(self) -> usize {
        self.mr.len
    }

    /// True for zero-length regions (never produced by `register_mr`, but
    /// kept for API completeness).
    pub fn is_empty(self) -> bool {
        self.mr.len == 0
    }

    /// Bounds-checks an access.
    pub fn check(self, offset: usize, len: usize) -> VerbResult<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.mr.len) {
            Err(VerbError::OutOfBounds {
                mr: self.mr.id,
                offset,
                len,
                size: self.mr.len,
            })
        } else {
            Ok(())
        }
    }

    /// The bytes of (in-bounds) `page` as stored: its store page, or its
    /// part of a latched region's dense buffer; `None` when it was never
    /// stored to, so all zero.
    #[inline]
    fn stored_page(self, page: usize) -> Option<&'a [u8]> {
        match (self.mr.pages.get(page), &self.mr.dense) {
            (Some(&at), _) if at != 0 => Some(self.store.page(at)),
            (_, Some(dense)) => Some(&dense[page * PAGE..((page + 1) * PAGE).min(self.mr.len)]),
            _ => None,
        }
    }

    /// The `n` (bounds-checked) bytes at `skew` in `page`.
    #[inline]
    fn piece(self, page: usize, skew: usize, n: usize) -> &'a [u8] {
        &self.stored_page(page).unwrap_or(&ZERO_PAGE)[skew..skew + n]
    }

    /// Reads `len` bytes at `offset`: borrowed when the range lies in
    /// one page, gathered into an owned buffer when it crosses pages.
    pub fn read(self, offset: usize, len: usize) -> VerbResult<Cow<'a, [u8]>> {
        self.check(offset, len)?;
        let skew = offset % PAGE;
        if skew + len <= PAGE {
            return Ok(Cow::Borrowed(self.piece(offset / PAGE, skew, len)));
        }
        let mut out = Vec::with_capacity(len);
        for (page, skew, n) in pieces(offset, offset + len, PAGE) {
            out.extend_from_slice(self.piece(page, skew, n));
        }
        Ok(Cow::Owned(out))
    }

    /// Reads an aligned little-endian `u64` (used by atomics and lock
    /// words).
    pub fn read_u64(self, offset: usize) -> VerbResult<u64> {
        if !offset.is_multiple_of(8) {
            return Err(VerbError::BadAtomicTarget);
        }
        let bytes = self.read(offset, 8)?;
        Ok(u64::from_le_bytes(
            (*bytes).try_into().expect("length checked"),
        ))
    }

    /// Raw view of the whole region.
    ///
    /// # Panics
    ///
    /// Panics unless [`as_mut_slice`](MrMut::as_mut_slice) latched the
    /// region: only a latched region's bytes are laid out in address
    /// order. Use [`read`](Self::read) on any other.
    pub fn as_slice(self) -> &'a [u8] {
        match &self.mr.dense {
            Some(dense) => dense,
            None => panic!("as_slice of {:?}, which is not latched", self.mr.id),
        }
    }

    /// Captures the lines of `[offset, offset + len)` that hold a
    /// non-zero byte into `snap` (whose buffers are reused). Only stored
    /// pages are scanned: the rest are zero.
    pub(crate) fn snapshot(self, offset: usize, len: usize, snap: &mut Snapshot) -> VerbResult<()> {
        self.check(offset, len)?;
        snap.len = len;
        snap.runs.clear();
        snap.runs.reserve(RUNS);
        snap.data.clear();
        for (page, skew, n) in pieces(offset, offset + len, PAGE) {
            let Some(bytes) = self.stored_page(page) else {
                continue;
            };
            // `PAGE` is a multiple of `LINE`: no line straddles two pages.
            for (line, at, m) in pieces(skew, skew + n, LINE) {
                let part = &bytes[line * LINE + at..line * LINE + at + m];
                if part.iter().any(|&b| b != 0) {
                    snap.push(page * PAGE + line * LINE + at - offset, part);
                }
            }
        }
        Ok(())
    }
}

impl<'a> MrMut<'a> {
    /// Pairs `mr` with the store of its fabric.
    pub(crate) fn new(mr: &'a mut MemoryRegion, store: &'a mut PageStore) -> Self {
        MrMut { mr, store }
    }

    /// The region, to read.
    pub fn view(&self) -> MrRef<'_> {
        MrRef::new(self.mr, self.store)
    }

    /// Where the bytes of `page` are stored, if they ever were (never,
    /// once the region latched).
    #[inline]
    fn stored(&self, page: usize) -> Option<u32> {
        match self.mr.pages.get(page) {
            Some(&at) if at != 0 => Some(at),
            _ => None,
        }
    }

    /// Where `chunk` goes when stored at `skew` in `page`, which the
    /// table does not name: the latched region's dense bytes, else a page
    /// carved, zeroed, from the store. `None` when `chunk` is all zero
    /// and the region is not latched: the page reads as zero already.
    #[cold]
    fn unstored(&mut self, page: usize, skew: usize, chunk: &[u8]) -> Option<&mut [u8]> {
        let at = page * PAGE + skew;
        if let Some(dense) = &mut self.mr.dense {
            return Some(&mut dense[at..at + chunk.len()]);
        }
        if chunk.iter().all(|&b| b == 0) {
            return None;
        }
        let pages = &mut self.mr.pages;
        if page >= pages.len() {
            pages.resize(page + 1, 0); // within the capacity reserved in `new`
        }
        let at = self.store.carve();
        pages[page] = at;
        self.mr.carved += 1;
        Some(&mut self.store.page_mut(at)[skew..skew + chunk.len()])
    }

    /// Stores `data` at the (bounds-checked) `offset`.
    fn store(&mut self, offset: usize, data: &[u8]) {
        let mut taken = 0;
        for (page, skew, n) in pieces(offset, offset + data.len(), PAGE) {
            let chunk = &data[taken..taken + n];
            taken += n;
            let to = match self.stored(page) {
                Some(at) => &mut self.store.page_mut(at)[skew..skew + n],
                None => match self.unstored(page, skew, chunk) {
                    Some(to) => to,
                    None => continue,
                },
            };
            to.copy_from_slice(chunk);
        }
    }

    /// Zeroes the (bounds-checked) bytes `[lo, hi)`; only stored pages
    /// and a latched region hold bytes to zero.
    fn zero(&mut self, lo: usize, hi: usize) {
        for (page, skew, n) in pieces(lo, hi, PAGE) {
            match (self.stored(page), &mut self.mr.dense) {
                (Some(at), _) => self.store.page_mut(at)[skew..skew + n].fill(0),
                (None, Some(dense)) => dense[page * PAGE + skew..page * PAGE + skew + n].fill(0),
                (None, None) => {}
            }
        }
    }

    /// Writes `data` at `offset`.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> VerbResult<()> {
        self.view().check(offset, data.len())?;
        self.store(offset, data);
        Ok(())
    }

    /// Writes an aligned little-endian `u64`.
    pub fn write_u64(&mut self, offset: usize, value: u64) -> VerbResult<()> {
        if !offset.is_multiple_of(8) {
            return Err(VerbError::BadAtomicTarget);
        }
        self.write(offset, &value.to_le_bytes())
    }

    /// Mutable raw view (local CPU access by the owning server, e.g. a
    /// KV store laid out inside the region). The first call latches the
    /// region: its bytes are copied to a dense buffer in address order
    /// and its page table is dropped.
    pub fn as_mut_slice(self) -> &'a mut [u8] {
        let MrMut { mr, store } = self;
        if mr.dense.is_none() {
            // Zero-allocated, so only the stored pages are copied in.
            let mut dense = vec![0; mr.len].into_boxed_slice();
            for (page, &at) in mr.pages.iter().enumerate() {
                if at != 0 {
                    let to = &mut dense[page * PAGE..((page + 1) * PAGE).min(mr.len)];
                    to.copy_from_slice(&store.page(at)[..to.len()]);
                }
            }
            mr.dense = Some(dense);
            mr.pages = Vec::new();
        }
        mr.dense.as_deref_mut().expect("latched above")
    }

    /// Makes `[offset, offset + snap.len())` equal to the range `snap`
    /// was taken from: the range is zeroed, then the carried lines are
    /// stored.
    pub(crate) fn restore(&mut self, offset: usize, snap: &Snapshot) -> VerbResult<()> {
        self.view().check(offset, snap.len)?;
        self.zero(offset, offset + snap.len);
        let mut taken = 0;
        for &(at, n) in &snap.runs {
            // `data` holds exactly the runs' bytes, in order.
            self.store(offset + at, &snap.data[taken..taken + n]);
            taken += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regions registered over one store, the way a fabric holds them.
    struct Mem {
        store: PageStore,
        mrs: Vec<MemoryRegion>,
    }

    impl Mem {
        fn new(sizes: &[usize]) -> Self {
            let mrs = (0..)
                .zip(sizes)
                .map(|(i, &len)| MemoryRegion::new(MrId(i), len))
                .collect();
            Mem {
                store: PageStore::default(),
                mrs,
            }
        }

        fn get(&self, r: usize) -> MrRef<'_> {
            MrRef::new(&self.mrs[r], &self.store)
        }

        fn get_mut(&mut self, r: usize) -> MrMut<'_> {
            MrMut::new(&mut self.mrs[r], &mut self.store)
        }
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = Mem::new(&[128]);
        m.get_mut(0).write(10, b"hello").unwrap();
        assert_eq!(&*m.get(0).read(10, 5).unwrap(), b"hello");
        assert_eq!(&*m.get(0).read(0, 5).unwrap(), &[0; 5]);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = Mem::new(&[16]);
        assert!(m.get_mut(0).write(12, b"xxxxx").is_err());
        let mr = m.get(0);
        assert!(mr.read(16, 1).is_err());
        assert!(mr.read(0, 17).is_err());
        assert!(mr.read(usize::MAX, 2).is_err()); // overflow-safe
        assert!(mr.read(16, 0).is_ok()); // empty access at end is fine
    }

    #[test]
    fn u64_requires_alignment() {
        let mut m = Mem::new(&[64]);
        let mut mr = m.get_mut(0);
        mr.write_u64(8, 0xDEAD_BEEF).unwrap();
        assert_eq!(mr.view().read_u64(8).unwrap(), 0xDEAD_BEEF);
        assert_eq!(mr.view().read_u64(4), Err(VerbError::BadAtomicTarget));
        assert_eq!(mr.write_u64(3, 1), Err(VerbError::BadAtomicTarget));
    }

    #[test]
    #[should_panic(expected = "not latched")]
    fn as_slice_requires_a_latched_region() {
        let mut m = Mem::new(&[512]);
        m.get_mut(0).write(300, b"sparse").unwrap();
        let _ = m.get(0).as_slice();
    }

    #[test]
    fn only_stored_pages_take_memory() {
        let mut m = Mem::new(&[64 * 1024]);
        let mut mr = m.get_mut(0);
        for block in 0..16 {
            mr.write(block * 4096 + 4096 - 53, &[7; 53]).unwrap();
        }
        mr.write(0, &[0; 4096 - PAGE]).unwrap(); // all zero: nothing to store
        assert_eq!(m.store.pages.len(), 16);
        assert_eq!(m.mrs[0].stored_bytes(), 16 * PAGE);
        let mr = m.get(0);
        assert_eq!(&*mr.read(4096 - 53, 53).unwrap(), &[7; 53]);
        // Bytes 4036..4100: seven zeros, the 53-byte message, then four
        // bytes of the next block's never-stored first page.
        let across = mr.read(4096 - 60, 64).unwrap();
        assert!(matches!(across, Cow::Owned(_)), "crosses a page seam");
        assert_eq!(&across[..], &[&[0; 7][..], &[7; 53], &[0; 4]].concat()[..]);
    }

    #[test]
    fn registration_reserves_no_page_memory() {
        let m = Mem::new(&[32 * 1024; 400]);
        assert_eq!(m.store.pages.capacity(), 0);
        assert_eq!(
            m.mrs.iter().map(MemoryRegion::stored_bytes).sum::<usize>(),
            0
        );
    }

    #[test]
    fn the_store_grows_by_whole_chunks_and_never_renumbers_a_page() {
        // Two regions carve alternately, so each one's pages interleave
        // with the other's and straddle chunk seams.
        let pages = CHUNK_PAGES + CHUNK_PAGES / 4 + 1;
        let mut m = Mem::new(&[pages * PAGE, pages * PAGE]);
        let (mut first_seen, mut growths) = (Vec::new(), 0);
        for (i, (r, p)) in (0..pages).flat_map(|p| [(0, p), (1, p)]).enumerate() {
            let capacity = m.store.pages.capacity();
            let mark = (i as u32 + 1).to_le_bytes(); // never all zero
            m.get_mut(r).write(p * PAGE + PAGE - 4, &mark).unwrap();
            growths += usize::from(m.store.pages.capacity() != capacity);
            let chunks = m.store.pages.len().div_ceil(CHUNK_PAGES);
            assert_eq!(m.store.pages.capacity(), chunks * CHUNK_PAGES);
            assert_eq!(growths, chunks, "one allocation per chunk");
            let at = m.mrs[r].pages[p];
            assert_eq!(at as usize, i + 1, "numbered in first-store order");
            first_seen.push((r, p, at, mark));
        }
        assert_eq!((m.store.pages.len(), growths), (2 * pages, 3));
        for (r, p, at, mark) in first_seen {
            assert_eq!(m.mrs[r].pages[p], at, "page {p} of region {r} renumbered");
            assert_eq!(&m.store.page(at)[PAGE - 4..], &mark);
            assert_eq!(&*m.get(r).read(p * PAGE + PAGE - 4, 4).unwrap(), &mark);
        }
    }

    #[test]
    fn a_snapshot_carries_only_non_zero_lines() {
        let mut m = Mem::new(&[32 * 1024, 64 * 1024]);
        for block in 0..8 {
            m.get_mut(0)
                .write(block * 4096 + 4096 - 53, &[7; 53])
                .unwrap();
        }
        let mut snap = Snapshot::default();
        m.get(0).snapshot(0, 32 * 1024, &mut snap).unwrap();
        assert_eq!((snap.len(), snap.data.len()), (32 * 1024, 8 * LINE));
        m.get_mut(1).restore(4096, &snap).unwrap();
        assert_eq!(
            m.get(1).read(4096, 32 * 1024).unwrap(),
            m.get(0).read(0, 32 * 1024).unwrap()
        );
        assert_eq!(m.mrs[1].stored_bytes(), 8 * PAGE);
    }

    #[test]
    fn a_line_zeroed_again_is_not_carried() {
        let mut m = Mem::new(&[8192]);
        let mut mr = m.get_mut(0);
        // A block whose one stored byte is its Valid byte, then cleared
        // the way `MsgBuf::clear_valid` scrubs a consumed block.
        mr.write(4095, &[1]).unwrap();
        mr.write(4095, &[0]).unwrap();
        // A message over two lines, one of them zeroed again.
        mr.write(8192 - 100, &[7; 100]).unwrap();
        mr.write(8192 - 64, &[0; 64]).unwrap();
        let mut snap = Snapshot::default();
        m.get(0).snapshot(0, 8192, &mut snap).unwrap();
        assert_eq!(snap.runs, [(8192 - 128, LINE)]);
        assert_eq!(snap.data, [&[0; 28][..], &[7; 36]].concat());
    }

    /// The region's bytes, read in one gather.
    fn dense(mr: MrRef<'_>) -> Vec<u8> {
        mr.read(0, mr.len()).unwrap().into_owned()
    }

    /// The range `snap` was taken from at `offset`, rebuilt from what it
    /// carries; panics when it carries a line that is all zero at the
    /// source.
    fn unpack(snap: &Snapshot, offset: usize) -> Vec<u8> {
        let (mut range, mut taken) = (vec![0; snap.len()], 0);
        for &(at, n) in &snap.runs {
            let run = &snap.data[taken..taken + n];
            taken += n;
            range[at..at + n].copy_from_slice(run);
            let mut in_run = 0;
            for (_, _, m) in pieces(offset + at, offset + at + n, LINE) {
                assert!(run[in_run..in_run + m].iter().any(|&b| b != 0));
                in_run += m;
            }
        }
        assert_eq!(taken, snap.data.len());
        range
    }

    /// No carved page of the store is named twice (by two regions or two
    /// pages of one region); each unlatched region's table names exactly
    /// the pages it carved and outgrows no region, a latched region has
    /// an empty table and a dense buffer of its length, and together the
    /// regions carved every page of the store.
    fn pages_partition_the_store(m: &Mem) -> bool {
        let mut named: Vec<u32> = m
            .mrs
            .iter()
            .flat_map(|mr| mr.pages.iter().copied().filter(|&at| at != 0))
            .collect();
        named.sort_unstable();
        named.windows(2).all(|w| w[0] < w[1])
            && named
                .last()
                .is_none_or(|&at| at as usize <= m.store.pages.len())
            && m.mrs.iter().map(|mr| mr.carved).sum::<usize>() == m.store.pages.len()
            && m.store.pages.capacity() == m.store.pages.len().div_ceil(CHUNK_PAGES) * CHUNK_PAGES
            && m.mrs.iter().all(|mr| match &mr.dense {
                None => {
                    mr.pages.len() <= mr.len.div_ceil(PAGE)
                        && mr.pages.iter().filter(|&&at| at != 0).count() == mr.carved
                }
                Some(dense) => mr.pages.is_empty() && dense.len() == mr.len,
            })
    }

    // Every region's last page is short (141, 128 and 7 bytes), and its
    // last line too in regions 0 and 2 (13 and 7 bytes); all span more
    // than sixteen pages.
    const SIZES: [usize; 3] = [17 * PAGE + 141, 16 * PAGE + 128, 20 * PAGE + 7];

    /// A `(offset, len)` inside a region of `size` bytes: up to three
    /// lines long, or up to a few KB, at any alignment.
    fn span(size: usize, at: u64, len: u64, long: bool) -> (usize, usize) {
        let len = (len as usize % if long { 4000 } else { 3 * LINE + 1 }).min(size);
        (at as usize % (size - len + 1), len)
    }

    #[test]
    fn sparse_snapshots_equal_dense_copies() {
        simcore::check_cases("sparse_snapshots_equal_dense_copies", |rng| {
            let script = rng.vec(1..80, |r| (r.below(16) as u8, r.edgy(), r.edgy(), r.edgy()));
            // Three regions over one store: their first stores interleave,
            // so each one's pages sit between the others' in the store.
            let mut m = Mem::new(&SIZES);
            let mut model = SIZES.map(|size| vec![0u8; size]);
            // The snapshot in flight and the bytes a dense copy would carry.
            let mut held: Option<(Snapshot, Vec<u8>)> = None;
            for (op, a, b, c) in script {
                let r = (a >> 32) as usize % SIZES.len();
                let (off, len) = span(SIZES[r], a, b, b >> 62 == 0);
                let fill: Vec<u8> = (0..len).map(|i| (c >> (i % 8 * 8)) as u8 | 1).collect();
                match op {
                    0..=3 => {
                        m.get_mut(r).write(off, &fill).unwrap();
                        model[r][off..off + len].copy_from_slice(&fill);
                    }
                    4 => {
                        let off = off.min(SIZES[r] - 8) / 8 * 8;
                        m.get_mut(r).write_u64(off, c).unwrap();
                        model[r][off..off + 8].copy_from_slice(&c.to_le_bytes());
                    }
                    5 => {
                        // Latches after whatever sparse stores came before;
                        // the other regions keep storing to the store.
                        m.get_mut(r).as_mut_slice()[off..off + len].copy_from_slice(&fill);
                        model[r][off..off + len].copy_from_slice(&fill);
                        assert_eq!(m.get(r).as_slice(), &model[r][..]);
                    }
                    6..=8 => {
                        let mut snap = held.take().map(|h| h.0).unwrap_or_default();
                        m.get(r).snapshot(off, len, &mut snap).unwrap();
                        assert_eq!(unpack(&snap, off), &model[r][off..off + len]);
                        held = Some((snap, model[r][off..off + len].to_vec()));
                    }
                    9..=10 => {
                        // Lands in whichever region `r` is, wherever it
                        // fits, whatever was stored at the source since it
                        // was taken.
                        let Some((snap, dense)) = &held else { continue };
                        let off = c as usize % (SIZES[r] - dense.len() + 1);
                        m.get_mut(r).restore(off, snap).unwrap();
                        model[r][off..off + dense.len()].copy_from_slice(dense);
                    }
                    11 => {
                        // Zeros never carve a page: a never-stored one
                        // reads as zero already.
                        let carved = m.store.pages.len();
                        m.get_mut(r).write(off, &vec![0; len]).unwrap();
                        model[r][off..off + len].fill(0);
                        assert_eq!(m.store.pages.len(), carved);
                    }
                    _ => {
                        // Borrowed inside one page, gathered across pages.
                        let got = m.get(r).read(off, len).unwrap();
                        assert_eq!(&*got, &model[r][off..off + len]);
                        let one_page = off % PAGE + len <= PAGE;
                        assert_eq!(matches!(got, Cow::Borrowed(_)), one_page);
                    }
                }
                for (r, model) in model.iter().enumerate() {
                    assert_eq!(&dense(m.get(r)), model);
                }
                assert!(pages_partition_the_store(&m));
            }
        });
    }
}
