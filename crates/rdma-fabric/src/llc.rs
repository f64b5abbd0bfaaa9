//! CPU last-level cache with DDIO.
//!
//! With Intel DDIO the NIC writes inbound payloads directly into the LLC.
//! If the target line is already resident anywhere in the LLC the write is
//! an in-place *Write Update*; otherwise the NIC must *Write Allocate*,
//! and allocating writes are restricted to ~10 % of the LLC (§2.3 of the
//! paper). When the RPC message pools outgrow the LLC, both the NIC (extra
//! allocate/evict work, counted as `PCIeItoM`) and the polling CPU (L3
//! misses) slow down — the inbound half of the scalability collapse.
//!
//! The model tracks 64-byte lines in two domains — the general LLC and
//! the DDIO allocate partition. Both use *random replacement*: real LLCs
//! are set-associative, so a working set near or above capacity degrades
//! gradually (conflict misses appear well before full-capacity thrash),
//! which is exactly the regime the paper's Fig. 3(b) exercises
//! ("comparable to the LLC size"). A fully associative strict-LRU model
//! would hold such marginal working sets perfectly and miss the effect
//! entirely.
//!
//! # Representation
//!
//! A line is `(MrId, line#)` of a contiguous registered region and lives
//! in at most one domain at any instant, so residency is looked up by
//! address, not by hash. One *line index* serves both domains: an
//! id table finds a region's page table in O(1) (first touch of a
//! region appends it, sized to the highest page touched), pages of 16
//! `u32` entries are carved from one pool on first touch, and an entry
//! reads `domain bit | position + 1` into that domain's dense `keys`
//! vector. The two domains are the fabric's one random-replacement
//! `Domain`, which the NIC's QP-context cache indexes by `QpId` instead.
//! `keys[position]` holds the entry's pool location, and an entry counts
//! only if it is named back so (`Domain::holds`): an eviction overwrites
//! `keys[victim]` and leaves the old occupant's entry stale, and neither
//! it nor a DDIO→main promotion (swap-remove) translates a key back.
//!
//! [`dma_write`](LlcModel::dma_write) and
//! [`cpu_access`](LlcModel::cpu_access) are the plain per-line walk —
//! read and validate the entry, then hit / insert / promote — taken a
//! page at a time so the page table is consulted once per 16 lines. The
//! `keys` order and the SplitMix64 victim stream are those of the
//! map-indexed per-line reference model in this module's tests, which a
//! property test compares after every operation; `tests/llc_stream.rs`
//! pins the outcome streams of the benchmark's access patterns.
//!
//! Index memory is 4 B per line of every *touched* page, 4 B per page
//! of each region up to its highest touched page, and 4 B per region
//! id up to the highest id touched, each grown as `Vec` grows: up to
//! twice that is reserved, and first touches during a replay rarely
//! reallocate. An untouched node (most simulated clients) allocates
//! nothing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::replace::Domain;
use crate::types::MrId;

/// Result of a NIC DMA write through the LLC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DmaWriteOutcome {
    /// Full-line writes performed (`ItoM` events).
    pub full_lines: u64,
    /// Partial-line writes performed (`RFO` events).
    pub partial_lines: u64,
    /// Lines that missed the LLC and ran in Write-Allocate mode
    /// (`PCIeItoM` events).
    pub allocated: u64,
    /// Lines that Write-Updated in the general LLC domain.
    pub hit_main: u64,
    /// Lines that Write-Updated in the DDIO partition.
    pub hit_ddio: u64,
    /// Maximal runs of consecutive allocated lines within this write.
    /// Each run is one Write-Allocate burst: the NIC's allocate/evict
    /// machinery streams it as a unit, so burst count (not just line
    /// count) is what the PCIe-side counters see.
    pub alloc_runs: u64,
}

/// Result of a CPU access through the LLC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuAccessOutcome {
    /// Lines found in the LLC.
    pub hits: u64,
    /// Lines fetched from DRAM.
    pub misses: u64,
}

/// Lines per index page. Sixteen entries are one host cache line; a
/// message pool touched at one line per 4 KB block then pays 64 B of
/// index per block instead of the 256 B a flat per-region array would.
const PAGE_LINES: usize = 16;

/// Entry tag of the DDIO partition (the general LLC's tag is `0`). The
/// remaining 31 bits hold `keys` position + 1.
const DDIO: u32 = 1 << 31;

/// The LLC + DDIO model for one node.
#[derive(Clone, Debug)]
pub struct LlcModel {
    /// General LLC lines (CPU-allocated + promoted DDIO lines).
    main: Domain,
    /// DDIO Write-Allocate partition.
    ddio: Domain,
    /// Per [`MrId`]: `0` while the region is untouched, else its
    /// 1-based slot in `regions`. Its length reaches exactly the
    /// highest id touched (ids are the fabric's dense registration
    /// order); its capacity grows as `Vec`'s does, so first touches in
    /// id order reallocate a few times, not once per region.
    slots: Vec<u32>,
    /// The page table of each touched region, in first-touch order: per
    /// page of [`PAGE_LINES`] lines, `0` while untouched, else the
    /// page's 1-based slot in the entry pool.
    regions: Vec<Vec<u32>>,
    /// The entry pool: every touched page's [`PAGE_LINES`] entries, in
    /// first-touch order.
    entries: Vec<u32>,
    cpu_hits: u64,
    cpu_misses: u64,
}

fn line_range(offset: usize, len: usize) -> std::ops::Range<u64> {
    let first = (offset / 64) as u64;
    if len == 0 {
        // Zero-length accesses touch no line (and no model state).
        return first..first;
    }
    // Widen before adding: `offset + len - 1` overflows `usize` for
    // offsets near the top of the address space.
    let last = ((offset as u128 + len as u128 - 1) / 64) as u64;
    first..last + 1
}

impl LlcModel {
    /// Creates an LLC of `llc_bytes` total with `ddio_fraction` reserved
    /// for allocating writes.
    ///
    /// # Panics
    ///
    /// Panics if `ddio_fraction` is not strictly between 0 and 1, if
    /// the configuration yields zero lines in either domain, or if a
    /// domain's line count does not fit the 31-bit position field of an
    /// index entry (an LLC of 128 GB or more).
    pub fn new(llc_bytes: usize, ddio_fraction: f64) -> Self {
        // Out-of-range fractions would underflow `total - ddio` below
        // (a silent wrap in release builds); NaN fails both comparisons
        // and lands here too.
        assert!(
            ddio_fraction > 0.0 && ddio_fraction < 1.0,
            "ddio_fraction must lie strictly between 0 and 1, got {ddio_fraction}"
        );
        let total_lines = llc_bytes / 64;
        let ddio_lines = ((total_lines as f64) * ddio_fraction) as usize;
        let main_lines = total_lines - ddio_lines;
        assert!(
            main_lines > 0 && ddio_lines > 0,
            "LLC configuration must leave lines in both domains"
        );
        LlcModel {
            main: Domain::new(main_lines, 0),
            ddio: Domain::new(ddio_lines, DDIO),
            slots: Vec::new(),
            regions: Vec::new(),
            entries: Vec::new(),
            cpu_hits: 0,
            cpu_misses: 0,
        }
    }

    /// The slot of `mr` in `regions`: one lookup in the id table.
    #[inline]
    fn region_slot(&mut self, mr: MrId) -> usize {
        match self.slots.get(mr.index()) {
            Some(&slot) if slot != 0 => slot as usize - 1,
            _ => self.add_region(mr),
        }
    }

    /// First touch of `mr`: grows the id table to reach it and appends
    /// an empty page table for it.
    #[cold]
    fn add_region(&mut self, mr: MrId) -> usize {
        let id = mr.index();
        if id >= self.slots.len() {
            self.slots.resize(id + 1, 0);
        }
        self.regions.push(Vec::new());
        self.slots[id] = self.regions.len() as u32; // id < slots.len() after the resize above
        self.regions.len() - 1
    }

    /// Pool location of the first entry of `page` of `regions[slot]`.
    #[inline]
    fn page_base(&mut self, slot: usize, page: usize) -> usize {
        let pages = &self.regions[slot]; // slot comes from region_slot in the same call
        let at = match pages.get(page) {
            Some(&at) if at != 0 => at,
            _ => self.add_page(slot, page),
        };
        (at as usize - 1) * PAGE_LINES
    }

    /// First touch of `page` of `regions[slot]`: grows the page table to
    /// reach it, carves the page from the pool and returns its 1-based
    /// slot there.
    #[cold]
    fn add_page(&mut self, slot: usize, page: usize) -> u32 {
        let pages = &mut self.regions[slot]; // slot comes from region_slot in the same call
        if page >= pages.len() {
            pages.resize(page + 1, 0);
        }
        self.entries.resize(self.entries.len() + PAGE_LINES, 0);
        // `keys` store entry locations as `u32`.
        assert!(
            self.entries.len() <= u32::MAX as usize,
            "line index pool exceeds 2^32 entries"
        );
        let at = (self.entries.len() / PAGE_LINES) as u32;
        pages[page] = at; // page < pages.len() after the resize above
        at
    }

    /// Calls `visit(self, locs)` with the pool locations of `lines`'
    /// entries, one contiguous run per index page, in ascending line
    /// order.
    #[inline]
    fn walk(
        &mut self,
        mr: MrId,
        lines: std::ops::Range<u64>,
        mut visit: impl FnMut(&mut Self, std::ops::Range<usize>),
    ) {
        if lines.is_empty() {
            return;
        }
        let slot = self.region_slot(mr);
        let (mut line, end) = (lines.start as usize, lines.end as usize);
        while line < end {
            let page = line / PAGE_LINES;
            let stop = end.min((page + 1) * PAGE_LINES);
            let base = self.page_base(slot, page);
            visit(
                self,
                base + line % PAGE_LINES..base + (stop - page * PAGE_LINES),
            );
            line = stop;
        }
    }

    /// Models the NIC DMA-writing `len` bytes at `offset` in region `mr`.
    ///
    /// A zero-length write is a no-op. A line resident in either domain
    /// is a Write Update in place (random replacement has no recency to
    /// refresh); an absent line is Write-Allocated into the DDIO
    /// partition.
    ///
    /// The line index grows to cover `offset + len`, so callers pass
    /// offsets inside the region (the fabric bounds-checks every
    /// access before it gets here). The id table likewise grows to
    /// cover `mr`, so callers pass dense ids (the fabric resolves every
    /// id against its region list before it gets here).
    pub fn dma_write(&mut self, mr: MrId, offset: usize, len: usize) -> DmaWriteOutcome {
        let mut out = DmaWriteOutcome::default();
        let lines = line_range(offset, len);
        if lines.is_empty() {
            return out;
        }
        // Only the first and last line can be partially covered; classify
        // them once instead of per line (widened: `offset + len` can
        // overflow usize).
        let count = lines.end - lines.start;
        out.full_lines = count;
        if !offset.is_multiple_of(64) {
            out.partial_lines += 1;
        }
        let end = offset as u128 + len as u128;
        if !end.is_multiple_of(64) && (count > 1 || offset.is_multiple_of(64)) {
            out.partial_lines += 1;
        }
        out.full_lines -= out.partial_lines;
        // Each maximal run of consecutive allocated lines is one
        // allocate burst; the flag carries runs across page seams.
        let mut prev_alloc = false;
        self.walk(mr, lines, |llc, locs| {
            for loc in locs {
                let entry = llc.entries[loc]; // walk yields locations inside the pool
                let alloc = !llc.main.holds(entry, loc) && !llc.ddio.holds(entry, loc);
                if alloc {
                    llc.ddio.insert(&mut llc.entries, loc);
                    out.allocated += 1;
                    out.alloc_runs += !prev_alloc as u64;
                } else if entry & DDIO != 0 {
                    out.hit_ddio += 1;
                } else {
                    out.hit_main += 1;
                }
                prev_alloc = alloc;
            }
        });
        out
    }

    /// Models the CPU reading (or writing) `len` bytes at `offset`.
    /// Misses allocate into the general LLC domain; a line found in the
    /// DDIO partition is promoted into it (an L3 hit).
    ///
    /// A zero-length access is a no-op. Offsets must lie inside the
    /// region and ids must be dense, as for
    /// [`dma_write`](Self::dma_write).
    pub fn cpu_access(&mut self, mr: MrId, offset: usize, len: usize) -> CpuAccessOutcome {
        let mut out = CpuAccessOutcome::default();
        self.walk(mr, line_range(offset, len), |llc, locs| {
            for loc in locs {
                let entry = llc.entries[loc]; // walk yields locations inside the pool
                if llc.main.holds(entry, loc) {
                    out.hits += 1;
                    continue;
                }
                if llc.ddio.holds(entry, loc) {
                    out.hits += 1;
                    llc.ddio
                        .remove_at(&mut llc.entries, (entry & !DDIO) as usize - 1);
                } else {
                    out.misses += 1;
                }
                llc.main.insert(&mut llc.entries, loc);
            }
        });
        self.cpu_hits += out.hits;
        self.cpu_misses += out.misses;
        out
    }

    /// Cumulative CPU-side L3 miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        let total = self.cpu_hits + self.cpu_misses;
        if total == 0 {
            0.0
        } else {
            self.cpu_misses as f64 / total as f64
        }
    }

    /// Cumulative CPU hits.
    pub fn cpu_hits(&self) -> u64 {
        self.cpu_hits
    }

    /// Cumulative CPU misses.
    pub fn cpu_misses(&self) -> u64 {
        self.cpu_misses
    }

    /// Resets the hit/miss statistics (not the cache contents), so
    /// experiments can measure steady-state miss rates after warmup.
    pub fn reset_stats(&mut self) {
        self.cpu_hits = 0;
        self.cpu_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replace::tests::RefRandomSet;

    fn small_llc() -> LlcModel {
        // 64 KB LLC, 25% DDIO => 768 main lines, 256 DDIO lines.
        LlcModel::new(64 * 1024, 0.25)
    }

    #[test]
    fn line_range_covers_straddles() {
        assert_eq!(line_range(0, 32).count(), 1);
        assert_eq!(line_range(0, 64).count(), 1);
        assert_eq!(line_range(32, 64).count(), 2);
        assert_eq!(line_range(0, 0).count(), 0);
        assert_eq!(line_range(100, 0).count(), 0);
        assert_eq!(line_range(128, 256).count(), 4);
        // Boundary cases at the top of the address space: the naive
        // `offset + len - 1` overflows usize here.
        assert_eq!(line_range(usize::MAX, 0).count(), 0);
        assert_eq!(line_range(usize::MAX, 1).count(), 1);
        assert_eq!(line_range(usize::MAX, 2).count(), 2);
        assert_eq!(line_range(usize::MAX - 63, 64).count(), 1);
        assert_eq!(line_range(usize::MAX - 63, 65).count(), 2);
        // Worst case: both operands near usize::MAX (compare the bounds
        // — the range is ~2^58 lines, far too many to iterate).
        let r = line_range(usize::MAX - 64, usize::MAX);
        assert_eq!(r.start, (usize::MAX as u64 - 64) / 64);
        assert_eq!(
            r.end,
            ((usize::MAX as u128 + usize::MAX as u128 - 65) / 64) as u64 + 1
        );
    }

    #[test]
    fn zero_length_accesses_are_no_ops() {
        let mut llc = small_llc();
        assert_eq!(llc.dma_write(MrId(0), 96, 0), DmaWriteOutcome::default());
        assert_eq!(llc.cpu_access(MrId(0), 96, 0), CpuAccessOutcome::default());
        // No line became resident and no statistics moved.
        let after = llc.dma_write(MrId(0), 64, 64);
        assert_eq!(after.allocated, 1, "line 1 must still be cold");
        assert_eq!((llc.cpu_hits(), llc.cpu_misses()), (0, 0));
        assert_eq!(llc.miss_rate(), 0.0);
    }

    #[test]
    fn dma_write_partial_full_split_matches_span_math() {
        let mut llc = small_llc();
        // Bytes 32..128: a partial head (32..64) and one full line, with
        // the tail exactly line-aligned.
        let o = llc.dma_write(MrId(1), 32, 96);
        assert_eq!((o.full_lines, o.partial_lines), (1, 1));
        // Fully interior partial: a 16-byte write in the middle of a line.
        let o = llc.dma_write(MrId(1), 1000, 16);
        assert_eq!((o.full_lines, o.partial_lines), (0, 1));
        // Head and tail both partial around two full lines.
        let o = llc.dma_write(MrId(1), 4096 + 48, 160);
        assert_eq!((o.full_lines, o.partial_lines), (2, 2));
    }

    #[test]
    fn dma_write_classifies_full_vs_partial() {
        let mut llc = small_llc();
        let o = llc.dma_write(MrId(0), 0, 64);
        assert_eq!((o.full_lines, o.partial_lines), (1, 0));
        let o = llc.dma_write(MrId(0), 64, 32);
        assert_eq!((o.full_lines, o.partial_lines), (0, 1));
        let o = llc.dma_write(MrId(0), 128, 96); // one full + one partial
        assert_eq!((o.full_lines, o.partial_lines), (1, 1));
    }

    #[test]
    fn first_write_allocates_second_updates() {
        let mut llc = small_llc();
        let first = llc.dma_write(MrId(0), 0, 32);
        assert_eq!(first.allocated, 1);
        let second = llc.dma_write(MrId(0), 0, 32);
        assert_eq!(second.allocated, 0, "resident line must Write Update");
    }

    #[test]
    fn cpu_read_promotes_ddio_line() {
        let mut llc = small_llc();
        llc.dma_write(MrId(0), 0, 64);
        let r = llc.cpu_access(MrId(0), 0, 64);
        assert_eq!((r.hits, r.misses), (1, 0));
        // Line now lives in main; another DMA write is an update.
        let o = llc.dma_write(MrId(0), 0, 64);
        assert_eq!(o.allocated, 0);
    }

    #[test]
    fn working_set_larger_than_llc_misses() {
        let mut llc = small_llc(); // 1024 lines total
                                   // Touch 4096 distinct lines round-robin, twice. With random
                                   // replacement a 4x-capacity cyclic working set misses heavily
                                   // (h = exp(-4(1-h)) ≈ 0.02) though not on every single access.
        for _ in 0..2 {
            for line in 0..4096usize {
                llc.cpu_access(MrId(1), line * 64, 64);
            }
        }
        assert!(llc.miss_rate() > 0.9, "miss rate {}", llc.miss_rate());
    }

    #[test]
    fn small_working_set_stays_hot() {
        let mut llc = small_llc();
        for _ in 0..10 {
            for line in 0..100usize {
                llc.cpu_access(MrId(2), line * 64, 64);
            }
        }
        // 100 cold misses out of 1000 accesses.
        assert!(llc.miss_rate() < 0.11);
        llc.reset_stats();
        llc.cpu_access(MrId(2), 0, 64);
        assert_eq!(llc.miss_rate(), 0.0);
    }

    #[test]
    fn ddio_partition_thrashes_independently() {
        let mut llc = small_llc(); // 256 DDIO lines
                                   // Stream DMA writes over 1024 distinct lines repeatedly: nearly
                                   // every write allocates because the partition holds a quarter of
                                   // the working set (random replacement keeps a small residue).
        let mut allocated = 0;
        for _ in 0..2 {
            for line in 0..1024usize {
                allocated += llc.dma_write(MrId(3), line * 64, 64).allocated;
            }
        }
        assert!(allocated > 1800, "allocated {allocated}");
    }

    #[test]
    #[should_panic(expected = "both domains")]
    fn degenerate_config_rejected() {
        // One total line with an in-range fraction: the DDIO domain
        // rounds to zero lines.
        let _ = LlcModel::new(64, 0.5);
    }

    #[test]
    #[should_panic(expected = "ddio_fraction")]
    fn zero_fraction_rejected() {
        let _ = LlcModel::new(64 * 1024, 0.0);
    }

    #[test]
    #[should_panic(expected = "ddio_fraction")]
    fn negative_fraction_rejected() {
        // Would underflow `total - ddio` (silent wrap in release).
        let _ = LlcModel::new(64 * 1024, -0.25);
    }

    #[test]
    #[should_panic(expected = "ddio_fraction")]
    fn oversized_fraction_rejected() {
        let _ = LlcModel::new(64 * 1024, 1.5);
    }

    #[test]
    #[should_panic(expected = "ddio_fraction")]
    fn nan_fraction_rejected() {
        let _ = LlcModel::new(64 * 1024, f64::NAN);
    }

    #[test]
    fn alloc_runs_count_contiguous_bursts() {
        let mut llc = small_llc();
        // Cold 4-line span: one contiguous allocate burst.
        let o = llc.dma_write(MrId(0), 0, 256);
        assert_eq!((o.allocated, o.alloc_runs), (4, 1));
        // Warm middle lines split the next span into two bursts.
        let mut llc = small_llc();
        llc.dma_write(MrId(0), 64, 128); // lines 1..=2 now in DDIO
        let o = llc.dma_write(MrId(0), 0, 256);
        assert_eq!(o.hit_ddio, 2);
        assert_eq!((o.allocated, o.alloc_runs), (2, 2));
    }

    /// The reference model: two independent reference sets keyed by
    /// `(MrId, line)` and the seed's per-line logic (separate `contains`
    /// then `touch`, DDIO promotion checked before the `main` insert).
    /// The address-indexed model must reproduce its outcomes, `keys`
    /// order and victim streams exactly.
    struct RefLlc {
        main: RefRandomSet<(MrId, u64)>,
        ddio: RefRandomSet<(MrId, u64)>,
    }

    impl RefLlc {
        fn new(llc_bytes: usize, ddio_fraction: f64) -> Self {
            let total = llc_bytes / 64;
            let ddio = ((total as f64) * ddio_fraction) as usize;
            RefLlc {
                main: RefRandomSet::new(total - ddio),
                ddio: RefRandomSet::new(ddio),
            }
        }

        fn dma_write(&mut self, mr: MrId, offset: usize, len: usize) -> DmaWriteOutcome {
            let mut out = DmaWriteOutcome::default();
            let mut prev_alloc = false;
            for line in line_range(offset, len) {
                let line_start = line as usize * 64;
                let covered = (offset + len).min(line_start + 64) - offset.max(line_start);
                if covered == 64 {
                    out.full_lines += 1;
                } else {
                    out.partial_lines += 1;
                }
                let key = (mr, line);
                if self.main.contains(&key) {
                    self.main.touch(key);
                    out.hit_main += 1;
                    prev_alloc = false;
                } else if self.ddio.contains(&key) {
                    self.ddio.touch(key);
                    out.hit_ddio += 1;
                    prev_alloc = false;
                } else {
                    self.ddio.touch(key);
                    out.allocated += 1;
                    out.alloc_runs += !prev_alloc as u64;
                    prev_alloc = true;
                }
            }
            out
        }

        // The duplicated branch bodies mirror the seed's control flow
        // exactly; collapsing them is what the model under test does.
        #[allow(clippy::if_same_then_else)]
        fn cpu_access(&mut self, mr: MrId, offset: usize, len: usize) -> CpuAccessOutcome {
            let mut out = CpuAccessOutcome::default();
            for line in line_range(offset, len) {
                let key = (mr, line);
                if self.main.contains(&key) {
                    self.main.touch(key);
                    out.hits += 1;
                } else if self.ddio.remove(&key) {
                    self.main.touch(key);
                    out.hits += 1;
                } else {
                    self.main.touch(key);
                    out.misses += 1;
                }
            }
            out
        }
    }

    /// Checks the id table of `llc` and returns the id of each region,
    /// in `regions` order.
    ///
    /// Every region must be named by exactly one id, and the table must
    /// end at the highest id it names.
    fn region_ids(llc: &LlcModel) -> Vec<MrId> {
        let mut named = vec![None; llc.regions.len()];
        for (id, &slot) in llc.slots.iter().enumerate() {
            if slot != 0 {
                let n = &mut named[slot as usize - 1];
                assert_eq!(*n, None, "region {slot} named twice");
                *n = Some(MrId(id as u32));
            }
        }
        assert_ne!(llc.slots.last(), Some(&0), "id table past its highest id");
        named
            .into_iter()
            .map(|n| n.expect("unnamed region"))
            .collect()
    }

    /// Checks the line index of `llc` against its domains and returns
    /// both domains' keys resolved back to `(MrId, line)`, `main` first.
    ///
    /// The id table must pass [`region_ids`], every pool page must be
    /// owned by exactly one page-table entry, every `keys[i]` must be
    /// pointed back at by its entry with the right domain bit, and
    /// exactly the entries `keys` points back at may validate: a stale
    /// entry may stay non-zero, but no domain holds it.
    fn checked_keys(llc: &LlcModel) -> [Vec<(MrId, u64)>; 2] {
        let mut owner = vec![None; llc.entries.len() / PAGE_LINES];
        for (mr, pages) in region_ids(llc).into_iter().zip(&llc.regions) {
            for (page, &slot) in pages.iter().enumerate() {
                if slot != 0 {
                    let o = &mut owner[slot as usize - 1];
                    assert_eq!(*o, None, "pool page {slot} owned twice");
                    *o = Some((mr, page));
                }
            }
        }
        assert!(owner.iter().all(Option::is_some), "orphan pool page");
        let holds = |(loc, &e): &(usize, &u32)| llc.main.holds(e, *loc) || llc.ddio.holds(e, *loc);
        let resident = llc.entries.iter().enumerate().filter(holds).count();
        assert_eq!(resident, llc.main.keys.len() + llc.ddio.keys.len());
        [&llc.main, &llc.ddio].map(|domain| {
            assert!(domain.keys.len() <= domain.capacity);
            let resolve = |(pos, &loc): (usize, &u32)| {
                let loc = loc as usize;
                assert_eq!(llc.entries[loc], domain.tag | (pos as u32 + 1));
                let (mr, page) = owner[loc / PAGE_LINES].expect("owned above");
                (mr, (page * PAGE_LINES + loc % PAGE_LINES) as u64)
            };
            domain.keys.iter().enumerate().map(resolve).collect()
        })
    }

    /// Runs `ops` (`(is_cpu, mr, offset, len)`) through the model and
    /// the reference, comparing after every op the outcome, both
    /// domains' `keys` and victim streams, the index's consistency and
    /// that each region carries the id it was first touched under.
    fn assert_matches_reference(
        llc_bytes: usize,
        ops: impl IntoIterator<Item = (bool, u32, usize, usize)>,
    ) -> LlcModel {
        let mut fast = LlcModel::new(llc_bytes, 0.25);
        let mut slow = RefLlc::new(llc_bytes, 0.25);
        let mut first_touches = Vec::new();
        for (is_cpu, mr, offset, len) in ops {
            let mr = MrId(mr);
            if len > 0 && !first_touches.contains(&mr) {
                first_touches.push(mr);
            }
            if is_cpu {
                assert_eq!(
                    fast.cpu_access(mr, offset, len),
                    slow.cpu_access(mr, offset, len)
                );
            } else {
                assert_eq!(
                    fast.dma_write(mr, offset, len),
                    slow.dma_write(mr, offset, len)
                );
            }
            let [main, ddio] = checked_keys(&fast);
            assert_eq!(main, slow.main.keys);
            assert_eq!(ddio, slow.ddio.keys);
            assert_eq!(fast.main.rng.0, slow.main.rng_state);
            assert_eq!(fast.ddio.rng.0, slow.ddio.rng_state);
            assert_eq!(region_ids(&fast), first_touches);
        }
        fast
    }

    /// `dma_write`/`cpu_access` must match the per-line reference
    /// on arbitrary interleavings. Offsets up to ~6 KB, lengths
    /// past 8 KB and four regions against a 4 KB LLC (48
    /// main lines, 16 DDIO lines) keep both domains at capacity, so
    /// evictions hit later lines of the span being walked, other
    /// pages and other regions constantly. The region ids are
    /// sparse and first touched in any order, so the id table grows
    /// past untouched ids and from below as well as above.
    #[test]
    fn fast_paths_match_reference_model() {
        simcore::check_cases("fast_paths_match_reference_model", |rng| {
            let ops = rng.vec(0..120, |r| {
                let (op, mr) = (r.below(2) as u8, r.below(4) as usize);
                (op, mr, r.below(6000) as usize, r.below(12_000) as usize)
            });
            const IDS: [u32; 4] = [0, 3, 17, 900];
            assert_matches_reference(
                4096,
                ops.into_iter()
                    .map(|(op, mr, offset, len)| (op == 1, IDS[mr], offset, len)),
            );
        });
    }

    #[test]
    fn eviction_reaches_into_another_region() {
        // Region 0 fills the 16-line DDIO partition and, polled, the
        // 48-line main domain; every victim region 1's traffic then
        // draws is a line of region 0, whose entry (in region 0's
        // pages) must be cleared for the index to stay consistent.
        let llc = assert_matches_reference(
            4096,
            [
                (false, 0, 0, 16 * 64),
                (true, 0, 0, 48 * 64),
                (false, 1, 0, 16 * 64),
                (true, 1, 0, 24 * 64),
            ],
        );
        let [main, ddio] = checked_keys(&llc);
        let of_region = |keys: &[(MrId, u64)], mr| keys.iter().filter(|k| k.0 == MrId(mr)).count();
        assert_eq!(main.len(), 48);
        assert!(of_region(&main, 0) < 48 && of_region(&main, 1) > 0);
        assert_eq!(of_region(&ddio, 0), 0);
    }

    /// The pool location and entry of `line` of `mr`, whose page must
    /// have been touched.
    fn entry_of(llc: &LlcModel, mr: u32, line: u64) -> (usize, u32) {
        let slot = llc.slots[mr as usize] as usize - 1;
        let page = llc.regions[slot][line as usize / PAGE_LINES] as usize - 1;
        let loc = page * PAGE_LINES + line as usize % PAGE_LINES;
        (loc, llc.entries[loc])
    }

    /// Runs `prefix` and returns the one line of region 0 below
    /// `domain`'s capacity (`0` main, `1` DDIO) that it no longer
    /// holds, asserting that the line's entry stayed non-zero and reads
    /// absent.
    fn evicted_line(prefix: &[(bool, u32, usize, usize)], domain: usize) -> u64 {
        let llc = assert_matches_reference(4096, prefix.iter().copied());
        let lines = [&llc.main, &llc.ddio][domain].capacity as u64;
        let keys = &checked_keys(&llc)[domain];
        let gone: Vec<u64> = (0..lines)
            .filter(|&l| !keys.contains(&(MrId(0), l)))
            .collect();
        assert_eq!(gone.len(), 1, "one eviction");
        let (loc, entry) = entry_of(&llc, 0, gone[0]);
        assert_ne!(entry, 0, "an eviction leaves the entry stale");
        assert!(!llc.main.holds(entry, loc) && !llc.ddio.holds(entry, loc));
        gone[0]
    }

    /// Asserts that after `ops`, `line` of region 0 reads absent: its
    /// next CPU read misses and its next DMA write allocates, each
    /// matching the reference.
    fn assert_reads_absent(ops: &[(bool, u32, usize, usize)], line: u64) {
        let llc = assert_matches_reference(4096, ops.iter().copied());
        let x = line as usize * 64;
        assert_eq!(llc.clone().cpu_access(MrId(0), x, 64).misses, 1);
        assert_eq!(llc.clone().dma_write(MrId(0), x, 64).allocated, 1);
        for is_cpu in [true, false] {
            let next = (is_cpu, 0, x, 64);
            assert_matches_reference(4096, ops.iter().copied().chain([next]));
        }
    }

    #[test]
    fn an_evicted_line_keeps_a_stale_entry_and_reads_absent() {
        // DDIO (16 lines) fills from a DMA write and evicts at the 17th
        // line; main (48 lines) fills from a CPU read and evicts at the
        // 49th.
        let ddio = [(false, 0, 0, 16 * 64), (false, 0, 16 * 64, 64)];
        let main = [(true, 0, 0, 48 * 64), (true, 0, 48 * 64, 64)];
        for (prefix, domain) in [(ddio, 1), (main, 0)] {
            assert_reads_absent(&prefix, evicted_line(&prefix, domain));
        }
    }

    #[test]
    fn a_stale_ddio_entry_stays_absent_after_its_position_refills() {
        // DDIO evicts X at position p; promoting the keys at p.. pops
        // DDIO down to p; a fresh DMA write pushes another line into p.
        // X's entry still names p, yet X reads absent.
        let mut ops = vec![(false, 0, 0, 16 * 64), (false, 0, 16 * 64, 64)];
        let x = evicted_line(&ops, 1);
        let llc = assert_matches_reference(4096, ops.iter().copied());
        let (loc, stale) = entry_of(&llc, 0, x);
        let p = (stale & !DDIO) as usize - 1;
        let ddio = &checked_keys(&llc)[1];
        let promote = |&(_, l): &(MrId, u64)| (true, 0, l as usize * 64, 64);
        ops.extend(ddio[p..].iter().rev().map(promote));
        ops.push((false, 0, 40 * 64, 64));
        let llc = assert_matches_reference(4096, ops.iter().copied());
        assert_eq!(llc.ddio.keys.len(), p + 1);
        assert_eq!(checked_keys(&llc)[1][p], (MrId(0), 40));
        assert_eq!(entry_of(&llc, 0, x), (loc, stale));
        assert!(!llc.ddio.holds(stale, loc));
        assert_reads_absent(&ops, x);
    }

    #[test]
    fn promoting_the_last_ddio_key_needs_no_filler() {
        // Lines 0..4 enter DDIO in order; line 3 is `keys.last()`, so
        // its promotion pops without relocating anything, while line 0's
        // moves line 2 into its place.
        let llc = assert_matches_reference(
            4096,
            [(false, 0, 0, 256), (true, 0, 192, 64), (true, 0, 0, 64)],
        );
        let [main, ddio] = checked_keys(&llc);
        assert_eq!(main, [(MrId(0), 3), (MrId(0), 0)]);
        assert_eq!(ddio, [(MrId(0), 2), (MrId(0), 1)]);
    }

    #[test]
    fn span_crossing_a_page_seam_is_one_burst() {
        // Lines 14..18 straddle the first two index pages.
        let seam = (PAGE_LINES - 2) * 64;
        let mut llc = small_llc();
        let o = llc.dma_write(MrId(0), seam, 256);
        assert_eq!((o.allocated, o.alloc_runs), (4, 1));
        assert_eq!(llc.entries.len(), 2 * PAGE_LINES);
        let o = llc.cpu_access(MrId(0), seam, 256);
        assert_eq!((o.hits, o.misses), (4, 0));
        assert_matches_reference(4096, [(false, 0, seam, 256), (true, 0, seam - 64, 6 * 64)]);
    }

    #[test]
    fn sparse_region_pays_for_touched_pages_only() {
        // One line at the far end of a 64 MB region, one at the start:
        // two pages of entries, and a page table that reaches the far
        // page exactly.
        let far = (64 << 20) - 64;
        let mut llc = small_llc();
        llc.dma_write(MrId(5), far, 64);
        llc.cpu_access(MrId(5), 0, 64);
        assert_eq!(llc.entries.len(), 2 * PAGE_LINES);
        let pages = &llc.regions[0];
        assert_eq!(pages.len(), far / 64 / PAGE_LINES + 1);
        assert_eq!(pages.capacity(), pages.len());
        assert_eq!(pages.iter().filter(|&&p| p != 0).count(), 2);
        assert_eq!(
            checked_keys(&llc),
            [vec![(MrId(5), 0)], vec![(MrId(5), far as u64 / 64)]]
        );
    }

    #[test]
    fn untouched_model_allocates_nothing() {
        // Most simulated nodes are clients whose LLC is never touched;
        // zero-length accesses touch no line and no region either.
        let mut llc = small_llc();
        llc.dma_write(MrId(7), 64, 0);
        llc.cpu_access(MrId(7), 64, 0);
        assert_eq!(llc.slots.capacity(), 0);
        assert_eq!(llc.regions.capacity(), 0);
        assert_eq!(llc.entries.capacity(), 0);
        assert_eq!((llc.main.keys.capacity(), llc.ddio.keys.capacity()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "31-bit position field")]
    fn capacity_beyond_the_position_field_rejected() {
        let _ = LlcModel::new(1 << 38, 0.5);
    }
}
