//! The NIC's on-chip connection cache.
//!
//! Per §2.3 of the paper, the NIC caches (1) virtual→physical mapping
//! tables, (2) QP states and (3) WQEs. Mapping tables can be kept small
//! with huge pages (FaRM) or physical registration (LITE), so — like the
//! paper — the model concentrates on QP contexts and WQEs: once the number
//! of *concurrently active* connections exceeds the cache, every posted
//! verb must re-fetch evicted state from host memory over PCIe, which both
//! slows the transmit engine and shows up as extra `PCIeRdCur` events.
//!
//! WQEs are modelled as riding with their QP: a freshly posted WQE is
//! written to host memory by the CPU and prefetched by the NIC while the
//! QP is hot, so it costs nothing extra; but when a QP's context has been
//! evicted, its prefetched WQEs are gone too and both must be re-read
//! ("the WQEs also need to be switched out and in from the NIC cache",
//! §3.6.3).
//!
//! Connection grouping (§3.2) works precisely because it bounds the number
//! of QPs touched within a time slice to the group size.
//!
//! The cache is one random-replacement `Domain` (the LLC's eviction
//! policy and victim stream) over an index with one `u32` per `QpId`:
//! `0` while the QP's context is absent, else its position + 1 in the
//! domain. A `QpId` is a fabric-wide dense index, so the index of a node
//! reaches the highest id that node has posted on — 4 B per id below it,
//! and nothing for a node that never transmits.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::replace::Domain;
use crate::types::QpId;

/// Outcome of a NIC-cache access for one transmit work request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicAccess {
    /// The QP context had to be fetched from host memory, and with it
    /// the WQE prefetch that was lost when the context was evicted.
    pub miss: bool,
    /// The QP whose context was evicted to make room, if the fetch
    /// displaced one (only possible on a miss at capacity).
    pub evicted: Option<QpId>,
}

impl NicAccess {
    /// Number of extra PCIe read operations this access caused: one for
    /// the context and one for the WQE on a miss.
    pub fn extra_pcie_reads(self) -> u64 {
        2 * self.miss as u64
    }
}

/// Model of the NIC's QP-context cache.
///
/// Uses random replacement rather than strict LRU: hardware connection
/// caches are hashed/set-associative, so an oversized cyclic working set
/// degrades *proportionally* (hit rate ≈ capacity / active QPs) — the
/// gradual decline of Fig. 1(b) — instead of falling off a cliff.
#[derive(Clone, Debug)]
pub struct NicCache {
    qp_ctx: Domain,
    /// Per `QpId`: `0` while absent, else `keys` position + 1. Grows on
    /// first touch of a higher id, to exactly that id.
    index: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl NicCache {
    /// Creates a cache holding `qp_entries` QP contexts. The second
    /// parameter is unused — WQE residency rides with QP residency (see
    /// the module docs) — and stays only because the `benchmark` package
    /// calls this signature; pass `0`.
    ///
    /// # Panics
    ///
    /// Panics if `qp_entries` is zero.
    pub fn new(qp_entries: usize, _wqe_entries: usize) -> Self {
        NicCache {
            qp_ctx: Domain::new(qp_entries, 0),
            index: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Models the transmit engine touching `qp`'s context (and its
    /// prefetched WQEs) for one work request. `_slot` is unused and kept
    /// for the same reason as `new`'s second parameter; pass `0`.
    pub fn access(&mut self, qp: QpId, _slot: u32) -> NicAccess {
        let id = qp.index();
        if id >= self.index.len() {
            self.index.resize(id + 1, 0);
        }
        if self.index[id] != 0 {
            // id < index.len() after the resize above
            self.hits += 1;
            return NicAccess::default();
        }
        self.misses += 1;
        NicAccess {
            miss: true,
            evicted: self.qp_ctx.insert(&mut self.index, id).map(QpId),
        }
    }

    /// QP-context hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// QP-context miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// QP-context hit rate in `[0, 1]` (1.0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replace::tests::RefRandomSet;

    fn round_robin(cache: &mut NicCache, qps: u32, rounds: u32) -> (u64, u64) {
        let h0 = cache.hits();
        let m0 = cache.misses();
        for r in 0..rounds {
            for q in 0..qps {
                cache.access(QpId(q), r % 4);
            }
        }
        (cache.hits() - h0, cache.misses() - m0)
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = NicCache::new(64, 512);
        round_robin(&mut c, 40, 1); // cold misses
        let (h, m) = round_robin(&mut c, 40, 10);
        assert_eq!(m, 0, "all warm accesses should hit");
        assert_eq!(h, 400);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_proportionally() {
        let mut c = NicCache::new(64, 512);
        round_robin(&mut c, 200, 5); // warm the random-replacement state
        let (h, m) = round_robin(&mut c, 200, 20);
        // Cyclic access over 200 QPs with 64 entries: the random-
        // replacement fixed point h = exp(-(200/64)(1-h)) ≈ 0.05 — a
        // deep but non-zero hit rate (strict LRU would be exactly 0).
        let rate = h as f64 / (h + m) as f64;
        assert!(
            (0.005..0.2).contains(&rate),
            "expected ~0.05 hit rate, got {rate:.2}"
        );
    }

    #[test]
    fn steady_traffic_on_few_qps_never_misses_wqes() {
        // The regression the WQE-slot model had: endless fresh WQEs on a
        // handful of QPs must not be charged as misses.
        let mut c = NicCache::new(64, 512);
        for slot in 0..10_000u32 {
            c.access(QpId(slot % 10), slot);
        }
        assert_eq!(c.misses(), 10); // cold only
        assert!(c.hit_rate() > 0.99);
    }

    #[test]
    fn wqe_miss_rides_with_qp_miss() {
        // One miss re-reads the context and the WQE: two PCIe reads.
        let mut c = NicCache::new(2, 16);
        let a = c.access(QpId(0), 0);
        assert!(a.miss);
        assert_eq!(a.extra_pcie_reads(), 2);
        let b = c.access(QpId(0), 1);
        assert!(!b.miss);
        assert_eq!(b.extra_pcie_reads(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = NicCache::new(0, 0);
    }

    #[test]
    fn index_reaches_the_highest_id_touched() {
        // An untouched cache allocates nothing; a touched one indexes
        // exactly up to the highest id it touched, whatever order the
        // ids come in.
        let mut c = NicCache::new(4, 0);
        assert_eq!((c.index.capacity(), c.qp_ctx.keys.capacity()), (0, 0));
        for q in [17, 900, 5, 900, 3] {
            c.access(QpId(q), 0);
        }
        assert_eq!(c.index.len(), 901);
        assert_eq!(c.qp_ctx.keys, [17, 900, 5, 3]);
    }

    /// After every access the cache must agree with the reference
    /// set on hit and evicted id, and in `keys` order and victim
    /// stream; every index entry must point back at its `keys`
    /// position. A quarter of the ids are sparse, anywhere in
    /// `0..=4096` and first touched in any order; the rest are one
    /// of twelve hot ids. Capacities are small, so most runs evict.
    #[test]
    fn nic_cache_matches_reference_set() {
        simcore::check_cases("nic_cache_matches_reference_set", |rng| {
            let cap = rng.between(1, 39) as usize;
            let ids = rng.vec(0..400, |r| (r.below(4) as u8, r.below(4097) as u32));
            let mut fast = NicCache::new(cap, 0);
            let mut slow = RefRandomSet::new(cap);
            for (pick, id) in ids {
                let qp = QpId(if pick == 0 { id } else { id % 12 });
                let (hit, evicted) = slow.touch(qp);
                let a = fast.access(qp, 0);
                assert_eq!((!a.miss, a.evicted), (hit, evicted));
                let keys: Vec<QpId> = fast.qp_ctx.keys.iter().map(|&q| QpId(q)).collect();
                assert_eq!(&keys, &slow.keys);
                assert_eq!(fast.qp_ctx.rng.0, slow.rng_state);
                for (pos, q) in keys.iter().enumerate() {
                    assert_eq!(fast.index[q.index()], pos as u32 + 1);
                }
                let resident = fast.index.iter().filter(|&&e| e != 0).count();
                assert_eq!(resident, keys.len());
            }
        });
    }

    #[test]
    fn hit_rate_boundaries() {
        let mut c = NicCache::new(4, 16);
        assert_eq!(c.hit_rate(), 1.0);
        c.access(QpId(0), 0);
        assert_eq!(c.hit_rate(), 0.0);
        c.access(QpId(0), 0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grouping_keeps_cache_warm_across_slices() {
        // Simulates ScaleRPC's access pattern: group A for a slice, then
        // group B, then A again. Each slice's working set (40) fits the
        // cache, so within a slice almost every access hits — at worst a
        // handful of cold/evicted fetches at the slice boundary.
        let mut c = NicCache::new(64, 4096);
        let (_, m1) = round_robin(&mut c, 40, 20); // group A slice
        assert_eq!(m1, 40, "first slice pays cold misses only");
        let before = c.misses();
        for r in 0..20u32 {
            for q in 100..140 {
                c.access(QpId(q), r % 4); // group B slice
            }
        }
        let group_b_misses = c.misses() - before;
        // 800 accesses; misses bounded by cold fetches plus a few
        // random-replacement self-evictions.
        assert!(
            group_b_misses < 120,
            "slice misses should stay near the cold 40, got {group_b_misses}"
        );
    }
}
