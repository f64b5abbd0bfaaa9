//! NIC-cache outcome goldens: an FNV-1a fold of every access's extra
//! PCIe reads and evicted QP id, then the cache's final hit and miss
//! counts, over the benchmark kernels' two patterns at the paper's 96
//! QP-context entries and a SplitMix64-driven mix of sparse ids against
//! a 16-entry cache.
//!
//! The values were captured on the hashed open-addressed QP-context
//! cache (the commit before the dense-index one) and must never be
//! re-blessed: any representation of the cache has to reproduce the same
//! hits, the same `keys` order and the same eviction draws, access for
//! access.

use rdma_fabric::{FabricParams, NicCache, QpId};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one access of `qp`: its extra PCIe reads and the id it
    /// evicted (`0` for none, else id + 1).
    fn access(&mut self, cache: &mut NicCache, qp: u32) {
        let a = cache.access(QpId(qp), 0);
        self.word(a.extra_pcie_reads());
        self.word(a.evicted.map_or(0, |q| q.0 as u64 + 1));
    }

    /// Closes the fold with the cache's cumulative statistics.
    fn finish(mut self, cache: &NicCache) -> u64 {
        self.word(cache.hits());
        self.word(cache.misses());
        self.0
    }
}

fn paper_cache() -> NicCache {
    NicCache::new(FabricParams::default().nic_qp_cache_entries, 0)
}

/// The thrash kernel: 800 QPs round robin (RawWrite at 400 clients).
#[test]
fn round_robin_800_qps() {
    let mut cache = paper_cache();
    let mut fold = Fnv::new();
    for i in 0..20 * 800 {
        fold.access(&mut cache, i % 800);
    }
    assert_eq!(fold.finish(&cache), 0x5724_d2ae_5008_407a);
}

/// The hot kernel: 40 QPs round robin (one ScaleRPC group).
#[test]
fn hot_set_40_qps() {
    let mut cache = paper_cache();
    let mut fold = Fnv::new();
    for i in 0..50 * 40 {
        fold.access(&mut cache, i % 40);
    }
    assert_eq!(fold.finish(&cache), 0xe76e_f154_65f7_7418);
}

/// A quarter of the draws pick any id in `0..=4096`, the rest one of
/// twelve hot ids, against 16 entries: sparse first touches, hits,
/// and evictions of hot and cold ids alike.
#[test]
fn splitmix_mix_over_sparse_ids() {
    let mut cache = NicCache::new(16, 0);
    let mut fold = Fnv::new();
    let mut state = 42u64;
    for _ in 0..20_000 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let qp = if z & 3 == 0 {
            (z >> 32) % 4097
        } else {
            (z >> 32) % 12
        };
        fold.access(&mut cache, qp as u32);
    }
    assert_eq!(fold.finish(&cache), 0xcf65_e182_4f2d_5ede);
}
