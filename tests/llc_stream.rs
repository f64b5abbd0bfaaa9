//! LLC outcome goldens: an FNV-1a fold of every `DmaWriteOutcome` /
//! `CpuAccessOutcome` the model returns over the benchmark's three
//! kernel streams and the raw-inbound access pattern, at the paper's
//! 30 MB LLC.
//!
//! The values were captured on the hashed probe-table `LlcModel` (the
//! commit before the address-indexed line index) and must never be
//! re-blessed: any representation of the two cache domains has to
//! reproduce the same hit/allocate classification, which means the same
//! `keys` order and the same eviction draws, line for line.

use rdma_fabric::llc::{CpuAccessOutcome, DmaWriteOutcome, LlcModel};
use rdma_fabric::{FabricParams, MrId};

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

    fn dma(&mut self, o: DmaWriteOutcome) {
        for w in [
            o.full_lines,
            o.partial_lines,
            o.allocated,
            o.hit_main,
            o.hit_ddio,
            o.alloc_runs,
        ] {
            self.word(w);
        }
    }

    fn cpu(&mut self, o: CpuAccessOutcome) {
        self.word(o.hits);
        self.word(o.misses);
    }

    /// Closes the fold with the model's cumulative CPU statistics.
    fn finish(mut self, llc: &LlcModel) -> u64 {
        self.word(llc.cpu_hits());
        self.word(llc.cpu_misses());
        self.0
    }
}

fn paper_llc() -> LlcModel {
    let p = FabricParams::default();
    LlcModel::new(p.llc_bytes, p.ddio_fraction)
}

/// Three passes over the kernels' 64 MB stride-8 KB stream.
const STREAM_OPS: usize = 3 * (64 << 20) / 8192;

#[test]
fn dma_write_8k_stream() {
    let mut llc = paper_llc();
    let mut fold = Fnv::new();
    let mut off = 0usize;
    for _ in 0..STREAM_OPS {
        off = (off + 8192) % (64 << 20);
        fold.dma(llc.dma_write(MrId(0), off, 8192));
    }
    assert_eq!(fold.finish(&llc), 0xf01e_020f_c243_6465);
}

#[test]
fn cpu_access_8k_stream() {
    let mut llc = paper_llc();
    let mut fold = Fnv::new();
    let mut off = 0usize;
    for _ in 0..STREAM_OPS {
        off = (off + 8192) % (64 << 20);
        fold.cpu(llc.cpu_access(MrId(0), off, 8192));
    }
    assert_eq!(fold.finish(&llc), 0xad70_d8b8_6467_549b);
}

#[test]
fn dma_write_32b_hot_set() {
    let mut llc = paper_llc();
    let mut fold = Fnv::new();
    let mut off = 0usize;
    for _ in 0..5_000 {
        off = (off + 4096) % (1 << 22);
        fold.dma(llc.dma_write(MrId(0), off, 32));
    }
    assert_eq!(fold.finish(&llc), 0xe55c_24c2_b4a5_5f65);
}

/// `raw_inbound_8k_400c` as the LLC sees it: 400 clients round-robin,
/// each cycling through its own twenty 8 KB blocks; the NIC writes a
/// 32 B message at the block start and the polling CPU then reads the
/// whole block.
#[test]
fn raw_inbound_write_then_poll() {
    const CLIENTS: usize = 400;
    const BLOCKS: usize = 20;
    const BLOCK: usize = 8192;
    let mut llc = paper_llc();
    let mut fold = Fnv::new();
    for i in 0..3 * CLIENTS * BLOCKS {
        let (client, cursor) = (i % CLIENTS, i / CLIENTS);
        let block = (client * BLOCKS + cursor % BLOCKS) * BLOCK;
        fold.dma(llc.dma_write(MrId(0), block, 32));
        fold.cpu(llc.cpu_access(MrId(0), block, BLOCK));
    }
    assert_eq!(fold.finish(&llc), 0x886f_bd55_a337_2b6e);
}
