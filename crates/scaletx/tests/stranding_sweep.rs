//! The stranding sweep: ScaleTX over ScaleRPC at transaction windows 4
//! and 8, each seed run with one-sided and with RPC-only validation and
//! commit, then drained for 300 ms. A slot still busy after the drain
//! waits on a response that never comes. A release build runs every seed
//! of each cell (202 runs); a debug build runs two seeds per cell, each
//! one that a dedup window of a fixed 1 024 seqs stranded.

use scaletx::sim::run_scalerpc_tx;
use scaletx::workload::TxWorkload;
use scaletx::TxConfig;
use simcore::SimDuration;

/// The Fig. 16 point: 160 coordinators, 3 servers, `coord_cpu_mult` 8,
/// a 2 ms warmup and a 6 ms run.
fn fig16_point(workload: TxWorkload, window: usize, seed: u64, one_sided: bool) -> TxConfig {
    TxConfig {
        coordinators: 160,
        servers: 3,
        client_machines: 8,
        workload,
        one_sided,
        value_size: 8,
        keys_per_server: 20_000,
        initial_balance: 1_000,
        warmup: SimDuration::millis(2),
        run: SimDuration::millis(6),
        coord_cpu_mult: 8,
        window,
        seed,
    }
}

/// SmallBank with 50 000 accounts per server.
fn smallbank(window: usize, seed: u64, one_sided: bool) -> TxConfig {
    TxConfig {
        keys_per_server: 50_000 * 2 + 2,
        ..fig16_point(TxWorkload::smallbank(50_000, 3), window, seed, one_sided)
    }
}

/// The read-write object store of Fig. 16's window sweep: 3 reads,
/// 1 write, 20 000 keys per server, 40-byte values.
fn r3w1(window: usize, seed: u64, one_sided: bool) -> TxConfig {
    let workload = TxWorkload::ObjectStore {
        reads: 3,
        writes: 1,
        keys_per_server: 20_000,
        servers: 3,
    };
    TxConfig {
        value_size: 40,
        ..fig16_point(workload, window, seed, one_sided)
    }
}

/// Slots still busy 300 ms after the run of `cfg` stopped.
fn busy_after_drain(cfg: TxConfig) -> usize {
    let mut sim = run_scalerpc_tx(cfg, scaletx::tx_scale_cfg(), SimDuration::ZERO);
    let stop = sim.logic(0).stop_at();
    sim.run_sequential(stop + SimDuration::millis(300));
    sim.logic(0).busy_slots()
}

/// Runs `seeds` (`sample` in a debug build) one-sided and RPC-only and
/// fails with every `(seed, one_sided, busy slots)` that stranded.
fn sweep(
    seeds: impl IntoIterator<Item = u64>,
    sample: [u64; 2],
    cfg: impl Fn(u64, bool) -> TxConfig,
) {
    let seeds: Vec<u64> = if cfg!(debug_assertions) {
        sample.to_vec()
    } else {
        seeds.into_iter().collect()
    };
    let mut stranded = Vec::new();
    for seed in seeds {
        for one_sided in [true, false] {
            let busy = busy_after_drain(cfg(seed, one_sided));
            if busy != 0 {
                stranded.push((seed, one_sided, busy));
            }
        }
    }
    assert!(stranded.is_empty(), "stranded: {stranded:?}");
}

#[test]
fn smallbank_window4_seeds_1000_to_1059_strand_no_slot() {
    sweep(1000..1060, [1006, 1026], |seed, one_sided| {
        smallbank(4, seed, one_sided)
    });
}

#[test]
fn smallbank_window8_seeds_1000_to_1029_strand_no_slot() {
    sweep(1000..1030, [1000, 1011], |seed, one_sided| {
        smallbank(8, seed, one_sided)
    });
}

#[test]
fn object_store_r3w1_window8_seeds_31_and_1000_to_1009_strand_no_slot() {
    let seeds = [31].into_iter().chain(1000..1010);
    sweep(seeds, [31, 1001], |seed, one_sided| {
        r3w1(8, seed, one_sided)
    });
}
