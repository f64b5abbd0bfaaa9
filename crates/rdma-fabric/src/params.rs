//! Fabric model parameters.
//!
//! Every latency, rate and capacity in the fabric is collected here, with
//! defaults calibrated to the paper's testbed (dual Xeon E5-2650 v4,
//! ConnectX-3 FDR 56 Gbps, Mellanox SX-1012 switch). The calibration
//! targets the paper's *measured envelope*, not datasheet numbers:
//!
//! - outbound RC write peaks near 20 Mops/s with 10 server threads and
//!   collapses toward ~2 Mops/s with 800 connections (Fig. 1(b));
//! - inbound RC write peaks near 35 Mops/s and is insensitive to the
//!   number of connections but collapses below 10 Mops/s once the message
//!   working set exceeds the LLC (Fig. 3(b));
//! - small-message RPC round trips land in single-digit microseconds.

use simcore::SimDuration;

/// All tunable constants of the simulated fabric.
#[derive(Clone, Debug)]
pub struct FabricParams {
    // ---- CPU-side posting costs ----
    /// CPU time to build a WQE and ring the doorbell (MMIO) for one work
    /// request. Charged to the posting thread.
    pub post_cpu: SimDuration,
    /// Extra CPU time for posting a receive WQE (`ibv_post_recv`).
    pub post_recv_cpu: SimDuration,
    /// CPU time for one `ibv_poll_cq` call (empty or not).
    pub cq_poll_cpu: SimDuration,
    /// CPU time to check a message-pool slot (one cached read + compare).
    pub pool_check_cpu: SimDuration,
    /// Delay between ringing the doorbell and the NIC starting to see the
    /// WQE (PCIe posted-write latency).
    pub doorbell_latency: SimDuration,

    // ---- NIC engines ----
    /// Per-WQE occupancy of the transmit engine (sets the outbound verb
    /// rate ceiling: 50 ns ⇒ 20 Mops/s).
    pub nic_tx_base: SimDuration,
    /// Per-message occupancy of the receive engine (28 ns ⇒ ~35 Mops/s
    /// inbound ceiling).
    pub nic_rx_base: SimDuration,
    /// Extra transmit occupancy when the QP context is not in the NIC
    /// cache and must be fetched from host memory over PCIe.
    pub qp_ctx_miss_penalty: SimDuration,
    /// Extra transmit occupancy when the WQE itself was evicted from the
    /// NIC's WQE cache.
    pub wqe_miss_penalty: SimDuration,
    /// Extra transmit occupancy for UD sends (address-handle resolution
    /// and datagram header construction; UD send tops out well below RC
    /// write rate on real HCAs — see Fig. 1(b)).
    pub ud_tx_extra: SimDuration,
    /// Occupancy of the DMA engine reading one payload cacheline.
    pub dma_read_per_line: SimDuration,
    /// Latency (not occupancy) of a DMA write landing in the LLC.
    pub dma_write_latency: SimDuration,
    /// Extra receive-side occupancy when a DDIO write misses the LLC and
    /// must run in Write-Allocate mode (charged once per message that
    /// allocates).
    pub ddio_alloc_penalty: SimDuration,
    /// Additional per-line Write-Allocate cost beyond the first line of a
    /// message. Kept small: bulk streams pipeline their allocations, so
    /// the penalty is per-transaction latency, not per-line stall.
    pub ddio_bulk_per_line: SimDuration,
    /// Number of QP contexts the NIC cache can hold. Calibrated so that
    /// ScaleRPC's two concurrently active groups (serving + warming, 2 ×
    /// the optimal group size of 40) fit, while RawWrite's one-QP-per-
    /// client pattern degrades within the paper's client range — both
    /// facts the paper's evaluation exhibits on ConnectX-3.
    pub nic_qp_cache_entries: usize,
    /// Number of WQEs the NIC cache can hold across all QPs.
    pub nic_wqe_cache_entries: usize,

    // ---- Wire ----
    /// Link bandwidth in bytes per nanosecond (56 Gbps FDR ⇒ 7 B/ns).
    pub link_bytes_per_ns: f64,
    /// One-way propagation delay of a link (NIC → switch port).
    pub link_propagation: SimDuration,
    /// Switch forwarding latency.
    pub switch_latency: SimDuration,
    /// Per-message wire header overhead in bytes (LRH/BTH/ICRC…).
    pub wire_header_bytes: usize,
    /// Extra header bytes for UD datagrams (GRH).
    pub ud_grh_bytes: usize,
    /// Latency of the hardware RC acknowledgement back to the requester
    /// (pure delay; acks are coalesced and do not occupy the engines).
    pub ack_latency: SimDuration,

    // ---- CPU cache (LLC + DDIO) ----
    /// LLC capacity in bytes (E5-2650 v4: 30 MB).
    pub llc_bytes: usize,
    /// Fraction of the LLC usable by DDIO Write-Allocate (Intel DDIO
    /// restricts allocating writes to ~10 % of the LLC).
    pub ddio_fraction: f64,
    /// CPU time for a load that hits the LLC.
    pub cpu_read_hit: SimDuration,
    /// CPU time for a load that misses to DRAM.
    pub cpu_read_miss: SimDuration,

    // ---- Connection control plane (Swift-calibrated) ----
    /// CPU time to create a QP (`ibv_create_qp`: driver allocates queue
    /// buffers, pins pages, writes the hardware context). Swift
    /// ("Rethinking RDMA Control Plane for Elastic Computing", PAPERS.md)
    /// measures QP creation in the tens of microseconds on ConnectX-class
    /// HCAs — the control plane, not the data path, dominates elastic
    /// workloads.
    pub qp_create_cpu: SimDuration,
    /// CPU time for the modify-QP chain (RESET→INIT→RTR→RTS): three
    /// verbs calls, each a command-queue round trip to the HCA firmware.
    pub qp_transition_cpu: SimDuration,
    /// Latency (not CPU occupancy) between the final modify-QP doorbell
    /// and the connection being usable: firmware installs the context and
    /// the first packet can flow. Charged once per `connect_deferred`.
    pub qp_rts_latency: SimDuration,
    /// CPU time to destroy a QP (flush, unpin, free the context).
    pub qp_destroy_cpu: SimDuration,

    // ---- Transport limits (Table 1) ----
    /// UD maximum transmission unit in bytes.
    pub ud_mtu: usize,
    /// RC/UC maximum message size in bytes (2 GB).
    pub rc_max_msg: usize,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            post_cpu: SimDuration::nanos(70),
            post_recv_cpu: SimDuration::nanos(90),
            cq_poll_cpu: SimDuration::nanos(60),
            pool_check_cpu: SimDuration::nanos(22),
            doorbell_latency: SimDuration::nanos(120),

            nic_tx_base: SimDuration::nanos(50),
            nic_rx_base: SimDuration::nanos(28),
            qp_ctx_miss_penalty: SimDuration::nanos(350),
            wqe_miss_penalty: SimDuration::nanos(110),
            ud_tx_extra: SimDuration::nanos(40),
            dma_read_per_line: SimDuration::nanos(8),
            dma_write_latency: SimDuration::nanos(150),
            ddio_alloc_penalty: SimDuration::nanos(75),
            ddio_bulk_per_line: SimDuration::nanos(2),
            nic_qp_cache_entries: 96,
            nic_wqe_cache_entries: 512,

            link_bytes_per_ns: 7.0,
            link_propagation: SimDuration::nanos(200),
            switch_latency: SimDuration::nanos(250),
            wire_header_bytes: 36,
            ud_grh_bytes: 40,
            ack_latency: SimDuration::nanos(400),

            llc_bytes: 30 * 1024 * 1024,
            ddio_fraction: 0.10,
            cpu_read_hit: SimDuration::nanos(14),
            cpu_read_miss: SimDuration::nanos(90),

            qp_create_cpu: SimDuration::nanos(15_000),
            qp_transition_cpu: SimDuration::nanos(10_000),
            qp_rts_latency: SimDuration::nanos(5_000),
            qp_destroy_cpu: SimDuration::nanos(8_000),

            ud_mtu: 4096,
            rc_max_msg: 2 * 1024 * 1024 * 1024,
        }
    }
}

/// A transient wire impairment (cable errors, congested uplink,
/// rate-limited tenant): serialization and propagation are stretched by
/// `num/den` and `extra` is added to every wire hop. Constructors must
/// keep `num >= den` and `den > 0` — a degrade degrades: it only ever
/// *adds* latency, so no cross-node edge gets faster than its nominal
/// wire or ack latency while one is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkDegrade {
    /// Slowdown numerator.
    pub num: u32,
    /// Slowdown denominator.
    pub den: u32,
    /// Flat extra propagation delay per wire hop.
    pub extra: SimDuration,
}

impl LinkDegrade {
    /// Stretches a nominal duration by `num/den` (integer arithmetic,
    /// bit-exactly reproducible).
    pub fn stretch(&self, d: SimDuration) -> SimDuration {
        SimDuration(d.0 * self.num as u64 / self.den as u64)
    }
}

impl FabricParams {
    /// Wire serialization time for `bytes` of payload plus headers.
    pub fn serialize(&self, bytes: usize) -> SimDuration {
        let total = (bytes + self.wire_header_bytes) as f64;
        SimDuration::from_secs_f64(total / self.link_bytes_per_ns / 1e9)
    }

    /// One-way wire latency excluding serialization: two link hops plus
    /// the switch.
    pub fn wire_latency(&self) -> SimDuration {
        self.link_propagation * 2 + self.switch_latency
    }

    /// Number of 64-byte cachelines covering `bytes`.
    pub fn lines(bytes: usize) -> usize {
        bytes.div_ceil(64).max(1)
    }

    /// DDIO Write-Allocate partition size in bytes.
    pub fn ddio_bytes(&self) -> usize {
        (self.llc_bytes as f64 * self.ddio_fraction) as usize
    }

    /// Total CPU time the initiating thread spends establishing one RC/UC
    /// connection: QP creation plus the modify-QP chain. The remote RTS
    /// install latency (`qp_rts_latency`) is paid on top as pure delay.
    pub fn conn_setup_cpu(&self) -> SimDuration {
        self.qp_create_cpu + self.qp_transition_cpu
    }

    /// Receive-engine occupancy surcharge for a DMA write that had to
    /// Write-Allocate `allocated` lines: a per-message penalty plus a
    /// small per-line tail for bulk transfers.
    pub fn ddio_cost(&self, allocated: u64) -> SimDuration {
        if allocated == 0 {
            SimDuration::ZERO
        } else {
            self.ddio_alloc_penalty + self.ddio_bulk_per_line * (allocated - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_self_consistent() {
        let p = FabricParams::default();
        assert!(p.nic_tx_base > SimDuration::ZERO);
        assert!(p.cpu_read_miss > p.cpu_read_hit);
        assert!(p.ddio_bytes() < p.llc_bytes);
        assert_eq!(p.ddio_bytes(), 3 * 1024 * 1024);
    }

    #[test]
    fn serialization_scales_with_size() {
        let p = FabricParams::default();
        let small = p.serialize(32);
        let big = p.serialize(4096);
        assert!(big > small);
        // 4 KB at 7 B/ns ≈ 590 ns.
        let ns = big.as_nanos();
        assert!((550..700).contains(&ns), "serialize(4096)={ns}ns");
    }

    #[test]
    fn line_count_rounds_up() {
        assert_eq!(FabricParams::lines(0), 1);
        assert_eq!(FabricParams::lines(1), 1);
        assert_eq!(FabricParams::lines(64), 1);
        assert_eq!(FabricParams::lines(65), 2);
        assert_eq!(FabricParams::lines(4096), 64);
    }

    #[test]
    fn wire_latency_combines_hops() {
        let p = FabricParams::default();
        assert_eq!(p.wire_latency(), SimDuration::nanos(650));
    }

    #[test]
    fn conn_setup_dwarfs_data_path() {
        // Swift's core observation: one connection setup costs orders of
        // magnitude more CPU than one data-path post.
        let p = FabricParams::default();
        assert_eq!(p.conn_setup_cpu(), SimDuration::nanos(25_000));
        assert!(p.conn_setup_cpu() > p.post_cpu * 100);
        assert!(p.qp_destroy_cpu > p.post_cpu * 10);
    }
}
