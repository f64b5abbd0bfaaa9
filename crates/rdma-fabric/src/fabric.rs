//! The fabric: nodes, verbs posting, and the event-driven data path.
//!
//! Every verb travels the pipeline
//!
//! ```text
//! poster CPU ──doorbell──▶ tx NIC engine ──wire──▶ rx NIC engine ──DMA──▶
//!   (MMIO cost)   (QP/WQE cache, payload DMA)  (DDIO/LLC)    memory + CQE
//! ```
//!
//! Each stage is a FIFO queueing resource, so saturation and queueing
//! delay emerge from load. The NIC cache and LLC models are consulted on
//! the way through and feed the simulated PCM counters.
//!
//! The fabric schedules its own [`FabricEvent`]s through a caller-supplied
//! callback and reports application-visible effects as [`Upcall`]s, so it
//! stays decoupled from whatever RPC layer runs above it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::counters::{Counter, NodeCounters};
use crate::cq::{Wc, WcOpcode, WcStatus};
use crate::error::{VerbError, VerbResult};
use crate::llc::{DmaWriteOutcome, LlcModel};
use crate::mr::{MemoryRegion, MrMut, MrRef, PageStore, Snapshot};
use crate::niccache::NicCache;
use crate::params::{FabricParams, LinkDegrade};
use crate::qp::{QpState, QueuePair, RecvWqe, Transport};
use crate::types::{CqId, MrId, NodeId, QpId, RemoteAddr, WrId};
use crate::verbs::{AtomicOp, WorkRequest};
use bytes::Bytes;
use simcore::stats::CounterSet;
use simcore::{FifoResource, SimDuration, SimTime};
use simtrace::{InstantKind, Stage, TraceId, Tracer};

/// Callback used by the fabric to schedule its internal events.
pub type Sched<'a> = dyn FnMut(SimTime, FabricEvent) + 'a;

/// What the application gets back from a successful post.
#[derive(Clone, Copy, Debug)]
pub struct PostInfo {
    /// Identifier echoed in the eventual completion.
    pub wr_id: WrId,
    /// CPU time the posting thread spent (WQE build + MMIO doorbell).
    /// The caller owns its own timeline and must account for this.
    pub cpu: SimDuration,
}

/// Application-visible effects emitted while handling fabric events.
#[derive(Clone, Debug)]
pub enum Upcall {
    /// A work completion on `cq` of `node`. This is the completion's
    /// only delivery: the fabric keeps no copy for a later poll.
    Completion {
        /// Node owning the CQ.
        node: NodeId,
        /// The completion queue.
        cq: CqId,
        /// The completion entry.
        wc: Wc,
    },
    /// One-sided data landed in `mr` at `[offset, offset+len)` on `node`.
    ///
    /// Real hardware gives no such notification — servers discover
    /// messages by polling. The upcall is a *scheduling hint* that lets
    /// the simulation wake a polling actor at the right instant; the
    /// actor still pays the modelled polling and LLC costs to observe the
    /// data.
    MemWrite {
        /// Node owning the region.
        node: NodeId,
        /// The region written.
        mr: MrId,
        /// First byte written.
        offset: usize,
        /// Number of bytes written.
        len: usize,
    },
    /// A deferred connection ([`Fabric::connect_deferred`]) reached RTS
    /// on both ends and is now usable.
    ConnEstablished {
        /// Node owning the initiating endpoint.
        node: NodeId,
        /// The initiating queue pair.
        qp: QpId,
        /// The remote queue pair it connected to.
        peer: QpId,
    },
}

#[derive(Debug)]
enum PacketKind {
    Send {
        data: Bytes,
        imm: Option<u32>,
    },
    Write {
        data: Bytes,
        remote: RemoteAddr,
        imm: Option<u32>,
    },
    ReadReq {
        remote: RemoteAddr,
        len: usize,
        local_mr: MrId,
        local_offset: usize,
    },
    ReadResp {
        /// The range as it was when the request reached the responder.
        data: Box<Snapshot>,
        local_mr: MrId,
        local_offset: usize,
    },
    AtomicReq {
        op: AtomicOp,
        remote: RemoteAddr,
        local_mr: MrId,
        local_offset: usize,
    },
    AtomicResp {
        old: u64,
        local_mr: MrId,
        local_offset: usize,
    },
}

/// What every pipeline stage needs to know about a packet besides its
/// payload. Derived packets (read/atomic responses) copy the request's
/// header, keeping its src/dst orientation and trace id, so a whole
/// round trip shares one id.
#[derive(Clone, Copy, Debug)]
struct PacketHdr {
    src_qp: QpId,
    dst_qp: QpId,
    wr_id: WrId,
    signaled: bool,
    /// Trace id stamped by the RPC layer (0 = untraced).
    trace: TraceId,
}

#[derive(Debug)]
struct Packet {
    hdr: PacketHdr,
    kind: PacketKind,
}

/// Bytes on their way into a region.
#[derive(Debug)]
enum Landing {
    /// A send or write payload.
    Bytes(Bytes),
    /// An RDMA READ response.
    Lines(Box<Snapshot>),
    /// An atomic's old value.
    Word(u64),
}

#[derive(Debug)]
enum Inner {
    /// The tx NIC engine picks up a posted WQE.
    TxProcess { pkt: Packet },
    /// A packet reaches the destination NIC.
    RxProcess { pkt: Packet },
    /// Responder-side memory/CQE effects materialize after the DMA write.
    Deliver {
        node: NodeId,
        /// `(region, offset, bytes)` landing in host memory.
        write: (MrId, usize, Landing),
        /// Whether the landing is announced as [`Upcall::MemWrite`].
        notify: bool,
        wc: Option<(CqId, Wc)>,
    },
    /// Requester-side completion (ack arrival or local completion).
    Complete { qp: QpId, wc: Option<Wc> },
    /// A deferred connection's modify-QP chain finishes: both ends go
    /// RTS (unless torn down in the meantime).
    ConnRts { a: QpId, b: QpId },
}

/// An internal fabric event. Opaque to applications: they only move these
/// between the scheduler callback and [`Fabric::handle`].
#[derive(Debug)]
pub struct FabricEvent(Inner);

// Every queue push, pop and cascade moves an event by value; past 128
// bytes the compiler stops inlining that move and calls `memcpy`.
const _: () = assert!(std::mem::size_of::<FabricEvent>() <= 96);

/// READ snapshots kept for reuse. In-flight READs beyond this allocate;
/// a run of large READs pins at most this many of their buffers.
const SPARE_SNAPSHOTS: usize = 64;

#[derive(Clone, Debug)]
struct Node {
    nic: NicCache,
    llc: LlcModel,
    tx: FifoResource,
    rx: FifoResource,
    counters: NodeCounters,
}

/// The simulated RDMA fabric: all nodes, regions, queue pairs and
/// completion queues, plus the models that price every operation.
#[derive(Clone, Debug)]
pub struct Fabric {
    params: FabricParams,
    nodes: Vec<Node>,
    mrs: Vec<MemoryRegion>,
    /// The stored pages of every region in `mrs`.
    store: PageStore,
    mr_owner: Vec<NodeId>,
    /// The node of each completion queue, indexed by [`CqId`].
    cq_owner: Vec<NodeId>,
    qps: Vec<QueuePair>,
    next_wr: WrId,
    tracer: Tracer,
    trace_ctx: TraceId,
    /// Active wire impairment, if any (`None` is bit-exactly the
    /// nominal fabric — scenario-free runs never read past the
    /// `is_none` check).
    degrade: Option<LinkDegrade>,
    /// Delivered READ snapshots, reused by later READs (at most
    /// [`SPARE_SNAPSHOTS`]). Boxed as they travel in events, so the box
    /// is reused with its buffers. Per fabric, so a replay's allocations
    /// do not depend on what ran before it in the process.
    #[allow(clippy::vec_box)]
    spare_snapshots: Vec<Box<Snapshot>>,
}

/// Wire serialization cost under the current impairment.
fn ser_cost(p: &FabricParams, degrade: Option<LinkDegrade>, bytes: usize) -> SimDuration {
    let nominal = p.serialize(bytes);
    match degrade {
        None => nominal,
        Some(d) => d.stretch(nominal),
    }
}

/// One-way wire latency under the current impairment.
fn wire_cost(p: &FabricParams, degrade: Option<LinkDegrade>) -> SimDuration {
    let nominal = p.wire_latency();
    match degrade {
        None => nominal,
        Some(d) => d.stretch(nominal) + d.extra,
    }
}

impl Fabric {
    /// Creates an empty fabric with the given model parameters.
    pub fn new(params: FabricParams) -> Self {
        Fabric {
            params,
            nodes: Vec::new(),
            mrs: Vec::new(),
            store: PageStore::default(),
            mr_owner: Vec::new(),
            cq_owner: Vec::new(),
            qps: Vec::new(),
            next_wr: 1,
            tracer: Tracer::disabled(),
            trace_ctx: 0,
            degrade: None,
            spare_snapshots: Vec::new(),
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// Installs (or clears, with `None`) a wire impairment. Takes effect
    /// for every operation priced after the call; in-flight packets keep
    /// the latencies they were scheduled with. Degrades must only add
    /// latency (`num >= den`) — enforced by the panic below: a "degrade"
    /// that speeds the wire up is a mistyped scenario, not an impairment.
    pub fn set_link_degrade(&mut self, degrade: Option<LinkDegrade>) {
        if let Some(d) = degrade {
            assert!(
                d.den > 0 && d.num >= d.den,
                "link degrade factor {}/{} must be >= 1",
                d.num,
                d.den
            );
        }
        self.degrade = degrade;
    }

    /// The active wire impairment, if any.
    pub fn link_degrade(&self) -> Option<LinkDegrade> {
        self.degrade
    }

    /// Stalls both NIC engines of `node` for `dur` starting at `now`
    /// (firmware hiccup, host GC pause): every queued or newly priced
    /// operation on that node waits the pause out behind the stall
    /// occupancy. Counted under `NodeStalls`.
    pub fn stall_node(&mut self, node: NodeId, now: SimTime, dur: SimDuration) {
        // NodeId is fabric-allocated, so an OOB index is a driver bug
        let n = &mut self.nodes[node.index()];
        n.tx.acquire(now, dur);
        n.rx.acquire(now, dur);
        n.counters.inc(Counter::NodeStalls);
    }

    // ---- tracing --------------------------------------------------------

    /// Installs the tracer used for pipeline spans ([`Stage::TxNic`],
    /// [`Stage::Link`], [`Stage::RxNic`], [`Stage::Dma`]) and fabric
    /// instants (QP-cache evictions, DDIO write-allocate misses).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The fabric's tracer handle (clone it to record from other layers).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Stamps the trace id carried by the *next* [`post`](Self::post).
    /// Consumed by that post; 0 (the default) means untraced. Fabric
    /// spans attribute the id to the posting/receiving QP index.
    pub fn set_trace_ctx(&mut self, id: TraceId) {
        self.trace_ctx = id;
    }

    /// The currently stamped (not yet consumed) trace id, 0 if none.
    /// Transports peek this to tie their own spans to the request the
    /// harness is submitting.
    pub fn trace_ctx(&self) -> TraceId {
        self.trace_ctx
    }

    // ---- topology -------------------------------------------------------

    /// Adds a machine. The label only names the node at the call site;
    /// the fabric does not store it.
    pub fn add_node(&mut self, _label: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            nic: NicCache::new(self.params.nic_qp_cache_entries, 0),
            llc: LlcModel::new(self.params.llc_bytes, self.params.ddio_fraction),
            tx: FifoResource::new(),
            rx: FifoResource::new(),
            counters: NodeCounters::new(),
        });
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, id: NodeId) -> VerbResult<&Node> {
        self.nodes.get(id.index()).ok_or(VerbError::UnknownNode(id))
    }

    /// Registers a zero-filled memory region of `len` bytes on `node`.
    /// It holds no memory for its bytes until they are stored to.
    pub fn register_mr(&mut self, node: NodeId, len: usize) -> VerbResult<MrId> {
        self.node(node)?;
        let id = MrId(self.mrs.len() as u32);
        self.mrs.push(MemoryRegion::new(id, len));
        self.mr_owner.push(node);
        Ok(id)
    }

    /// Creates a completion queue on `node`.
    pub fn create_cq(&mut self, node: NodeId) -> VerbResult<CqId> {
        self.node(node)?;
        let id = CqId(self.cq_owner.len() as u32);
        self.cq_owner.push(node);
        Ok(id)
    }

    /// Creates a queue pair on `node` with the given transport and CQs.
    /// Both CQs must have been created on `node`, as `ibv_create_qp`
    /// requires; one of another node is [`VerbError::UnknownCq`].
    pub fn create_qp(
        &mut self,
        node: NodeId,
        transport: Transport,
        send_cq: CqId,
        recv_cq: CqId,
    ) -> VerbResult<QpId> {
        self.node(node)?;
        self.check_cq(node, send_cq)?;
        self.check_cq(node, recv_cq)?;
        let id = QpId(self.qps.len() as u32);
        self.qps
            .push(QueuePair::new(id, node, transport, send_cq, recv_cq));
        Ok(id)
    }

    /// Connects two RC/UC queue pairs (both directions).
    pub fn connect(&mut self, a: QpId, b: QpId) -> VerbResult<()> {
        // Validate both before mutating either, so failure leaves no
        // half-connected pair.
        self.check_connectable(a, b)?;
        self.qp_mut(a)?.connect_to(b)?;
        self.qp_mut(b)?.connect_to(a)
    }

    /// Checks that `a` and `b` can be connected to each other: two
    /// distinct queue pairs of the same connected transport, both in
    /// `Reset`.
    fn check_connectable(&self, a: QpId, b: QpId) -> VerbResult<()> {
        let (qa, qb) = (self.qp(a)?, self.qp(b)?);
        let transport = qa.transport();
        if transport != qb.transport()
            || !transport.is_connected()
            || a == b
            || qa.state() != QpState::Reset
            || qb.state() != QpState::Reset
        {
            return Err(VerbError::ConnectionMismatch(a, b));
        }
        Ok(())
    }

    /// Tears a queue pair down; in-flight packets toward it are dropped.
    pub fn destroy_qp(&mut self, qp: QpId) -> VerbResult<()> {
        self.qp_mut(qp)?.tear_down();
        Ok(())
    }

    /// Begins a *modelled* connection establishment between two RC/UC
    /// queue pairs: validates like [`connect`](Self::connect) but leaves
    /// both pairs in `Reset` until the modify-QP chain completes at
    /// `now + conn_setup_cpu + qp_rts_latency`, when a scheduled
    /// [`FabricEvent`] flips both ends to RTS and emits
    /// [`Upcall::ConnEstablished`].
    ///
    /// Returns the CPU time the initiating thread spends on the verbs
    /// calls ([`FabricParams::conn_setup_cpu`]); like [`PostInfo::cpu`],
    /// the caller owns its own timeline and must account for it.
    pub fn connect_deferred(
        &mut self,
        now: SimTime,
        a: QpId,
        b: QpId,
        sched: &mut Sched<'_>,
    ) -> VerbResult<SimDuration> {
        self.check_connectable(a, b)?;
        let cpu = self.params.conn_setup_cpu();
        let node = self.qp(a)?.node();
        let node = &mut self.nodes[node.index()]; // NodeId indexes self.nodes: nodes are never removed
        node.counters.inc(Counter::ConnSetupsStarted);
        sched(
            now + cpu + self.params.qp_rts_latency,
            FabricEvent(Inner::ConnRts { a, b }),
        );
        Ok(cpu)
    }

    /// Recovers a queue pair from any state back to its creation state
    /// (Error → Reset for connected transports), making it eligible for
    /// re-connection. See [`QueuePair::reset`].
    pub fn reset_qp(&mut self, qp: QpId) -> VerbResult<()> {
        self.qp_mut(qp)?.reset();
        Ok(())
    }

    /// Crashes a node: every queue pair it owns is torn down, so
    /// in-flight packets toward them drop at rx (reliable requesters see
    /// error completions). Memory regions and CQs survive — recovery is
    /// a warm restart of the same process image. Returns the number of
    /// QPs torn down.
    pub fn crash_node(&mut self, node: NodeId, now: SimTime) -> usize {
        let mut torn = 0;
        for qp in &mut self.qps {
            if qp.node() == node && qp.state() != QpState::Error {
                qp.tear_down();
                self.tracer.instant(
                    InstantKind::ConnTeardown,
                    now,
                    qp.id().0 as u64,
                    node.0 as u64,
                );
                torn += 1;
            }
        }
        // NodeId is fabric-allocated, so an OOB index is a driver bug
        self.nodes[node.index()].counters.inc(Counter::NodeCrashes);
        torn
    }

    fn qp(&self, id: QpId) -> VerbResult<&QueuePair> {
        self.qps.get(id.index()).ok_or(VerbError::UnknownQp(id))
    }

    fn qp_mut(&mut self, id: QpId) -> VerbResult<&mut QueuePair> {
        self.qps.get_mut(id.index()).ok_or(VerbError::UnknownQp(id))
    }

    /// Checks that completion queue `id` exists on `node`.
    fn check_cq(&self, node: NodeId, id: CqId) -> VerbResult<()> {
        match self.cq_owner.get(id.index()) {
            Some(&owner) if owner == node => Ok(()),
            _ => Err(VerbError::UnknownCq(id)),
        }
    }

    /// Looks up a queue pair's owning node.
    pub fn qp_node(&self, id: QpId) -> VerbResult<NodeId> {
        Ok(self.qp(id)?.node())
    }

    /// Number of receives currently posted on a queue pair.
    pub fn posted_recvs(&self, id: QpId) -> VerbResult<usize> {
        Ok(self.qp(id)?.posted_recvs())
    }

    // ---- memory access --------------------------------------------------

    /// Immutable view of a region's bytes (no cost model — pair with
    /// [`cpu_access`](Self::cpu_access) when the read is on a timed path).
    #[inline]
    pub fn mr(&self, id: MrId) -> VerbResult<MrRef<'_>> {
        let mr = self.mrs.get(id.index()).ok_or(VerbError::UnknownMr(id))?;
        Ok(MrRef::new(mr, &self.store))
    }

    /// Mutable view of a region's bytes (local CPU stores).
    #[inline]
    pub fn mr_mut(&mut self, id: MrId) -> VerbResult<MrMut<'_>> {
        let mr = self
            .mrs
            .get_mut(id.index())
            .ok_or(VerbError::UnknownMr(id))?;
        Ok(MrMut::new(mr, &mut self.store))
    }

    /// Bytes registered on `node`: the sum of its regions' lengths.
    pub fn registered_bytes(&self, node: NodeId) -> VerbResult<usize> {
        self.node(node)?;
        Ok(self.regions_of(node).map(MemoryRegion::len).sum())
    }

    /// Bytes of host memory holding the contents of `node`'s regions:
    /// the store pages they carved (256 B each) plus the length of each
    /// latched region's dense buffer.
    pub fn stored_bytes(&self, node: NodeId) -> VerbResult<usize> {
        self.node(node)?;
        Ok(self.regions_of(node).map(MemoryRegion::stored_bytes).sum())
    }

    /// The regions registered on `node`.
    fn regions_of(&self, node: NodeId) -> impl Iterator<Item = &MemoryRegion> {
        self.mrs
            .iter()
            .zip(&self.mr_owner)
            .filter(move |&(_, &owner)| owner == node)
            .map(|(mr, _)| mr)
    }

    /// The node owning a region.
    pub fn mr_node(&self, id: MrId) -> VerbResult<NodeId> {
        self.mr_owner
            .get(id.index())
            .copied()
            .ok_or(VerbError::UnknownMr(id))
    }

    /// Charges the LLC model for a CPU access to `[offset, offset+len)`
    /// of `mr` and returns the time it took. Use for every timed poll or
    /// handler touch of message-pool memory.
    ///
    /// Fails with [`VerbError::OutOfBounds`] when the range leaves the
    /// region (the LLC model indexes lines by address, so a stray
    /// offset must not reach it).
    pub fn cpu_access(&mut self, mr: MrId, offset: usize, len: usize) -> VerbResult<SimDuration> {
        let node = self.mr_node(mr)?;
        self.mr(mr)?.check(offset, len)?;
        let out = self.nodes[node.index()].llc.cpu_access(mr, offset, len); // NodeId indexes self.nodes: nodes are never removed
        Ok(self.params.cpu_read_hit * out.hits + self.params.cpu_read_miss * out.misses)
    }

    /// The L3 miss rate observed by CPU accesses on `node` so far.
    pub fn llc_miss_rate(&self, node: NodeId) -> VerbResult<f64> {
        Ok(self.node(node)?.llc.miss_rate())
    }

    /// Resets a node's LLC hit/miss statistics (for steady-state windows).
    pub fn reset_llc_stats(&mut self, node: NodeId) -> VerbResult<()> {
        self.nodes
            .get_mut(node.index())
            .ok_or(VerbError::UnknownNode(node))?
            .llc
            .reset_stats();
        Ok(())
    }

    /// A node's counters (PCM-style PCIe counters plus fabric events) as
    /// a name-sorted set of those touched so far, built on each call.
    pub fn counters(&self, node: NodeId) -> VerbResult<CounterSet> {
        Ok(self.node(node)?.counters.view())
    }

    /// NIC QP-context cache hit rate on `node`.
    pub fn nic_hit_rate(&self, node: NodeId) -> VerbResult<f64> {
        Ok(self.node(node)?.nic.hit_rate())
    }

    /// Cumulative busy time of a node's NIC engines `(tx, rx)`, for
    /// utilization analysis.
    pub fn nic_busy(&self, node: NodeId) -> VerbResult<(SimDuration, SimDuration)> {
        let n = self.node(node)?;
        Ok((n.tx.busy_time(), n.rx.busy_time()))
    }

    // ---- completion queues ----------------------------------------------

    /// Checks that `cq` exists and returns no completions: each one was
    /// already delivered as [`Upcall::Completion`], and the fabric keeps
    /// no copy. Kept, with its signature, only for the benchmark's verb
    /// kernel, which still calls it.
    pub fn poll_cq(&mut self, cq: CqId, _max: usize) -> VerbResult<Vec<Wc>> {
        self.cq_owner
            .get(cq.index())
            .ok_or(VerbError::UnknownCq(cq))?;
        Ok(Vec::new())
    }

    // ---- posting --------------------------------------------------------

    /// Posts a receive buffer on `qp`.
    pub fn post_recv(
        &mut self,
        qp: QpId,
        mr: MrId,
        offset: usize,
        len: usize,
    ) -> VerbResult<PostInfo> {
        self.mr(mr)?.check(offset, len)?;
        let wr_id = self.next_wr;
        self.next_wr += 1;
        let cpu = self.params.post_recv_cpu;
        self.qp_mut(qp)?.post_recv(RecvWqe {
            wr_id,
            mr,
            offset,
            len,
        })?;
        Ok(PostInfo { wr_id, cpu })
    }

    /// Posts a send-side work request on `qp`.
    ///
    /// `dst` addresses the destination QP for UD sends (the address
    /// handle); it must be `None` for connected transports, whose peer is
    /// fixed at connect time. `signaled` controls whether a send-side
    /// completion is generated.
    pub fn post(
        &mut self,
        now: SimTime,
        qp_id: QpId,
        wr: WorkRequest,
        signaled: bool,
        dst: Option<QpId>,
        sched: &mut Sched<'_>,
    ) -> VerbResult<PostInfo> {
        let (transport, node) = {
            let qp = self.qp(qp_id)?;
            qp.ensure_ready()?;
            (qp.transport(), qp.node())
        };
        // Capability checks (Table 1).
        match &wr {
            WorkRequest::Send { data, .. } => {
                if transport == Transport::Ud && data.len() > self.params.ud_mtu {
                    return Err(VerbError::MtuExceeded {
                        len: data.len(),
                        mtu: self.params.ud_mtu,
                    });
                }
                if data.len() > self.params.rc_max_msg {
                    return Err(VerbError::MtuExceeded {
                        len: data.len(),
                        mtu: self.params.rc_max_msg,
                    });
                }
            }
            WorkRequest::Write { data, .. } => {
                if !transport.supports_write() {
                    return Err(VerbError::UnsupportedVerb {
                        transport: transport.name(),
                        verb: wr.verb_name(),
                    });
                }
                if data.len() > self.params.rc_max_msg {
                    return Err(VerbError::MtuExceeded {
                        len: data.len(),
                        mtu: self.params.rc_max_msg,
                    });
                }
            }
            WorkRequest::Read {
                local_mr,
                local_offset,
                len,
                ..
            } => {
                if !transport.supports_read_atomic() {
                    return Err(VerbError::UnsupportedVerb {
                        transport: transport.name(),
                        verb: wr.verb_name(),
                    });
                }
                self.mr(*local_mr)?.check(*local_offset, *len)?;
            }
            WorkRequest::Atomic {
                local_mr,
                local_offset,
                remote,
                ..
            } => {
                if !transport.supports_read_atomic() {
                    return Err(VerbError::UnsupportedVerb {
                        transport: transport.name(),
                        verb: wr.verb_name(),
                    });
                }
                if local_offset % 8 != 0 || remote.offset % 8 != 0 {
                    return Err(VerbError::BadAtomicTarget);
                }
                self.mr(*local_mr)?.check(*local_offset, 8)?;
            }
        }
        // Destination resolution.
        let dst_qp = if transport.is_connected() {
            self.qp(qp_id)?.peer().ok_or(VerbError::InvalidQpState {
                qp: qp_id,
                state: "unconnected",
            })?
        } else {
            match &wr {
                WorkRequest::Send { .. } => dst.ok_or(VerbError::MissingDestination)?,
                _ => {
                    return Err(VerbError::UnsupportedVerb {
                        transport: transport.name(),
                        verb: wr.verb_name(),
                    })
                }
            }
        };
        self.qp(dst_qp)?; // must exist

        let wr_id = self.next_wr;
        self.next_wr += 1;
        let kind = match wr {
            WorkRequest::Send { data, imm } => PacketKind::Send { data, imm },
            WorkRequest::Write { data, remote, imm } => PacketKind::Write { data, remote, imm },
            WorkRequest::Read {
                local_mr,
                local_offset,
                remote,
                len,
            } => PacketKind::ReadReq {
                remote,
                len,
                local_mr,
                local_offset,
            },
            WorkRequest::Atomic {
                op,
                remote,
                local_mr,
                local_offset,
            } => PacketKind::AtomicReq {
                op,
                remote,
                local_mr,
                local_offset,
            },
        };
        self.nodes[node.index()].counters.inc(Counter::TxVerbs); // NodeId indexes self.nodes: nodes are never removed
        let hdr = PacketHdr {
            src_qp: qp_id,
            dst_qp,
            wr_id,
            signaled,
            trace: std::mem::take(&mut self.trace_ctx),
        };
        let pkt = Packet { hdr, kind };
        sched(
            now + self.params.doorbell_latency,
            FabricEvent(Inner::TxProcess { pkt }),
        );
        Ok(PostInfo {
            wr_id,
            cpu: self.params.post_cpu,
        })
    }

    // ---- event handling --------------------------------------------------

    /// Advances the fabric over one event, scheduling follow-ups through
    /// `sched` and appending application-visible effects to `upcalls`.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: FabricEvent,
        sched: &mut Sched<'_>,
        upcalls: &mut Vec<Upcall>,
    ) {
        match ev.0 {
            Inner::TxProcess { pkt } => self.tx_process(now, pkt, sched),
            Inner::RxProcess { pkt } => self.rx_process(now, pkt, sched),
            Inner::Deliver {
                node,
                write: (mr, offset, landing),
                notify,
                wc,
            } => {
                // In-flight packets toward destroyed regions cannot
                // exist: regions are never deregistered. Bounds were
                // checked at rx time.
                let mut region = MrMut::new(&mut self.mrs[mr.index()], &mut self.store); // MrId indexes self.mrs: regions are never deregistered
                let (len, landed) = match landing {
                    Landing::Bytes(data) => (data.len(), region.write(offset, &data)),
                    Landing::Word(old) => (8, region.write(offset, &old.to_le_bytes())),
                    Landing::Lines(snap) => {
                        let landed = region.restore(offset, &snap);
                        let len = snap.len();
                        if self.spare_snapshots.len() < SPARE_SNAPSHOTS {
                            self.spare_snapshots.push(snap);
                        }
                        (len, landed)
                    }
                };
                #[allow(
                    clippy::expect_used,
                    reason = "bounds checked at rx; regions are never deregistered"
                )]
                landed.expect("bounds checked at rx");
                if let Some((cq, wc)) = wc {
                    upcalls.push(Upcall::Completion { node, cq, wc });
                }
                if notify {
                    upcalls.push(Upcall::MemWrite {
                        node,
                        mr,
                        offset,
                        len,
                    });
                }
            }
            Inner::Complete { qp, wc } => {
                // An unsignalled success carries no `Wc` and touches
                // nothing.
                if let Some(wc) = wc {
                    let q = &self.qps[qp.index()]; // QpId indexes self.qps: QPs error out but are never freed
                    let (node, cq) = (q.node(), q.send_cq());
                    upcalls.push(Upcall::Completion { node, cq, wc });
                }
            }
            Inner::ConnRts { a, b } => {
                let node = self.qps[a.index()].node(); // QpId indexes self.qps: QPs error out but are never freed
                                                       // `connect_deferred` checked the pair; only a state can
                                                       // have changed since.
                if self.connect(a, b).is_ok() {
                    self.nodes[node.index()].counters.inc(Counter::ConnSetups); // NodeId indexes self.nodes: nodes are never removed
                    self.tracer
                        .instant(InstantKind::ConnSetup, now, a.0 as u64, b.0 as u64);
                    upcalls.push(Upcall::ConnEstablished {
                        node,
                        qp: a,
                        peer: b,
                    });
                } else {
                    // One end crashed or was reused while the modify-QP
                    // chain was in flight; the setup is abandoned.
                    let node = &mut self.nodes[node.index()]; // NodeId indexes self.nodes: nodes are never removed
                    node.counters.inc(Counter::ConnSetupsAborted);
                }
            }
        }
    }

    fn tx_process(&mut self, now: SimTime, pkt: Packet, sched: &mut Sched<'_>) {
        let hdr = pkt.hdr;
        let src_node = self.qps[hdr.src_qp.index()].node(); // QpId indexes self.qps: QPs error out but are never freed
        let transport = self.qps[hdr.src_qp.index()].transport();
        let payload = match &pkt.kind {
            PacketKind::Send { data, .. } | PacketKind::Write { data, .. } => data.len(),
            PacketKind::ReadReq { .. } => 16,
            PacketKind::AtomicReq { .. } => 24,
            PacketKind::ReadResp { data, .. } => data.len(),
            PacketKind::AtomicResp { .. } => 8,
        };
        let p = &self.params;
        let degrade = self.degrade;
        let lines = FabricParams::lines(payload) as u64;
        let node = &mut self.nodes[src_node.index()]; // NodeId indexes self.nodes: nodes are never removed
        let access = node.nic.access(hdr.src_qp, 0);
        // Payload DMA read from host memory, plus re-fetch of evicted
        // QP context / WQE state.
        node.counters
            .add(Counter::PCIeRdCur, lines + access.extra_pcie_reads());
        let mut occupancy = p.nic_tx_base + p.dma_read_per_line * lines;
        if access.miss {
            node.counters.inc(Counter::NicQpMiss);
            occupancy += p.qp_ctx_miss_penalty + p.wqe_miss_penalty;
        }
        let ud_extra = if transport == Transport::Ud {
            occupancy += p.ud_tx_extra;
            p.ud_grh_bytes
        } else {
            0
        };
        let serialize = ser_cost(p, degrade, payload + ud_extra);
        occupancy = occupancy.max(serialize);
        let grant = node.tx.acquire(now, occupancy);
        let arrival = grant.complete + wire_cost(p, degrade);
        if let Some(victim) = access.evicted {
            self.tracer.instant(
                InstantKind::QpCacheEvict,
                now,
                victim.0 as u64,
                hdr.src_qp.0 as u64,
            );
        }
        if hdr.trace != 0 {
            // Span covers queueing delay behind earlier WQEs plus the
            // engine's own occupancy (grant.begin - now is the wait).
            let qp = hdr.src_qp.0 as u64;
            self.tracer
                .span(hdr.trace, Stage::TxNic, now, grant.complete, qp);
            self.tracer
                .span(hdr.trace, Stage::Link, grant.complete, arrival, qp);
        }

        // Unreliable transports complete locally once the NIC has sent
        // the message; reliable ones wait for the ack (scheduled at rx).
        if !transport.is_reliable() {
            let wc = hdr.signaled.then_some(Wc {
                wr_id: hdr.wr_id,
                opcode: match pkt.kind {
                    PacketKind::Send { .. } => WcOpcode::Send,
                    _ => WcOpcode::RdmaWrite,
                },
                status: WcStatus::Success,
                byte_len: payload,
                qp: hdr.src_qp,
                imm: None,
                src_qp: None,
            });
            sched(
                grant.complete + p.dma_write_latency,
                FabricEvent(Inner::Complete { qp: hdr.src_qp, wc }),
            );
        }
        sched(arrival, FabricEvent(Inner::RxProcess { pkt }));
    }

    fn requester_completion(
        at: SimTime,
        hdr: PacketHdr,
        status: WcStatus,
        opcode: WcOpcode,
        byte_len: usize,
        sched: &mut Sched<'_>,
    ) {
        let wc = (hdr.signaled || status != WcStatus::Success).then_some(Wc {
            wr_id: hdr.wr_id,
            opcode,
            status,
            byte_len,
            qp: hdr.src_qp,
            imm: None,
            src_qp: None,
        });
        sched(at, FabricEvent(Inner::Complete { qp: hdr.src_qp, wc }));
    }

    /// Counts a packet its responder could not serve under `why` and, on
    /// reliable transports, errors it back to the requester as `status`
    /// one ack latency later.
    fn reject(
        &mut self,
        now: SimTime,
        hdr: PacketHdr,
        (why, status): (Counter, WcStatus),
        opcode: WcOpcode,
        sched: &mut Sched<'_>,
    ) {
        let node = self.qps[hdr.dst_qp.index()].node(); // QpId indexes self.qps: QPs error out but are never freed
        self.nodes[node.index()].counters.inc(why); // NodeId indexes self.nodes: nodes are never removed
        if self.qps[hdr.src_qp.index()].transport().is_reliable() {
            let at = now + self.params.ack_latency;
            Self::requester_completion(at, hdr, status, opcode, 0, sched);
        }
    }

    /// Whether `[remote.offset, +len)` lies inside a region `node` owns.
    fn owns(&self, node: NodeId, remote: RemoteAddr, len: usize) -> bool {
        self.mr_node(remote.mr) == Ok(node)
            && self
                .mr(remote.mr)
                .and_then(|mr| mr.check(remote.offset, len))
                .is_ok()
    }

    /// Lands `len` inbound bytes at `mr[offset..]` on `node`: the LLC/DDIO
    /// model classifies the lines, the PCM write counters and the rx
    /// engine are charged, and the RxNic/Dma spans recorded against
    /// `qp`. Returns the classification and when the rx engine is done.
    fn land_inbound(
        &mut self,
        now: SimTime,
        node: NodeId,
        (mr, offset, len): (MrId, usize, usize),
        trace: TraceId,
        qp: QpId,
    ) -> (DmaWriteOutcome, SimTime) {
        let n = &mut self.nodes[node.index()]; // NodeId indexes self.nodes: nodes are never removed
        let dma = n.llc.dma_write(mr, offset, len);
        n.counters.add(Counter::ItoM, dma.full_lines);
        n.counters.add(Counter::RFO, dma.partial_lines);
        n.counters.add(Counter::PCIeItoM, dma.allocated);
        n.counters.add(Counter::DdioAllocBursts, dma.alloc_runs);
        let occ = self.params.nic_rx_base + self.params.ddio_cost(dma.allocated);
        let done = n.rx.acquire(now, occ).complete;
        if dma.allocated > 0 {
            self.tracer
                .instant(InstantKind::DdioAllocMiss, now, dma.allocated, mr.0 as u64);
        }
        if trace != 0 {
            let landed = done + self.params.dma_write_latency;
            self.tracer
                .span(trace, Stage::RxNic, now, done, qp.0 as u64);
            self.tracer
                .span(trace, Stage::Dma, done, landed, qp.0 as u64);
        }
        (dma, done)
    }

    fn rx_process(&mut self, now: SimTime, pkt: Packet, sched: &mut Sched<'_>) {
        let Packet { hdr, kind } = pkt;
        let dst_qp = &self.qps[hdr.dst_qp.index()]; // QpId indexes self.qps: QPs error out but are never freed
        let dst_node = dst_qp.node();
        let dst_transport = dst_qp.transport();
        let dst_state = dst_qp.state();
        let req_node = self.qps[hdr.src_qp.index()].node(); // QpId indexes self.qps: QPs error out but are never freed
        let reliable = self.qps[hdr.src_qp.index()].transport().is_reliable();
        let p_ack = self.params.ack_latency;
        let p_dma = self.params.dma_write_latency;
        let ok = WcStatus::Success;
        let bad_access = (Counter::RemoteAccessErrors, WcStatus::RemoteAccessError);

        if dst_state == QpState::Error {
            // Packets toward a torn-down QP vanish; reliable requesters
            // eventually see an error completion.
            let dropped = (Counter::DroppedAtRx, WcStatus::RemoteAccessError);
            return self.reject(now, hdr, dropped, WcOpcode::Send, sched);
        }

        match kind {
            PacketKind::Send { data, imm } => {
                let recv = self.qps[hdr.dst_qp.index()].take_recv();
                let Some(r) = recv.filter(|r| r.len >= data.len()) else {
                    // No receive posted (or too small): UD drops,
                    // RC errors back to the requester.
                    let why = if dst_transport == Transport::Ud {
                        Counter::UdDrops
                    } else {
                        Counter::RnrDrops
                    };
                    let rnr = (why, WcStatus::RnrRetryExceeded);
                    return self.reject(now, hdr, rnr, WcOpcode::Send, sched);
                };
                let span = (r.mr, r.offset, data.len());
                let (_, done) = self.land_inbound(now, dst_node, span, hdr.trace, hdr.dst_qp);
                self.nodes[dst_node.index()].counters.inc(Counter::RxMsgs); // NodeId indexes self.nodes: nodes are never removed
                let wc = Wc {
                    wr_id: r.wr_id,
                    opcode: WcOpcode::Recv,
                    status: ok,
                    byte_len: data.len(),
                    qp: hdr.dst_qp,
                    imm,
                    src_qp: Some(hdr.src_qp),
                };
                sched(
                    done + p_dma,
                    FabricEvent(Inner::Deliver {
                        node: dst_node,
                        write: (r.mr, r.offset, Landing::Bytes(data)),
                        notify: true,
                        wc: Some((self.qps[hdr.dst_qp.index()].recv_cq(), wc)), // QpId indexes self.qps: QPs error out but are never freed
                    }),
                );
                if reliable {
                    Self::requester_completion(done + p_ack, hdr, ok, WcOpcode::Send, 0, sched);
                }
            }
            PacketKind::Write { data, remote, imm } => {
                if !self.owns(dst_node, remote, data.len()) {
                    return self.reject(now, hdr, bad_access, WcOpcode::RdmaWrite, sched);
                }
                let span = (remote.mr, remote.offset, data.len());
                let (dma, done) = self.land_inbound(now, dst_node, span, hdr.trace, hdr.dst_qp);
                let node = &mut self.nodes[dst_node.index()]; // NodeId indexes self.nodes: nodes are never removed
                node.counters.add(Counter::DmaHitMain, dma.hit_main);
                node.counters.add(Counter::DmaHitDdio, dma.hit_ddio);
                node.counters.inc(Counter::RxMsgs);
                // write_imm additionally consumes a receive and yields a
                // receive-side completion carrying the immediate.
                let wc = match imm {
                    None => None,
                    // QpId indexes self.qps: QPs error out but are never freed
                    Some(_) => match self.qps[hdr.dst_qp.index()].take_recv() {
                        Some(r) => Some((
                            self.qps[hdr.dst_qp.index()].recv_cq(), // QpId indexes self.qps: QPs error out but are never freed
                            Wc {
                                wr_id: r.wr_id,
                                opcode: WcOpcode::RecvRdmaWithImm,
                                status: ok,
                                byte_len: data.len(),
                                qp: hdr.dst_qp,
                                imm,
                                src_qp: Some(hdr.src_qp),
                            },
                        )),
                        None => {
                            let rnr = (Counter::RnrDrops, WcStatus::RnrRetryExceeded);
                            return self.reject(now, hdr, rnr, WcOpcode::RdmaWrite, sched);
                        }
                    },
                };
                sched(
                    done + p_dma,
                    FabricEvent(Inner::Deliver {
                        node: dst_node,
                        write: (remote.mr, remote.offset, Landing::Bytes(data)),
                        notify: true,
                        wc,
                    }),
                );
                if reliable {
                    let op = WcOpcode::RdmaWrite;
                    Self::requester_completion(done + p_ack, hdr, ok, op, 0, sched);
                }
            }
            PacketKind::ReadReq {
                remote,
                len,
                local_mr,
                local_offset,
            } => {
                if !self.owns(dst_node, remote, len) {
                    return self.reject(now, hdr, bad_access, WcOpcode::RdmaRead, sched);
                }
                // Responder NIC DMA-reads the payload from host memory.
                let lines = FabricParams::lines(len) as u64;
                let degrade = self.degrade;
                let node = &mut self.nodes[dst_node.index()]; // NodeId indexes self.nodes: nodes are never removed
                node.counters.add(Counter::PCIeRdCur, lines);
                node.counters.inc(Counter::RxMsgs);
                let occ = (self.params.nic_rx_base + self.params.dma_read_per_line * lines)
                    .max(ser_cost(&self.params, degrade, len));
                let grant = node.rx.acquire(now, occ);
                // Taken now, not at delivery: the requester gets the bytes
                // the responder NIC read, whatever is stored here later.
                let mut data = self.spare_snapshots.pop().unwrap_or_default();
                #[allow(clippy::expect_used, reason = "bounds checked above")]
                MrRef::new(&self.mrs[remote.mr.index()], &self.store) // MrId indexes self.mrs: regions are never deregistered
                    .snapshot(remote.offset, len, &mut data)
                    .expect("bounds checked above");
                let kind = PacketKind::ReadResp {
                    data,
                    local_mr,
                    local_offset,
                };
                sched(
                    grant.complete + wire_cost(&self.params, degrade),
                    FabricEvent(Inner::RxProcess {
                        pkt: Packet { hdr, kind },
                    }),
                );
            }
            PacketKind::ReadResp {
                data,
                local_mr,
                local_offset,
            } => {
                // Arriving back at the *requester*: land the data locally.
                let span = (local_mr, local_offset, data.len());
                let (_, done) = self.land_inbound(now, req_node, span, hdr.trace, hdr.src_qp);
                let len = data.len();
                sched(
                    done + p_dma,
                    FabricEvent(Inner::Deliver {
                        node: req_node,
                        write: (local_mr, local_offset, Landing::Lines(data)),
                        notify: false,
                        wc: None,
                    }),
                );
                Self::requester_completion(done + p_dma, hdr, ok, WcOpcode::RdmaRead, len, sched);
            }
            PacketKind::AtomicReq {
                op,
                remote,
                local_mr,
                local_offset,
            } => {
                let word = self.mr(remote.mr).and_then(|m| m.read_u64(remote.offset));
                let (Ok(old), Ok(true)) = (word, self.mr_node(remote.mr).map(|n| n == dst_node))
                else {
                    return self.reject(now, hdr, bad_access, WcOpcode::Atomic, sched);
                };
                // Atomics execute serialized at the responder NIC; the
                // read-modify-write happens "now" in simulation time.
                let new = match op {
                    AtomicOp::CompareSwap { compare, swap } if old == compare => swap,
                    AtomicOp::CompareSwap { .. } => old,
                    AtomicOp::FetchAdd { add } => old.wrapping_add(add),
                };
                #[allow(
                    clippy::expect_used,
                    reason = "read_u64 of the same word succeeded above"
                )]
                MrMut::new(&mut self.mrs[remote.mr.index()], &mut self.store) // MrId indexes self.mrs: regions are never deregistered
                    .write_u64(remote.offset, new)
                    .expect("validated");
                let node = &mut self.nodes[dst_node.index()]; // NodeId indexes self.nodes: nodes are never removed
                node.counters.inc(Counter::Atomics);
                // Atomic RMW occupies the rx engine noticeably longer.
                let occ = self.params.nic_rx_base * 3;
                let grant = node.rx.acquire(now, occ);
                let kind = PacketKind::AtomicResp {
                    old,
                    local_mr,
                    local_offset,
                };
                sched(
                    grant.complete + wire_cost(&self.params, self.degrade),
                    FabricEvent(Inner::RxProcess {
                        pkt: Packet { hdr, kind },
                    }),
                );
            }
            PacketKind::AtomicResp {
                old,
                local_mr,
                local_offset,
            } => {
                let node = &mut self.nodes[req_node.index()]; // NodeId indexes self.nodes: nodes are never removed
                let grant = node.rx.acquire(now, self.params.nic_rx_base);
                sched(
                    grant.complete + p_dma,
                    FabricEvent(Inner::Deliver {
                        node: req_node,
                        write: (local_mr, local_offset, Landing::Word(old)),
                        notify: false,
                        wc: None,
                    }),
                );
                let done = grant.complete + p_dma;
                Self::requester_completion(done, hdr, ok, WcOpcode::Atomic, 8, sched);
            }
        }
    }
}
