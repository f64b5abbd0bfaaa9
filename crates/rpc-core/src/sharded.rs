// simlint: allow-file(R6): the parallel engine — owns every shard queue
// and the cross-shard merge; seq-level queue access here is the point.
//! The sharded parallel simulation driver.
//!
//! [`ShardedSim`] is the one simulation engine. With a single shard it
//! is the plain sequential event loop; beyond that it splits one simulation into per-shard logical processes — each with
//! its own [`EventQueue`], fabric replica and logic replica — and runs
//! them on a `std::thread` pool under conservative-lookahead windows.
//! The cross-shard merge algebra lives in [`simcore::shard`]; this module
//! wires it to the fabric/logic event loop:
//!
//! - The *partition* assigns every fabric node to exactly one shard.
//!   Fabric events are routed by [`Fabric::event_node`]; application
//!   events are routed by a caller-supplied [`AppRoute`] closure.
//! - Logic is replicated per shard (`L: Clone`). A shard's replica must
//!   only mutate state belonging to its own nodes — state for foreign
//!   nodes goes stale and reading it is a logic bug. Results are read
//!   back per shard through [`ShardedSim::logic`].
//! - Three execution modes, picked automatically:
//!   1. one shard → the plain sequential loop (`nthreads = 1` costs
//!      nothing; the tests below hold it event-for-event to a reference
//!      single-queue engine);
//!   2. [`ShardSpec::isolated`] → each shard runs independently to the
//!      deadline with **no** windows or merges; any cross-shard event is
//!      a panic. For topologies that genuinely never talk across the
//!      partition (e.g. disjoint server pods) this scales linearly.
//!   3. general → windowed execution with the deterministic sweep of
//!      [`simcore::shard::sweep`] between windows, reproducing the
//!      sequential engine's event order bit-for-bit (DESIGN.md §10).
//!
//! Tracing must be disabled for multi-shard runs: trace ids would be
//! allocated in nondeterministic thread order, scrambling the output.
//! The constructor asserts this instead of producing garbage.

use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use rdma_fabric::{Fabric, FabricEvent, NodeId, Upcall};
use simcore::shard::{sweep, PopRec, PushRec, WindowLog, PROVISIONAL_BASE};
use simcore::stats::CounterSet;
use simcore::{EventId, EventQueue, SimDuration, SimTime};

use crate::driver::{Cx, Ev, Logic};
use crate::metrics::Window;

/// Routes an application event to the node whose shard must execute it.
///
/// Must be a pure function of the event: the same event must route to
/// the same node on every call, or determinism is lost.
pub type AppRoute<A> = Arc<dyn Fn(&A) -> NodeId + Send + Sync>;

/// Topology and execution parameters of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Node groups; group `i` becomes shard `i`. Every node of the
    /// fabric must appear in exactly one group.
    pub groups: Vec<Vec<NodeId>>,
    /// Worker threads. Clamped to the shard count; `1` still exercises
    /// the sharded data path when there are multiple groups.
    pub nthreads: usize,
    /// Declares that no event ever crosses the partition, enabling the
    /// window-free isolated mode. Violations panic loudly.
    pub isolated: bool,
}

impl ShardSpec {
    /// A single-shard spec: the sequential engine.
    pub fn sequential(all_nodes: Vec<NodeId>) -> Self {
        ShardSpec {
            groups: vec![all_nodes],
            nthreads: 1,
            isolated: false,
        }
    }
}

/// One logical process: a node group's queue, fabric replica and logic
/// replica.
struct Shard<L: Logic> {
    fabric: Fabric,
    logic: L,
    queue: EventQueue<Ev<L::Ev>>,
    /// Window log handed to [`sweep`] (windowed mode only).
    log: WindowLog,
    /// Provisional index → pending event id, for rekeying.
    prov_ids: Vec<EventId>,
    /// Cross-shard payload buffer for the current window.
    cross_out: Vec<(SimTime, Ev<L::Ev>)>,
}

impl<L: Logic> Shard<L> {
    fn new(fabric: Fabric, logic: L) -> Self {
        Shard {
            fabric,
            logic,
            queue: EventQueue::new(),
            log: WindowLog::default(),
            prov_ids: Vec::new(),
            cross_out: Vec::new(),
        }
    }
}

/// A shard's cross-push payload buffer mid-delivery: each payload is
/// handed to its destination exactly once, so it is taken through an
/// `Option`.
type CrossPayloads<A> = Vec<Option<(SimTime, Ev<A>)>>;

/// Per-shard mailbox used to exchange window state between workers and
/// the merge step. Each slot is written by exactly one party per phase;
/// the barriers order the accesses, the mutex just satisfies the
/// compiler (and is never contended).
struct Slot<A> {
    log: WindowLog,
    cross: Vec<(SimTime, Ev<A>)>,
    rekeys: Vec<(u32, u64)>,
    delivered: Vec<(SimTime, u64, Ev<A>)>,
    next_time: Option<SimTime>,
}

impl<A> Default for Slot<A> {
    fn default() -> Self {
        Slot {
            log: WindowLog::default(),
            cross: Vec::new(),
            rekeys: Vec::new(),
            delivered: Vec::new(),
            next_time: None,
        }
    }
}

/// How long every [`ShardedSim::replay`] runs past its measured window.
pub const DRAIN: SimDuration = SimDuration::millis(3);

/// A sharded simulation: one fabric partitioned into per-shard replicas.
pub struct ShardedSim<L: Logic> {
    shards: Vec<Shard<L>>,
    /// Node index → owning shard.
    node_shard: Vec<u32>,
    route: AppRoute<L::Ev>,
    lookahead: SimDuration,
    nthreads: usize,
    isolated: bool,
    /// First unallocated global sequence number (windowed mode).
    next_seq: u64,
    events: u64,
}

impl<L: Logic> ShardedSim<L> {
    /// Builds a *single-shard* simulation: the sequential engine run
    /// through the sharded driver's span loop (bit-identical to the
    /// reference engine, see the equivalence test below). Requires
    /// neither `Clone` nor `Send`, so monolithic logics — the RPC
    /// benchmark [`Harness`](crate::Harness), the transaction driver —
    /// can route their events through a shard handle today and pick up
    /// multi-shard execution if they are ever made replicable.
    pub fn new_sequential(mut fabric: Fabric, mut logic: L) -> Self {
        let node_shard = vec![0u32; fabric.node_count()];
        let lookahead = fabric.params().min_cross_delay();
        let mut staged_fabric: Vec<(SimTime, FabricEvent)> = Vec::new();
        let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
        {
            let mut cx = Cx {
                now: SimTime::ZERO,
                fabric: &mut fabric,
                staged_fabric: &mut staged_fabric,
                staged_app: &mut staged_app,
            };
            logic.init(&mut cx);
        }
        let mut shard = Shard::new(fabric, logic);
        let mut next_seq = 0u64;
        for (t, fe) in staged_fabric.drain(..) {
            shard.queue.push_with_seq(t, next_seq, Ev::Fabric(fe));
            next_seq += 1;
        }
        for (t, ae) in staged_app.drain(..) {
            shard.queue.push_with_seq(t, next_seq, Ev::App(ae));
            next_seq += 1;
        }
        ShardedSim {
            shards: vec![shard],
            node_shard,
            // Single shard: nothing ever routes, the closure is never
            // called (run_span only consults it under check_isolated).
            route: Arc::new(|_| NodeId(0)),
            lookahead,
            nthreads: 1,
            isolated: false,
            next_seq,
            events: 0,
        }
    }

    /// Runs a single-shard simulation to the (inclusive) deadline.
    ///
    /// # Panics
    ///
    /// Panics on a multi-shard simulation — use
    /// [`run_until`](Self::run_until), which needs `L: Clone + Send`.
    pub fn run_sequential(&mut self, deadline: SimTime) -> u64 {
        assert!(
            self.shards.len() == 1,
            "run_sequential on a multi-shard simulation"
        );
        let n = run_span(
            0,
            &mut self.shards[0],
            &self.node_shard,
            &self.route,
            deadline,
            false,
        );
        self.events += n;
        n
    }

    /// Runs a single-shard simulation until its queue is empty.
    ///
    /// # Panics
    ///
    /// Panics on a multi-shard simulation — use
    /// [`run_to_quiescence`](Self::run_to_quiescence).
    pub fn run_sequential_to_quiescence(&mut self) -> u64 {
        self.run_sequential(SimTime::MAX)
    }

    /// The one replay of a single-shard simulation: warm-up, the
    /// measured `window`, then [`DRAIN`] for in-flight work to complete.
    /// Returns the fabric counters of `servers` over the window alone,
    /// summed: they are read at its two edges (reading never perturbs
    /// the run), so warm-up and drain traffic stay out of window rates.
    pub fn replay(&mut self, window: Window, servers: &[NodeId]) -> CounterSet {
        let read = |sim: &Self| {
            let mut all = CounterSet::new();
            for &node in servers {
                all.merge(&sim.fabric(0).counters(node).expect("server node"));
            }
            all
        };
        self.run_sequential(window.start);
        let at_start = read(self);
        self.run_sequential(window.end);
        let over_window = read(self).delta_since(&at_start);
        self.run_sequential(window.end + DRAIN);
        over_window
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.node_shard[node.index()] as usize
    }

    /// The logic replica of shard `sid`. Only state owned by the
    /// shard's nodes is meaningful.
    pub fn logic(&self, sid: usize) -> &L {
        &self.shards[sid].logic
    }

    /// The fabric replica of shard `sid`. Counters and memory of the
    /// shard's own nodes are authoritative; foreign nodes are stale.
    pub fn fabric(&self, sid: usize) -> &Fabric {
        &self.shards[sid].fabric
    }

    /// The conservative lookahead (window length) in use.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Total events processed so far across all shards. Equals the
    /// sequential engine's count for the same run.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl<L> ShardedSim<L>
where
    L: Logic + Clone + Send,
    L::Ev: Send,
{
    /// Builds a sharded simulation from a fully constructed fabric and
    /// logic.
    ///
    /// Runs `logic.init` once on the *unsharded* fabric — exactly as a
    /// single-queue engine would — then replicates fabric and logic per
    /// shard and distributes the staged init events with the global
    /// sequence numbers the sequential engine would have assigned.
    ///
    /// # Panics
    ///
    /// Panics if the groups do not partition the fabric's nodes, or if
    /// the fabric's tracer is enabled with more than one shard.
    pub fn new(mut fabric: Fabric, mut logic: L, spec: ShardSpec, route: AppRoute<L::Ev>) -> Self {
        let nshards = spec.groups.len();
        assert!(nshards > 0, "at least one shard group required");
        let mut node_shard = vec![u32::MAX; fabric.node_count()];
        for (sid, group) in spec.groups.iter().enumerate() {
            for &node in group {
                // node ids come from this fabric, so index() is in range
                let slot = &mut node_shard[node.index()];
                assert!(*slot == u32::MAX, "{node} assigned to two shards");
                *slot = sid as u32;
            }
        }
        assert!(
            node_shard.iter().all(|&s| s != u32::MAX),
            "every node must belong to a shard"
        );
        assert!(
            nshards == 1 || !fabric.tracer().is_enabled(),
            "multi-shard runs require the tracer disabled (trace ids \
             would be allocated in thread order)"
        );
        let lookahead = fabric.params().min_cross_delay();
        assert!(
            lookahead > SimDuration::ZERO,
            "zero lookahead cannot make parallel progress"
        );

        // Sequential init, exactly as a single-queue engine performs it.
        let mut staged_fabric: Vec<(SimTime, FabricEvent)> = Vec::new();
        let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
        {
            let mut cx = Cx {
                now: SimTime::ZERO,
                fabric: &mut fabric,
                staged_fabric: &mut staged_fabric,
                staged_app: &mut staged_app,
            };
            logic.init(&mut cx);
        }

        let mut shards: Vec<Shard<L>> = if nshards == 1 {
            vec![Shard::new(fabric, logic)]
        } else {
            spec.groups
                .iter()
                .map(|group| Shard::new(fabric.shard_replica(group), logic.clone()))
                .collect()
        };

        // Distribute init events in the sequential push order (fabric
        // stage drains before app stage) with global seqs 0..n.
        let mut next_seq = 0u64;
        for (t, fe) in staged_fabric.drain(..) {
            // event_node only reads connection metadata, identical in
            // every replica; node_shard covers all fabric nodes.
            let sid = node_shard[shards[0].fabric.event_node(&fe).index()] as usize;
            shards[sid].queue.push_with_seq(t, next_seq, Ev::Fabric(fe));
            next_seq += 1;
        }
        for (t, ae) in staged_app.drain(..) {
            // route returns a node of this fabric by contract.
            let sid = node_shard[route(&ae).index()] as usize;
            shards[sid].queue.push_with_seq(t, next_seq, Ev::App(ae));
            next_seq += 1;
        }

        ShardedSim {
            shards,
            node_shard,
            route,
            lookahead,
            nthreads: spec.nthreads.max(1),
            isolated: spec.isolated,
            next_seq,
            events: 0,
        }
    }

    /// Runs until every shard's queue drains or holds only events past
    /// `deadline` (inclusive bound, like [`run_sequential`](Self::run_sequential)).
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let n = if self.shards.len() == 1 {
            run_span(
                0,
                // single shard exists by the branch condition
                &mut self.shards[0],
                &self.node_shard,
                &self.route,
                deadline,
                false,
            )
        } else if self.isolated {
            self.run_isolated(deadline)
        } else {
            self.run_windowed(deadline)
        };
        self.events += n;
        n
    }

    /// Runs until every queue is empty.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Isolated mode: every shard straight to the deadline, no windows.
    fn run_isolated(&mut self, deadline: SimTime) -> u64 {
        let nw = self.nthreads.min(self.shards.len());
        let node_shard = &self.node_shard;
        let route = &self.route;
        let mut chunks: Vec<Vec<(u32, &mut Shard<L>)>> = (0..nw).map(|_| Vec::new()).collect();
        for (i, sh) in self.shards.iter_mut().enumerate() {
            // i % nw < nw == chunks.len()
            chunks[i % nw].push((i as u32, sh));
        }
        let mut own = chunks.remove(0);
        thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|mut chunk| {
                    scope.spawn(move || {
                        let mut pops = 0;
                        for (sid, shard) in chunk.iter_mut() {
                            pops += run_span(*sid, shard, node_shard, route, deadline, true);
                        }
                        pops
                    })
                })
                .collect();
            let mut pops = 0;
            for (sid, shard) in own.iter_mut() {
                pops += run_span(*sid, shard, node_shard, route, deadline, true);
            }
            for h in handles {
                pops += h.join().expect("shard worker panicked");
            }
            pops
        })
    }

    /// General mode: conservative windows + deterministic sweep.
    ///
    /// The caller thread doubles as worker 0 and as the merge
    /// coordinator; `nthreads - 1` scoped workers are spawned for the
    /// remaining shard chunks. Four barriers sequence each window:
    ///
    /// ```text
    ///  A: window published    → all execute their shards' window
    ///  B: logs published      → coordinator sweeps, moves payloads
    ///  C: directives published → all rekey + apply deliveries
    ///  D: next times published → coordinator picks the next window
    /// ```
    fn run_windowed(&mut self, deadline: SimTime) -> u64 {
        let nshards = self.shards.len();
        let nw = self.nthreads.min(nshards);
        let lookahead = self.lookahead;
        let node_shard = &self.node_shard;
        let route = &self.route;

        let window: Mutex<Option<(SimTime, SimTime)>> = Mutex::new(None);
        let slots: Vec<Mutex<Slot<L::Ev>>> =
            (0..nshards).map(|_| Mutex::new(Slot::default())).collect();
        let barrier = Barrier::new(nw);

        let start = self.shards.iter().filter_map(|s| s.queue.peek_time()).min();
        let mut cur = match start {
            Some(t) if t <= deadline => Some((t + lookahead, deadline)),
            _ => None,
        };
        *window.lock().expect("window mutex") = cur;

        let mut chunks: Vec<Vec<(u32, &mut Shard<L>)>> = (0..nw).map(|_| Vec::new()).collect();
        for (i, sh) in self.shards.iter_mut().enumerate() {
            // i % nw < nw == chunks.len()
            chunks[i % nw].push((i as u32, sh));
        }
        let mut own = chunks.remove(0);

        let mut events = 0u64;
        let mut next_seq = self.next_seq;
        thread::scope(|scope| {
            for mut chunk in chunks {
                let barrier = &barrier;
                let window = &window;
                let slots = &slots;
                scope.spawn(move || loop {
                    barrier.wait(); // A: window published
                    let Some((end, dl)) = *window.lock().expect("window mutex") else {
                        break;
                    };
                    for (sid, shard) in chunk.iter_mut() {
                        execute_window(*sid, shard, node_shard, route, end, dl);
                        // sid indexes slots: one slot per shard
                        publish_window(shard, &slots[*sid as usize]);
                    }
                    barrier.wait(); // B: logs published
                    barrier.wait(); // C: directives published
                    for (sid, shard) in chunk.iter_mut() {
                        // sid indexes slots: one slot per shard
                        apply_directives(shard, &slots[*sid as usize]);
                    }
                    barrier.wait(); // D: next times published
                });
            }

            // Coordinator loop (also executes chunk 0).
            loop {
                barrier.wait(); // A
                let Some((end, dl)) = cur else { break };
                for (sid, shard) in own.iter_mut() {
                    execute_window(*sid, shard, node_shard, route, end, dl);
                    // sid indexes slots: one slot per shard
                    publish_window(shard, &slots[*sid as usize]);
                }
                barrier.wait(); // B

                // --- serial merge (all workers parked at C) ---
                let logs: Vec<WindowLog> = slots
                    .iter()
                    .map(|s| std::mem::take(&mut s.lock().expect("slot mutex").log))
                    .collect();
                let out = sweep(&logs, next_seq);
                next_seq = out.next_seq;
                events += out.pops;
                // Move cross payloads from source buffers to their
                // destination slots; each payload is delivered exactly
                // once, so take() through Option.
                let mut cross: Vec<CrossPayloads<L::Ev>> = slots
                    .iter()
                    .map(|s| {
                        s.lock()
                            .expect("slot mutex")
                            .cross
                            .drain(..)
                            .map(Some)
                            .collect()
                    })
                    .collect();
                for (dst, directives) in out.shards.into_iter().enumerate() {
                    // sweep returns one directive set per shard
                    let mut slot = slots[dst].lock().expect("slot mutex");
                    slot.rekeys = directives.rekeys;
                    slot.delivered = directives
                        .deliveries
                        .into_iter()
                        .map(|d| {
                            // d.src/d.payload_idx index the cross buffer
                            // the sweep built them from
                            let (t, ev) = cross[d.src as usize][d.payload_idx as usize]
                                .take()
                                .expect("cross payload delivered twice");
                            debug_assert_eq!(t, d.time);
                            (d.time, d.seq, ev)
                        })
                        .collect();
                }
                barrier.wait(); // C

                for (sid, shard) in own.iter_mut() {
                    // sid indexes slots: one slot per shard
                    apply_directives(shard, &slots[*sid as usize]);
                }
                barrier.wait(); // D

                let start = slots
                    .iter()
                    .filter_map(|s| s.lock().expect("slot mutex").next_time)
                    .min();
                cur = match start {
                    Some(t) if t <= deadline => Some((t + lookahead, deadline)),
                    _ => None,
                };
                *window.lock().expect("window mutex") = cur;
            }
        });
        self.next_seq = next_seq;
        events
    }
}

/// Processes one popped event through fabric/logic, leaving everything
/// it schedules in the staged vectors — the body shared by every mode.
fn process_event<L: Logic>(
    shard: &mut Shard<L>,
    now: SimTime,
    ev: Ev<L::Ev>,
    staged_fabric: &mut Vec<(SimTime, FabricEvent)>,
    staged_app: &mut Vec<(SimTime, L::Ev)>,
    upcalls: &mut Vec<Upcall>,
) {
    let Shard { fabric, logic, .. } = shard;
    match ev {
        Ev::Fabric(fe) => {
            fabric.handle(now, fe, &mut |t, e| staged_fabric.push((t, e)), upcalls);
            for up in upcalls.drain(..) {
                let mut cx = Cx {
                    now,
                    fabric,
                    staged_fabric,
                    staged_app,
                };
                logic.on_upcall(up, &mut cx);
            }
        }
        Ev::App(ae) => {
            let mut cx = Cx {
                now,
                fabric,
                staged_fabric,
                staged_app,
            };
            logic.on_app(ae, &mut cx);
        }
    }
}

/// Sequential event loop over one shard up to the (inclusive) deadline.
/// With `check_isolated`, any event routed off-shard panics — that is
/// the contract [`ShardSpec::isolated`] declares.
fn run_span<L: Logic>(
    sid: u32,
    shard: &mut Shard<L>,
    node_shard: &[u32],
    route: &AppRoute<L::Ev>,
    deadline: SimTime,
    check_isolated: bool,
) -> u64 {
    let mut staged_fabric: Vec<(SimTime, FabricEvent)> = Vec::new();
    let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
    let mut upcalls: Vec<Upcall> = Vec::new();
    let mut pops = 0u64;
    while let Some((now, ev)) = shard.queue.pop_at_or_before(deadline) {
        pops += 1;
        process_event(
            shard,
            now,
            ev,
            &mut staged_fabric,
            &mut staged_app,
            &mut upcalls,
        );
        for (t, fe) in staged_fabric.drain(..) {
            if check_isolated {
                // event_node returns a node of this fabric
                let dst = node_shard[shard.fabric.event_node(&fe).index()];
                assert!(
                    dst == sid,
                    "isolated shard {sid} staged a fabric event for shard {dst}; \
                     the partition is not actually isolated"
                );
            }
            shard.queue.push(t, Ev::Fabric(fe));
        }
        for (t, ae) in staged_app.drain(..) {
            if check_isolated {
                // route returns a node of this fabric by contract
                let dst = node_shard[route(&ae).index()];
                assert!(
                    dst == sid,
                    "isolated shard {sid} staged an app event for shard {dst}; \
                     the partition is not actually isolated"
                );
            }
            shard.queue.push(t, Ev::App(ae));
        }
    }
    pops
}

/// Executes one conservative window `[.., end)` on one shard, recording
/// the pop/push log that [`sweep`] will merge.
fn execute_window<L: Logic>(
    sid: u32,
    shard: &mut Shard<L>,
    node_shard: &[u32],
    route: &AppRoute<L::Ev>,
    end: SimTime,
    deadline: SimTime,
) {
    shard.log.clear();
    shard.prov_ids.clear();
    shard.cross_out.clear();
    let mut staged_fabric: Vec<(SimTime, FabricEvent)> = Vec::new();
    let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
    let mut upcalls: Vec<Upcall> = Vec::new();
    // The window is half-open — `end` itself belongs to the next one —
    // and never empty: `end` is a time plus the (non-zero) lookahead.
    let last = deadline.min(SimTime(end.as_nanos() - 1));
    while let Some((now, seq, ev)) = shard.queue.pop_at_or_before_with_seq(last) {
        let push_mark = shard.log.pushes.len();
        process_event(
            shard,
            now,
            ev,
            &mut staged_fabric,
            &mut staged_app,
            &mut upcalls,
        );
        for (t, fe) in staged_fabric.drain(..) {
            // event_node returns a node of this fabric
            let dst = node_shard[shard.fabric.event_node(&fe).index()];
            stage_push(sid, shard, dst, t, Ev::Fabric(fe), end);
        }
        for (t, ae) in staged_app.drain(..) {
            // route returns a node of this fabric by contract
            let dst = node_shard[route(&ae).index()];
            stage_push(sid, shard, dst, t, Ev::App(ae), end);
        }
        let npushes = (shard.log.pushes.len() - push_mark) as u32;
        shard.log.pops.push(PopRec {
            time: now,
            seq,
            npushes,
        });
    }
}

/// Stages one push during a window: local pushes enter the shard's own
/// queue under a provisional key; cross pushes are buffered for the
/// sweep. A cross push landing inside the current window would mean the
/// fabric broke its own lookahead bound — panic, never corrupt order.
fn stage_push<L: Logic>(
    sid: u32,
    shard: &mut Shard<L>,
    dst: u32,
    t: SimTime,
    ev: Ev<L::Ev>,
    end: SimTime,
) {
    if dst == sid {
        let k = shard.log.provisional;
        shard.log.provisional += 1;
        let id = shard
            .queue
            .push_with_seq(t, PROVISIONAL_BASE + k as u64, ev);
        shard.prov_ids.push(id);
        shard.log.pushes.push(PushRec {
            dst,
            time: t,
            tag: k,
            cross: false,
        });
    } else {
        assert!(
            t >= end,
            "cross-shard event at {t} violates the lookahead window ending at {end}; \
             FabricParams::min_cross_delay no longer bounds every cross-node edge"
        );
        let tag = shard.cross_out.len() as u32;
        shard.cross_out.push((t, ev));
        shard.log.pushes.push(PushRec {
            dst,
            time: t,
            tag,
            cross: true,
        });
    }
}

/// Moves a shard's window log and cross buffer into its mailbox slot.
fn publish_window<L: Logic>(shard: &mut Shard<L>, slot: &Mutex<Slot<L::Ev>>) {
    let mut slot = slot.lock().expect("slot mutex");
    slot.log = std::mem::take(&mut shard.log);
    slot.cross = std::mem::take(&mut shard.cross_out);
}

/// Applies the sweep's directives to a shard: rekey still-pending local
/// events to their final seqs, enqueue cross deliveries, and publish the
/// shard's next event time for the coordinator's window choice.
fn apply_directives<L: Logic>(shard: &mut Shard<L>, slot: &Mutex<Slot<L::Ev>>) {
    let mut slot = slot.lock().expect("slot mutex");
    for (k, fin) in slot.rekeys.drain(..) {
        // k < prov_ids.len(): rekeys reference this window's pushes
        let id = shard.prov_ids[k as usize];
        // Events already popped inside the window are stale ids; set_seq
        // returning false is the expected no-op for them.
        let _ = shard.queue.set_seq(id, fin);
    }
    for (t, seq, ev) in slot.delivered.drain(..) {
        shard.queue.push_with_seq(t, seq, ev);
    }
    slot.next_time = shard.queue.peek_time();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rdma_fabric::{FabricParams, MrId, QpId, RemoteAddr, Transport, WorkRequest};

    /// The reference engine every mode is compared against: one fabric,
    /// one logic, one queue, nothing else — the original sequential
    /// driver, kept as the oracle that defines "the same run".
    struct Sim<L: Logic> {
        fabric: Fabric,
        logic: L,
        queue: EventQueue<Ev<L::Ev>>,
        initialized: bool,
    }

    impl<L: Logic> Sim<L> {
        fn new(fabric: Fabric, logic: L) -> Self {
            Sim {
                fabric,
                logic,
                queue: EventQueue::new(),
                initialized: false,
            }
        }

        /// Runs until the queue drains or the next event lies beyond
        /// `deadline`. Returns the number of events processed.
        fn run_until(&mut self, deadline: SimTime) -> u64 {
            let mut staged_fabric: Vec<(SimTime, FabricEvent)> = Vec::new();
            let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
            let mut upcalls: Vec<Upcall> = Vec::new();

            if !self.initialized {
                self.initialized = true;
                let mut cx = Cx {
                    now: SimTime::ZERO,
                    fabric: &mut self.fabric,
                    staged_fabric: &mut staged_fabric,
                    staged_app: &mut staged_app,
                };
                self.logic.init(&mut cx);
                for (t, ev) in staged_fabric.drain(..) {
                    self.queue.push(t, Ev::Fabric(ev));
                }
                for (t, ev) in staged_app.drain(..) {
                    self.queue.push(t, Ev::App(ev));
                }
            }

            let mut processed = 0;
            while let Some((now, ev)) = self.queue.pop_at_or_before(deadline) {
                processed += 1;
                match ev {
                    Ev::Fabric(fe) => {
                        self.fabric.handle(
                            now,
                            fe,
                            &mut |t, ev| staged_fabric.push((t, ev)),
                            &mut upcalls,
                        );
                        for up in upcalls.drain(..) {
                            let mut cx = Cx {
                                now,
                                fabric: &mut self.fabric,
                                staged_fabric: &mut staged_fabric,
                                staged_app: &mut staged_app,
                            };
                            self.logic.on_upcall(up, &mut cx);
                        }
                    }
                    Ev::App(ae) => {
                        let mut cx = Cx {
                            now,
                            fabric: &mut self.fabric,
                            staged_fabric: &mut staged_fabric,
                            staged_app: &mut staged_app,
                        };
                        self.logic.on_app(ae, &mut cx);
                    }
                }
                for (t, ev) in staged_fabric.drain(..) {
                    self.queue.push(t, Ev::Fabric(ev));
                }
                for (t, ev) in staged_app.drain(..) {
                    self.queue.push(t, Ev::App(ev));
                }
            }
            processed
        }

        fn run_to_quiescence(&mut self) -> u64 {
            self.run_until(SimTime::MAX)
        }
    }

    /// A pair of nodes playing ping-pong `max_rounds` times; cloneable
    /// so it can be replicated across shards: every decision reads only
    /// state owned by the node
    /// the current event executes on — the replication contract. `b`
    /// answers the first `max_rounds` pings it receives (`pings` is
    /// b-owned), `a` keeps the rally going until it has collected
    /// `max_rounds` pongs (`pongs` is a-owned).
    #[derive(Clone)]
    struct PingPong {
        a: NodeId,
        b: NodeId,
        a_qp: QpId,
        b_qp: QpId,
        mr_a: MrId,
        mr_b: MrId,
        pings: u32,
        pongs: u32,
        max_rounds: u32,
        timer_fired: bool,
    }

    #[derive(Clone)]
    enum PpEv {
        Kick,
        Timer,
    }

    impl PingPong {
        fn write(cx: &mut Cx<'_, PpEv>, qp: QpId, mr: MrId, msg: &'static [u8]) {
            cx.post(
                qp,
                WorkRequest::Write {
                    data: Bytes::from_static(msg),
                    remote: RemoteAddr::new(mr, 0),
                    imm: None,
                },
                false,
                None,
            )
            .expect("post");
        }
    }

    impl Logic for PingPong {
        type Ev = PpEv;

        fn init(&mut self, cx: &mut Cx<'_, PpEv>) {
            cx.at(SimTime::ZERO, PpEv::Kick);
            cx.after(SimDuration::micros(500), PpEv::Timer);
        }

        fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, PpEv>) {
            if let Upcall::MemWrite { mr, .. } = up {
                if mr == self.mr_b {
                    // Executing on b: only b-owned state.
                    if self.pings < self.max_rounds {
                        self.pings += 1;
                        Self::write(cx, self.b_qp, self.mr_a, b"pong");
                    }
                } else if mr == self.mr_a {
                    // Executing on a: only a-owned state.
                    self.pongs += 1;
                    if self.pongs < self.max_rounds {
                        Self::write(cx, self.a_qp, self.mr_b, b"ping");
                    }
                }
            }
        }

        fn on_app(&mut self, ev: PpEv, cx: &mut Cx<'_, PpEv>) {
            match ev {
                PpEv::Kick => Self::write(cx, self.a_qp, self.mr_b, b"ping"),
                PpEv::Timer => self.timer_fired = true,
            }
        }
    }

    fn build_pair(fabric: &mut Fabric, tag: usize, max_rounds: u32) -> PingPong {
        let na = fabric.add_node(&format!("a{tag}"));
        let nb = fabric.add_node(&format!("b{tag}"));
        let mr_a = fabric.register_mr(na, 64).unwrap();
        let mr_b = fabric.register_mr(nb, 64).unwrap();
        let cq_a = fabric.create_cq(na).unwrap();
        let cq_b = fabric.create_cq(nb).unwrap();
        let a_qp = fabric.create_qp(na, Transport::Rc, cq_a, cq_a).unwrap();
        let b_qp = fabric.create_qp(nb, Transport::Rc, cq_b, cq_b).unwrap();
        fabric.connect(a_qp, b_qp).unwrap();
        PingPong {
            a: na,
            b: nb,
            a_qp,
            b_qp,
            mr_a,
            mr_b,
            pings: 0,
            pongs: 0,
            max_rounds,
            timer_fired: false,
        }
    }

    #[test]
    fn windowed_two_shards_match_the_sequential_engine() {
        // Sequential reference.
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 0, 10);
        let mut seq_sim = Sim::new(fabric, logic);
        let seq_events = seq_sim.run_to_quiescence();
        assert_eq!(seq_sim.logic.pongs, 10);

        // Same topology, one shard per node, windowed execution.
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 0, 10);
        let (na, nb, mr_a) = (logic.a, logic.b, logic.mr_a);
        let spec = ShardSpec {
            groups: vec![vec![na], vec![nb]],
            nthreads: 2,
            isolated: false,
        };
        let route: AppRoute<PpEv> = Arc::new(move |_| na);
        let mut sim = ShardedSim::new(fabric, logic, spec, route);
        let events = sim.run_to_quiescence();

        assert_eq!(events, seq_events, "event counts must match exactly");
        // b-side state lives on b's shard; a-side memory on a's shard.
        assert_eq!(sim.logic(sim.shard_of(nb)).pings, 10);
        assert_eq!(sim.logic(sim.shard_of(na)).pongs, 10);
        assert!(sim.logic(sim.shard_of(na)).timer_fired);
        let a_fabric = sim.fabric(sim.shard_of(na));
        assert_eq!(a_fabric.mr(mr_a).unwrap().read(0, 4).unwrap(), b"pong");
        let seq_bytes = seq_sim.fabric.mr(mr_a).unwrap().read(0, 4).unwrap();
        assert_eq!(a_fabric.mr(mr_a).unwrap().read(0, 4).unwrap(), seq_bytes);
    }

    /// Two independent ping-pong pairs in one fabric; each pair is its
    /// own shard and never talks across — the isolated fast path.
    #[derive(Clone)]
    struct TwoPairs {
        pairs: [PingPong; 2],
    }

    #[derive(Clone)]
    enum TpEv {
        Pair(usize, PpEv),
    }

    impl Logic for TwoPairs {
        type Ev = TpEv;

        fn init(&mut self, cx: &mut Cx<'_, TpEv>) {
            for (i, p) in self.pairs.iter_mut().enumerate() {
                cx.scoped(|e| TpEv::Pair(i, e), |cx| p.init(cx));
            }
        }

        fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, TpEv>) {
            for (i, p) in self.pairs.iter_mut().enumerate() {
                cx.scoped(|e| TpEv::Pair(i, e), |cx| p.on_upcall(up.clone(), cx));
            }
        }

        fn on_app(&mut self, ev: TpEv, cx: &mut Cx<'_, TpEv>) {
            let TpEv::Pair(i, e) = ev;
            let p = &mut self.pairs[i];
            cx.scoped(|e| TpEv::Pair(i, e), |cx| p.on_app(e, cx));
        }
    }

    #[test]
    fn isolated_mode_matches_sequential_and_enforces_the_partition() {
        let build = |fabric: &mut Fabric| TwoPairs {
            pairs: [build_pair(fabric, 0, 7), build_pair(fabric, 1, 9)],
        };

        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build(&mut fabric);
        let mut seq_sim = Sim::new(fabric, logic);
        let seq_events = seq_sim.run_to_quiescence();

        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build(&mut fabric);
        let groups = vec![
            vec![logic.pairs[0].a, logic.pairs[0].b],
            vec![logic.pairs[1].a, logic.pairs[1].b],
        ];
        let anchors = [logic.pairs[0].a, logic.pairs[1].a];
        let spec = ShardSpec {
            groups,
            nthreads: 2,
            isolated: true,
        };
        let route: AppRoute<TpEv> = Arc::new(move |TpEv::Pair(i, _)| anchors[*i]);
        let mut sim = ShardedSim::new(fabric, logic, spec, route);
        let events = sim.run_to_quiescence();

        assert_eq!(events, seq_events);
        assert_eq!(sim.logic(0).pairs[0].pings, 7);
        assert_eq!(sim.logic(1).pairs[1].pings, 9);
    }

    #[test]
    #[should_panic(expected = "not actually isolated")]
    fn isolated_mode_panics_on_cross_shard_traffic() {
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 0, 3);
        let (na, nb) = (logic.a, logic.b);
        let spec = ShardSpec {
            groups: vec![vec![na], vec![nb]],
            nthreads: 1,
            isolated: true,
        };
        let route: AppRoute<PpEv> = Arc::new(move |_| na);
        let mut sim = ShardedSim::new(fabric, logic, spec, route);
        sim.run_to_quiescence();
    }

    #[test]
    fn new_sequential_matches_sim_exactly() {
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 0, 10);
        let mut sim = ShardedSim::new_sequential(fabric, logic);
        let events = sim.run_sequential(SimTime::MAX);

        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 0, 10);
        let mut seq_sim = Sim::new(fabric, logic);
        assert_eq!(events, seq_sim.run_to_quiescence());
        assert_eq!(sim.logic(0).pongs, 10);
        assert_eq!(sim.events(), events);
    }

    #[test]
    fn single_shard_spec_is_the_sequential_engine() {
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 0, 10);
        let nodes = vec![logic.a, logic.b];
        let na = logic.a;
        let route: AppRoute<PpEv> = Arc::new(move |_| na);
        let mut sim = ShardedSim::new(fabric, logic, ShardSpec::sequential(nodes), route);
        let events = sim.run_to_quiescence();

        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 0, 10);
        let mut seq_sim = Sim::new(fabric, logic);
        assert_eq!(events, seq_sim.run_to_quiescence());
        assert_eq!(sim.logic(0).pongs, 10);
    }

    fn sequential(max_rounds: u32) -> ShardedSim<PingPong> {
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 0, max_rounds);
        ShardedSim::new_sequential(fabric, logic)
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let mut sim = sequential(10);
        sim.run_sequential_to_quiescence();
        assert_eq!(sim.logic(0).pongs, 10);
        assert!(sim.logic(0).timer_fired);
        let mr_a = sim.logic(0).mr_a;
        assert_eq!(sim.fabric(0).mr(mr_a).unwrap().read(0, 4).unwrap(), b"pong");
    }

    #[test]
    fn deadline_stops_early_and_resumes() {
        let mut sim = sequential(10);
        // A single RTT takes ~2-4us; a 1us budget cannot finish 10 rounds.
        sim.run_sequential(SimTime(1_000));
        let before = sim.logic(0).pongs;
        assert!(before < 10);
        sim.run_sequential_to_quiescence();
        assert_eq!(sim.logic(0).pongs, 10);
    }

    #[test]
    fn event_counting() {
        let mut sim = sequential(10);
        let n = sim.run_sequential_to_quiescence();
        assert!(n > 20, "expected a realistic event count, got {n}");
        assert_eq!(sim.events(), n);
        assert_eq!(
            sim.run_sequential_to_quiescence(),
            0,
            "quiescent sim stays quiet"
        );
    }
}
