// simlint: allow-file(R6): the engine — owns every shard queue and stamps
// init events with the sequential engine's seqs (`push_with_seq`).
//! The simulation engine.
//!
//! [`ShardedSim`] is the one simulation engine, and it has one event
//! loop (`run_span`): pop the earliest event of a queue, hand it to the
//! fabric or the logic, push what that staged. It runs in two modes,
//! picked by the number of node groups it is given:
//!
//! 1. **one group** — the plain sequential loop over one
//!    [`EventQueue`], one fabric and one logic ([`ShardedSim::new_sequential`],
//!    or [`ShardedSim::new`] with [`ShardSpec::sequential`]). Every hub
//!    workload — N clients, one server — runs this way; the tests below
//!    hold it event-for-event to a reference single-queue engine.
//! 2. **several groups** — *isolated*: the groups never exchange an
//!    event (disjoint server pods), so each gets its own queue, fabric
//!    replica and logic replica (`L: Clone`) and runs the same loop
//!    straight to the deadline on a `std::thread` pool. There is
//!    nothing to merge, so results are bit-identical at every
//!    `nthreads`; an event that does cross the partition is a panic
//!    naming both shards, never a silent reordering.
//!
//! The *partition* assigns every fabric node to exactly one shard.
//! Fabric events are placed by [`Fabric::event_node`], application
//! events by a caller-supplied [`AppRoute`] closure; both are consulted
//! only to place init events and to enforce isolation. A shard's logic
//! replica must only touch state belonging to its own nodes — state for
//! foreign nodes goes stale. Results are read back per shard through
//! [`ShardedSim::logic`] and [`ShardedSim::fabric`].
//!
//! There is deliberately no mode for partitions that do talk: the
//! conservative-window engine that ran them lost to mode 1 by 2.6–141×
//! on every workload that could select it (DESIGN.md §10).
//!
//! Tracing must be disabled for multi-shard runs: trace ids would be
//! allocated in nondeterministic thread order, scrambling the output.
//! The constructor asserts this instead of producing garbage.

use std::sync::Arc;
use std::thread;

use rdma_fabric::{Fabric, FabricEvent, NodeId, Upcall};
use simcore::stats::CounterSet;
use simcore::{EventQueue, SimDuration, SimTime};

use crate::driver::{Cx, Ev, Logic};
use crate::metrics::Window;

/// Names the node an application event executes on. Consulted to place
/// init events on their shard and, in isolated mode, to check that no
/// event leaves the shard that staged it.
pub type AppRoute<A> = Arc<dyn Fn(&A) -> NodeId + Send + Sync>;

/// Topology and execution parameters of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Node groups; group `i` becomes shard `i`. Every node of the
    /// fabric must appear in exactly one group. More than one group
    /// declares that no event ever crosses between them; a violation
    /// panics loudly.
    pub groups: Vec<Vec<NodeId>>,
    /// Worker threads. Clamped to the shard count; `1` still runs one
    /// replica per group, one after the other.
    pub nthreads: usize,
}

impl ShardSpec {
    /// A single-shard spec: the sequential engine.
    pub fn sequential(all_nodes: Vec<NodeId>) -> Self {
        ShardSpec {
            groups: vec![all_nodes],
            nthreads: 1,
        }
    }
}

/// One logical process: a node group's queue, fabric replica and logic
/// replica.
struct Shard<L: Logic> {
    fabric: Fabric,
    logic: L,
    queue: EventQueue<Ev<L::Ev>>,
}

impl<L: Logic> Shard<L> {
    fn new(fabric: Fabric, logic: L) -> Self {
        Shard {
            fabric,
            logic,
            queue: EventQueue::new(),
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
    nthreads: usize,
    events: u64,
}

impl<L: Logic> ShardedSim<L> {
    /// Builds a *single-shard* simulation: the sequential engine
    /// (bit-identical to the reference engine, see the equivalence test
    /// below). Requires neither `Clone` nor `Send`, so monolithic logics
    /// — the RPC benchmark [`Harness`](crate::Harness), the transaction
    /// driver — run on it as they are.
    pub fn new_sequential(mut fabric: Fabric, mut logic: L) -> Self {
        let node_shard = vec![0u32; fabric.node_count()];
        let init = init_events(&mut fabric, &mut logic);
        let mut shard = Shard::new(fabric, logic);
        for (seq, (t, ev)) in (0u64..).zip(init) {
            shard.queue.push_with_seq(t, seq, ev);
        }
        ShardedSim {
            shards: vec![shard],
            node_shard,
            // Single shard: nothing ever routes, the closure is never
            // called (run_span only consults it under check_isolated).
            route: Arc::new(|_| NodeId(0)),
            nthreads: 1,
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
    /// Builds a simulation over `spec.groups` from a fully constructed
    /// fabric and logic.
    ///
    /// Runs `logic.init` once on the *unsharded* fabric — exactly as a
    /// single-queue engine would — then replicates fabric and logic per
    /// shard and deals the staged init events to their shards under the
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

        let init = init_events(&mut fabric, &mut logic);
        let mut shards: Vec<Shard<L>> = if nshards == 1 {
            vec![Shard::new(fabric, logic)]
        } else {
            spec.groups
                .iter()
                .map(|group| Shard::new(fabric.shard_replica(group), logic.clone()))
                .collect()
        };
        for (seq, (t, ev)) in (0u64..).zip(init) {
            // event_node only reads connection metadata, identical in
            // every replica; route returns a node of this fabric by
            // contract, and node_shard covers all fabric nodes.
            let node = match &ev {
                Ev::Fabric(fe) => shards[0].fabric.event_node(fe),
                Ev::App(ae) => route(ae),
            };
            let sid = node_shard[node.index()] as usize;
            shards[sid].queue.push_with_seq(t, seq, ev);
        }

        ShardedSim {
            shards,
            node_shard,
            route,
            nthreads: spec.nthreads.max(1),
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
        } else {
            self.run_isolated(deadline)
        };
        self.events += n;
        n
    }

    /// Runs until every queue is empty.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Isolated mode: every shard straight to the deadline, dealt
    /// round-robin to `nthreads` workers (the caller is worker 0).
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
}

/// Runs `logic.init` on the unsharded fabric and yields what it staged
/// in the order a single-queue engine pushes it (the fabric stage drains
/// before the app stage): an event's position is its sequence number.
fn init_events<L: Logic>(
    fabric: &mut Fabric,
    logic: &mut L,
) -> impl Iterator<Item = (SimTime, Ev<L::Ev>)> {
    let mut staged_fabric: Vec<(SimTime, FabricEvent)> = Vec::new();
    let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
    logic.init(&mut Cx {
        now: SimTime::ZERO,
        fabric,
        staged_fabric: &mut staged_fabric,
        staged_app: &mut staged_app,
    });
    let fabric_evs = staged_fabric.into_iter().map(|(t, fe)| (t, Ev::Fabric(fe)));
    fabric_evs.chain(staged_app.into_iter().map(|(t, ae)| (t, Ev::App(ae))))
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
/// the contract a multi-group [`ShardSpec`] declares.
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

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rdma_fabric::{FabricParams, MrId, QpId, RemoteAddr, Transport, WorkRequest};

    /// The reference engine both modes are compared against: one fabric,
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
        let nb = fabric.add_node(&format!("b{tag}"));
        build_pair_to(fabric, tag, nb, max_rounds)
    }

    /// A fresh node `a{tag}` playing against the existing node `nb`.
    fn build_pair_to(fabric: &mut Fabric, tag: usize, nb: NodeId, max_rounds: u32) -> PingPong {
        let na = fabric.add_node(&format!("a{tag}"));
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
        };
        let route: AppRoute<TpEv> = Arc::new(move |TpEv::Pair(i, _)| anchors[*i]);
        let mut sim = ShardedSim::new(fabric, logic, spec, route);
        let events = sim.run_to_quiescence();

        assert_eq!(events, seq_events);
        assert_eq!(sim.logic(0).pairs[0].pings, 7);
        assert_eq!(sim.logic(1).pairs[1].pings, 9);
    }

    /// Runs `sim` and returns the message it dies with.
    fn panic_of<L>(sim: &mut ShardedSim<L>) -> String
    where
        L: Logic + Clone + Send,
        L::Ev: Send,
    {
        let run = std::panic::AssertUnwindSafe(|| sim.run_to_quiescence());
        let payload = std::panic::catch_unwind(run).expect_err("the partition leaks");
        payload.downcast_ref::<String>().expect("formatted").clone()
    }

    #[test]
    fn isolated_mode_panics_on_cross_shard_traffic() {
        // One pair split down the middle: a's first ping leaves shard 0.
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 0, 3);
        let (na, nb) = (logic.a, logic.b);
        let spec = ShardSpec {
            groups: vec![vec![na], vec![nb]],
            nthreads: 1,
        };
        let route: AppRoute<PpEv> = Arc::new(move |_| na);
        let mut sim = ShardedSim::new(fabric, logic, spec, route);
        let msg = panic_of(&mut sim);
        assert!(
            msg.contains("shard 0 staged a fabric event for shard 1")
                && msg.contains("not actually isolated"),
            "{msg}"
        );
        assert_eq!(sim.logic(1).pings, 0, "b must never see the ping");

        // A hub — one server, two clients — split between two groups is
        // not a partition. It must die on the first event client 1 sends
        // the server, naming both shards, not run.
        let mut fabric = Fabric::new(FabricParams::default());
        let server = fabric.add_node("server");
        let logic = TwoPairs {
            pairs: [
                build_pair_to(&mut fabric, 0, server, 5),
                build_pair_to(&mut fabric, 1, server, 5),
            ],
        };
        let clients = [logic.pairs[0].a, logic.pairs[1].a];
        let spec = ShardSpec {
            groups: vec![vec![server, clients[0]], vec![clients[1]]],
            nthreads: 1,
        };
        let route: AppRoute<TpEv> = Arc::new(move |TpEv::Pair(i, _)| clients[*i]);
        let mut sim = ShardedSim::new(fabric, logic, spec, route);
        let msg = panic_of(&mut sim);
        assert!(
            msg.contains("shard 1 staged a fabric event for shard 0"),
            "{msg}"
        );
        for sid in 0..2 {
            assert_eq!(sim.logic(sid).pairs[1].pings, 0, "server saw client 1");
            assert_eq!(sim.logic(sid).pairs[1].pongs, 0);
        }
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
