//! The simulation engine.
//!
//! [`ShardedSim`] is the one simulation engine: one [`EventQueue`], one
//! fabric, one logic, and one event loop ([`ShardedSim::run_sequential`])
//! — pop the earliest event, hand it to the fabric or the logic, and queue
//! what that schedules: fabric events as they are produced, application
//! events after them when the callback returns. Every workload in the
//! repository is a hub (N clients, one to three servers, every RPC crossing
//! the client/server boundary twice), so there is nothing to partition
//! inside a run; the tests below hold the loop event-for-event to a
//! reference single-queue engine.
//!
//! There is deliberately no multi-threaded mode. The conservative-window
//! engine that ran partitions that talk lost to this loop by 2.6–141×,
//! and the isolated mode that ran partitions that never talk was eight
//! separate simulations under one name — which
//! `scalerpc_bench::runner::parallel_map` already spreads over every
//! core for every figure sweep (DESIGN.md §10).

use rdma_fabric::{Fabric, NodeId, Upcall};
use simcore::stats::CounterSet;
use simcore::{EventQueue, SimDuration, SimTime};

use crate::driver::{Cx, Ev, Logic};
use crate::metrics::Window;

/// How long an RPC run's [`ShardedSim::replay`] lasts past its window.
pub const DRAIN: SimDuration = SimDuration::millis(3);

/// A simulation: one fabric and one logic driven from one event queue.
pub struct ShardedSim<L: Logic> {
    fabric: Fabric,
    logic: L,
    queue: EventQueue<Ev<L::Ev>>,
    events: u64,
}

impl<L: Logic> ShardedSim<L> {
    /// Builds a simulation from a fully constructed fabric and logic
    /// (bit-identical to the reference engine, see the equivalence test
    /// below). Runs `logic.init`, whose fabric events go straight into the
    /// queue, then queues the application events it staged.
    pub fn new_sequential(mut fabric: Fabric, mut logic: L) -> Self {
        let mut queue = EventQueue::new();
        let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
        logic.init(&mut Cx {
            now: SimTime::ZERO,
            fabric: &mut fabric,
            sched: &mut |t, fe| {
                queue.push(t, Ev::Fabric(fe));
            },
            staged_app: &mut staged_app,
        });
        for (t, ae) in staged_app {
            queue.push(t, Ev::App(ae));
        }
        ShardedSim {
            fabric,
            logic,
            queue,
            events: 0,
        }
    }

    /// The event loop: runs until the queue drains or holds only events
    /// past `deadline` (inclusive bound). Returns the number of events
    /// processed.
    pub fn run_sequential(&mut self, deadline: SimTime) -> u64 {
        let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
        let mut upcalls: Vec<Upcall> = Vec::new();
        let mut pops = 0u64;
        while let Some((now, ev)) = self.queue.pop_at_or_before(deadline) {
            pops += 1;
            self.process_event(now, ev, &mut staged_app, &mut upcalls);
        }
        self.events += pops;
        pops
    }

    /// Hands one popped event to the fabric or the logic and queues what
    /// that schedules. Every fabric event is pushed as it is produced; the
    /// application events wait in `staged_app` and are pushed after them,
    /// so each callback's fabric events pop ahead of its same-instant
    /// application events — the order the reference engine's two staging
    /// vectors gave. A function of its own on purpose: written out
    /// inside the loop, the same code replayed RawWrite and ScaleRPC 8.5 %
    /// slower (PERF_LEDGER.md, "Retiring `simperf`").
    fn process_event(
        &mut self,
        now: SimTime,
        ev: Ev<L::Ev>,
        staged_app: &mut Vec<(SimTime, L::Ev)>,
        upcalls: &mut Vec<Upcall>,
    ) {
        let ShardedSim {
            fabric,
            logic,
            queue,
            ..
        } = self;
        let mut sched = |t, fe| {
            queue.push(t, Ev::Fabric(fe));
        };
        match ev {
            Ev::Fabric(fe) => {
                fabric.handle(now, fe, &mut sched, upcalls);
                for up in upcalls.drain(..) {
                    let mut cx = Cx {
                        now,
                        fabric,
                        sched: &mut sched,
                        staged_app,
                    };
                    logic.on_upcall(up, &mut cx);
                }
            }
            Ev::App(ae) => {
                let mut cx = Cx {
                    now,
                    fabric,
                    sched: &mut sched,
                    staged_app,
                };
                logic.on_app(ae, &mut cx);
            }
        }
        for (t, ae) in staged_app.drain(..) {
            queue.push(t, Ev::App(ae));
        }
    }

    /// Runs until the queue is empty.
    pub fn run_sequential_to_quiescence(&mut self) -> u64 {
        self.run_sequential(SimTime::MAX)
    }

    /// The one replay: warm-up, the measured `window`, then `drain` for
    /// in-flight work to complete ([`DRAIN`] for RPC runs). Returns the
    /// fabric counters of `servers` over the window alone, summed: they
    /// are read at its two edges (reading never perturbs the run), so
    /// warm-up and drain traffic stay out of window rates.
    pub fn replay(&mut self, window: Window, drain: SimDuration, servers: &[NodeId]) -> CounterSet {
        let read = |sim: &Self| {
            let mut all = CounterSet::new();
            for &node in servers {
                all.merge(&sim.fabric.counters(node).expect("server node"));
            }
            all
        };
        self.run_sequential(window.start);
        let at_start = read(self);
        self.run_sequential(window.end);
        let over_window = read(self).delta_since(&at_start);
        self.run_sequential(window.end + drain);
        over_window
    }

    /// The logic. `_sid` is always `0`: the argument outlives the
    /// multi-group engine only because the repo benchmark names it.
    pub fn logic(&self, _sid: usize) -> &L {
        &self.logic
    }

    /// The fabric. `_sid` is always `0`, as for [`logic`](Self::logic).
    pub fn fabric(&self, _sid: usize) -> &Fabric {
        &self.fabric
    }

    /// Total events processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rdma_fabric::{FabricEvent, FabricParams, MrId, QpId, RemoteAddr, Transport, WorkRequest};

    /// The reference engine the loop is compared against: one fabric,
    /// one logic, one queue, nothing else — the original sequential
    /// driver, kept as the oracle that defines "the same run". It stages
    /// every callback's fabric events and application events in two
    /// vectors and pushes them after the callback, fabric first.
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
            let mut fabric_stage: Vec<(SimTime, FabricEvent)> = Vec::new();
            let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
            let mut upcalls: Vec<Upcall> = Vec::new();

            if !self.initialized {
                self.initialized = true;
                let mut cx = Cx {
                    now: SimTime::ZERO,
                    fabric: &mut self.fabric,
                    sched: &mut |t, ev| fabric_stage.push((t, ev)),
                    staged_app: &mut staged_app,
                };
                self.logic.init(&mut cx);
                for (t, ev) in fabric_stage.drain(..) {
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
                            &mut |t, ev| fabric_stage.push((t, ev)),
                            &mut upcalls,
                        );
                        for up in upcalls.drain(..) {
                            let mut cx = Cx {
                                now,
                                fabric: &mut self.fabric,
                                sched: &mut |t, ev| fabric_stage.push((t, ev)),
                                staged_app: &mut staged_app,
                            };
                            self.logic.on_upcall(up, &mut cx);
                        }
                    }
                    Ev::App(ae) => {
                        let mut cx = Cx {
                            now,
                            fabric: &mut self.fabric,
                            sched: &mut |t, ev| fabric_stage.push((t, ev)),
                            staged_app: &mut staged_app,
                        };
                        self.logic.on_app(ae, &mut cx);
                    }
                }
                for (t, ev) in fabric_stage.drain(..) {
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

    /// A pair of nodes playing ping-pong `max_rounds` times: `b`
    /// answers the first `max_rounds` pings it receives, `a` keeps the
    /// rally going until it has collected `max_rounds` pongs.
    struct PingPong {
        a_qp: QpId,
        b_qp: QpId,
        mr_a: MrId,
        mr_b: MrId,
        pings: u32,
        pongs: u32,
        max_rounds: u32,
        timer_fired: bool,
    }

    enum PpEv {
        Kick,
        Timer,
    }

    impl PingPong {
        fn write<A>(cx: &mut Cx<'_, A>, qp: QpId, mr: MrId, msg: &'static [u8]) {
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
                    if self.pings < self.max_rounds {
                        self.pings += 1;
                        Self::write(cx, self.b_qp, self.mr_a, b"pong");
                    }
                } else if mr == self.mr_a {
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

    fn build_pair(fabric: &mut Fabric, max_rounds: u32) -> PingPong {
        let nb = fabric.add_node("b");
        let na = fabric.add_node("a");
        let mr_a = fabric.register_mr(na, 64).unwrap();
        let mr_b = fabric.register_mr(nb, 64).unwrap();
        let cq_a = fabric.create_cq(na).unwrap();
        let cq_b = fabric.create_cq(nb).unwrap();
        let a_qp = fabric.create_qp(na, Transport::Rc, cq_a, cq_a).unwrap();
        let b_qp = fabric.create_qp(nb, Transport::Rc, cq_b, cq_b).unwrap();
        fabric.connect(a_qp, b_qp).unwrap();
        PingPong {
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
    fn new_sequential_matches_sim_exactly() {
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 10);
        let mut sim = ShardedSim::new_sequential(fabric, logic);
        let events = sim.run_sequential(SimTime::MAX);

        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, 10);
        let mut seq_sim = Sim::new(fabric, logic);
        assert_eq!(events, seq_sim.run_to_quiescence());
        assert_eq!(sim.logic(0).pongs, 10);
        assert_eq!(sim.events(), events);
    }

    /// Posts a write and, in the same callback, stages a timer for the
    /// instant the transmit engine picks that WQE up — before the post on
    /// odd rounds, after it on even ones. The timer records whether the
    /// engine has run by then, which it has iff the fabric event and the
    /// timer kept their same-instant order: fabric before application.
    struct Probe {
        qp: QpId,
        node: NodeId,
        mr_b: MrId,
        rounds: u32,
        posted: u32,
        tx_busy_at_post: SimDuration,
        tx_ran: Vec<bool>,
        log: Vec<(SimTime, &'static str)>,
    }

    enum ProbeEv {
        Kick,
        Check,
    }

    impl Probe {
        fn probe(&mut self, cx: &mut Cx<'_, ProbeEv>) {
            self.tx_busy_at_post = cx.fabric.nic_busy(self.node).unwrap().0;
            let pickup = cx.now + cx.fabric.params().doorbell_latency;
            let timer_first = self.posted % 2 == 1;
            if timer_first {
                cx.at(pickup, ProbeEv::Check);
            }
            PingPong::write(cx, self.qp, self.mr_b, b"probe");
            if !timer_first {
                cx.at(pickup, ProbeEv::Check);
            }
            self.posted += 1;
        }
    }

    impl Logic for Probe {
        type Ev = ProbeEv;

        fn init(&mut self, cx: &mut Cx<'_, ProbeEv>) {
            cx.at(SimTime::ZERO, ProbeEv::Kick);
        }

        fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, ProbeEv>) {
            self.log.push((cx.now, "upcall"));
            if matches!(up, Upcall::MemWrite { mr, .. } if mr == self.mr_b)
                && self.posted < self.rounds
            {
                self.probe(cx);
            }
        }

        fn on_app(&mut self, ev: ProbeEv, cx: &mut Cx<'_, ProbeEv>) {
            match ev {
                ProbeEv::Kick => {
                    self.log.push((cx.now, "kick"));
                    self.probe(cx);
                }
                ProbeEv::Check => {
                    self.log.push((cx.now, "check"));
                    let busy = cx.fabric.nic_busy(self.node).unwrap().0;
                    self.tx_ran.push(busy > self.tx_busy_at_post);
                }
            }
        }
    }

    fn build_probe(fabric: &mut Fabric, rounds: u32) -> Probe {
        let pair = build_pair(fabric, rounds);
        Probe {
            qp: pair.a_qp,
            node: fabric.qp_node(pair.a_qp).unwrap(),
            mr_b: pair.mr_b,
            rounds,
            posted: 0,
            tx_busy_at_post: SimDuration::ZERO,
            tx_ran: Vec::new(),
            log: Vec::new(),
        }
    }

    #[test]
    fn fabric_events_keep_their_place_before_same_instant_app_events() {
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_probe(&mut fabric, 6);
        let mut sim = ShardedSim::new_sequential(fabric, logic);
        let events = sim.run_sequential_to_quiescence();

        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_probe(&mut fabric, 6);
        let mut reference = Sim::new(fabric, logic);
        assert_eq!(events, reference.run_to_quiescence());

        let (got, want) = (sim.logic(0), &reference.logic);
        assert_eq!(want.tx_ran, [true; 6], "the oracle itself");
        assert_eq!(got.tx_ran, want.tx_ran);
        assert_eq!(got.log, want.log);
    }

    fn sequential(max_rounds: u32) -> ShardedSim<PingPong> {
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = build_pair(&mut fabric, max_rounds);
        ShardedSim::new_sequential(fabric, logic)
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let mut sim = sequential(10);
        sim.run_sequential_to_quiescence();
        assert_eq!(sim.logic(0).pongs, 10);
        assert!(sim.logic(0).timer_fired);
        let mr_a = sim.logic(0).mr_a;
        assert_eq!(
            &*sim.fabric(0).mr(mr_a).unwrap().read(0, 4).unwrap(),
            b"pong"
        );
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
