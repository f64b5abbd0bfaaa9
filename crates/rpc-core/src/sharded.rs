//! The simulation engine.
//!
//! [`ShardedSim`] is the one simulation engine: one [`EventQueue`], one
//! fabric, one logic, and one event loop ([`ShardedSim::run_sequential`])
//! — pop the earliest event, hand it to the fabric or the logic, push
//! what that staged. Every workload in the repository is a hub (N
//! clients, one to three servers, every RPC crossing the client/server
//! boundary twice), so there is nothing to partition inside a run; the
//! tests below hold the loop event-for-event to a reference
//! single-queue engine.
//!
//! There is deliberately no multi-threaded mode. The conservative-window
//! engine that ran partitions that talk lost to this loop by 2.6–141×,
//! and the isolated mode that ran partitions that never talk was eight
//! separate simulations under one name — which
//! `scalerpc_bench::runner::parallel_map` already spreads over every
//! core for every figure sweep (DESIGN.md §10).

use rdma_fabric::{Fabric, FabricEvent, NodeId, Upcall};
use simcore::stats::CounterSet;
use simcore::{EventQueue, SimDuration, SimTime};

use crate::driver::{Cx, Ev, Logic};
use crate::metrics::Window;

/// How long every [`ShardedSim::replay`] runs past its measured window.
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
    /// below). Runs `logic.init` and queues what it staged, the fabric
    /// stage before the app stage.
    pub fn new_sequential(mut fabric: Fabric, mut logic: L) -> Self {
        let mut staged_fabric: Vec<(SimTime, FabricEvent)> = Vec::new();
        let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
        logic.init(&mut Cx {
            now: SimTime::ZERO,
            fabric: &mut fabric,
            staged_fabric: &mut staged_fabric,
            staged_app: &mut staged_app,
        });
        let mut queue = EventQueue::new();
        for (t, fe) in staged_fabric {
            queue.push(t, Ev::Fabric(fe));
        }
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
        let mut staged_fabric: Vec<(SimTime, FabricEvent)> = Vec::new();
        let mut staged_app: Vec<(SimTime, L::Ev)> = Vec::new();
        let mut upcalls: Vec<Upcall> = Vec::new();
        let mut pops = 0u64;
        while let Some((now, ev)) = self.queue.pop_at_or_before(deadline) {
            pops += 1;
            self.process_event(now, ev, &mut staged_fabric, &mut staged_app, &mut upcalls);
            for (t, fe) in staged_fabric.drain(..) {
                self.queue.push(t, Ev::Fabric(fe));
            }
            for (t, ae) in staged_app.drain(..) {
                self.queue.push(t, Ev::App(ae));
            }
        }
        self.events += pops;
        pops
    }

    /// Hands one popped event to the fabric or the logic, leaving
    /// everything it schedules in the staged vectors. A function of its
    /// own on purpose: written out inside the loop, the same code replayed
    /// RawWrite and ScaleRPC 8.5 % slower (EXPERIMENTS.md, PR 23).
    fn process_event(
        &mut self,
        now: SimTime,
        ev: Ev<L::Ev>,
        staged_fabric: &mut Vec<(SimTime, FabricEvent)>,
        staged_app: &mut Vec<(SimTime, L::Ev)>,
        upcalls: &mut Vec<Upcall>,
    ) {
        let ShardedSim { fabric, logic, .. } = self;
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

    /// Runs until the queue is empty.
    pub fn run_sequential_to_quiescence(&mut self) -> u64 {
        self.run_sequential(SimTime::MAX)
    }

    /// The one replay: warm-up, the measured `window`, then [`DRAIN`]
    /// for in-flight work to complete. Returns the fabric counters of
    /// `servers` over the window alone, summed: they are read at its two
    /// edges (reading never perturbs the run), so warm-up and drain
    /// traffic stay out of window rates.
    pub fn replay(&mut self, window: Window, servers: &[NodeId]) -> CounterSet {
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
        self.run_sequential(window.end + DRAIN);
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
    use rdma_fabric::{FabricParams, MrId, QpId, RemoteAddr, Transport, WorkRequest};

    /// The reference engine the loop is compared against: one fabric,
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
