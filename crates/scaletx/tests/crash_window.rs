//! ScaleTX over ScaleRPC while one participant crashes three times: a
//! transaction window of W outstanding transactions per coordinator must
//! drain with every slot idle and every key unlocked, with one-sided
//! validation and commit and RPC-only (where a crash can also catch a
//! Commit phase, since only there does Commit wait for answers).
//!
//! At a crash `TxSim` gives up the seqs its coordinators had toward the
//! server and tells ScaleRPC it abandoned each one, so the client window
//! stops holding them. Before it did, W = 4 and W = 8 filled that window
//! with seqs nobody awaited, and the next submit panicked.
//!
//! A Log phase that loses a record to the crash must abort, whichever
//! answer settles it last. It used to go on to Commit when a surviving
//! participant's Log response landed after the failed request: at seed
//! 32, W = 1, one-sided, one such transaction installed its writes.

use bytes::Bytes;
use rdma_fabric::{Fabric, FabricParams, MrId, QpId, Upcall};
use rpc_core::cluster::{ClientId, Cluster};
use rpc_core::driver::Cx;
use rpc_core::inject::{Injection, ScenarioSpec};
use rpc_core::transport::{ClientOverhead, LifecycleEv, OneSidedAccess, Response, RpcTransport};
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use scaletx::sim::run_scalerpc_tx_with;
use scaletx::workload::TxWorkload;
use scaletx::{TxConfig, TxParticipant, TxRequestView, TxSim};
use simcore::{DetHashMap, DetHashSet, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// 24 SmallBank coordinators over 3 servers with a window of `window`
/// transactions at `seed`, one-sided or RPC-only.
fn deployment(seed: u64, window: usize, one_sided: bool) -> (TxConfig, ScaleRpcConfig) {
    let cfg = TxConfig {
        coordinators: 24,
        servers: 3,
        client_machines: 2,
        workload: TxWorkload::smallbank(300, 3),
        one_sided,
        value_size: 8,
        keys_per_server: 300,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(5),
        seed,
        window,
        ..Default::default()
    };
    let scale_cfg = ScaleRpcConfig {
        group_size: 16,
        slots: 8,
        block_size: 2048,
        ..Default::default()
    };
    (cfg, scale_cfg)
}

/// Server 1 crashes for 200 µs at 1.5, 2.5 and 3.5 ms.
fn three_crashes() -> ScenarioSpec {
    let crash = Injection::ServerCrash {
        server: 1,
        down: SimDuration::micros(200),
    };
    let timeline = [1_500, 2_500, 3_500]
        .map(|us| (SimTime::ZERO + SimDuration::micros(us), crash))
        .to_vec();
    ScenarioSpec {
        starts: Vec::new(),
        timeline,
    }
}

/// Runs the deployment at seed 31 through the three crashes. Asserts the
/// crashes failed requests in flight and the drained run committed, and
/// left no slot busy and no key locked.
fn crash_three_times(window: usize, one_sided: bool) {
    let (cfg, scale_cfg) = deployment(31, window, one_sided);
    let sim = run_scalerpc_tx_with(cfg, scale_cfg, SimDuration::ZERO, |tx| {
        tx.set_scenario(three_crashes())
            .expect("three crashes of a participant that exists");
    });
    let tx = sim.logic(0);
    let at = format!("W = {window}, one_sided = {one_sided}");
    assert!(tx.crash_failures > 0, "no request failed at {at}");
    assert!(tx.metrics.committed > 0, "nothing committed at {at}");
    assert_eq!(tx.busy_slots(), 0, "slots stuck at {at}");
    assert_eq!(tx.locked_keys(sim.fabric(0)), 0, "keys left locked at {at}");
}

#[test]
fn window_one_drains_after_three_crashes() {
    crash_three_times(1, true);
}

#[test]
fn window_two_drains_after_three_crashes() {
    crash_three_times(2, true);
}

#[test]
fn window_four_drains_after_three_crashes() {
    crash_three_times(4, true);
}

#[test]
fn window_eight_drains_after_three_crashes() {
    crash_three_times(8, true);
}

#[test]
fn rpc_only_window_one_drains_after_three_crashes() {
    crash_three_times(1, false);
}

#[test]
fn rpc_only_window_four_drains_after_three_crashes() {
    crash_three_times(4, false);
}

/// One coordinator slot's Log phase, as the participants saw it.
#[derive(Default)]
struct LogPhase {
    /// `(server, seq)` of its Log requests still unanswered.
    open: Vec<(usize, u64)>,
    /// `(server, key)` of the records logged by participants that did not
    /// crash.
    kept: Vec<(usize, u64)>,
    /// Whether a crash lost one of its records.
    lost: bool,
}

/// What the participants of one deployment saw.
#[derive(Default)]
struct Seen {
    /// The transaction window: a seq's slot is `seq % window`.
    window: u64,
    /// Per `(coordinator, slot)`, its latest Log phase.
    logs: DetHashMap<(ClientId, u64), LogPhase>,
    /// `(server, key)` logged by a transaction whose Log phase lost a
    /// record, until a one-sided write unlocks or installs the item.
    doomed: DetHashSet<(usize, u64)>,
    /// Log phases that lost a record and settled on a surviving
    /// participant's response.
    survivor_last: usize,
    /// Writes of such transactions that a participant installed.
    installed: usize,
}

/// ScaleRPC for participant `server`, reporting what it carries to `seen`.
struct Watched {
    inner: ScaleRpc<TxParticipant>,
    server: usize,
    kv_mr: MrId,
    seen: Rc<RefCell<Seen>>,
}

impl Watched {
    /// Notes the responses the last call added to `out` from `from` on.
    fn answered(&self, out: &[Response], from: usize) {
        let seen = &mut *self.seen.borrow_mut();
        for r in &out[from..] {
            let Some(log) = seen.logs.get_mut(&(r.client, r.seq % seen.window)) else {
                continue;
            };
            let Some(i) = log.open.iter().position(|&o| o == (self.server, r.seq)) else {
                continue;
            };
            log.open.swap_remove(i);
            if log.open.is_empty() && log.lost {
                seen.survivor_last += 1;
                seen.doomed.extend(log.kept.iter().copied());
            }
        }
    }
}

impl RpcTransport for Watched {
    type Ev = <ScaleRpc<TxParticipant> as RpcTransport>::Ev;

    fn init(&mut self, cx: &mut Cx<'_, Self::Ev>) {
        self.inner.init(cx);
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Self::Ev>, out: &mut Vec<Response>) {
        if let Upcall::MemWrite {
            mr, offset, len, ..
        } = up
        {
            if mr == self.kv_mr {
                // A one-sided unlock writes the lock word, 8 bytes into
                // the item; a commit image writes the whole item.
                let mem = cx.fabric.mr(mr).expect("kv region").as_slice();
                let item_off = if len == 8 { offset - 8 } else { offset };
                let key = mica_kv::item::read_key(mem, item_off);
                let seen = &mut *self.seen.borrow_mut();
                let doomed = seen.doomed.remove(&(self.server, key));
                seen.installed += usize::from(doomed && len > 8);
            }
        }
        let from = out.len();
        self.inner.on_upcall(up, cx, out);
        self.answered(out, from);
    }

    fn on_app(&mut self, ev: Self::Ev, cx: &mut Cx<'_, Self::Ev>, out: &mut Vec<Response>) {
        let from = out.len();
        self.inner.on_app(ev, cx, out);
        self.answered(out, from);
    }

    fn submit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, Self::Ev>,
        out: &mut Vec<Response>,
    ) {
        {
            let seen = &mut *self.seen.borrow_mut();
            let slot = (client, seq % seen.window);
            match TxRequestView::decode(&payload) {
                Some(TxRequestView::Execute { .. }) => {
                    seen.logs.remove(&slot);
                }
                Some(TxRequestView::Log { records, .. }) => {
                    let log = seen.logs.entry(slot).or_default();
                    log.open.push((self.server, seq));
                    log.kept.extend(records.map(|(k, _)| (self.server, k)));
                }
                _ => {}
            }
        }
        let from = out.len();
        self.inner.submit(client, seq, payload, cx, out);
        self.answered(out, from);
    }

    fn on_lifecycle(&mut self, ev: LifecycleEv, cx: &mut Cx<'_, Self::Ev>) {
        if let LifecycleEv::Abandon { client, seq } = ev {
            let seen = &mut *self.seen.borrow_mut();
            if let Some(log) = seen.logs.get_mut(&(client, seq % seen.window)) {
                if let Some(i) = log.open.iter().position(|&o| o == (self.server, seq)) {
                    log.open.swap_remove(i);
                    log.lost = true;
                    let server = self.server;
                    log.kept.retain(|&(s, _)| s != server);
                }
            }
        }
        self.inner.on_lifecycle(ev, cx);
    }

    fn client_overhead(&self) -> ClientOverhead {
        self.inner.client_overhead()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl OneSidedAccess for Watched {
    fn client_qp(&self, client: ClientId) -> Option<QpId> {
        self.inner.client_qp(client)
    }
}

/// The deployment at seed 32, W = 1, one-sided, through the three
/// crashes, with every participant watched. Some Log phase loses a
/// record to a crash and then settles on a surviving participant's
/// response; no participant may install a write of such a transaction.
#[test]
fn a_lost_log_record_aborts_even_when_a_survivor_answers_last() {
    let (cfg, scale_cfg) = deployment(32, 1, true);
    let seen = Rc::new(RefCell::new(Seen {
        window: cfg.window as u64,
        ..Default::default()
    }));
    let mut fabric = Fabric::new(FabricParams::default());
    let mut tx = TxSim::build(&mut fabric, cfg, |fabric, cluster: &Cluster, part, s| {
        let kv_mr = part.kv_mr;
        Watched {
            inner: ScaleRpc::new(fabric, cluster, scale_cfg.clone(), part),
            server: s,
            kv_mr,
            seen: Rc::clone(&seen),
        }
    });
    tx.set_scenario(three_crashes()).expect("crashes accepted");
    let sim = tx.replay(fabric);
    assert_eq!(sim.logic(0).busy_slots(), 0, "slots stuck");
    let seen = seen.borrow();
    assert!(
        seen.survivor_last > 0,
        "no Log phase that lost a record settled on a survivor's answer"
    );
    assert_eq!(
        seen.installed, 0,
        "{} writes of transactions whose log record was lost were installed",
        seen.installed
    );
}
