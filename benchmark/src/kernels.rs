//! Timed loops over the crates' public hot functions: what one call
//! into a layer costs the host, with nothing else running. They stand in
//! for spans inside the crates (which a later change may add) and say
//! which workload a change to the function should move; they do not
//! depend on the workload or the seed.

use crate::workloads::CHURN_CYCLES_TOML;
use rdma_fabric::llc::LlcModel;
use rdma_fabric::{
    Fabric, FabricEvent, FabricParams, MrId, NicCache, QpId, RemoteAddr, Transport, WorkRequest,
};
use rpc_core::message::{MsgBuf, RpcHeader};
use scalerpc::{ClientStats, Scheduler};
use simcore::stats::Histogram;
use simcore::{EventQueue, SimDuration, SimTime};
use simscenario::{compile, Scenario};
use std::hint::black_box;
use std::time::Instant;

/// Times `reps` runs of `iters` calls of `op` and returns the median
/// nanoseconds per call.
fn ns_per_call(reps: usize, iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[reps / 2]
}

/// Every kernel, as `(BENCHMARK.json name, value)`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    event_queue(&mut out);
    out.push(("simcore.histogram_record_ns", histogram()));
    llc(&mut out);
    nic_cache(&mut out);
    verb_roundtrip(&mut out);
    out.push(("rpc-core.msgbuf_codec_ns", msgbuf()));
    out.push(("scalerpc.replan_400_us", replan() / 1e3));
    kv(&mut out);
    scenario(&mut out);
    out
}

/// The queue held at 4 096 pending events, the depth the 400-client
/// workloads keep it at.
fn event_queue(out: &mut Vec<(&'static str, f64)>) {
    const PENDING: u64 = 4_096;
    let filled = || {
        let mut q = EventQueue::new();
        for i in 0..PENDING {
            q.push(SimTime(i * 7 % 997), i);
        }
        q
    };
    let mut q = filled();
    out.push((
        "simcore.queue_push_pop_ns",
        ns_per_call(9, 400_000, |i| {
            let (t, v) = q.pop().expect("queue stays full");
            q.push(t + SimDuration::nanos(400 + (v * 31 + i) % 2_000), v);
        }),
    ));
    // Retransmission-timer pattern: of every two events pushed one is
    // cancelled in place before it fires.
    let mut q = filled();
    out.push((
        "simcore.queue_cancel_mix_ns",
        ns_per_call(9, 200_000, |i| {
            let (t, v) = q.pop().expect("queue stays full");
            q.push(t + SimDuration::nanos(400 + (v * 31 + i) % 2_000), v);
            let timer = q.push(t + SimDuration::micros(300), v);
            black_box(q.cancel(timer));
        }),
    ));
}

fn histogram() -> f64 {
    let mut h = Histogram::new();
    let mut v = 1u64;
    ns_per_call(9, 2_000_000, |_| {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 1_000_000;
        h.record(black_box(v));
    })
}

/// The LLC at the paper's 30 MB with a 64 MB stream, so 8 KB spans miss
/// as they do under `raw_inbound_8k_400c`; the 32 B write re-hits one
/// page set as the RPC workloads' message blocks do.
fn llc(out: &mut Vec<(&'static str, f64)>) {
    let p = FabricParams::default();
    let mut llc = LlcModel::new(p.llc_bytes, p.ddio_fraction);
    let mut off = 0usize;
    out.push((
        "rdma-fabric.llc_dma_write_8k_ns",
        ns_per_call(9, 20_000, |_| {
            off = (off + 8192) % (64 << 20);
            black_box(llc.dma_write(MrId(0), off, 8192));
        }),
    ));
    let mut llc = LlcModel::new(p.llc_bytes, p.ddio_fraction);
    out.push((
        "rdma-fabric.llc_cpu_access_8k_ns",
        ns_per_call(9, 20_000, |_| {
            off = (off + 8192) % (64 << 20);
            black_box(llc.cpu_access(MrId(0), off, 8192));
        }),
    ));
    let mut llc = LlcModel::new(p.llc_bytes, p.ddio_fraction);
    out.push((
        "rdma-fabric.llc_dma_write_32b_ns",
        ns_per_call(9, 1_000_000, |_| {
            off = (off + 4096) % (1 << 22);
            black_box(llc.dma_write(MrId(0), off, 32));
        }),
    ));
}

/// 800 connections round-robin over the NIC's QP cache (RawWrite at
/// 400 clients: every access misses) against 40 (one ScaleRPC group:
/// every access hits).
fn nic_cache(out: &mut Vec<(&'static str, f64)>) {
    let entries = FabricParams::default().nic_qp_cache_entries;
    for (name, qps) in [
        ("rdma-fabric.niccache_thrash_ns", 800u64),
        ("rdma-fabric.niccache_hot_ns", 40),
    ] {
        let mut cache = NicCache::new(entries, 0);
        out.push((
            name,
            ns_per_call(9, 1_000_000, |i| {
                black_box(cache.access(QpId((i % qps) as u32), 0));
            }),
        ));
    }
}

/// One signaled 32-byte RC write between two nodes, pumped through
/// `Fabric::post` and `Fabric::handle` with a queue of the benchmark's
/// own until the completion is in: the fabric's cost per verb with no
/// engine, driver or transport around it.
fn verb_roundtrip(out: &mut Vec<(&'static str, f64)>) {
    let mut fabric = Fabric::new(FabricParams::default());
    let (a, b) = (fabric.add_node("a"), fabric.add_node("b"));
    let mr_b = fabric.register_mr(b, 4096).expect("mr");
    let (cq_a, cq_b) = (
        fabric.create_cq(a).expect("cq"),
        fabric.create_cq(b).expect("cq"),
    );
    let qp_a = fabric.create_qp(a, Transport::Rc, cq_a, cq_a).expect("qp");
    let qp_b = fabric.create_qp(b, Transport::Rc, cq_b, cq_b).expect("qp");
    fabric.connect(qp_a, qp_b).expect("connect");
    let data = bytes::Bytes::from(vec![0x5A; 32]);
    let mut queue: EventQueue<FabricEvent> = EventQueue::new();
    let mut staged: Vec<(SimTime, FabricEvent)> = Vec::new();
    let mut upcalls = Vec::new();
    let mut events = 0u64;
    let mut verbs = 0u64;
    let ns = ns_per_call(9, 50_000, |_| {
        let now = queue.now();
        fabric
            .post(
                now,
                qp_a,
                WorkRequest::Write {
                    data: data.clone(),
                    remote: RemoteAddr::new(mr_b, 0),
                    imm: None,
                },
                true,
                None,
                &mut |t, ev| staged.push((t, ev)),
            )
            .expect("post");
        verbs += 1;
        loop {
            for (t, ev) in staged.drain(..) {
                queue.push(t, ev);
            }
            let Some((t, ev)) = queue.pop() else { break };
            events += 1;
            fabric.handle(t, ev, &mut |t, ev| staged.push((t, ev)), &mut upcalls);
            upcalls.clear();
        }
        // Nobody polls in this loop; keep the CQ from growing.
        black_box(fabric.poll_cq(cq_a, 16).expect("cq").len());
    });
    out.push(("rdma-fabric.verb_roundtrip_ns", ns));
    out.push(("rdma-fabric.events_per_verb", events as f64 / verbs as f64));
}

fn msgbuf() -> f64 {
    let header = RpcHeader {
        call_type: 1,
        flags: 0,
        client_id: 9,
        seq: 1234,
    };
    let mut payload = header.encode().to_vec();
    payload.extend_from_slice(&[7u8; 32]);
    let mut block = vec![0u8; 4096];
    ns_per_call(9, 500_000, |_| {
        let (off, bytes) = MsgBuf::encode(&payload, 4096).expect("fits");
        block[off..].copy_from_slice(&bytes);
        black_box(MsgBuf::decode(&block).map(<[u8]>::len));
    })
}

fn replan() -> f64 {
    let sched = Scheduler::new(40, SimDuration::micros(100), true);
    let stats: Vec<ClientStats> = (0..400u64)
        .map(|i| ClientStats {
            ops: (i % 50) * 10,
            bytes: 32 * ((i % 50) * 10).max(1),
        })
        .collect();
    ns_per_call(9, 2_000, |_| {
        black_box(sched.replan(&stats).groups.len());
    })
}

/// The SmallBank table of one participant (100 002 items of 8 bytes).
fn kv(out: &mut Vec<(&'static str, f64)>) {
    use mica_kv::KvTable;
    const KEYS: u64 = 100_002;
    let mut insert_ns = Vec::new();
    let mut table = KvTable::new(KEYS as u32 + 16, 8);
    let mut mem = vec![0u8; table.required_bytes()];
    for _ in 0..5 {
        table = KvTable::new(KEYS as u32 + 16, 8);
        mem.fill(0);
        let start = Instant::now();
        for k in 0..KEYS {
            table
                .insert(&mut mem, k, &1_000i64.to_le_bytes())
                .expect("capacity");
        }
        insert_ns.push(start.elapsed().as_nanos() as f64 / KEYS as f64);
    }
    insert_ns.sort_by(f64::total_cmp);
    out.push(("mica-kv.insert_ns", insert_ns[2]));
    let mut k = 0u64;
    out.push((
        "mica-kv.get_hot_ns",
        ns_per_call(9, 500_000, |_| {
            // The 4 % hot accounts take 60 % of SmallBank's accesses.
            k = (k + 7) % (KEYS / 25);
            black_box(table.get(&mem, k).expect("loaded").version);
        }),
    ));
}

fn scenario(out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "simscenario.parse_us",
        ns_per_call(9, 200, |_| {
            black_box(Scenario::parse(black_box(CHURN_CYCLES_TOML)).expect("parses"));
        }) / 1e3,
    ));
    let sc = Scenario::parse(CHURN_CYCLES_TOML).expect("parses");
    out.push((
        "simscenario.compile_us",
        ns_per_call(9, 200, |_| {
            black_box(compile(black_box(&sc)).expect("compiles"));
        }) / 1e3,
    ));
}
