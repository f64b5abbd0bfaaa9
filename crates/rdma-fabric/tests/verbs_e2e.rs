//! End-to-end verb flows through the full event pipeline.

use bytes::Bytes;
use rdma_fabric::{
    AtomicOp, Fabric, FabricEvent, FabricParams, RemoteAddr, Transport, Upcall, VerbError, Wc,
    WcOpcode, WcStatus, WorkRequest,
};
use simcore::{EventQueue, SimTime};

/// Runs the fabric until the event queue drains, collecting upcalls.
fn run(fabric: &mut Fabric, q: &mut EventQueue<FabricEvent>) -> Vec<(SimTime, Upcall)> {
    let mut out = Vec::new();
    let mut pending: Vec<(SimTime, FabricEvent)> = Vec::new();
    while let Some((t, ev)) = q.pop() {
        let mut ups = Vec::new();
        {
            let mut sched = |at: SimTime, e: FabricEvent| pending.push((at, e));
            fabric.handle(t, ev, &mut sched, &mut ups);
        }
        for (at, e) in pending.drain(..) {
            q.push(at, e);
        }
        out.extend(ups.into_iter().map(|u| (t, u)));
    }
    out
}

/// The completions `run` collected for `cq`, in delivery order.
fn completions(ups: &[(SimTime, Upcall)], cq: rdma_fabric::CqId) -> Vec<Wc> {
    ups.iter()
        .filter_map(|(_, u)| match u {
            Upcall::Completion { cq: c, wc, .. } if *c == cq => Some(*wc),
            _ => None,
        })
        .collect()
}

fn post(
    fabric: &mut Fabric,
    q: &mut EventQueue<FabricEvent>,
    now: SimTime,
    qp: rdma_fabric::QpId,
    wr: WorkRequest,
    dst: Option<rdma_fabric::QpId>,
) -> rdma_fabric::WrId {
    let mut staged = Vec::new();
    let info = {
        let mut sched = |at: SimTime, e: FabricEvent| staged.push((at, e));
        fabric
            .post(now, qp, wr, true, dst, &mut sched)
            .expect("post must succeed")
    };
    for (at, e) in staged {
        q.push(at, e);
    }
    info.wr_id
}

struct Pair {
    fabric: Fabric,
    a: rdma_fabric::QpId,
    b: rdma_fabric::QpId,
    mr_a: rdma_fabric::MrId,
    mr_b: rdma_fabric::MrId,
    cq_a: rdma_fabric::CqId,
    cq_b: rdma_fabric::CqId,
}

fn connected_pair(transport: Transport) -> Pair {
    let mut fabric = Fabric::new(FabricParams::default());
    let na = fabric.add_node("a");
    let nb = fabric.add_node("b");
    let mr_a = fabric.register_mr(na, 4096).unwrap();
    let mr_b = fabric.register_mr(nb, 4096).unwrap();
    let cq_a = fabric.create_cq(na).unwrap();
    let cq_b = fabric.create_cq(nb).unwrap();
    let a = fabric.create_qp(na, transport, cq_a, cq_a).unwrap();
    let b = fabric.create_qp(nb, transport, cq_b, cq_b).unwrap();
    if transport.is_connected() {
        fabric.connect(a, b).unwrap();
    }
    Pair {
        fabric,
        a,
        b,
        mr_a,
        mr_b,
        cq_a,
        cq_b,
    }
}

#[test]
fn rc_write_places_bytes_and_completes() {
    let mut p = connected_pair(Transport::Rc);
    let mut q = EventQueue::new();
    let wr_id = post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Write {
            data: Bytes::from_static(b"scalerpc"),
            remote: RemoteAddr::new(p.mr_b, 100),
            imm: None,
        },
        None,
    );
    let ups = run(&mut p.fabric, &mut q);
    // Remote memory holds the payload.
    assert_eq!(
        &*p.fabric.mr(p.mr_b).unwrap().read(100, 8).unwrap(),
        b"scalerpc"
    );
    // A MemWrite hint fired at the destination.
    assert!(ups.iter().any(|(_, u)| matches!(
        u,
        Upcall::MemWrite { mr, offset: 100, len: 8, .. } if *mr == p.mr_b
    )));
    // The requester got a successful RDMA-write completion.
    let wcs = completions(&ups, p.cq_a);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].wr_id, wr_id);
    assert_eq!(wcs[0].opcode, WcOpcode::RdmaWrite);
    assert_eq!(wcs[0].status, WcStatus::Success);
    // RC completion arrives only after the round trip: a few microseconds.
    let done = ups
        .iter()
        .filter(|(_, u)| matches!(u, Upcall::Completion { .. }))
        .map(|(t, _)| *t)
        .max()
        .unwrap();
    assert!(done.as_nanos() > 1_000, "completion too early: {done}");
}

#[test]
fn rc_write_latency_is_single_digit_micros() {
    let mut p = connected_pair(Transport::Rc);
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Write {
            data: Bytes::from_static(&[7; 32]),
            remote: RemoteAddr::new(p.mr_b, 0),
            imm: None,
        },
        None,
    );
    let ups = run(&mut p.fabric, &mut q);
    let deliver = ups
        .iter()
        .find(|(_, u)| matches!(u, Upcall::MemWrite { .. }))
        .map(|(t, _)| *t)
        .unwrap();
    // One-way small write lands within ~0.5–3 us.
    assert!(
        (500..3_000).contains(&deliver.as_nanos()),
        "one-way delivery at {deliver}"
    );
}

#[test]
fn ud_send_needs_posted_recv() {
    let mut p = connected_pair(Transport::Ud);
    let mut q = EventQueue::new();
    // First send: no recv posted — must be dropped silently.
    post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Send {
            data: Bytes::from_static(b"lost"),
            imm: None,
        },
        Some(p.b),
    );
    let ups = run(&mut p.fabric, &mut q);
    let nb = p.fabric.qp_node(p.b).unwrap();
    assert_eq!(p.fabric.counters(nb).unwrap().get("UdDrops"), 1);
    // The sender still completes locally (unreliable).
    assert_eq!(completions(&ups, p.cq_a).len(), 1);
    assert!(completions(&ups, p.cq_b).is_empty());

    // Now with a posted recv the message arrives with source info.
    p.fabric.post_recv(p.b, p.mr_b, 0, 256).unwrap();
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime(10_000),
        p.a,
        WorkRequest::Send {
            data: Bytes::from_static(b"found"),
            imm: Some(42),
        },
        Some(p.b),
    );
    let ups = run(&mut p.fabric, &mut q);
    let wcs = completions(&ups, p.cq_b);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].opcode, WcOpcode::Recv);
    assert_eq!(wcs[0].byte_len, 5);
    assert_eq!(wcs[0].imm, Some(42));
    assert_eq!(wcs[0].src_qp, Some(p.a));
    assert_eq!(&*p.fabric.mr(p.mr_b).unwrap().read(0, 5).unwrap(), b"found");
}

#[test]
fn ud_rejects_one_sided_and_oversize() {
    let mut p = connected_pair(Transport::Ud);
    let mut sched = |_: SimTime, _: FabricEvent| {};
    let err = p
        .fabric
        .post(
            SimTime::ZERO,
            p.a,
            WorkRequest::Write {
                data: Bytes::from_static(b"x"),
                remote: RemoteAddr::new(p.mr_b, 0),
                imm: None,
            },
            true,
            Some(p.b),
            &mut sched,
        )
        .unwrap_err();
    assert!(matches!(err, VerbError::UnsupportedVerb { .. }));

    let err = p
        .fabric
        .post(
            SimTime::ZERO,
            p.a,
            WorkRequest::Send {
                data: Bytes::from(vec![0u8; 5000]),
                imm: None,
            },
            true,
            Some(p.b),
            &mut sched,
        )
        .unwrap_err();
    assert!(matches!(err, VerbError::MtuExceeded { mtu: 4096, .. }));

    // Missing destination on UD.
    let err = p
        .fabric
        .post(
            SimTime::ZERO,
            p.a,
            WorkRequest::Send {
                data: Bytes::from_static(b"x"),
                imm: None,
            },
            true,
            None,
            &mut sched,
        )
        .unwrap_err();
    assert_eq!(err, VerbError::MissingDestination);
}

#[test]
fn uc_supports_write_but_not_read() {
    let mut p = connected_pair(Transport::Uc);
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Write {
            data: Bytes::from_static(b"uc"),
            remote: RemoteAddr::new(p.mr_b, 0),
            imm: None,
        },
        None,
    );
    run(&mut p.fabric, &mut q);
    assert_eq!(&*p.fabric.mr(p.mr_b).unwrap().read(0, 2).unwrap(), b"uc");

    let mut sched = |_: SimTime, _: FabricEvent| {};
    let err = p
        .fabric
        .post(
            SimTime::ZERO,
            p.a,
            WorkRequest::Read {
                local_mr: p.mr_a,
                local_offset: 0,
                remote: RemoteAddr::new(p.mr_b, 0),
                len: 8,
            },
            true,
            None,
            &mut sched,
        )
        .unwrap_err();
    assert!(matches!(err, VerbError::UnsupportedVerb { .. }));
}

#[test]
fn rc_read_fetches_remote_bytes() {
    let mut p = connected_pair(Transport::Rc);
    p.fabric
        .mr_mut(p.mr_b)
        .unwrap()
        .write(64, b"version7")
        .unwrap();
    let mut q = EventQueue::new();
    let wr_id = post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Read {
            local_mr: p.mr_a,
            local_offset: 8,
            remote: RemoteAddr::new(p.mr_b, 64),
            len: 8,
        },
        None,
    );
    let ups = run(&mut p.fabric, &mut q);
    assert_eq!(
        &*p.fabric.mr(p.mr_a).unwrap().read(8, 8).unwrap(),
        b"version7"
    );
    let wcs = completions(&ups, p.cq_a);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].wr_id, wr_id);
    assert_eq!(wcs[0].opcode, WcOpcode::RdmaRead);
    assert_eq!(wcs[0].byte_len, 8);
}

/// Posts a READ of `mr_b[remote..remote + len]` into `mr_a[local..]`.
fn post_read(
    p: &mut Pair,
    q: &mut EventQueue<FabricEvent>,
    local: usize,
    remote: usize,
    len: usize,
) {
    let wr = WorkRequest::Read {
        local_mr: p.mr_a,
        local_offset: local,
        remote: RemoteAddr::new(p.mr_b, remote),
        len,
    };
    post(&mut p.fabric, q, SimTime::ZERO, p.a, wr, None);
}

#[test]
fn rc_read_returns_what_the_responder_held_when_the_request_arrived() {
    let mut p = connected_pair(Transport::Rc);
    let src =
        |p: &mut Pair, bytes: &[u8]| p.fabric.mr_mut(p.mr_b).unwrap().write(60, bytes).unwrap();
    src(&mut p, b"before-before");
    let mut q = EventQueue::new();
    post_read(&mut p, &mut q, 0, 0, 256);
    // Two events take the request through the requester's tx engine and
    // the responder's rx engine; the response is now on the wire.
    for _ in 0..2 {
        let (t, ev) = q.pop().unwrap();
        let mut staged = Vec::new();
        p.fabric
            .handle(t, ev, &mut |at, e| staged.push((at, e)), &mut Vec::new());
        for (at, e) in staged {
            q.push(at, e);
        }
    }
    src(&mut p, b"after--after-");
    p.fabric
        .mr_mut(p.mr_b)
        .unwrap()
        .write(200, b"late")
        .unwrap();
    run(&mut p.fabric, &mut q);
    let got = p.fabric.mr(p.mr_a).unwrap().read(0, 256).unwrap();
    assert_eq!(&got[60..73], b"before-before");
    assert!(got[..60].iter().chain(&got[73..]).all(|&b| b == 0));
}

#[test]
fn rc_read_zeroes_destination_lines_that_are_zero_at_the_source() {
    let mut p = connected_pair(Transport::Rc);
    p.fabric
        .mr_mut(p.mr_a)
        .unwrap()
        .write(0, &[0xFF; 1024])
        .unwrap();
    p.fabric.mr_mut(p.mr_b).unwrap().write(300, b"x").unwrap();
    let mut q = EventQueue::new();
    // Misaligned at both ends: source lines straddle destination lines.
    post_read(&mut p, &mut q, 100, 7, 512);
    run(&mut p.fabric, &mut q);
    let got = p.fabric.mr(p.mr_a).unwrap().read(0, 1024).unwrap();
    let want = p.fabric.mr(p.mr_b).unwrap().read(7, 512).unwrap();
    assert_eq!(&got[100..612], &*want);
    assert_eq!(want.iter().filter(|&&b| b != 0).count(), 1);
    assert!(got[..100].iter().chain(&got[612..]).all(|&b| b == 0xFF));
}

#[test]
fn rc_atomics_cas_and_faa() {
    let mut p = connected_pair(Transport::Rc);
    p.fabric.mr_mut(p.mr_b).unwrap().write_u64(0, 10).unwrap();
    let mut wcs = Vec::new();

    // FAA(+5): old=10, memory becomes 15.
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Atomic {
            op: AtomicOp::FetchAdd { add: 5 },
            remote: RemoteAddr::new(p.mr_b, 0),
            local_mr: p.mr_a,
            local_offset: 0,
        },
        None,
    );
    wcs.extend(completions(&run(&mut p.fabric, &mut q), p.cq_a));
    assert_eq!(p.fabric.mr(p.mr_b).unwrap().read_u64(0).unwrap(), 15);
    assert_eq!(p.fabric.mr(p.mr_a).unwrap().read_u64(0).unwrap(), 10);

    // Successful CAS(15→99).
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime(1),
        p.a,
        WorkRequest::Atomic {
            op: AtomicOp::CompareSwap {
                compare: 15,
                swap: 99,
            },
            remote: RemoteAddr::new(p.mr_b, 0),
            local_mr: p.mr_a,
            local_offset: 8,
        },
        None,
    );
    wcs.extend(completions(&run(&mut p.fabric, &mut q), p.cq_a));
    assert_eq!(p.fabric.mr(p.mr_b).unwrap().read_u64(0).unwrap(), 99);
    assert_eq!(p.fabric.mr(p.mr_a).unwrap().read_u64(8).unwrap(), 15);

    // Failed CAS leaves memory intact but returns the old value.
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime(2),
        p.a,
        WorkRequest::Atomic {
            op: AtomicOp::CompareSwap {
                compare: 1234,
                swap: 0,
            },
            remote: RemoteAddr::new(p.mr_b, 0),
            local_mr: p.mr_a,
            local_offset: 16,
        },
        None,
    );
    wcs.extend(completions(&run(&mut p.fabric, &mut q), p.cq_a));
    assert_eq!(p.fabric.mr(p.mr_b).unwrap().read_u64(0).unwrap(), 99);
    assert_eq!(p.fabric.mr(p.mr_a).unwrap().read_u64(16).unwrap(), 99);
    assert_eq!(wcs.len(), 3);
}

#[test]
fn rc_remote_oob_write_errors_back() {
    let mut p = connected_pair(Transport::Rc);
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Write {
            data: Bytes::from(vec![0u8; 64]),
            remote: RemoteAddr::new(p.mr_b, 4090), // 64 bytes won't fit
            imm: None,
        },
        None,
    );
    let ups = run(&mut p.fabric, &mut q);
    let wcs = completions(&ups, p.cq_a);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].status, WcStatus::RemoteAccessError);
    let nb = p.fabric.qp_node(p.b).unwrap();
    assert_eq!(p.fabric.counters(nb).unwrap().get("RemoteAccessErrors"), 1);
}

#[test]
fn cpu_access_is_bounds_checked_like_the_inbound_path() {
    let mut p = connected_pair(Transport::Rc);
    let nb = p.fabric.qp_node(p.b).unwrap();
    // In range, including the empty access at the very end.
    assert!(p.fabric.cpu_access(p.mr_b, 4032, 64).is_ok());
    assert!(p.fabric.cpu_access(p.mr_b, 4032, 64).is_ok());
    assert!(p.fabric.cpu_access(p.mr_b, 4096, 0).is_ok());
    let miss_rate = p.fabric.llc_miss_rate(nb).unwrap();
    assert_eq!(miss_rate, 0.5);
    // Out of range: the error `MrRef::check` gives, and the LLC
    // model is never consulted.
    for (offset, len) in [(4090, 64), (4096, 1), (1 << 40, 64), (usize::MAX, 2)] {
        let size = 4096;
        assert_eq!(
            p.fabric.cpu_access(p.mr_b, offset, len),
            Err(VerbError::OutOfBounds {
                mr: p.mr_b,
                offset,
                len,
                size
            })
        );
    }
    assert_eq!(p.fabric.llc_miss_rate(nb).unwrap(), miss_rate);
    assert_eq!(
        p.fabric.cpu_access(rdma_fabric::MrId(99), 0, 64),
        Err(VerbError::UnknownMr(rdma_fabric::MrId(99)))
    );
}

#[test]
fn write_imm_consumes_recv_and_carries_imm() {
    let mut p = connected_pair(Transport::Rc);
    p.fabric.post_recv(p.b, p.mr_b, 2048, 64).unwrap();
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Write {
            data: Bytes::from_static(b"imm-data"),
            remote: RemoteAddr::new(p.mr_b, 512),
            imm: Some(0xABCD),
        },
        None,
    );
    let ups = run(&mut p.fabric, &mut q);
    // Data goes to the write address (not the recv buffer).
    assert_eq!(
        &*p.fabric.mr(p.mr_b).unwrap().read(512, 8).unwrap(),
        b"imm-data"
    );
    let wcs = completions(&ups, p.cq_b);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].opcode, WcOpcode::RecvRdmaWithImm);
    assert_eq!(wcs[0].imm, Some(0xABCD));
    assert_eq!(p.fabric.posted_recvs(p.b).unwrap(), 0);
}

#[test]
fn rc_send_without_recv_is_rnr_error() {
    let mut p = connected_pair(Transport::Rc);
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Send {
            data: Bytes::from_static(b"x"),
            imm: None,
        },
        None,
    );
    let wcs = completions(&run(&mut p.fabric, &mut q), p.cq_a);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].status, WcStatus::RnrRetryExceeded);
}

#[test]
fn destroyed_qp_rejects_posts_and_drops_inflight() {
    let mut p = connected_pair(Transport::Rc);
    let mut q = EventQueue::new();
    post(
        &mut p.fabric,
        &mut q,
        SimTime::ZERO,
        p.a,
        WorkRequest::Write {
            data: Bytes::from_static(b"late"),
            remote: RemoteAddr::new(p.mr_b, 0),
            imm: None,
        },
        None,
    );
    // Tear down the destination while the packet is in flight.
    p.fabric.destroy_qp(p.b).unwrap();
    let wcs = completions(&run(&mut p.fabric, &mut q), p.cq_a);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].status, WcStatus::RemoteAccessError);
    // And the destination can no longer post.
    assert!(p.fabric.post_recv(p.b, p.mr_b, 0, 64).is_err());
}

#[test]
fn unsignaled_writes_complete_silently() {
    let mut p = connected_pair(Transport::Rc);
    let mut q = EventQueue::new();
    let mut staged = Vec::new();
    {
        let mut sched = |at: SimTime, e: FabricEvent| staged.push((at, e));
        p.fabric
            .post(
                SimTime::ZERO,
                p.a,
                WorkRequest::Write {
                    data: Bytes::from_static(b"quiet"),
                    remote: RemoteAddr::new(p.mr_b, 0),
                    imm: None,
                },
                false, // unsignaled
                None,
                &mut sched,
            )
            .unwrap();
    }
    for (at, e) in staged {
        q.push(at, e);
    }
    let ups = run(&mut p.fabric, &mut q);
    assert_eq!(&*p.fabric.mr(p.mr_b).unwrap().read(0, 5).unwrap(), b"quiet");
    assert!(completions(&ups, p.cq_a).is_empty());
}

#[test]
fn connect_validates_transport_and_state() {
    let mut fabric = Fabric::new(FabricParams::default());
    let n = fabric.add_node("x");
    let cq = fabric.create_cq(n).unwrap();
    let rc = fabric.create_qp(n, Transport::Rc, cq, cq).unwrap();
    let uc = fabric.create_qp(n, Transport::Uc, cq, cq).unwrap();
    let ud = fabric.create_qp(n, Transport::Ud, cq, cq).unwrap();
    assert!(fabric.connect(rc, uc).is_err()); // transport mismatch
    assert!(fabric.connect(ud, ud).is_err()); // UD never connects
    assert!(fabric.connect(rc, rc).is_err()); // self-connection
    let rc2 = fabric.create_qp(n, Transport::Rc, cq, cq).unwrap();
    fabric.connect(rc, rc2).unwrap();
    let rc3 = fabric.create_qp(n, Transport::Rc, cq, cq).unwrap();
    assert!(fabric.connect(rc, rc3).is_err()); // already connected
}

#[test]
fn outbound_thrash_shows_in_counters_and_rate() {
    // One server posting writes round-robin to many clients: beyond the
    // NIC cache capacity the QP-miss counter climbs and per-verb service
    // time grows.
    let params = FabricParams::default();
    let mut fabric = Fabric::new(params);
    let server = fabric.add_node("server");
    let cq_s = fabric.create_cq(server).unwrap();
    let n_clients = 128; // exceeds the 64-entry QP cache
    let mut server_qps = Vec::new();
    for i in 0..n_clients {
        let cn = fabric.add_node(&format!("c{i}"));
        let cqc = fabric.create_cq(cn).unwrap();
        let mrc = fabric.register_mr(cn, 4096).unwrap();
        let sqp = fabric.create_qp(server, Transport::Rc, cq_s, cq_s).unwrap();
        let cqp = fabric.create_qp(cn, Transport::Rc, cqc, cqc).unwrap();
        fabric.connect(sqp, cqp).unwrap();
        server_qps.push((sqp, mrc));
    }
    let mut q = EventQueue::new();
    let mut t = SimTime::ZERO;
    for round in 0..4 {
        for (sqp, mrc) in &server_qps {
            let _ = round;
            post(
                &mut fabric,
                &mut q,
                t,
                *sqp,
                WorkRequest::Write {
                    data: Bytes::from_static(&[1; 32]),
                    remote: RemoteAddr::new(*mrc, 0),
                    imm: None,
                },
                None,
            );
            t += simcore::SimDuration::nanos(10);
        }
    }
    run(&mut fabric, &mut q);
    let c = fabric.counters(server).unwrap();
    // Round-robin over 128 QPs with a 64-entry cache: with random
    // replacement roughly half the accesses miss.
    assert!(
        c.get("NicQpMiss") >= (n_clients + n_clients / 2) as u64,
        "NicQpMiss={} too low",
        c.get("NicQpMiss")
    );
    assert!(fabric.nic_hit_rate(server).unwrap() < 0.7);
}

#[test]
fn create_qp_rejects_a_cq_of_another_node() {
    let mut fabric = Fabric::new(FabricParams::default());
    let na = fabric.add_node("a");
    let nb = fabric.add_node("b");
    let cq_a = fabric.create_cq(na).unwrap();
    let cq_b = fabric.create_cq(nb).unwrap();
    let missing = rdma_fabric::CqId(7);
    for (send, recv, bad) in [
        (cq_b, cq_a, cq_b),
        (cq_a, cq_b, cq_b),
        (missing, cq_a, missing),
    ] {
        assert_eq!(
            fabric.create_qp(na, Transport::Rc, send, recv),
            Err(VerbError::UnknownCq(bad))
        );
    }
    assert!(fabric.create_qp(na, Transport::Rc, cq_a, cq_a).is_ok());
    assert_eq!(
        fabric.poll_cq(missing, 8).unwrap_err(),
        VerbError::UnknownCq(missing)
    );
}

/// Random RC writes, reads, fetch-and-adds and sends (each with a
/// receive posted), and UD sends, each randomly signalled and the
/// one-sided ones randomly out of bounds: every signalled request
/// and every error completes exactly once, as an upcall; an
/// unsignalled success completes silently; every send completes one
/// receive; and no CQ keeps a copy to poll.
///
/// Order is checked per queue pair within each way a completion is
/// timed: an ack (write, send), a response (read, atomic) or an
/// error. A real RC send queue completes in post order across all
/// three; the model does not, as an ack or an error can overtake an
/// earlier request's response.
#[test]
fn each_completion_is_delivered_once_in_post_order() {
    simcore::check_cases("each_completion_is_delivered_once_in_post_order", |rng| {
        let ops = rng.vec(1..40, |r| {
            (r.below(5) as u8, r.chance(0.5), r.chance(0.5), r.below(400))
        });
        let mut p = connected_pair(Transport::Rc);
        let (na, nb) = (
            p.fabric.qp_node(p.a).unwrap(),
            p.fabric.qp_node(p.b).unwrap(),
        );
        let ua = p
            .fabric
            .create_qp(na, Transport::Ud, p.cq_a, p.cq_a)
            .unwrap();
        let ub = p
            .fabric
            .create_qp(nb, Transport::Ud, p.cq_b, p.cq_b)
            .unwrap();
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        // The (qp, wr_id, opcode, status) owed to requesters, in post order.
        let mut want = Vec::new();
        let mut want_recvs = [0usize; 2];
        for (kind, signaled, oob, gap) in ops {
            now += simcore::SimDuration::nanos(gap);
            let oob = oob && kind < 3;
            let remote = |offset| RemoteAddr::new(p.mr_b, if oob { 4096 } else { offset });
            let (qp, dst, wr, opcode) = match kind {
                0 => {
                    let data = Bytes::from_static(&[3; 48]);
                    let wr = WorkRequest::Write {
                        data,
                        remote: remote(256),
                        imm: None,
                    };
                    (p.a, None, wr, WcOpcode::RdmaWrite)
                }
                1 => {
                    let wr = WorkRequest::Read {
                        local_mr: p.mr_a,
                        local_offset: 512,
                        remote: remote(128),
                        len: 64,
                    };
                    (p.a, None, wr, WcOpcode::RdmaRead)
                }
                2 => {
                    let wr = WorkRequest::Atomic {
                        op: AtomicOp::FetchAdd { add: 1 },
                        remote: remote(0),
                        local_mr: p.mr_a,
                        local_offset: 0,
                    };
                    (p.a, None, wr, WcOpcode::Atomic)
                }
                3 | 4 => {
                    let (qp, peer, dst) = if kind == 3 {
                        (p.a, p.b, None)
                    } else {
                        (ua, ub, Some(ub))
                    };
                    p.fabric.post_recv(peer, p.mr_b, 1024, 64).unwrap();
                    want_recvs[usize::from(kind - 3)] += 1;
                    let wr = WorkRequest::Send {
                        data: Bytes::from_static(b"ping"),
                        imm: None,
                    };
                    (qp, dst, wr, WcOpcode::Send)
                }
                _ => unreachable!(),
            };
            let mut staged = Vec::new();
            let info = p
                .fabric
                .post(now, qp, wr, signaled, dst, &mut |at, e| {
                    staged.push((at, e))
                })
                .unwrap();
            for (at, e) in staged {
                q.push(at, e);
            }
            let status = if oob {
                WcStatus::RemoteAccessError
            } else {
                WcStatus::Success
            };
            if signaled || oob {
                want.push((qp, info.wr_id, opcode, status));
            }
        }
        let ups = run(&mut p.fabric, &mut q);
        let sent: Vec<_> = completions(&ups, p.cq_a)
            .iter()
            .map(|wc| (wc.qp, wc.wr_id, wc.opcode, wc.status))
            .collect();
        let timed_by = |&(_, _, opcode, status): &(_, _, WcOpcode, WcStatus)| match opcode {
            _ if status != WcStatus::Success => 0,
            WcOpcode::RdmaWrite | WcOpcode::Send => 1,
            _ => 2,
        };
        for qp in [p.a, ua] {
            for class in 0..3 {
                let of = |v: &[(_, _, _, _)]| {
                    let mine = v.iter().filter(|c| c.0 == qp && timed_by(c) == class);
                    mine.copied().collect::<Vec<_>>()
                };
                assert_eq!(of(&sent), of(&want));
            }
        }
        assert_eq!(sent.len(), want.len());
        let recvs = completions(&ups, p.cq_b);
        for (qp, want) in [(p.b, want_recvs[0]), (ub, want_recvs[1])] {
            let got = recvs.iter().filter(|wc| wc.qp == qp);
            let ok = |wc: &&Wc| wc.opcode == WcOpcode::Recv && wc.status == WcStatus::Success;
            assert!(got.clone().all(|wc| ok(&wc)));
            assert_eq!(got.count(), want);
        }
        assert_eq!(recvs.len(), want_recvs[0] + want_recvs[1]);
        for cq in [p.cq_a, p.cq_b] {
            assert!(p.fabric.poll_cq(cq, usize::MAX).unwrap().is_empty());
        }
    });
}
