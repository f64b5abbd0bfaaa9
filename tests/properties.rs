//! Property-based tests across the workspace's wire formats and core
//! data structures.

use scalerpc_repro::mica_kv::{KvError, KvTable};
use scalerpc_repro::octofs::{FsOp, FsRequest, FsResponse};
use scalerpc_repro::rpc_core::message::{MsgBuf, RpcHeader};
use scalerpc_repro::scalerpc::client::SubmitAction;
use scalerpc_repro::scalerpc::{ClientFsm, ClientState};
use scalerpc_repro::scaletx::proto;
use scalerpc_repro::scaletx::{TxRequestView, TxResponseView};
use scalerpc_repro::simcore::stats::Histogram;
use scalerpc_repro::simcore::{check_cases, DetRng};
use std::collections::BTreeMap;

/// Naive reference state for the Fig. 7 client FSM property.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RefState {
    Idle,
    Warmup,
    Process,
}

#[test]
fn rpc_header_round_trips() {
    check_cases("rpc_header_round_trips", |rng| {
        let (call_type, flags) = (rng.edgy() as u16, rng.edgy() as u16);
        let (client_id, seq) = (rng.edgy() as u32, rng.edgy());
        let h = RpcHeader {
            call_type,
            flags,
            client_id,
            seq,
        };
        let enc = h.encode();
        let (dec, rest) = RpcHeader::decode(&enc).unwrap();
        assert_eq!(dec, h);
        assert!(rest.is_empty());
    });
}

#[test]
fn msgbuf_round_trips() {
    check_cases("msgbuf_round_trips", |rng| {
        let payload = rng.vec(0..1000, |r| r.edgy() as u8);
        let block_size = 1024usize;
        if payload.len() <= MsgBuf::capacity(block_size) {
            let (off, bytes) = MsgBuf::encode(&payload, block_size).unwrap();
            assert_eq!(off + bytes.len(), block_size);
            let mut block = vec![0u8; block_size];
            block[off..].copy_from_slice(&bytes);
            assert_eq!(MsgBuf::decode(&block).unwrap(), &payload[..]);
        } else {
            assert!(MsgBuf::encode(&payload, block_size).is_none());
        }
    });
}

#[test]
fn msgbuf_rejects_any_corruption_of_valid_byte() {
    check_cases("msgbuf_rejects_any_corruption_of_valid_byte", |rng| {
        let payload = rng.vec(1..100, |r| r.edgy() as u8);
        let corrupt = rng.edgy() as u8;
        let block_size = 256usize;
        let (off, bytes) = MsgBuf::encode(&payload, block_size).unwrap();
        let mut block = vec![0u8; block_size];
        block[off..].copy_from_slice(&bytes);
        block[block_size - 1] = corrupt;
        if corrupt == scalerpc_repro::rpc_core::message::VALID {
            assert!(MsgBuf::decode(&block).is_some());
        } else {
            assert!(MsgBuf::decode(&block).is_none());
        }
    });
}

#[test]
fn fs_request_round_trips() {
    check_cases("fs_request_round_trips", |rng| {
        let op = rng.between(1, 4) as u8;
        let path = string(rng, "abcdefghijklmnopqrstuvwxyz/", 1..41);
        let req = FsRequest {
            op: FsOp::from_code(op).unwrap(),
            path,
        };
        assert_eq!(FsRequest::decode(&req.encode()), Some(req));
    });
}

#[test]
fn fs_entries_round_trip() {
    check_cases("fs_entries_round_trip", |rng| {
        let names = rng.vec(0..30, |r| {
            string(r, "abcdefghijklmnopqrstuvwxyz0123456789._-", 0..21)
        });
        let resp = FsResponse::Entries(names);
        assert_eq!(FsResponse::decode(&resp.encode()), Some(resp));
    });
}

#[test]
fn tx_execute_round_trips() {
    check_cases("tx_execute_round_trips", |rng| {
        let txid = rng.edgy();
        let items = rng.vec(0..20, |r| (r.edgy(), r.chance(0.5)));
        let wire = proto::execute_request(txid, items.iter().copied());
        let Some(TxRequestView::Execute {
            txid: got,
            items: view,
        }) = TxRequestView::decode(&wire)
        else {
            panic!("not an Execute: {wire:?}");
        };
        assert_eq!((got, view.collect::<Vec<_>>()), (txid, items));
    });
}

#[test]
fn tx_commit_round_trips() {
    check_cases("tx_commit_round_trips", |rng| {
        let txid = rng.edgy();
        let items = rng.vec(0..10, |r| (r.edgy(), r.vec(0..64, |r| r.edgy() as u8)));
        let wire = proto::commit_request(txid, items.iter().map(|(k, v)| (*k, &v[..])));
        let Some(TxRequestView::Commit {
            txid: got,
            items: view,
        }) = TxRequestView::decode(&wire)
        else {
            panic!("not a Commit: {wire:?}");
        };
        let view: Vec<_> = view.map(|(k, v)| (k, v.to_vec())).collect();
        assert_eq!((got, view), (txid, items));
    });
}

#[test]
fn tx_response_round_trips() {
    check_cases("tx_response_round_trips", |rng| {
        let ok = rng.chance(0.5);
        let validate = proto::validate_response(ok);
        assert!(matches!(
            TxResponseView::decode(&validate),
            Some(TxResponseView::Validate { ok: got }) if got == ok
        ));
        assert!(matches!(
            TxResponseView::decode(&proto::ok_response()),
            Some(TxResponseView::Ok)
        ));
    });
}

#[test]
fn kv_table_matches_hashmap_reference() {
    check_cases("kv_table_matches_hashmap_reference", |rng| {
        let ops = rng.vec(1..300, |r| {
            let (op, key, owner) = (r.below(5) as u8, r.below(24), r.between(1, 3));
            (op, key, owner, r.vec(0..16, |r| r.edgy() as u8))
        });
        // Eight items in 16 buckets: the table fills, and probe chains
        // run past the last bucket into the first.
        const CAPACITY: usize = 8;
        let mut table = KvTable::new(CAPACITY as u32, 16);
        let mut mem = vec![0u8; table.required_bytes()];
        // key -> (item offset, value, version, lock word)
        let mut model: BTreeMap<u64, (usize, Vec<u8>, u64, u64)> = BTreeMap::new();
        for (op, key, owner, value) in ops {
            let entry = model.get_mut(&key);
            match op {
                0 => match (table.insert(&mut mem, key, &value), entry) {
                    (Ok(off), Some(e)) => {
                        assert_eq!(off, e.0);
                        (e.1, e.2) = (value, e.2 + 1);
                    }
                    (Ok(off), None) => {
                        assert!(model.len() < CAPACITY);
                        model.insert(key, (off, value, 1, 0));
                    }
                    (got, e) => {
                        assert_eq!(got, Err(KvError::Full));
                        assert!(e.is_none() && model.len() == CAPACITY);
                    }
                },
                1 => {
                    assert_eq!(table.lookup(&mem, key), entry.map(|e| e.0));
                    // Loaded keys are all below 24.
                    assert_eq!(table.lookup(&mem, key + 24 * owner), None);
                }
                2 => match entry {
                    Some(e) if e.3 == 0 || e.3 == owner => {
                        assert_eq!(table.try_lock(&mut mem, key, owner), Ok(e.0));
                        e.3 = owner;
                    }
                    Some(_) => {
                        assert_eq!(table.try_lock(&mut mem, key, owner), Err(KvError::Locked));
                    }
                    None => {
                        assert_eq!(table.try_lock(&mut mem, key, owner), Err(KvError::NotFound));
                    }
                },
                3 => {
                    let got = table.unlock(&mut mem, key, owner);
                    match entry {
                        Some(e) => {
                            assert_eq!(got, Ok(()));
                            if e.3 == owner {
                                e.3 = 0;
                            }
                        }
                        None => assert_eq!(got, Err(KvError::NotFound)),
                    }
                }
                _ => {
                    let got = table.commit_local(&mut mem, key, &value);
                    match entry {
                        Some(e) => {
                            assert_eq!(got, Ok(()));
                            (e.1, e.2, e.3) = (value, e.2 + 1, 0);
                        }
                        None => assert_eq!(got, Err(KvError::NotFound)),
                    }
                }
            }
        }
        for (&key, (off, value, version, lock)) in &model {
            assert_eq!(table.lookup(&mem, key), Some(*off));
            let it = table.get(&mem, key).unwrap();
            assert_eq!(
                (it.key, it.value, it.version, it.lock),
                (key, &value[..], *version, *lock)
            );
        }
        assert_eq!(table.len() as usize, model.len());
    });
}

#[test]
fn histogram_quantiles_bound_samples() {
    check_cases("histogram_quantiles_bound_samples", |rng| {
        let samples = rng.vec(1..300, |r| r.between(1, 999_999));
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= lo && v <= hi, "q{q} = {v} outside [{lo}, {hi}]");
        }
        assert_eq!(h.count(), samples.len() as u64);
    });
}

#[test]
fn windowed_client_fsm_matches_naive_queue_model() {
    check_cases("windowed_client_fsm_matches_naive_queue_model", |rng| {
        let window = rng.between(1, 8) as usize;
        let ops = rng.vec(0..200, |r| (r.edgy() as u8, r.edgy() as u8, r.chance(0.5)));
        // Reference: the Fig. 7 transitions written as a bare match over
        // an enum, plus a plain Vec as the in-flight queue. The real FSM
        // must agree with it under arbitrary submit / out-of-order
        // respond / ctx-notify interleavings.
        let mut fsm = ClientFsm::with_window(window);
        let mut ref_state = RefState::Idle;
        let mut ref_q: Vec<u64> = Vec::new();
        let mut next_seq = 0u64;
        let mut retired: Vec<u64> = Vec::new();
        for (op, pick, ctx) in ops {
            match op % 3 {
                0 => {
                    let seq = next_seq;
                    let action = fsm.submit(seq);
                    if ref_q.len() == window {
                        // Window full: refused, nothing changes.
                        assert_eq!(action, None);
                    } else {
                        next_seq += 1;
                        ref_q.push(seq);
                        let want = match ref_state {
                            RefState::Idle => {
                                ref_state = RefState::Warmup;
                                SubmitAction::StageAndPublish
                            }
                            RefState::Warmup => SubmitAction::StageOnly,
                            RefState::Process => SubmitAction::DirectWrite,
                        };
                        assert_eq!(action, Some(want));
                    }
                }
                1 => {
                    if ref_q.is_empty() {
                        // Nothing in flight: a stray (already-retired or
                        // never-submitted) seq must be rejected.
                        let bogus = retired.get(pick as usize % retired.len().max(1));
                        let seq = bogus.copied().unwrap_or(u64::MAX);
                        assert!(fsm.complete(seq, ctx).is_none());
                    } else {
                        // Responses may retire any in-flight request, in
                        // any order.
                        let idx = pick as usize % ref_q.len();
                        let seq = ref_q.remove(idx);
                        let done = fsm.complete(seq, ctx);
                        assert!(done.is_some(), "response for {seq} lost");
                        let done = done.unwrap();
                        assert_eq!(done.seq, seq);
                        // A second completion of the same seq is a
                        // duplicate and must be refused.
                        assert!(fsm.complete(seq, ctx).is_none());
                        retired.push(seq);
                        if ctx {
                            ref_state = RefState::Idle;
                        } else if ref_state == RefState::Warmup {
                            ref_state = RefState::Process;
                        }
                    }
                }
                _ => {
                    fsm.on_ctx_notify();
                    ref_state = RefState::Idle;
                    let rearmed = fsm.rearm();
                    if ref_q.is_empty() {
                        assert!(!rearmed);
                    } else {
                        assert!(rearmed);
                        ref_state = RefState::Warmup;
                    }
                }
            }
            assert_eq!(fsm.in_flight(), ref_q.len());
            assert!(fsm.in_flight() <= window);
            let want = match ref_state {
                RefState::Idle => ClientState::Idle,
                RefState::Warmup => ClientState::Warmup,
                RefState::Process => ClientState::Process,
            };
            assert_eq!(fsm.state(), want);
        }
    });
}

#[test]
fn window_one_transcript_matches_seed_fsm() {
    check_cases("window_one_transcript_matches_seed_fsm", |rng| {
        let ops = rng.vec(0..200, |r| (r.edgy() as u8, r.chance(0.5)));
        // W = 1 must behave exactly like the seed's untracked FSM driven
        // synchronously: same action on every submit, same state after
        // every event.
        let mut win = ClientFsm::with_window(1);
        let mut seed = ClientFsm::new();
        let mut in_flight = false;
        let mut seq = 0u64;
        for (op, ctx) in ops {
            match op % 3 {
                0 if !in_flight => {
                    let a = win.submit(seq);
                    let b = seed.on_submit();
                    assert_eq!(a, Some(b));
                    in_flight = true;
                }
                1 if in_flight => {
                    assert!(win.complete(seq, ctx).is_some());
                    seed.on_response(ctx);
                    in_flight = false;
                    seq += 1;
                }
                2 => {
                    win.on_ctx_notify();
                    seed.on_ctx_notify();
                    // The synchronous client never re-arms: the harness
                    // only notifies between whole batches.
                }
                _ => {}
            }
            assert_eq!(win.state(), seed.state());
        }
    });
}

#[test]
fn histogram_median_has_bounded_relative_error() {
    check_cases("histogram_median_has_bounded_relative_error", |rng| {
        let samples = rng.vec(51..200, |r| r.between(64, 999_999));
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = sorted[(sorted.len() - 1) / 2] as f64;
        let approx = h.median() as f64;
        assert!(
            (approx - exact).abs() / exact < 0.05,
            "median {approx} vs exact {exact}"
        );
    });
}

/// A string of a length in `len`, its characters drawn from `alphabet`.
fn string(rng: &mut DetRng, alphabet: &str, len: std::ops::Range<usize>) -> String {
    let alphabet = alphabet.as_bytes();
    let pick = |r: &mut DetRng| alphabet[r.below(alphabet.len() as u64) as usize] as char;
    rng.vec(len, pick).into_iter().collect()
}
