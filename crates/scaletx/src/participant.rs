//! The participant (storage server) side of ScaleTX.
//!
//! Each participant hosts one shard of the MICA-style KV store, laid out
//! inside a registered memory region so coordinators can validate and
//! commit with one-sided verbs. The RPC handler implements the
//! server-side halves of the protocol phases.

use crate::proto::{self, ExecItemView, TxRequestView};
use bytes::Bytes;
use mica_kv::{item, KvTable};
use rdma_fabric::{Fabric, MrId, NodeId};
use rpc_core::cluster::ClientId;
use rpc_core::transport::ServerHandler;
use simcore::SimDuration;

/// Per-phase CPU costs at the participant.
#[derive(Clone, Copy, Debug)]
pub struct TxCosts {
    /// Per Execute item: index lookup + value copy (+ lock CAS).
    pub exec_item: SimDuration,
    /// Per Validate item: version compare.
    pub validate_item: SimDuration,
    /// Log append base cost.
    pub log_base: SimDuration,
    /// Log append cost per record byte.
    pub log_per_byte: SimDuration,
    /// Per Commit item (RPC path).
    pub commit_item: SimDuration,
    /// Per Unlock key.
    pub unlock_key: SimDuration,
}

impl Default for TxCosts {
    fn default() -> Self {
        TxCosts {
            // Realistic OCC participant work: hash lookup + version/lock
            // manipulation + value copy per item, persistent-log append,
            // in-place commit. These magnitudes put the aggregate server
            // capacity (3 servers x 10 workers) in the paper's regime,
            // where ScaleTX is participant-bound rather than bound by its
            // own group duty cycle.
            exec_item: SimDuration::nanos(900),
            validate_item: SimDuration::nanos(350),
            log_base: SimDuration::nanos(1_000),
            log_per_byte: SimDuration::nanos(3),
            commit_item: SimDuration::nanos(1_000),
            unlock_key: SimDuration::nanos(300),
        }
    }
}

/// One shard server.
pub struct TxParticipant {
    /// The shard's index.
    pub table: KvTable,
    /// The registered region holding the items.
    pub kv_mr: MrId,
    /// Cost model.
    pub costs: TxCosts,
    /// Redo-log bytes appended (the log itself is modelled by cost only).
    pub log_bytes: u64,
    /// RPC-path commits executed.
    pub rpc_commits: u64,
    /// Lock conflicts observed.
    pub lock_conflicts: u64,
    /// Item offsets of the Execute request being served (scratch, kept
    /// for its capacity).
    found: Vec<usize>,
}

impl TxParticipant {
    /// Creates a shard with `capacity` value slots of `value_size` bytes,
    /// registering its region on `node`.
    pub fn new(
        fabric: &mut Fabric,
        node: NodeId,
        capacity: u32,
        value_size: usize,
    ) -> TxParticipant {
        let table = KvTable::new(capacity, value_size);
        let kv_mr = fabric
            .register_mr(node, table.required_bytes())
            .expect("kv region");
        TxParticipant {
            table,
            kv_mr,
            costs: TxCosts::default(),
            log_bytes: 0,
            rpc_commits: 0,
            lock_conflicts: 0,
            found: Vec::new(),
        }
    }

    /// Loads `keys`, strictly ascending, each with the initial `value`
    /// (setup phase; free of charge). See [`KvTable::load`].
    pub fn load(
        &mut self,
        fabric: &mut Fabric,
        keys: impl IntoIterator<Item = u64, IntoIter: Clone>,
        value: &[u8],
    ) {
        let mem = fabric.mr_mut(self.kv_mr).expect("kv region").as_mut_slice();
        self.table.load(mem, keys, value).expect("preload fits");
    }

    /// Reads a value directly (test/verification helper).
    pub fn peek<'a>(&self, fabric: &'a Fabric, key: u64) -> Option<item::ItemRef<'a>> {
        let mem = fabric.mr(self.kv_mr).expect("kv region").as_slice();
        self.table.get(mem, key).ok()
    }
}

impl ServerHandler for TxParticipant {
    fn handle(
        &mut self,
        _client: ClientId,
        request: &[u8],
        fabric: &mut Fabric,
    ) -> (Bytes, SimDuration) {
        let Some(req) = TxRequestView::decode(request) else {
            return (proto::ok_response(), SimDuration::nanos(150));
        };
        let kv_mr = self.kv_mr;
        let mem = fabric.mr_mut(kv_mr).expect("kv region").as_mut_slice();
        match req {
            TxRequestView::Execute { txid, items } => {
                let cost = self.costs.exec_item * items.len().max(1) as u64;
                // `txid + 1` avoids the 0 = unlocked sentinel; no wrapping to it.
                let Some(owner) = txid.checked_add(1) else {
                    return (proto::execute_response(false, std::iter::empty()), cost);
                };
                self.found.clear();
                for (key, lock) in items {
                    let found = if lock {
                        let locked = self.table.try_lock(mem, key, owner);
                        self.lock_conflicts += locked.is_err() as u64;
                        locked.ok()
                    } else {
                        self.table.lookup(mem, key)
                    };
                    let Some(off) = found else { break };
                    self.found.push(off);
                }
                if self.found.len() < items.len() {
                    // Roll back the locks taken within this request:
                    // the flagged items ahead of the one that failed.
                    for (key, lock) in items.take(self.found.len()) {
                        if lock {
                            let _ = self.table.unlock(mem, key, owner);
                        }
                    }
                    return (proto::execute_response(false, std::iter::empty()), cost);
                }
                // Each value goes from the region into the response once.
                let mem = &*mem;
                let found = items.zip(&self.found).map(|((key, _), &off)| {
                    let it = item::read_item(mem, off);
                    ExecItemView {
                        key,
                        ok: true,
                        value: it.value,
                        version: it.version,
                        item_off: off as u64,
                    }
                });
                (proto::execute_response(true, found), cost)
            }
            TxRequestView::Validate { mut items } => {
                let cost = self.costs.validate_item * items.len().max(1) as u64;
                let ok = items.all(|(key, expect)| {
                    self.table
                        .lookup(mem, key)
                        .is_some_and(|off| item::read_version(mem, off) == expect)
                });
                (proto::validate_response(ok), cost)
            }
            TxRequestView::Log { records, .. } => {
                let bytes: usize = records.map(|(_, v)| v.len() + 16).sum();
                self.log_bytes += bytes as u64;
                let cost = self.costs.log_base + self.costs.log_per_byte * bytes as u64;
                (proto::ok_response(), cost)
            }
            TxRequestView::Commit { items, .. } => {
                let cost = self.costs.commit_item * items.len().max(1) as u64;
                for (key, value) in items {
                    // An item the table refuses is skipped, as Unlock's are.
                    self.rpc_commits += self.table.commit_local(mem, key, value).is_ok() as u64;
                }
                (proto::ok_response(), cost)
            }
            TxRequestView::Unlock { txid, keys } => {
                let cost = self.costs.unlock_key * keys.len().max(1) as u64;
                if let Some(owner) = txid.checked_add(1) {
                    for key in keys {
                        let _ = self.table.unlock(mem, key, owner);
                    }
                }
                (proto::ok_response(), cost)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::oracle::{TxRequest, TxResponse};
    use rdma_fabric::FabricParams;

    fn setup() -> (Fabric, TxParticipant) {
        let mut fabric = Fabric::new(FabricParams::default());
        let node = fabric.add_node("p0");
        let mut p = TxParticipant::new(&mut fabric, node, 128, 8);
        p.load(&mut fabric, 0..10, &100i64.to_le_bytes());
        (fabric, p)
    }

    fn exec(
        p: &mut TxParticipant,
        fabric: &mut Fabric,
        txid: u64,
        items: Vec<(u64, bool)>,
    ) -> TxResponse {
        let req = TxRequest::Execute { txid, items }.encode();
        let (resp, _) = p.handle(0, &req, fabric);
        TxResponse::decode(&resp).unwrap()
    }

    #[test]
    fn execute_reads_and_locks() {
        let (mut fabric, mut p) = setup();
        let resp = exec(&mut p, &mut fabric, 7, vec![(1, false), (2, true)]);
        let TxResponse::Execute { all_ok, items } = resp else {
            panic!("wrong response kind");
        };
        assert!(all_ok);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].value, 100i64.to_le_bytes());
        // Key 2 is now locked by txid 7.
        assert_eq!(p.peek(&fabric, 2).unwrap().lock, 8);
        assert_eq!(p.peek(&fabric, 1).unwrap().lock, 0);
    }

    #[test]
    fn conflicting_locks_roll_back() {
        let (mut fabric, mut p) = setup();
        exec(&mut p, &mut fabric, 1, vec![(2, true)]);
        // Tx 2 wants keys 3 and 2; 2 is held, so 3 must be rolled back.
        let resp = exec(&mut p, &mut fabric, 2, vec![(3, true), (2, true)]);
        assert_eq!(
            resp,
            TxResponse::Execute {
                all_ok: false,
                items: vec![]
            }
        );
        assert_eq!(p.peek(&fabric, 3).unwrap().lock, 0, "rolled back");
        assert_eq!(p.peek(&fabric, 2).unwrap().lock, 2, "still held by tx 1");
        assert_eq!(p.lock_conflicts, 1);
    }

    #[test]
    fn validate_detects_version_change() {
        let (mut fabric, mut p) = setup();
        let req = TxRequest::Validate {
            items: vec![(1, 1)],
        }
        .encode();
        let (resp, _) = p.handle(0, &req, &mut fabric);
        assert_eq!(
            TxResponse::decode(&resp),
            Some(TxResponse::Validate { ok: true })
        );
        // Commit a change, validation against the old version now fails.
        let commit = TxRequest::Commit {
            txid: 0,
            items: vec![(1, 200i64.to_le_bytes().to_vec())],
        }
        .encode();
        p.handle(0, &commit, &mut fabric);
        let (resp, _) = p.handle(0, &req, &mut fabric);
        assert_eq!(
            TxResponse::decode(&resp),
            Some(TxResponse::Validate { ok: false })
        );
    }

    #[test]
    fn commit_installs_and_unlocks() {
        let (mut fabric, mut p) = setup();
        exec(&mut p, &mut fabric, 5, vec![(4, true)]);
        let commit = TxRequest::Commit {
            txid: 5,
            items: vec![(4, 777i64.to_le_bytes().to_vec())],
        }
        .encode();
        p.handle(0, &commit, &mut fabric);
        let it = p.peek(&fabric, 4).unwrap();
        assert_eq!(it.value, 777i64.to_le_bytes());
        assert_eq!(it.lock, 0);
        assert_eq!(it.version, 2);
    }

    #[test]
    fn unlock_releases_only_owner() {
        let (mut fabric, mut p) = setup();
        exec(&mut p, &mut fabric, 3, vec![(6, true)]);
        // Wrong owner: no-op.
        let bad = TxRequest::Unlock {
            txid: 9,
            keys: vec![6],
        }
        .encode();
        p.handle(0, &bad, &mut fabric);
        assert_eq!(p.peek(&fabric, 6).unwrap().lock, 4);
        let good = TxRequest::Unlock {
            txid: 3,
            keys: vec![6],
        }
        .encode();
        p.handle(0, &good, &mut fabric);
        assert_eq!(p.peek(&fabric, 6).unwrap().lock, 0);
    }

    fn lock_words(p: &TxParticipant, fabric: &Fabric) -> Vec<u64> {
        (0..10).map(|k| p.peek(fabric, k).unwrap().lock).collect()
    }

    #[test]
    fn txid_without_an_owner_touches_no_lock_word() {
        let (mut fabric, mut p) = setup();
        // Key 2 held by tx u64::MAX - 1, whose owner word is u64::MAX.
        exec(&mut p, &mut fabric, u64::MAX - 1, vec![(2, true)]);
        let before = lock_words(&p, &fabric);
        assert_eq!(before[2], u64::MAX);
        // `u64::MAX + 1` would wrap to 0, the unlocked sentinel.
        let resp = exec(&mut p, &mut fabric, u64::MAX, vec![(1, true), (3, false)]);
        assert_eq!(
            resp,
            TxResponse::Execute {
                all_ok: false,
                items: vec![]
            }
        );
        let unlock = TxRequest::Unlock {
            txid: u64::MAX,
            keys: vec![1, 2, 999],
        }
        .encode();
        p.handle(0, &unlock, &mut fabric);
        assert_eq!(lock_words(&p, &fabric), before);
        assert_eq!(p.lock_conflicts, 0);
    }

    #[test]
    fn commit_skips_a_key_the_table_does_not_hold() {
        let (mut fabric, mut p) = setup();
        let value = |v: i64| v.to_le_bytes().to_vec();
        let commit = TxRequest::Commit {
            txid: 1,
            items: vec![(4, value(41)), (999, value(42)), (5, value(43))],
        }
        .encode();
        let (resp, _) = p.handle(0, &commit, &mut fabric);
        assert_eq!(TxResponse::decode(&resp), Some(TxResponse::Ok));
        assert_eq!(p.peek(&fabric, 4).unwrap().value, value(41));
        assert_eq!(p.peek(&fabric, 5).unwrap().value, value(43));
        assert!(p.peek(&fabric, 999).is_none());
        assert_eq!(p.rpc_commits, 2);
    }

    #[test]
    fn log_accumulates_bytes_and_cost() {
        let (mut fabric, mut p) = setup();
        let req = TxRequest::Log {
            txid: 1,
            records: vec![(1, vec![0; 8]), (2, vec![0; 8])],
        }
        .encode();
        let (_, cost) = p.handle(0, &req, &mut fabric);
        assert_eq!(p.log_bytes, 48);
        assert!(cost > p.costs.log_base);
    }

    #[test]
    fn missing_key_fails_execute() {
        let (mut fabric, mut p) = setup();
        let resp = exec(&mut p, &mut fabric, 1, vec![(999, false)]);
        assert_eq!(
            resp,
            TxResponse::Execute {
                all_ok: false,
                items: vec![]
            }
        );
    }
}
