//! The metadata server as an RPC handler.

use crate::meta::MetaStore;
use crate::proto::{FsOp, FsRequest, FsResponse};
use bytes::Bytes;
use rpc_core::cluster::ClientId;
use rpc_core::transport::ServerHandler;
use simcore::SimDuration;
use std::collections::BTreeMap;

/// Wraps a [`MetaStore`] as a transport-agnostic [`ServerHandler`], so
/// the same MDS runs over ScaleRPC, SelfRPC or any baseline — the paper's
/// "only replace the RPC subsystem" port.
pub struct MdsHandler {
    /// The metadata state.
    pub store: MetaStore,
    /// Monotonic pseudo-time used for mtimes (bumped per op; the
    /// simulation clock is not visible to handlers by design).
    op_counter: u64,
    /// Per-op completed counts, for experiment reporting. A `BTreeMap`
    /// so report iteration order is deterministic: the previous
    /// `HashMap` made [`MdsHandler::report_line`]-style output differ
    /// between identical runs (each map instance draws its own
    /// `RandomState` seed), which `clippy.toml` now disallows.
    pub completed: BTreeMap<FsOp, u64>,
    /// Failed operations (duplicate creates, missing files…).
    pub failures: u64,
}

impl Default for MdsHandler {
    fn default() -> Self {
        Self::new()
    }
}

impl MdsHandler {
    /// Creates a handler over an empty store.
    pub fn new() -> Self {
        MdsHandler {
            store: MetaStore::new(),
            op_counter: 0,
            completed: Default::default(),
            failures: 0,
        }
    }

    /// Per-op completed counts in [`FsOp`] order — stable across runs
    /// and processes.
    pub fn op_report(&self) -> Vec<(FsOp, u64)> {
        self.completed.iter().map(|(&op, &n)| (op, n)).collect()
    }

    /// One-line per-op summary (`Mknod=3 Stat=5 …`), byte-identical for
    /// identical workloads regardless of request arrival order.
    pub fn report_line(&self) -> String {
        self.op_report()
            .iter()
            .map(|(op, n)| format!("{}={}", op.name(), n))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Pre-populates `files_per_dir` files in each client's directory so
    /// read-oriented runs (Stat/Readdir/Rmnod) have something to touch.
    pub fn preload(&mut self, clients: usize, files_per_dir: usize) {
        for c in 0..clients {
            for f in 0..files_per_dir {
                let path = crate::mdtest::file_path(c, f as u64);
                self.store
                    .mknod(&path, 0)
                    .0
                    .expect("preload paths are unique");
            }
        }
    }
}

impl ServerHandler for MdsHandler {
    fn handle(
        &mut self,
        _client: ClientId,
        request: &[u8],
        _fabric: &mut rdma_fabric::Fabric,
    ) -> (Bytes, SimDuration) {
        self.op_counter += 1;
        let Some(req) = FsRequest::decode(request) else {
            self.failures += 1;
            return (FsResponse::Err(0).encode(), SimDuration::nanos(200));
        };
        let (resp, cost) = match req.op {
            FsOp::Mknod => {
                let (r, cost) = self.store.mknod(&req.path, self.op_counter);
                let resp = match r {
                    Ok(_) => FsResponse::Ok,
                    Err(e) => FsResponse::Err(e.code()),
                };
                (resp, cost)
            }
            FsOp::Rmnod => {
                let (r, cost) = self.store.rmnod(&req.path);
                let resp = match r {
                    Ok(()) => FsResponse::Ok,
                    Err(e) => FsResponse::Err(e.code()),
                };
                (resp, cost)
            }
            FsOp::Stat => {
                let (r, cost) = self.store.stat(&req.path);
                let resp = match r {
                    Ok(inode) => FsResponse::Attr {
                        ino: inode.ino,
                        size: inode.size,
                        mtime: inode.mtime,
                    },
                    Err(e) => FsResponse::Err(e.code()),
                };
                (resp, cost)
            }
            FsOp::Readdir => {
                let (r, cost) = self.store.readdir(&req.path);
                let resp = match r {
                    Ok(names) => FsResponse::Entries(names),
                    Err(e) => FsResponse::Err(e.code()),
                };
                (resp, cost)
            }
        };
        if resp.is_ok() {
            *self.completed.entry(req.op).or_insert(0) += 1;
        } else {
            self.failures += 1;
        }
        (resp.encode(), cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> rdma_fabric::Fabric {
        rdma_fabric::Fabric::new(rdma_fabric::FabricParams::default())
    }

    #[test]
    fn dispatches_all_ops() {
        let mut h = MdsHandler::new();
        let mut fabric = fabric();
        let mk = FsRequest {
            op: FsOp::Mknod,
            path: "/c0/f".into(),
        };
        let (resp, cost) = h.handle(0, &mk.encode(), &mut fabric);
        assert_eq!(FsResponse::decode(&resp), Some(FsResponse::Ok));
        assert_eq!(cost, h.store.costs.mknod);

        let st = FsRequest {
            op: FsOp::Stat,
            path: "/c0/f".into(),
        };
        let (resp, _) = h.handle(0, &st.encode(), &mut fabric);
        assert!(matches!(
            FsResponse::decode(&resp),
            Some(FsResponse::Attr { .. })
        ));

        let rd = FsRequest {
            op: FsOp::Readdir,
            path: "/c0".into(),
        };
        let (resp, _) = h.handle(0, &rd.encode(), &mut fabric);
        assert_eq!(
            FsResponse::decode(&resp),
            Some(FsResponse::Entries(vec!["f".into()]))
        );

        let rm = FsRequest {
            op: FsOp::Rmnod,
            path: "/c0/f".into(),
        };
        let (resp, _) = h.handle(0, &rm.encode(), &mut fabric);
        assert_eq!(FsResponse::decode(&resp), Some(FsResponse::Ok));
        assert_eq!(h.completed.values().sum::<u64>(), 4);
        assert_eq!(h.failures, 0);
    }

    #[test]
    fn garbage_requests_fail_cheaply() {
        let mut h = MdsHandler::new();
        let mut fabric = fabric();
        let (resp, cost) = h.handle(0, b"\xFFgarbage", &mut fabric);
        assert!(matches!(
            FsResponse::decode(&resp),
            Some(FsResponse::Err(_))
        ));
        assert!(cost < SimDuration::nanos(1_000));
        assert_eq!(h.failures, 1);
    }

    #[test]
    fn preload_populates_directories() {
        let mut h = MdsHandler::new();
        h.preload(3, 10);
        assert_eq!(h.store.file_count(), 30);
        let (r, _) = h.store.stat(&crate::mdtest::file_path(2, 9));
        assert!(r.is_ok());
    }
}
