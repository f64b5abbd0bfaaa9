//! mdtest-like workload generation.
//!
//! The paper's §4.1 evaluation uses the `mdtest` benchmark: every client
//! works in its own directory and issues one metadata operation type per
//! phase (create, stat, readdir, remove). [`MdtestGen`] plugs into the
//! benchmark harness as a request generator for a single-phase run.

use crate::proto::{FsOp, FsRequest};
use bytes::Bytes;
use rpc_core::cluster::ClientId;
use rpc_core::harness::RequestGen;

/// Path of file `f` in client `c`'s working directory.
pub fn file_path(client: ClientId, file: u64) -> String {
    format!("/mdtest/client-{client}/file-{file:08}")
}

/// Path of client `c`'s working directory.
pub fn dir_path(client: ClientId) -> String {
    format!("/mdtest/client-{client}")
}

/// Single-phase mdtest generator.
pub struct MdtestGen {
    /// The operation this phase issues.
    pub op: FsOp,
    /// For Stat/Rmnod: the number of preloaded files cycled through.
    pub files_per_dir: u64,
}

impl MdtestGen {
    /// Creates a generator for one phase. `files_per_dir` must match the
    /// server-side preload for read/remove phases.
    pub fn new(op: FsOp, files_per_dir: u64) -> Self {
        assert!(files_per_dir > 0, "need at least one file per directory");
        MdtestGen { op, files_per_dir }
    }
}

impl RequestGen for MdtestGen {
    fn gen(&self, client: ClientId, seq: u64) -> Bytes {
        let req = match self.op {
            // Creates use fresh names so they never collide.
            FsOp::Mknod => FsRequest {
                op: FsOp::Mknod,
                path: file_path(client, 1_000_000 + seq),
            },
            // Removes cycle over the preloaded names; once a name is
            // gone, later attempts fail with NotFound at the *same*
            // server-side cost (lookup + miss), so sustained-rate runs
            // stay representative even past one full pass.
            FsOp::Rmnod => FsRequest {
                op: FsOp::Rmnod,
                path: file_path(client, seq % self.files_per_dir),
            },
            FsOp::Stat => FsRequest {
                op: FsOp::Stat,
                path: file_path(client, seq % self.files_per_dir),
            },
            FsOp::Readdir => FsRequest {
                op: FsOp::Readdir,
                path: dir_path(client),
            },
        };
        req.encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FsRequest;

    #[test]
    fn paths_are_per_client() {
        assert_ne!(file_path(0, 1), file_path(1, 1));
        assert!(file_path(3, 7).starts_with(dir_path(3).as_str()));
    }

    #[test]
    fn generator_emits_decodable_requests() {
        let g = MdtestGen::new(FsOp::Stat, 20);
        for seq in 0..50 {
            let raw = g.gen(2, seq);
            let req = FsRequest::decode(&raw).unwrap();
            assert_eq!(req.op, FsOp::Stat);
            assert!(req.path.contains("client-2"));
        }
    }

    #[test]
    fn stat_cycles_over_preloaded_files() {
        let g = MdtestGen::new(FsOp::Stat, 4);
        let p0 = g.gen(0, 0);
        let p4 = g.gen(0, 4);
        assert_eq!(p0, p4, "seq 0 and 4 hit the same file with 4 preloaded");
    }

    #[test]
    fn mknod_names_never_collide_with_preload() {
        let g = MdtestGen::new(FsOp::Mknod, 100);
        let raw = g.gen(0, 0);
        let req = FsRequest::decode(&raw).unwrap();
        assert!(req.path.contains("file-01000000"));
    }
}
