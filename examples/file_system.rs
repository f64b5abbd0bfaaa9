//! Distributed file system metadata over ScaleRPC vs. Octopus'
//! self-identified RPC (the paper's §4.1 deployment).
//!
//! ```sh
//! cargo run --release --example file_system
//! ```
//!
//! Runs one mdtest phase per metadata operation at 120 clients on both
//! transports and prints the side-by-side comparison of Fig. 13: the
//! write-oriented operations are software-bound (transport barely
//! matters) while the read-oriented ones inherit ScaleRPC's scalability.

use scalerpc_bench::rpcbench::{run_mdtest, MdtestRun, TransportKind};
use scalerpc_repro::octofs::FsOp;

fn main() {
    println!("mdtest, 120 clients, single metadata server");
    println!(
        "{:<10} {:>14} {:>14} {:>8}",
        "op", "selfRPC Kops/s", "ScaleRPC Kops/s", "gain"
    );
    for op in FsOp::all() {
        let mut rates = Vec::new();
        for transport in [TransportKind::SelfRpc, TransportKind::ScaleRpc] {
            let r = run_mdtest(&MdtestRun {
                clients: 120,
                op,
                transport,
                ..Default::default()
            });
            rates.push(r.ops_per_sec / 1e3);
        }
        println!(
            "{:<10} {:>14.0} {:>14.0} {:>7.0}%",
            op.name(),
            rates[0],
            rates[1],
            (rates[1] / rates[0] - 1.0) * 100.0
        );
    }
    println!();
    println!("Expect: Mknod/Rmnod nearly equal (file-system software is the");
    println!("bottleneck), Stat/ReadDir far faster on ScaleRPC (the RPC layer");
    println!("is the bottleneck and selfRPC's RC responses thrash the NIC cache).");
}
