//! Regenerates the paper's fig08 output.
//!
//! Set `SCALERPC_FULL=1` for the paper-length parameter sweeps.

fn main() {
    scalerpc_bench::figures::fig08_clients();
    scalerpc_bench::figures::fig08_machines();
}
