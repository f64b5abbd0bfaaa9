//! Regenerates the paper's fig01 output.
//!
//! Set `SCALERPC_FULL=1` for the paper-length parameter sweeps.

fn main() {
    scalerpc_bench::figures::fig01a();
    scalerpc_bench::figures::fig01b();
}
