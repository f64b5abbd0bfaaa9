//! Regenerates the paper's fig03 output.
//!
//! Set `SCALERPC_FULL=1` for the paper-length parameter sweeps.

fn main() {
    scalerpc_bench::figures::fig03a();
    scalerpc_bench::figures::fig03b();
}
