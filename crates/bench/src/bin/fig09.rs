//! Regenerates the paper's fig09 output.
//!
//! Set `SCALERPC_FULL=1` for the paper-length parameter sweeps.

fn main() {
    scalerpc_bench::figures::fig09();
}
