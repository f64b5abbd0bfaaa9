//! Regenerates the paper's fig16 output.
//!
//! Set `SCALERPC_FULL=1` for the paper-length parameter sweeps.

fn main() {
    scalerpc_bench::figures::fig16();
    scalerpc_bench::figures::fig16_window();
}
