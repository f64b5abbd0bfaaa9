//! Regenerates the paper's fig ud bw output.
//!
//! Set `SCALERPC_FULL=1` for the paper-length parameter sweeps.

fn main() {
    scalerpc_bench::figures::fig_ud_bw();
}
