//! Regenerates the paper's all figures output.
//!
//! Set `SCALERPC_FULL=1` for the paper-length parameter sweeps.

fn main() {
    scalerpc_bench::figures::all_figures();
}
