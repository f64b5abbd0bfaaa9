//! Regenerates the paper's tables and figures: every one, in order, or
//! only those named on the command line.
//!
//! ```text
//! all_figures [table1|fig01|fig03|fig08|fig09|fig10|fig11|fig12|fig13|fig16|fig_ud_bw]...
//! ```
//!
//! An unknown name exits with status 2 before anything runs. Set
//! `SCALERPC_FULL=1` for the paper-length parameter sweeps.

use scalerpc_bench::figures::FIGURES;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let runs: Vec<fn()> = if names.is_empty() {
        FIGURES.iter().map(|f| f.1).collect()
    } else {
        names.iter().map(|name| figure(name)).collect()
    };
    for run in runs {
        run();
    }
}

/// The figure called `name`; exits listing the valid names if there is
/// no such figure.
fn figure(name: &str) -> fn() {
    match FIGURES.iter().find(|f| f.0 == name) {
        Some(f) => f.1,
        None => {
            let valid: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
            eprintln!(
                "all_figures: unknown figure {name:?}; valid names: {}",
                valid.join(" ")
            );
            std::process::exit(2)
        }
    }
}
