//! Per-layer metrics (`--trace 1`), built with the crates' `trace`
//! feature; see `scalerpc_benchmark::report`.

fn main() -> std::process::ExitCode {
    scalerpc_benchmark::report::main_traced()
}
