//! End-to-end metrics (`--trace 0`); see `scalerpc_benchmark::report`.

fn main() -> std::process::ExitCode {
    scalerpc_benchmark::report::main_end_to_end()
}
