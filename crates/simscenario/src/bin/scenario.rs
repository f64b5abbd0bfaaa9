//! Scenario CLI: `scenario run|check|fuzz`.
//!
//! - `scenario check <file|dir>...` — parse and compile each scenario
//!   (directories scan for `*.toml`), reporting errors with spans;
//! - `scenario run <file>...` — execute each scenario and print its
//!   report, failing on `[expect]` mismatches;
//! - `scenario fuzz --seeds N [--start S]` — run the invariant-checking
//!   fuzzer over seeds `S..S+N`; failures are greedily shrunk and
//!   printed as a minimal reproduction TOML.

use simscenario::scenario::Scenario;
use simscenario::{compile, fuzz_one, gen_scenario, run_scenario, shrink_failure};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: scenario run <file>... | scenario check <file|dir>... | scenario fuzz --seeds N [--start S]");
    ExitCode::from(2)
}

/// Expands directories into their contained `*.toml` files.
fn expand(paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            let mut found: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("{p}: {e}"))?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect();
            found.sort();
            if found.is_empty() {
                return Err(format!("{p}: no .toml scenarios found"));
            }
            out.extend(found);
        } else {
            out.push(path.to_path_buf());
        }
    }
    if out.is_empty() {
        return Err("no scenario files given".into());
    }
    Ok(out)
}

fn load(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Scenario::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "check" => {
            let files = match expand(&args[1..]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("scenario check: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut failed = false;
            for f in &files {
                match load(f).and_then(|sc| {
                    compile(&sc).map_err(|e| format!("{}: {e}", f.display()))?;
                    Ok(sc)
                }) {
                    Ok(sc) => println!("ok {} ({})", f.display(), sc.name),
                    Err(e) => {
                        eprintln!("FAIL {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "run" => {
            let files = match expand(&args[1..]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("scenario run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut failed = false;
            for f in &files {
                match load(f)
                    .and_then(|sc| run_scenario(&sc).map_err(|e| format!("{}: {e}", f.display())))
                {
                    Ok(report) => {
                        println!("{}", report.summary());
                        for (tenant, ops) in &report.tenant_ops {
                            if report.tenant_ops.len() > 1 {
                                println!("  tenant {tenant}: {ops} ops");
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("FAIL {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "fuzz" => {
            let mut seeds = 8u64;
            let mut start = 0u64;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--seeds" if i + 1 < args.len() => {
                        let Ok(n) = args[i + 1].parse() else {
                            return usage();
                        };
                        seeds = n;
                        i += 2;
                    }
                    "--start" if i + 1 < args.len() => {
                        let Ok(n) = args[i + 1].parse() else {
                            return usage();
                        };
                        start = n;
                        i += 2;
                    }
                    _ => return usage(),
                }
            }
            let mut failed = false;
            for seed in start..start + seeds {
                match fuzz_one(seed) {
                    Ok(out) => println!("ok seed {seed}: {}", out.report.summary()),
                    Err(e) => {
                        eprintln!("FAIL {e}");
                        // Shrink invariant violations to a minimal
                        // reproduction (round-trip failures have no run
                        // to shrink and come back None).
                        if let Some((min, me)) = shrink_failure(&gen_scenario(seed)) {
                            eprintln!("minimal reproduction for seed {seed} ({me}):");
                            eprint!("{}", min.to_toml());
                        }
                        failed = true;
                    }
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                println!("fuzz: {seeds} seeds clean");
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
