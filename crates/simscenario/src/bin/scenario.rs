//! Scenario CLI: `scenario run|check|fuzz`.
//!
//! - `scenario check <file|dir>...` — parse and compile each scenario
//!   (directories scan for `*.toml`), reporting errors with spans;
//! - `scenario run <file|dir>...` — execute each scenario and print its
//!   report, failing on a broken run invariant or an `[expect]`
//!   mismatch;
//! - `scenario fuzz --seeds N [--start S]` — run the invariant-checking
//!   fuzzer over seeds `S..S+N`; failures are greedily shrunk and
//!   printed as a minimal reproduction TOML.

use simscenario::scenario::Scenario;
use simscenario::{
    compile, fuzz_one, gen_scenario, run_scenario, shrink_failure, Outcome, ScenarioError,
};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: scenario run <file|dir>... | scenario check <file|dir>... | scenario fuzz --seeds N [--start S]");
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

/// Runs `each` on every scenario file under `paths`, printing a `FAIL`
/// line per file that does not load or that `each` rejects.
fn each_file(
    cmd: &str,
    paths: &[String],
    each: impl Fn(&Path, Scenario) -> Result<(), ScenarioError>,
) -> ExitCode {
    let files = match expand(paths) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("scenario {cmd}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for f in &files {
        let done = load(f).and_then(|sc| each(f, sc).map_err(|e| format!("{}: {e}", f.display())));
        if let Err(e) = done {
            eprintln!("FAIL {e}");
            failed = true;
        }
    }
    ExitCode::from(u8::from(failed))
}

/// The seeds `fuzz`'s `--seeds N [--start S]` flags name (default 8
/// seeds from 0), or `None` for a malformed flag or a range past
/// `u64::MAX`, which would wrap to one never run.
fn seed_range(flags: &[String]) -> Option<Range<u64>> {
    let (mut seeds, mut start) = (8u64, 0u64);
    for flag in flags.chunks(2) {
        let slot = match flag[0].as_str() {
            "--seeds" => &mut seeds,
            "--start" => &mut start,
            _ => return None,
        };
        *slot = flag.get(1)?.parse().ok()?;
    }
    Some(start..start.checked_add(seeds)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "check" => each_file("check", &args[1..], |f, sc| {
            compile(&sc)?;
            println!("ok {} ({})", f.display(), sc.name);
            Ok(())
        }),
        "run" => each_file("run", &args[1..], |_, sc| {
            let report = run_scenario(&sc)?;
            println!("{}", report.summary());
            if let Outcome::Rpc { tenant_ops, .. } = &report.outcome {
                if tenant_ops.len() > 1 {
                    for (tenant, ops) in tenant_ops {
                        println!("  tenant {tenant}: {ops} ops");
                    }
                }
            }
            Ok(())
        }),
        "fuzz" => {
            let Some(range) = seed_range(&args[1..]) else {
                return usage();
            };
            let mut failed = false;
            for seed in range.clone() {
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
            if !failed {
                println!("fuzz: {} seeds clean", range.end - range.start);
            }
            ExitCode::from(u8::from(failed))
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::seed_range;

    fn flags(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn seed_range_rejects_a_range_past_u64_max() {
        assert_eq!(
            seed_range(&flags(&["--start", "18446744073709551615", "--seeds", "2"])),
            None
        );
        assert_eq!(
            seed_range(&flags(&["--start", "64", "--seeds", "24"])),
            Some(64..88)
        );
        assert_eq!(
            seed_range(&flags(&["--start", "18446744073709551615", "--seeds", "0"])),
            Some(u64::MAX..u64::MAX)
        );
    }

    #[test]
    fn seed_range_defaults_and_malformed_flags() {
        assert_eq!(seed_range(&[]), Some(0..8));
        assert_eq!(seed_range(&flags(&["--seeds"])), None);
        assert_eq!(seed_range(&flags(&["--seeds", "x"])), None);
        assert_eq!(seed_range(&flags(&["--bogus", "1"])), None);
    }
}
