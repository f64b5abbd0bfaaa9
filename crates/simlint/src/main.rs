//! simlint CLI.
//!
//! ```text
//! cargo run -p simlint --                 # report findings, exit 0
//! cargo run -p simlint -- --deny          # exit 1 if any finding (CI)
//! cargo run -p simlint -- --list-rules    # print the rule set
//! cargo run -p simlint -- --only R3       # restrict to one rule
//! cargo run -p simlint -- --root PATH     # lint another workspace root
//! cargo run -p simlint -- --budget-ms 500 # fail if the scan is slower
//! ```

#![forbid(unsafe_code)]

use simlint::rules::Rule;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut list_rules = false;
    let mut budget_ms: Option<u64> = None;
    let mut only: Option<Rule> = None;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--list-rules" => list_rules = true,
            "--budget-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => budget_ms = Some(ms),
                None => {
                    eprintln!("simlint: --budget-ms expects a millisecond count");
                    return ExitCode::from(2);
                }
            },
            "--only" => match args.next().as_deref().and_then(Rule::parse) {
                Some(r) => only = Some(r),
                None => {
                    eprintln!("simlint: --only expects one of R1..R6");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("simlint: --root expects a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "simlint — workspace determinism & model-invariant lint\n\n\
                     USAGE: simlint [--deny] [--only R#] [--root PATH] [--list-rules]\n\
                            [--budget-ms N]\n\n\
                     --deny         exit 1 if any finding remains (CI gate)\n\
                     --only R#      run a single rule (R1..R6)\n\
                     --root PATH    workspace root (default: nearest ancestor with a\n\
                                    [workspace] Cargo.toml, else cwd)\n\
                     --budget-ms N  exit 1 if the scan takes longer than N ms\n\
                     --list-rules   print each rule's id, name and summary"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simlint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for r in Rule::ALL {
            println!("{} {}\n    {}", r.id(), r.name(), r.summary());
        }
        return ExitCode::SUCCESS;
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let started = std::time::Instant::now();
    let findings = match simlint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("simlint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let findings: Vec<_> = findings
        .into_iter()
        .filter(|f| only.map(|r| f.rule == r).unwrap_or(true))
        .collect();

    for f in &findings {
        println!("{f}");
    }
    let elapsed = started.elapsed();
    eprintln!(
        "simlint: {} finding{} in {:.0?}{}",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        elapsed,
        if deny { " (--deny)" } else { "" },
    );
    if let Some(budget) = budget_ms {
        let ms = elapsed.as_millis() as u64;
        if ms > budget {
            eprintln!("simlint: scan took {ms}ms, over the {budget}ms budget");
            return ExitCode::FAILURE;
        }
    }
    if deny && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Nearest ancestor of the cwd whose Cargo.toml declares `[workspace]`,
/// falling back to the cwd itself.
fn find_workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return cwd;
        }
    }
}
