//! The scenario front end never panics.
//!
//! A scenario file is input from outside the program: whatever bytes it
//! holds, `Scenario::parse` followed by `compile` must come back with
//! `Ok` or a `ScenarioError` — no panic, no arithmetic overflow, no
//! table sized from a count nobody checked. The corpus is every
//! checked-in scenario and every parser fixture; each case damages every
//! file with the same short list of byte-level mutations.

use simcore::check_cases;
use simscenario::compile::MAX_CLIENTS;
use simscenario::{compile, Compiled, Scenario};

/// `(name, body)` of every `.toml` under the two checked-in directories.
fn corpus() -> Vec<(String, String)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut out = Vec::new();
    for dir in ["tests/fixtures", "../../scenarios"] {
        for entry in std::fs::read_dir(format!("{root}/{dir}")).expect("corpus dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "toml") {
                let body = std::fs::read_to_string(&path).expect("corpus file readable");
                out.push((path.display().to_string(), body));
            }
        }
    }
    out.sort();
    assert!(out.len() >= 20, "corpus shrank to {} files", out.len());
    out
}

/// One byte-level edit at (about) `at`: delete, duplicate, flip a bit, or
/// splice in a line of another corpus file.
fn mutate(text: &mut Vec<u8>, (kind, at, with): (u8, u32, u32), corpus: &[(String, String)]) {
    if text.is_empty() {
        return;
    }
    let i = at as usize % text.len();
    match kind {
        0 => {
            text.remove(i);
        }
        1 => text.insert(i, text[i]),
        2 => text[i] ^= 1 << (with % 8),
        _ => {
            let donor = &corpus[with as usize % corpus.len()].1;
            let Some(line) = donor
                .lines()
                .nth(at as usize % donor.lines().count().max(1))
            else {
                return;
            };
            let line_start = text[..i]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            text.splice(line_start..line_start, line.bytes().chain([b'\n']));
        }
    }
}

/// Parses and compiles; `Err` carries the diagnostic, a panic escapes.
fn front_end(text: &str) -> Result<(), String> {
    let sc = Scenario::parse(text).map_err(|e| e.to_string())?;
    if let Compiled::Rpc(c) = compile(&sc).map_err(|e| e.to_string())? {
        assert!(c.tenants.len() <= MAX_CLIENTS, "per-client table unbounded");
    }
    Ok(())
}

#[test]
fn mutated_scenario_files_never_panic() {
    let corpus = corpus();
    check_cases("mutated_scenario_files_never_panic", |rng| {
        let edits = rng.vec(1..5, |r| {
            (r.below(4) as u8, r.edgy() as u32, r.edgy() as u32)
        });
        for (name, body) in &corpus {
            let mut bytes = body.clone().into_bytes();
            for &edit in &edits {
                mutate(&mut bytes, edit, &corpus);
            }
            // A flipped bit can leave invalid UTF-8; the replacement
            // characters then exercise the parser's multi-byte spans.
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let outcome = std::panic::catch_unwind(|| front_end(&text));
            assert!(
                outcome.is_ok(),
                "front end panicked on {name} after {edits:?}:\n{text}"
            );
        }
    });
}
