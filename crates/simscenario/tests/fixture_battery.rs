//! Fixture battery for the scenario parser and compiler.
//!
//! Every `fixtures/valid_*.toml` must parse, pass semantic checks and
//! compile; every `fixtures/invalid_*.toml` must be rejected with the
//! *exact* diagnostic pinned in its first line (`#! error: ...`), span
//! included — error spans are part of the format's contract.
//!
//! The property tests close the loop on generated scenarios: the
//! canonical serializer round-trips through the parser, and re-compiling
//! a round-tripped scenario yields identical configs.

use simcore::check_cases;
use simscenario::{compile, fuzz::gen_scenario, Scenario};

fn fixtures() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let body = std::fs::read_to_string(&p).expect("fixture readable");
            (name, body)
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "fixture battery must not be empty");
    out
}

/// Parses then compiles, returning the first error's rendered form.
fn check(body: &str) -> Result<(), String> {
    let sc = Scenario::parse(body).map_err(|e| e.to_string())?;
    compile(&sc).map_err(|e| e.to_string())?;
    Ok(())
}

#[test]
fn valid_fixtures_parse_and_compile() {
    for (name, body) in fixtures() {
        if !name.starts_with("valid_") {
            continue;
        }
        if let Err(e) = check(&body) {
            panic!("{name}: expected success, got error: {e}");
        }
        // And the canonical serialization must survive a round trip.
        let sc = Scenario::parse(&body).unwrap();
        let again = Scenario::parse(&sc.to_toml()).expect("serialized form re-parses");
        assert_eq!(sc, again, "{name}: round trip changed the scenario");
    }
}

/// `to_toml` of the valid fixtures, byte for byte as first captured
/// (never re-blessed): emit order and spelling are part of the format.
#[test]
fn valid_fixtures_emit_their_golden() {
    let mut got = String::new();
    for (name, body) in fixtures() {
        if name.starts_with("valid_") {
            let sc = Scenario::parse(&body).unwrap();
            got += &format!("=== {name}\n{}\n", sc.to_toml());
        }
    }
    assert_eq!(got, include_str!("emit_golden.txt"));
}

#[test]
fn invalid_fixtures_fail_with_pinned_diagnostics() {
    for (name, body) in fixtures() {
        if !name.starts_with("invalid_") {
            continue;
        }
        let want = body
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("#! error: "))
            .unwrap_or_else(|| panic!("{name}: missing `#! error:` header"))
            .to_string();
        match check(&body) {
            Ok(()) => panic!("{name}: expected `{want}`, but it was accepted"),
            Err(got) => assert_eq!(got, want, "{name}: diagnostic drifted"),
        }
    }
}

/// Generated scenarios survive serialize → parse → serialize.
#[test]
fn generated_scenarios_round_trip() {
    check_cases("generated_scenarios_round_trip", |rng| {
        let sc = gen_scenario(rng.below(1 << 48));
        let text = sc.to_toml();
        let back = Scenario::parse(&text).expect("canonical form parses");
        assert_eq!(&sc, &back);
        assert_eq!(text, back.to_toml());
    });
}

/// Compiling a round-tripped scenario yields identical configs —
/// the serializer loses nothing the compiler consumes.
#[test]
fn round_tripped_scenarios_compile_identically() {
    check_cases("round_tripped_scenarios_compile_identically", |rng| {
        let sc = gen_scenario(rng.below(1 << 48));
        let back = Scenario::parse(&sc.to_toml()).expect("canonical form parses");
        let a = compile(&sc).expect("generated scenarios compile");
        let b = compile(&back).expect("round-tripped scenarios compile");
        assert_eq!(a, b);
    });
}
