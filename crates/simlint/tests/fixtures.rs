//! Fixture battery: every rule demonstrated by a known-bad snippet with
//! exact finding counts and spans, a clean twin that lints silent, and
//! the inline `simlint: allow` escape.
//!
//! The snippets live in `tests/fixtures/` — a directory the workspace
//! walker skips (`SKIP_DIRS`), so the deliberately-bad code here never
//! pollutes a real `simlint --deny` run. Each test feeds them to
//! [`Analysis`] under a fake workspace path, because the *path* decides
//! which rules apply (sim crate for R1, hot-path file for R3, …).

use simlint::rules::{Finding, Rule};
use simlint::Analysis;

fn lint_one(path: &str, text: &str) -> Vec<Finding> {
    let mut an = Analysis::new();
    an.add_file(path, text);
    an.run()
}

fn spans(findings: &[Finding]) -> Vec<(u32, u32)> {
    findings.iter().map(|f| (f.line, f.col)).collect()
}

// ---------------------------------------------------------------- R1 --

#[test]
fn r1_bad_fixture_is_fully_caught() {
    let out = lint_one(
        "crates/simcore/src/fixture.rs",
        include_str!("fixtures/r1_bad.rs"),
    );
    assert!(out.iter().all(|f| f.rule == Rule::R1), "{out:?}");
    // Two HashMap uses on one line count separately; `Instant` is caught
    // on both the `time::Instant` import and the `::now` call.
    assert_eq!(out.len(), 6, "{out:?}");
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 4, 7, 7, 9, 10]);
}

#[test]
fn r1_bad_fixture_is_ignored_outside_sim_crates() {
    // Same text under a non-sim crate: R1 does not apply.
    let out = lint_one(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/r1_bad.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn r1_clean_fixture_is_silent() {
    let out = lint_one(
        "crates/simcore/src/fixture.rs",
        include_str!("fixtures/r1_clean.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn r1_inline_allow_suppresses() {
    let out = lint_one(
        "crates/simcore/src/fixture.rs",
        include_str!("fixtures/r1_allow.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

// ---------------------------------------------------------------- R2 --

#[test]
fn r2_bad_fixture_flags_leak_and_typo() {
    let mut an = Analysis::new();
    an.add_manifest("crates/simtrace/Cargo.toml", "[features]\ntrace = []\n");
    an.add_file(
        "crates/simtrace/src/fixture.rs",
        include_str!("fixtures/r2_bad.rs"),
    );
    let out = an.run();
    assert!(out.iter().all(|f| f.rule == Rule::R2), "{out:?}");
    // One undeclared-feature cfg + two leaked references to the
    // trace-only SpanRecorder (return type and body).
    assert_eq!(out.len(), 3, "{out:?}");
    assert!(out[0].msg.contains("tracing"), "{}", out[0].msg);
    assert_eq!(out[0].line, 7);
    assert!(out[1].msg.contains("SpanRecorder"), "{}", out[1].msg);
    assert_eq!(spans(&out[1..]), vec![(10, 23), (11, 5)]);
}

#[test]
fn r2_clean_fixture_is_silent() {
    let mut an = Analysis::new();
    an.add_manifest("crates/simtrace/Cargo.toml", "[features]\ntrace = []\n");
    an.add_file(
        "crates/simtrace/src/fixture.rs",
        include_str!("fixtures/r2_clean.rs"),
    );
    let out = an.run();
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn r2_cfg_attr_bad_fixture_flags_all_three_forms() {
    let out = lint_one(
        "crates/simtrace/src/fixture.rs",
        include_str!("fixtures/r2_cfg_attr_bad.rs"),
    );
    assert!(out.iter().all(|f| f.rule == Rule::R2), "{out:?}");
    assert_eq!(out.len(), 3, "{out:?}");
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5, 10, 14]);
    assert!(out[0].msg.contains("needs a predicate"), "{}", out[0].msg);
    assert!(out[1].msg.contains("`cfg`"), "{}", out[1].msg);
    assert!(out[2].msg.contains("`cfg_attr`"), "{}", out[2].msg);
}

#[test]
fn r2_cfg_attr_clean_fixture_is_silent() {
    let out = lint_one(
        "crates/simtrace/src/fixture.rs",
        include_str!("fixtures/r2_cfg_attr_clean.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

// ---------------------------------------------------------------- R3 --

#[test]
fn r3_bad_fixture_counts_all_three_panics() {
    let out = lint_one(
        "crates/simcore/src/event.rs", // a HOT_PATHS file
        include_str!("fixtures/r3_bad.rs"),
    );
    assert!(out.iter().all(|f| f.rule == Rule::R3), "{out:?}");
    assert_eq!(out.len(), 3, "{out:?}");
    // Index, unwrap, expect — in source order with exact spans.
    assert_eq!(spans(&out), vec![(4, 14), (5, 15), (6, 15)]);
    assert!(out[0].msg.contains("non-literal index"));
    assert!(out[1].msg.contains(".unwrap()"));
    assert!(out[2].msg.contains(".expect()"));
}

#[test]
fn r3_bad_fixture_is_ignored_off_the_hot_paths() {
    let out = lint_one(
        "crates/simcore/src/stats/histogram.rs",
        include_str!("fixtures/r3_bad.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn r3_clean_fixture_is_silent() {
    // Justifying comment for the index, restructured Options, and one
    // directive-allowed unwrap.
    let out = lint_one(
        "crates/simcore/src/event.rs",
        include_str!("fixtures/r3_clean.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

// ---------------------------------------------------------------- R4 --

fn with_bytes_stub(user_path: &str, user_text: &str) -> Vec<Finding> {
    let mut an = Analysis::new();
    an.add_file(
        "vendor/bytes/src/lib.rs",
        include_str!("fixtures/r4_vendor_stub.rs"),
    );
    an.add_file(user_path, user_text);
    an.run()
}

#[test]
fn r4_bad_fixture_flags_both_drifts() {
    let out = with_bytes_stub(
        "crates/rpc-core/src/fixture.rs",
        include_str!("fixtures/r4_bad.rs"),
    );
    assert!(out.iter().all(|f| f.rule == Rule::R4), "{out:?}");
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out[0].msg.contains("Missing"), "{}", out[0].msg);
    assert_eq!(out[0].line, 3);
    assert!(out[1].msg.contains("absent"), "{}", out[1].msg);
    assert_eq!(out[1].line, 6);
}

#[test]
fn r4_clean_fixture_is_silent() {
    let out = with_bytes_stub(
        "crates/rpc-core/src/fixture.rs",
        include_str!("fixtures/r4_clean.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

// ---------------------------------------------------------------- R5 --

#[test]
fn r5_bad_fixture_wants_a_safety_comment() {
    let out = lint_one(
        "crates/demo/src/util.rs",
        include_str!("fixtures/r5_bad.rs"),
    );
    assert!(out.iter().all(|f| f.rule == Rule::R5), "{out:?}");
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!((out[0].line, out[0].col), (4, 5));
    assert!(out[0].msg.contains("SAFETY"), "{}", out[0].msg);
}

#[test]
fn r5_missing_forbid_on_unsafe_free_root() {
    // An unsafe-free crate whose lib.rs lacks #![forbid(unsafe_code)].
    let out = lint_one(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/r5_bad_no_forbid.rs"),
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, Rule::R5);
    assert!(out[0].msg.contains("forbid(unsafe_code)"), "{}", out[0].msg);
}

#[test]
fn r5_clean_fixtures_are_silent() {
    let out = lint_one(
        "crates/demo/src/util.rs",
        include_str!("fixtures/r5_clean.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
    let out = lint_one(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/r5_forbid_clean.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

// ---------------------------------------------------------------- R6 --

#[test]
fn r6_bad_fixture_catches_type_and_seq_methods() {
    let out = lint_one(
        "crates/scalerpc/src/fixture.rs",
        include_str!("fixtures/r6_bad.rs"),
    );
    assert!(out.iter().all(|f| f.rule == Rule::R6), "{out:?}");
    // Import, field type, and the three seq-method calls.
    assert_eq!(out.len(), 5, "{out:?}");
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![2, 5, 10, 11, 12]);
}

#[test]
fn r6_bad_fixture_is_ignored_outside_model_crates() {
    // The engine crate itself and non-model crates are out of scope.
    for path in [
        "crates/simcore/src/fixture.rs",
        "crates/bench/src/fixture.rs",
    ] {
        let out = lint_one(path, include_str!("fixtures/r6_bad.rs"));
        assert!(out.is_empty(), "{path}: {out:?}");
    }
}

#[test]
fn r6_clean_fixture_is_silent() {
    let out = lint_one(
        "crates/scalerpc/src/fixture.rs",
        include_str!("fixtures/r6_clean.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn r6_inline_allow_suppresses() {
    let out = lint_one(
        "crates/scalerpc/src/fixture.rs",
        include_str!("fixtures/r6_allow.rs"),
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn r6_engine_files_excuse_themselves_with_allow_file() {
    // sharded.rs owns the queue; it carries an `allow-file(R6)`
    // directive (with reason) so the real engine source lints clean
    // under --deny.
    let excused = format!(
        "// simlint: allow-file(R6): the engine owns the queue.\n{}",
        include_str!("fixtures/r6_bad.rs")
    );
    let out = lint_one("crates/rpc-core/src/sharded.rs", &excused);
    assert!(out.is_empty(), "{out:?}");
    // Without the reason the directive is inert and the findings stand.
    let inert = format!(
        "// simlint: allow-file(R6)\n{}",
        include_str!("fixtures/r6_bad.rs")
    );
    let out = lint_one("crates/rpc-core/src/sharded.rs", &inert);
    assert!(!out.is_empty());
}

// ------------------------------------------------- whole-workspace ----

#[test]
fn fixtures_directory_is_excluded_from_real_scans() {
    // The walker must skip tests/fixtures/ — otherwise this battery of
    // deliberately-bad code would fail `simlint --deny` on the repo.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let findings = simlint::lint_workspace(root).expect("scan workspace");
    assert!(
        !findings.iter().any(|f| f.path.contains("fixtures")),
        "fixture findings leaked into the workspace scan: {findings:?}"
    );
}
