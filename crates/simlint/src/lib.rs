//! simlint — workspace determinism & model-invariant static analysis.
//!
//! A dependency-free, lexer-level lint pass that enforces the
//! reproducibility contracts every result in this repo rests on (see
//! DESIGN.md §9 for the rule rationale table):
//!
//! - **R1 no-ambient-nondeterminism** — sim crates must not reach for
//!   `Instant::now`, `SystemTime`, `thread_rng`, or RandomState-seeded
//!   `HashMap`/`HashSet`;
//! - **R2 trace-feature-hygiene** — `cfg(feature = "…")` names must be
//!   declared, trace-only symbols must not leak into untraced builds,
//!   and `cfg_attr` must gate a real attribute (not another condition);
//! - **R3 hot-path-panic-audit** — no unwrap/expect/uncommented indexing
//!   in event-dispatch and per-packet files;
//! - **R4 vendored-stub-drift** — imports from `vendor/*` must resolve
//!   against the stubs;
//! - **R5 unsafe-audit** — `unsafe` needs `// SAFETY:`, unsafe-free
//!   crates get `#![forbid(unsafe_code)]`;
//! - **R6 engine-queue-isolation** — model crates never touch a raw
//!   `EventQueue`; events route through `Cx`.
//!
//! Findings are suppressed by inline `// simlint: allow(R1, …)`
//! directives (same line or the line above) or by whole-file
//! `// simlint: allow-file(R1): reason` directives at the top of the
//! excused file.
//!
//! The rules are deliberately *lexer*-level: no parser, no type
//! checking, no resolver — each rule is tuned so its false positives are
//! rare and cheap to suppress, the price of keeping the whole pass
//! dependency-free and fast enough to run in CI on every configuration.
//! There is one mode: a full scan. Guarantees that need to know what the
//! program *does* — legal state transitions, time units, counter
//! conservation — live in the model itself (`simcore::Fsm`, the
//! `SimTime`/`SimDuration` types, `run_scenario`'s conservation check;
//! DESIGN.md §9 has the ledger), not here.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod lexer;
pub mod rules;

use analysis::SourceFile;
use rules::{
    crate_key, has_forbid_unsafe, has_unsafe, is_target_root, origin, Finding, Origin, Rule,
    TraceDefs, VendorExports,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// A batch of sources (plus manifests) to lint as one unit. Fixture
/// tests build these by hand; [`lint_workspace`] builds one from disk.
#[derive(Default)]
pub struct Analysis {
    pub(crate) files: Vec<SourceFile>,
    /// crate_key → declared cargo features.
    pub(crate) features: BTreeMap<String, BTreeSet<String>>,
}

/// Cross-file lint context: everything the per-file rules consume that
/// is derived from *other* files.
#[derive(Default)]
struct Ctx {
    exports: VendorExports,
    trace_only: BTreeSet<String>,
    unsafe_crates: BTreeSet<String>,
}

impl Analysis {
    pub fn new() -> Analysis {
        Analysis::default()
    }

    /// Adds one source file. `path` is workspace-relative with `/`
    /// separators; it decides which rules apply (see [`rules::origin`]).
    pub fn add_file(&mut self, path: &str, text: &str) {
        self.files.push(SourceFile::analyze(path, text));
    }

    /// Registers a crate's Cargo.toml so R2 can validate feature names.
    /// `path` is the manifest's workspace-relative path.
    pub fn add_manifest(&mut self, path: &str, text: &str) {
        let key = if path == "Cargo.toml" {
            "<root>".to_string()
        } else {
            crate_key(path)
        };
        self.features.insert(key, parse_features(text));
    }

    /// Builds the cross-file context (pass 1 over the batch).
    fn build_ctx(&self) -> Ctx {
        let mut ctx = Ctx::default();
        let mut trace_defs = TraceDefs::default();
        for f in &self.files {
            if matches!(origin(&f.path), Origin::Vendor(_)) {
                ctx.exports.add_vendor_file(&f.path, f);
            }
            trace_defs.collect(f);
            if has_unsafe(f) {
                ctx.unsafe_crates.insert(crate_key(&f.path));
            }
        }
        ctx.trace_only = trace_defs.trace_only();
        ctx
    }

    /// Runs every per-file rule on one file.
    fn file_rules(&self, f: &SourceFile, ctx: &Ctx, out: &mut Vec<Finding>) {
        rules::r1(f, out);
        rules::r2_features(f, &self.features, out);
        rules::r2_refs(f, &ctx.trace_only, out);
        rules::r2_cfg_attr(f, out);
        rules::r3(f, out);
        rules::r4(f, &ctx.exports, out);
        rules::r5_safety(f, out);
        rules::r6(f, out);
    }

    /// Runs all rules and returns findings, deterministically sorted,
    /// with inline-allow, allow-file and built-in suppression applied.
    pub fn run(&self) -> Vec<Finding> {
        let ctx = self.build_ctx();

        let mut out = Vec::new();
        for f in &self.files {
            self.file_rules(f, &ctx, &mut out);
            // Global pass, R5(b): unsafe-free target roots carry the
            // forbid stamp.
            let key = crate_key(&f.path);
            if is_target_root(&f.path) && !ctx.unsafe_crates.contains(&key) && !has_forbid_unsafe(f)
            {
                out.push(Finding {
                    path: f.path.clone(),
                    line: 1,
                    col: 1,
                    rule: Rule::R5,
                    msg: format!(
                        "crate `{key}` has no unsafe code; stamp #![forbid(unsafe_code)] on \
                         this target root so it stays that way"
                    ),
                });
            }
        }
        let by_path: BTreeMap<&str, &SourceFile> =
            self.files.iter().map(|f| (f.path.as_str(), f)).collect();
        out.retain(|fi| {
            by_path
                .get(fi.path.as_str())
                .is_none_or(|sf| !sf.allowed(fi.rule, fi.line) && !sf.file_allowed(fi.rule))
        });
        out.sort();
        out.dedup();
        out
    }

    /// Number of files in the batch.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

/// Extracts feature names from a Cargo.toml's `[features]` section with
/// a line-level scan (the workspace's manifests are all simple).
fn parse_features(toml: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_features = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_features = line == "[features]";
            continue;
        }
        if in_features {
            if let Some(eq) = line.find('=') {
                let name = line[..eq].trim().trim_matches('"');
                if !name.is_empty() && !name.starts_with('#') {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

/// Directories never scanned: build output, VCS metadata, the linter's
/// own known-bad fixture corpus, and the repo benchmark — a package
/// with its own `[workspace]` that measures the crates from outside and
/// is no part of the workspace these rules describe.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude", "fixtures", "benchmark"];

/// Lints the workspace rooted at `root`: every `*.rs` under it (minus
/// [`SKIP_DIRS`]) plus all `Cargo.toml` manifests.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut an = Analysis::new();
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    for rel in &paths {
        let text = std::fs::read_to_string(root.join(rel))?;
        if rel.ends_with(".rs") {
            an.add_file(rel, &text);
        } else {
            an.add_manifest(rel, &text);
        }
    }
    Ok(an.run())
}

/// Recursively collects workspace-relative `*.rs` and `Cargo.toml`
/// paths (with `/` separators, sorted by the caller).
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_features_section() {
        let toml = "[package]\nname = \"x\"\n[features]\ndefault = [\"trace\"]\ntrace = []\n\n[dependencies]\nfoo = { path = \"y\" }";
        let f = parse_features(toml);
        assert!(f.contains("default"));
        assert!(f.contains("trace"));
        assert!(!f.contains("foo"));
    }

    #[test]
    fn inline_allow_suppresses() {
        let mut an = Analysis::new();
        an.add_file(
            "crates/simcore/src/x.rs",
            "use std::collections::HashMap; // simlint: allow(R1)\n\n\
             use std::collections::HashSet;\n",
        );
        let f = an.run();
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("HashSet"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn r5b_forbid_stamp_required_only_without_unsafe() {
        let mut an = Analysis::new();
        an.add_file("crates/clean/src/lib.rs", "pub fn f() {}");
        an.add_file(
            "crates/spicy/src/lib.rs",
            "// SAFETY: no-op.\npub fn f() { unsafe {} }",
        );
        let f = an.run();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].path, "crates/clean/src/lib.rs");
        assert_eq!(f[0].rule, Rule::R5);
    }

    #[test]
    fn r2_feature_typo_needs_manifest() {
        let mut an = Analysis::new();
        an.add_manifest("crates/gadget/Cargo.toml", "[features]\ntrace = []\n");
        an.add_file(
            "crates/gadget/src/lib.rs",
            "#![forbid(unsafe_code)]\n#[cfg(feature = \"trace\")]\nfn a() {}\n\
             #[cfg(feature = \"tracee\")]\nfn b() {}",
        );
        let f = an.run();
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("tracee"));
    }

    #[test]
    fn r2_trace_only_symbol_leak() {
        let mut an = Analysis::new();
        an.add_file(
            "crates/simtrace/src/lib.rs",
            "#![forbid(unsafe_code)]\n#[cfg(feature = \"trace\")]\npub fn span_hook() {}\n",
        );
        an.add_file("crates/scalerpc/src/x.rs", "fn f() { span_hook(); }\n");
        let f = an.run();
        assert_eq!(f.iter().filter(|x| x.rule == Rule::R2).count(), 1);
        assert_eq!(
            f.iter().find(|x| x.rule == Rule::R2).unwrap().path,
            "crates/scalerpc/src/x.rs"
        );
    }

    #[test]
    fn r2_dual_definition_cancels() {
        let mut an = Analysis::new();
        an.add_file(
            "crates/simtrace/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             #[cfg(feature = \"trace\")]\nmod imp { pub struct Tracer; }\n\
             #[cfg(not(feature = \"trace\"))]\nmod imp { pub struct Tracer; }\n",
        );
        an.add_file("crates/scalerpc/src/x.rs", "fn f(t: &Tracer) {}\n");
        let f = an.run();
        assert!(f.iter().all(|x| x.rule != Rule::R2));
    }
}
