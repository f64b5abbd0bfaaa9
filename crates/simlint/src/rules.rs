//! The rule set: R1–R6, plus the constants that scope them.
//!
//! Each rule is a pure function from analyzed sources to findings; the
//! driver in `lib.rs` assembles the cross-file context (vendor exports,
//! trace-gated definitions, per-crate unsafe census) the rules need.

use crate::analysis::{SourceFile, IN_TEST, IN_TRACE_ON};
use crate::lexer::{TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The six lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No ambient nondeterminism in sim crates.
    R1,
    /// Trace-feature hygiene.
    R2,
    /// Hot-path panic audit.
    R3,
    /// Vendored-stub drift.
    R4,
    /// Unsafe audit.
    R5,
    /// Engine-queue isolation.
    R6,
}

impl Rule {
    pub const ALL: [Rule; 6] = [Rule::R1, Rule::R2, Rule::R3, Rule::R4, Rule::R5, Rule::R6];

    pub fn id(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rule::R1 => "no-ambient-nondeterminism",
            Rule::R2 => "trace-feature-hygiene",
            Rule::R3 => "hot-path-panic-audit",
            Rule::R4 => "vendored-stub-drift",
            Rule::R5 => "unsafe-audit",
            Rule::R6 => "engine-queue-isolation",
        }
    }

    pub fn summary(self) -> &'static str {
        match self {
            Rule::R1 => {
                "sim crates must not use Instant::now, SystemTime, thread_rng, or \
                 RandomState-defaulted HashMap/HashSet; use simcore::{DetHashMap, DetHashSet} \
                 or BTreeMap/BTreeSet so iteration order is run-to-run deterministic"
            }
            Rule::R2 => {
                "cfg(feature = \"…\") must name a feature the crate's Cargo.toml declares, \
                 symbols defined only under cfg(feature = \"trace\") must not be \
                 referenced from ungated code (trace call sites route through the dual \
                 Tracer, which exists in both configs), and cfg_attr must carry a \
                 predicate plus at least one gated attribute that is not itself \
                 cfg/cfg_attr"
            }
            Rule::R3 => {
                "event-dispatch and per-packet files must not call .unwrap()/.expect() or \
                 index with a non-literal subscript unless a comment on the same or previous \
                 line argues the invariant; allowlist case-by-case"
            }
            Rule::R4 => {
                "every path the workspace imports from vendor/{bytes,rand,proptest} \
                 must resolve against the vendored stub, so stub/API drift fails lint instead \
                 of failing an offline build later"
            }
            Rule::R5 => {
                "every unsafe block/fn needs a // SAFETY: comment within 3 lines above; \
                 crates with no unsafe at all must stamp #![forbid(unsafe_code)] on every \
                 target root (src/lib.rs, src/main.rs, src/bin/*.rs)"
            }
            Rule::R6 => {
                "model crates must not touch the engine's EventQueue (or its seq-level \
                 push_with_seq/pop_with_seq/pop_at_or_before_with_seq/set_seq surface) \
                 directly; events route through the driver's Cx so the \
                 deterministic total order (time, seq) cannot be bypassed"
            }
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}/{}] {}",
            self.path,
            self.line,
            self.col,
            self.rule.id(),
            self.rule.name(),
            self.msg
        )
    }
}

/// Crates whose `src/` trees model simulated behavior: R1 applies here.
pub const SIM_CRATES: &[&str] = &[
    "simcore",
    "rdma-fabric",
    "rpc-core",
    "scalerpc",
    "scaletx",
    "rpc-baselines",
    "mica-kv",
    "octofs",
    "simtrace",
    "simscenario",
];

/// Event-dispatch and per-packet files: R3 applies here. These run once
/// per simulated event or packet, so a panic aborts the whole run and an
/// unguarded index is a latent abort.
pub const HOT_PATHS: &[&str] = &[
    "crates/simcore/src/event.rs",
    "crates/simcore/src/resource.rs",
    "crates/rdma-fabric/src/fabric.rs",
    "crates/rdma-fabric/src/llc.rs",
    "crates/rdma-fabric/src/niccache.rs",
    "crates/rdma-fabric/src/lru.rs",
    "crates/rpc-core/src/driver.rs",
    "crates/rpc-core/src/workers.rs",
    "crates/rpc-core/src/window.rs",
];

/// The vendored stub crates R4 audits.
pub const VENDOR_CRATES: &[&str] = &["bytes", "rand", "proptest"];

/// Crates that model *behavior on top of* the event engine: transports,
/// applications, the fabric. R6 applies to their `src/` trees — they
/// schedule through [`Cx`](../../rpc-core/src/driver.rs), never
/// against a raw `EventQueue`, because a direct push chooses its own
/// sequence number and can break the engine's deterministic (time, seq)
/// total order. `simcore` (defines the queue) is out of scope; the one
/// rpc-core file that *owns* the queue — the engine — excuses itself
/// with an `allow-file(R6)` directive.
pub const MODEL_CRATES: &[&str] = &[
    "rdma-fabric",
    "rpc-core",
    "scalerpc",
    "scaletx",
    "rpc-baselines",
    "mica-kv",
    "octofs",
    "simtrace",
    "simscenario",
];

/// Identifiers R6 bans in model-crate sources: the queue type itself and
/// the seq-level mutation surface only the engine may use.
const R6_BANNED: &[&str] = &[
    "EventQueue",
    "push_with_seq",
    "pop_with_seq",
    "pop_at_or_before_with_seq",
    "set_seq",
];

/// Macro-name prefixes attributed to a vendor crate for the R4 macro
/// check (`prop_assert!` can only come from the proptest stub, etc.).
const MACRO_PREFIXES: &[(&str, &str)] = &[("proptest", "proptest"), ("prop_", "proptest")];

/// Item-introducing keywords whose following identifier is a definition.
const DEF_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Where a file sits in the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin<'a> {
    /// `crates/<name>/…`.
    Crate(&'a str),
    /// `vendor/<name>/…`.
    Vendor(&'a str),
    /// Root package (`src/`, `tests/`, `examples/`).
    Root,
}

/// Classifies a workspace-relative path.
pub fn origin(path: &str) -> Origin<'_> {
    for (prefix, vendor) in [("crates/", false), ("vendor/", true)] {
        if let Some(rest) = path.strip_prefix(prefix) {
            if let Some(end) = rest.find('/') {
                let name = &rest[..end];
                return if vendor {
                    Origin::Vendor(name)
                } else {
                    Origin::Crate(name)
                };
            }
        }
    }
    Origin::Root
}

/// Key used for per-crate aggregation (features, unsafe census).
pub fn crate_key(path: &str) -> String {
    match origin(path) {
        Origin::Crate(n) => n.to_string(),
        Origin::Vendor(n) => format!("vendor/{n}"),
        Origin::Root => "<root>".to_string(),
    }
}

/// Whether R1 applies to this file: a sim crate's `src/` tree.
fn r1_in_scope(path: &str) -> bool {
    match origin(path) {
        Origin::Crate(n) => SIM_CRATES.contains(&n) && path.contains("/src/"),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// R1 — no ambient nondeterminism
// ---------------------------------------------------------------------------

/// R1: bans ambient-nondeterminism constructs in sim-crate sources.
pub fn r1(file: &SourceFile, out: &mut Vec<Finding>) {
    if !r1_in_scope(&file.path) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.gates[i] & IN_TEST != 0 {
            continue;
        }
        let msg = match t.text.as_str() {
            "HashMap" | "HashSet" => Some(format!(
                "RandomState-defaulted std::collections::{} has nondeterministic iteration \
                 order; use simcore::{} or BTree{}",
                t.text,
                if t.text == "HashMap" {
                    "DetHashMap"
                } else {
                    "DetHashSet"
                },
                if t.text == "HashMap" { "Map" } else { "Set" },
            )),
            "RandomState" => {
                Some("RandomState is ambient-seeded per process; use simcore::FxBuildHasher".into())
            }
            "thread_rng" => Some(
                "thread_rng draws from ambient OS entropy; derive a DetRng from the run seed"
                    .into(),
            ),
            "SystemTime" => Some(
                "SystemTime reads the wall clock; simulated time comes from the event loop".into(),
            ),
            "Instant" => {
                // Only `std::time::Instant` is banned (simtrace defines
                // its own `Instant` record type): flag `Instant::now`
                // call sites and `time::Instant` imports/paths.
                let prev_is_time = {
                    let mut prev: Vec<&Token> = toks[..i]
                        .iter()
                        .rev()
                        .filter(|t| !t.is_comment())
                        .take(3)
                        .collect();
                    prev.reverse();
                    prev.len() == 3
                        && prev[0].is_ident("time")
                        && prev[1].is_punct(':')
                        && prev[2].is_punct(':')
                };
                let next_is_now = {
                    let next: Vec<&Token> = toks[i + 1..]
                        .iter()
                        .filter(|t| !t.is_comment())
                        .take(3)
                        .collect();
                    next.len() == 3
                        && next[0].is_punct(':')
                        && next[1].is_punct(':')
                        && next[2].is_ident("now")
                };
                if prev_is_time || next_is_now {
                    Some(
                        "std::time::Instant reads the host clock; simulated time comes from \
                         the event loop (bench timing lives outside sim crates)"
                            .into(),
                    )
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(msg) = msg {
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                col: t.col,
                rule: Rule::R1,
                msg,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R2 — trace-feature hygiene
// ---------------------------------------------------------------------------

/// Cross-file context for R2(b): names defined only under
/// `cfg(feature = "trace")`.
#[derive(Default)]
pub struct TraceDefs {
    on: BTreeSet<String>,
    off_or_ungated: BTreeSet<String>,
}

impl TraceDefs {
    /// Records item definitions from one file into the census.
    /// Test-gated and vendor code is ignored.
    pub fn collect(&mut self, file: &SourceFile) {
        if matches!(origin(&file.path), Origin::Vendor(_)) {
            return;
        }
        let toks = &file.tokens;
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind == TokKind::Ident && file.gates[i] & IN_TEST == 0 {
                let name_idx = if DEF_KEYWORDS.contains(&t.text.as_str()) {
                    Some(file.skip_comments(i + 1))
                } else if t.is_ident("macro_rules")
                    && toks.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false)
                {
                    Some(file.skip_comments(i + 2))
                } else {
                    None
                };
                if let Some(ni) = name_idx {
                    if let Some(name) = toks.get(ni).filter(|n| n.kind == TokKind::Ident) {
                        if file.gates[i] & IN_TRACE_ON != 0 {
                            self.on.insert(name.text.clone());
                        } else {
                            self.off_or_ungated.insert(name.text.clone());
                        }
                        i = ni + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }

    /// Names that exist only when the trace feature is on.
    pub fn trace_only(&self) -> BTreeSet<String> {
        self.on.difference(&self.off_or_ungated).cloned().collect()
    }
}

/// R2(a): every `feature = "…"` in a cfg/cfg_attr attribute must name a
/// feature declared by the crate's Cargo.toml. `features` maps
/// crate_key → declared feature names; crates absent from the map are
/// skipped (no manifest registered).
pub fn r2_features(
    file: &SourceFile,
    features: &BTreeMap<String, BTreeSet<String>>,
    out: &mut Vec<Finding>,
) {
    let key = crate_key(&file.path);
    let Some(declared) = features.get(&key) else {
        return;
    };
    let toks = &file.tokens;
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_punct('#') {
            let mut j = file.skip_comments(i + 1);
            if toks.get(j).map(|t| t.is_punct('!')).unwrap_or(false) {
                j = file.skip_comments(j + 1);
            }
            if toks.get(j).map(|t| t.is_punct('[')).unwrap_or(false) {
                let mut depth = 0usize;
                let mut k = j;
                let mut is_cfg = false;
                let mut first_ident_seen = false;
                while k < toks.len() {
                    let t = &toks[k];
                    if t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if t.kind == TokKind::Ident && !first_ident_seen {
                        first_ident_seen = true;
                        is_cfg = t.text == "cfg" || t.text == "cfg_attr";
                    } else if is_cfg && t.is_ident("feature") {
                        let eq = toks.get(k + 1).map(|n| n.is_punct('=')).unwrap_or(false);
                        if eq {
                            if let Some(lit) =
                                toks.get(k + 2).filter(|n| n.kind == TokKind::Literal)
                            {
                                let name = lit.text.trim_matches('"');
                                if !declared.contains(name) {
                                    out.push(Finding {
                                        path: file.path.clone(),
                                        line: lit.line,
                                        col: lit.col,
                                        rule: Rule::R2,
                                        msg: format!(
                                            "cfg references feature \"{name}\" which {key}'s \
                                             Cargo.toml does not declare (typo or missing \
                                             [features] entry)"
                                        ),
                                    });
                                }
                            }
                        }
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// R2(c): cross-checks `#[cfg_attr(…)]` attributes. A `cfg_attr` must
/// carry a predicate plus at least one attribute to apply, and the
/// applied attribute must not itself be `cfg`/`cfg_attr` — conditionally
/// *introducing a condition* compiles, but it silently changes what the
/// inner gate means between configs and is a typo for `all(…)`/`any(…)`
/// in every case this workspace has hit.
pub fn r2_cfg_attr(file: &SourceFile, out: &mut Vec<Finding>) {
    if matches!(origin(&file.path), Origin::Vendor(_)) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("cfg_attr") {
            continue;
        }
        // Only attribute position: preceded (modulo `!` and comments) by
        // `#[`, or nested directly inside another cfg_attr's argument
        // list — a plain `cfg_attr` ident elsewhere is someone's fn name.
        let attr_position = file
            .prev_code(i)
            .map(|p| p.is_punct('[') || p.is_punct(','))
            .unwrap_or(false);
        let open = file.skip_comments(i + 1);
        if !attr_position || !toks.get(open).map(|t| t.is_punct('(')).unwrap_or(false) {
            continue;
        }
        // Walk the argument list, splitting on depth-1 commas.
        let mut depth = 0usize;
        let mut k = open;
        let mut args = 0usize;
        let mut arg_head: Option<&Token> = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(',') && depth == 1 {
                if arg_head.is_some() {
                    args += 1;
                }
                arg_head = None;
            } else if !t.is_comment() && arg_head.is_none() {
                arg_head = Some(t);
                // Arguments past the predicate are the attributes
                // this cfg_attr applies.
                if args >= 1
                    && t.kind == TokKind::Ident
                    && (t.text == "cfg" || t.text == "cfg_attr")
                {
                    out.push(Finding {
                        path: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        rule: Rule::R2,
                        msg: format!(
                            "cfg_attr applies `{}` as its gated attribute; gating a \
                             condition under a condition silently changes the inner \
                             gate's meaning between configs — combine predicates with \
                             all(…)/any(…) in one cfg instead",
                            t.text
                        ),
                    });
                }
            }
            k += 1;
        }
        if arg_head.is_some() {
            args += 1;
        }
        if args < 2 {
            out.push(Finding {
                path: file.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                rule: Rule::R2,
                msg: format!(
                    "cfg_attr has {args} argument{}; it needs a predicate plus at least \
                     one attribute to apply (a bare predicate gates nothing)",
                    if args == 1 { "" } else { "s" }
                ),
            });
        }
    }
}

/// R2(b): flags references to trace-only names from code that builds
/// with the feature off.
pub fn r2_refs(file: &SourceFile, trace_only: &BTreeSet<String>, out: &mut Vec<Finding>) {
    if trace_only.is_empty() || matches!(origin(&file.path), Origin::Vendor(_)) {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident
            || file.gates[i] & (IN_TEST | IN_TRACE_ON) != 0
            || !trace_only.contains(&t.text)
        {
            continue;
        }
        // Skip the definition site itself (always in an ON region, so
        // already excluded) and shadowing field accesses are accepted as
        // the cost of a lexer-level check.
        out.push(Finding {
            path: file.path.clone(),
            line: t.line,
            col: t.col,
            rule: Rule::R2,
            msg: format!(
                "`{}` is defined only under #[cfg(feature = \"trace\")] but referenced from \
                 code that also builds with the feature off; gate this site or provide a \
                 no-trace twin (ZST no-op Tracer pattern)",
                t.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// R3 — hot-path panic audit
// ---------------------------------------------------------------------------

/// R3: unwrap/expect and uncommented non-literal indexing in hot paths.
pub fn r3(file: &SourceFile, out: &mut Vec<Finding>) {
    if !HOT_PATHS.contains(&file.path.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.gates[i] & IN_TEST != 0 {
            continue;
        }
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && file.prev_code(i).map(|p| p.is_punct('.')).unwrap_or(false)
            && toks
                .get(file.skip_comments(i + 1))
                .map(|n| n.is_punct('('))
                .unwrap_or(false)
        {
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                col: t.col,
                rule: Rule::R3,
                msg: format!(
                    ".{}() in a hot path aborts the whole run on a modeling bug; return an \
                     error, prove the invariant with a comment + simlint allow, or restructure",
                    t.text
                ),
            });
        }
        // Index expressions: `expr[...]` where the subscript is not a
        // bare numeric literal and no comment within one line above
        // argues why it cannot be out of bounds.
        if t.is_punct('[') {
            // Keywords that put a following `[` in type or
            // expression-start position (`&mut [u64]`, `return [a, b]`),
            // not subscript position.
            const NON_POSTFIX: &[&str] = &[
                "mut", "dyn", "ref", "as", "in", "if", "else", "match", "return", "break", "move",
                "where", "impl", "for",
            ];
            let postfix = file
                .prev_code(i)
                .map(|p| {
                    p.kind == TokKind::Ident
                        && !DEF_KEYWORDS.contains(&p.text.as_str())
                        && !NON_POSTFIX.contains(&p.text.as_str())
                        || p.is_punct(')')
                        || p.is_punct(']')
                })
                .unwrap_or(false);
            if !postfix {
                continue;
            }
            // `vec![…]`-style macro invocations are not indexing.
            if file.prev_code(i).map(|p| p.is_punct('!')).unwrap_or(false) {
                continue;
            }
            let j = file.skip_comments(i + 1);
            let literal_subscript = toks
                .get(j)
                .map(|n| n.kind == TokKind::Number)
                .unwrap_or(false)
                && toks
                    .get(file.skip_comments(j + 1))
                    .map(|n| n.is_punct(']'))
                    .unwrap_or(false);
            if literal_subscript {
                continue;
            }
            if !file.comment_within(t.line, 1) {
                out.push(Finding {
                    path: file.path.clone(),
                    line: t.line,
                    col: t.col,
                    rule: Rule::R3,
                    msg: "non-literal index in a hot path with no justifying comment on this \
                          or the previous line; add one (or use .get())"
                        .into(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R4 — vendored-stub drift
// ---------------------------------------------------------------------------

/// The exported surface of the vendored stubs, parsed from
/// `vendor/*/src/*.rs`.
#[derive(Default)]
pub struct VendorExports {
    /// crate name → module tree.
    crates: BTreeMap<String, ModDef>,
}

#[derive(Default)]
struct ModDef {
    items: BTreeSet<String>,
    mods: BTreeMap<String, ModDef>,
    /// Module contains a `pub use …::*;` glob — lookups inside succeed.
    glob: bool,
}

impl VendorExports {
    /// Parses one vendor source file into the export model.
    pub fn add_vendor_file(&mut self, path: &str, file: &SourceFile) {
        let Origin::Vendor(name) = origin(path) else {
            return;
        };
        let root = self.crates.entry(name.to_string()).or_default();
        collect_exports(&file.tokens, &mut 0, root);
        // Second pass: #[macro_export] macros land at the crate root no
        // matter which module defines them.
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if toks[i].is_ident("macro_export") {
                // Find `macro_rules ! name` after the attribute closes.
                let mut j = i;
                while j < toks.len() && !toks[j].is_ident("macro_rules") {
                    j += 1;
                }
                if j + 2 < toks.len() && toks[j + 1].is_punct('!') {
                    if let Some(nm) = toks.get(j + 2).filter(|t| t.kind == TokKind::Ident) {
                        root.items.insert(nm.text.clone());
                    }
                }
            }
        }
    }

    /// Whether the crate itself was registered.
    pub fn has_crate(&self, name: &str) -> bool {
        self.crates.contains_key(name)
    }

    /// Resolves `crate_name::seg::seg…`. Resolution succeeds when the
    /// path walks modules and lands on an exported item (or a glob'd
    /// module); segments past the first item hit (associated fns, enum
    /// variants) are trusted.
    pub fn resolves(&self, crate_name: &str, segs: &[&str]) -> bool {
        let Some(mut m) = self.crates.get(crate_name) else {
            return true; // crate not registered: nothing to check against
        };
        for (idx, seg) in segs.iter().enumerate() {
            if *seg == "self" || *seg == "crate" {
                continue;
            }
            if *seg == "*" {
                return true; // glob import of a module we just resolved
            }
            if m.items.contains(*seg) {
                return true; // item found; trailing segments are associated
            }
            if let Some(next) = m.mods.get(*seg) {
                m = next;
                continue;
            }
            if m.glob {
                return true;
            }
            // Last segment may be a module import (`use rand::rngs;`).
            let _ = idx;
            return false;
        }
        true // path names a module — fine (`use rand::rngs;`)
    }

    /// Whether a macro name exists at some crate's root.
    pub fn macro_at_root(&self, crate_name: &str, name: &str) -> bool {
        self.crates
            .get(crate_name)
            .map(|m| m.items.contains(name))
            .unwrap_or(true)
    }
}

/// Walks tokens from `*pos`, collecting `pub` items into `m`, until the
/// matching `}` of the current module (or EOF at depth 0).
fn collect_exports(toks: &[Token], pos: &mut usize, m: &mut ModDef) {
    while *pos < toks.len() {
        let t = &toks[*pos];
        if t.is_punct('}') {
            return; // caller consumes
        }
        if t.is_ident("pub") {
            let mut j = next_code(toks, *pos + 1);
            // `pub(crate)` etc. are not part of the external surface.
            if toks.get(j).map(|n| n.is_punct('(')).unwrap_or(false) {
                j = skip_balanced(toks, j, '(', ')');
                j = next_code(toks, j);
                *pos = j;
                skip_item(toks, pos);
                continue;
            }
            let Some(kw) = toks.get(j) else {
                return;
            };
            if kw.is_ident("mod") {
                let ni = next_code(toks, j + 1);
                if let Some(nm) = toks.get(ni).filter(|t| t.kind == TokKind::Ident) {
                    let child = m.mods.entry(nm.text.clone()).or_default();
                    let bi = next_code(toks, ni + 1);
                    if toks.get(bi).map(|t| t.is_punct('{')).unwrap_or(false) {
                        *pos = bi + 1;
                        collect_exports(toks, pos, child);
                        // consume the closing brace
                        if toks.get(*pos).map(|t| t.is_punct('}')).unwrap_or(false) {
                            *pos += 1;
                        }
                        continue;
                    }
                }
                *pos = j + 1;
                continue;
            }
            if kw.is_ident("use") {
                let end = collect_use_leaves(toks, j + 1, m);
                *pos = end;
                continue;
            }
            // `pub unsafe fn`, `pub const fn`, generics, etc.: scan ahead
            // to the first item keyword within this declaration head.
            let mut k = j;
            let mut name_recorded = false;
            while k < toks.len() {
                let kt = &toks[k];
                if kt.is_punct('{') || kt.is_punct(';') || kt.is_punct('=') {
                    break;
                }
                if kt.kind == TokKind::Ident && DEF_KEYWORDS.contains(&kt.text.as_str()) {
                    let ni = next_code(toks, k + 1);
                    if let Some(nm) = toks.get(ni).filter(|t| t.kind == TokKind::Ident) {
                        m.items.insert(nm.text.clone());
                        name_recorded = true;
                    }
                    break;
                }
                k += 1;
            }
            let _ = name_recorded;
            *pos = j;
            skip_item(toks, pos);
            continue;
        }
        if t.is_ident("impl") || t.is_ident("fn") || t.is_ident("trait") {
            // Private item or impl block: skip its body so nested code
            // cannot pollute the module surface.
            skip_item(toks, pos);
            continue;
        }
        if t.is_ident("use") {
            // Private import: skip to `;` so a brace tree inside it
            // (`use std::ops::{Deref, DerefMut};`) is not mistaken for
            // the end of the enclosing module.
            while *pos < toks.len() && !toks[*pos].is_punct(';') {
                *pos += 1;
            }
            *pos += 1;
            continue;
        }
        if t.is_punct('{') {
            // Stray braced construct (e.g. a const initializer block):
            // step over it wholesale.
            *pos = skip_balanced(toks, *pos, '{', '}');
            continue;
        }
        *pos += 1;
    }
}

/// Adds the leaf names of a `pub use …;` tree to `m`. Returns the token
/// index just past the terminating `;`.
fn collect_use_leaves(toks: &[Token], start: usize, m: &mut ModDef) -> usize {
    // Collect until `;`, tracking the last identifier of each
    // comma-separated leaf. An `as` rename's alias IS the exported name,
    // so simply remembering the final identifier handles both forms.
    let mut i = start;
    let mut last_ident: Option<String> = None;
    while let Some(t) = toks.get(i) {
        if t.is_punct(';') {
            i += 1;
            break;
        }
        match t.kind {
            TokKind::Ident if t.text == "as" => {}
            TokKind::Ident => last_ident = Some(t.text.clone()),
            TokKind::Punct => {
                let c = t.text.as_bytes().first().copied().unwrap_or(0);
                if c == b',' || c == b'}' {
                    if let Some(n) = last_ident.take() {
                        if n != "self" {
                            m.items.insert(n);
                        }
                    }
                } else if c == b'*' {
                    m.glob = true;
                    last_ident = None;
                }
            }
            _ => {}
        }
        i += 1;
    }
    if let Some(n) = last_ident.take() {
        if n != "self" {
            m.items.insert(n);
        }
    }
    i
}

fn next_code(toks: &[Token], mut i: usize) -> usize {
    while i < toks.len() && toks[i].is_comment() {
        i += 1;
    }
    i
}

/// Skips one item starting at `*pos`: to past the matching `}` of its
/// first top-level brace, or past the terminating `;`.
fn skip_item(toks: &[Token], pos: &mut usize) {
    let mut i = *pos;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            i = skip_balanced(toks, i, '{', '}');
            *pos = i;
            return;
        }
        if t.is_punct(';') {
            *pos = i + 1;
            return;
        }
        if t.is_punct('}') {
            // End of enclosing module before the item closed.
            *pos = i;
            return;
        }
        i += 1;
    }
    *pos = i;
}

/// Returns the index just past the delimiter matching `toks[open]`.
fn skip_balanced(toks: &[Token], open: usize, lhs: char, rhs: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(lhs) {
            depth += 1;
        } else if toks[i].is_punct(rhs) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// R4: checks every vendor-crate import/path in a non-vendor file.
pub fn r4(file: &SourceFile, exports: &VendorExports, out: &mut Vec<Finding>) {
    if matches!(origin(&file.path), Origin::Vendor(_)) {
        return;
    }
    let toks = &file.tokens;
    // Token ranges consumed by `use` declarations, so the inline-path
    // scan does not re-report them.
    let mut in_use = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("use") {
            let root_idx = next_code(toks, i + 1);
            if let Some(root) = toks.get(root_idx).filter(|t| t.kind == TokKind::Ident) {
                if VENDOR_CRATES.contains(&root.text.as_str()) && exports.has_crate(&root.text) {
                    let end = check_use_tree(file, toks, root_idx, &root.text, exports, out);
                    for flag in in_use.iter_mut().take(end.min(toks.len())).skip(i) {
                        *flag = true;
                    }
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    // Inline qualified paths `vendor::a::b` and macro calls.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_use[i] {
            continue;
        }
        // Macro heuristics: `prop_assert!`, `proptest!`, …
        if toks
            .get(next_code(toks, i + 1))
            .map(|n| n.is_punct('!'))
            .unwrap_or(false)
        {
            for (prefix, vendor) in MACRO_PREFIXES {
                if t.text.starts_with(prefix)
                    && exports.has_crate(vendor)
                    && !exports.macro_at_root(vendor, &t.text)
                {
                    out.push(Finding {
                        path: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        rule: Rule::R4,
                        msg: format!(
                            "macro `{}!` looks like a {} macro but the vendored stub does \
                             not export it",
                            t.text, vendor
                        ),
                    });
                    break;
                }
            }
            continue;
        }
        if !VENDOR_CRATES.contains(&t.text.as_str()) || !exports.has_crate(&t.text) {
            continue;
        }
        // Must be a path root: followed by `::`, not preceded by `.`,
        // `::` or an ident (e.g. `mod rand` or `fn bytes`).
        let prev = file.prev_code(i);
        if prev
            .map(|p| p.is_punct('.') || p.is_punct(':') || p.kind == TokKind::Ident)
            .unwrap_or(false)
        {
            continue;
        }
        let mut segs: Vec<&str> = Vec::new();
        let mut j = i;
        loop {
            let c1 = next_code(toks, j + 1);
            let c2 = next_code(toks, c1 + 1);
            let sep = toks.get(c1).map(|t| t.is_punct(':')).unwrap_or(false)
                && toks.get(c2).map(|t| t.is_punct(':')).unwrap_or(false);
            if !sep {
                break;
            }
            let ni = next_code(toks, c2 + 1);
            match toks.get(ni) {
                Some(n) if n.kind == TokKind::Ident => {
                    segs.push(n.text.as_str());
                    j = ni;
                }
                _ => break,
            }
        }
        if !segs.is_empty() && !exports.resolves(&t.text, &segs) {
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                col: t.col,
                rule: Rule::R4,
                msg: format!(
                    "path `{}::{}` does not resolve in the vendored {} stub (stub drift: add \
                     the item to vendor/{}/src or fix the path)",
                    t.text,
                    segs.join("::"),
                    t.text,
                    t.text
                ),
            });
        }
    }
}

/// Checks every leaf of one `use vendor::…;` tree. Returns the index
/// just past the `;`.
fn check_use_tree(
    file: &SourceFile,
    toks: &[Token],
    root_idx: usize,
    crate_name: &str,
    exports: &VendorExports,
    out: &mut Vec<Finding>,
) -> usize {
    // Parse the tree into leaf segment-paths with an explicit stack.
    let mut stack: Vec<Vec<String>> = vec![Vec::new()];
    let mut current: Vec<String> = Vec::new();
    let mut leaves: Vec<(Vec<String>, u32, u32)> = Vec::new();
    let mut i = next_code(toks, root_idx + 1);
    let mut skip_alias = false;
    let (mut ll, mut lc) = (toks[root_idx].line, toks[root_idx].col);
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct(';') {
            i += 1;
            break;
        }
        match t.kind {
            TokKind::Ident if t.text == "as" => skip_alias = true,
            TokKind::Ident if !skip_alias => {
                current.push(t.text.clone());
                ll = t.line;
                lc = t.col;
            }
            TokKind::Punct => match t.text.as_bytes().first().copied().unwrap_or(0) {
                b'{' => {
                    let mut prefix = stack.last().cloned().unwrap_or_default();
                    prefix.append(&mut current);
                    stack.push(prefix);
                }
                b'}' => {
                    if !current.is_empty() || skip_alias {
                        let mut full = stack.last().cloned().unwrap_or_default();
                        full.append(&mut current);
                        leaves.push((full, ll, lc));
                    }
                    skip_alias = false;
                    stack.pop();
                }
                b',' => {
                    if !current.is_empty() {
                        let mut full = stack.last().cloned().unwrap_or_default();
                        full.append(&mut current);
                        leaves.push((full, ll, lc));
                    }
                    skip_alias = false;
                }
                b'*' => {
                    let mut full = stack.last().cloned().unwrap_or_default();
                    full.append(&mut current);
                    full.push("*".to_string());
                    leaves.push((full, t.line, t.col));
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    if !current.is_empty() {
        let mut full = stack.last().cloned().unwrap_or_default();
        full.append(&mut current);
        leaves.push((full, ll, lc));
    }
    for (leaf, line, col) in &leaves {
        let segs: Vec<&str> = leaf.iter().map(|s| s.as_str()).collect();
        if !exports.resolves(crate_name, &segs) {
            out.push(Finding {
                path: file.path.clone(),
                line: *line,
                col: *col,
                rule: Rule::R4,
                msg: format!(
                    "`use {}::{}` does not resolve in the vendored {} stub (stub drift: add \
                     the item to vendor/{}/src or fix the import)",
                    crate_name,
                    segs.join("::"),
                    crate_name,
                    crate_name
                ),
            });
        }
    }
    i
}

// ---------------------------------------------------------------------------
// R5 — unsafe audit
// ---------------------------------------------------------------------------

/// R5(a): every `unsafe` token needs a `// SAFETY:` comment within 3
/// lines above. Applies everywhere, vendor included.
pub fn r5_safety(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        // `forbid(unsafe_code)` / `deny(unsafe_code)` mention the word
        // inside attributes; those tokens are `unsafe_code`, a different
        // ident, so no exclusion is needed here.
        let _ = i;
        if !file.safety_within(t.line, 3) {
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                col: t.col,
                rule: Rule::R5,
                msg: "`unsafe` without a `// SAFETY:` comment within 3 lines above; state \
                      the invariant that makes this sound"
                    .into(),
            });
        }
    }
}

/// Whether this file contains any `unsafe` token at all.
pub fn has_unsafe(file: &SourceFile) -> bool {
    file.tokens.iter().any(|t| t.is_ident("unsafe"))
}

/// Whether the file opens with `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe(file: &SourceFile) -> bool {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if toks[i].is_punct('#')
            && toks
                .get(next_code(toks, i + 1))
                .map(|t| t.is_punct('!'))
                .unwrap_or(false)
        {
            let j = next_code(toks, i + 1);
            let k = next_code(toks, j + 1); // '['
            let f = next_code(toks, k + 1);
            if toks.get(f).map(|t| t.is_ident("forbid")).unwrap_or(false) {
                let p = next_code(toks, f + 1);
                let a = next_code(toks, p + 1);
                if toks
                    .get(a)
                    .map(|t| t.is_ident("unsafe_code"))
                    .unwrap_or(false)
                {
                    return true;
                }
            }
        }
    }
    false
}

/// Whether a path is a target root that R5(b) stamps:
/// `src/lib.rs`, `src/main.rs`, or `src/bin/*.rs`.
pub fn is_target_root(path: &str) -> bool {
    path.ends_with("src/lib.rs")
        || path.ends_with("src/main.rs")
        || (path.contains("/src/bin/") && path.ends_with(".rs"))
}

// ---------------------------------------------------------------------------
// R6 — engine-queue isolation
// ---------------------------------------------------------------------------

/// Whether R6 applies to this file: a model crate's `src/` tree.
fn r6_in_scope(path: &str) -> bool {
    match origin(path) {
        Origin::Crate(n) => MODEL_CRATES.contains(&n) && path.contains("/src/"),
        _ => false,
    }
}

/// R6: bans direct `EventQueue` access (and its seq-level mutation
/// surface) in model-crate sources. Test modules are exempt — driving a
/// queue by hand is exactly what an engine test does.
pub fn r6(file: &SourceFile, out: &mut Vec<Finding>) {
    if !r6_in_scope(&file.path) {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident
            || file.gates[i] & IN_TEST != 0
            || !R6_BANNED.contains(&t.text.as_str())
        {
            continue;
        }
        // The seq methods only count as queue access in call position
        // (`.push_with_seq(`); a same-named local fn is someone else's.
        if t.text != "EventQueue" && !file.prev_code(i).map(|p| p.is_punct('.')).unwrap_or(false) {
            continue;
        }
        out.push(Finding {
            path: file.path.clone(),
            line: t.line,
            col: t.col,
            rule: Rule::R6,
            msg: format!(
                "`{}` is engine-internal: model code schedules through Cx::at so the \
                 deterministic (time, seq) total order cannot be bypassed; if this \
                 file *is* the engine, it says so with an allow-file(R6) directive",
                t.text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SourceFile;

    fn run_r1(path: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::analyze(path, src);
        let mut out = Vec::new();
        r1(&f, &mut out);
        out
    }

    #[test]
    fn r1_flags_hashmap_in_sim_crate_only() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8,u8>; }";
        assert_eq!(run_r1("crates/simcore/src/x.rs", src).len(), 2);
        assert_eq!(run_r1("crates/bench/src/x.rs", src).len(), 0);
        assert_eq!(run_r1("crates/simcore/tests/x.rs", src).len(), 0);
    }

    #[test]
    fn r1_instant_requires_now_or_time_path() {
        let hits = run_r1(
            "crates/simcore/src/x.rs",
            "use std::time::Instant;\nfn f() { let t = Instant::now(); }\nstruct Instant;",
        );
        assert_eq!(hits.len(), 2); // import + ::now, not the local struct
    }

    #[test]
    fn r1_skips_test_mods() {
        let hits = run_r1(
            "crates/octofs/src/x.rs",
            "#[cfg(test)]\nmod tests { use std::collections::HashMap; }",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn r3_literal_index_ok_variable_index_flagged() {
        let f = SourceFile::analyze(
            "crates/simcore/src/event.rs",
            "fn f(v: &[u8], i: usize) { let a = v[0]; let b = v[i]; }",
        );
        let mut out = Vec::new();
        r3(&f, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("non-literal index"));
    }

    #[test]
    fn r3_commented_index_passes() {
        let f = SourceFile::analyze(
            "crates/simcore/src/event.rs",
            "fn f(v: &[u8], i: usize) {\n  // i < v.len(): checked by caller\n  let b = v[i];\n}",
        );
        let mut out = Vec::new();
        r3(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn r3_unwrap_and_expect() {
        let f = SourceFile::analyze(
            "crates/rpc-core/src/driver.rs",
            "fn f(x: Option<u8>) { x.unwrap(); x.expect(\"msg\"); }",
        );
        let mut out = Vec::new();
        r3(&f, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn vendor_exports_resolution() {
        let stub = SourceFile::analyze(
            "vendor/rand/src/lib.rs",
            "pub trait Rng {}\npub mod rngs { pub struct SmallRng; }\n\
             pub use self::rngs::SmallRng;\n#[macro_export]\nmacro_rules! seeded { () => {} }",
        );
        let mut ex = VendorExports::default();
        ex.add_vendor_file("vendor/rand/src/lib.rs", &stub);
        assert!(ex.resolves("rand", &["Rng"]));
        assert!(ex.resolves("rand", &["rngs", "SmallRng"]));
        assert!(ex.resolves("rand", &["SmallRng"]));
        assert!(ex.resolves("rand", &["rngs"]));
        assert!(!ex.resolves("rand", &["rngs", "StdRng"]));
        assert!(!ex.resolves("rand", &["Missing"]));
        assert!(ex.macro_at_root("rand", "seeded"));
    }

    #[test]
    fn r4_flags_drifted_import_and_path() {
        let stub = SourceFile::analyze("vendor/rand/src/lib.rs", "pub trait Rng {}");
        let mut ex = VendorExports::default();
        ex.add_vendor_file("vendor/rand/src/lib.rs", &stub);
        let user = SourceFile::analyze(
            "crates/simcore/src/rng.rs",
            "use rand::{Rng, Missing};\nfn f() { let x = rand::absent::Thing; }",
        );
        let mut out = Vec::new();
        r4(&user, &ex, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out[0].msg.contains("Missing"));
        assert!(out[1].msg.contains("absent"));
    }

    #[test]
    fn r5_unsafe_needs_safety() {
        let f = SourceFile::analyze(
            "crates/x/src/a.rs",
            "fn f() { unsafe { g() } }\n// SAFETY: bounds checked above.\nfn h() { unsafe { g() } }",
        );
        let mut out = Vec::new();
        r5_safety(&f, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn forbid_unsafe_detection() {
        assert!(has_forbid_unsafe(&SourceFile::analyze(
            "crates/x/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\npub fn f() {}"
        )));
        assert!(!has_forbid_unsafe(&SourceFile::analyze(
            "crates/x/src/lib.rs",
            "pub fn f() {}"
        )));
    }

    #[test]
    fn catalog_is_the_six_lexer_rules() {
        assert_eq!(Rule::ALL.len(), 6);
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.id()), Some(r));
            assert!(!r.name().is_empty() && !r.summary().is_empty());
        }
        for gone in ["R7", "R8", "R9"] {
            assert_eq!(Rule::parse(gone), None, "{gone} is not a rule any more");
        }
    }

    #[test]
    fn origin_classification() {
        assert_eq!(
            origin("crates/simcore/src/lib.rs"),
            Origin::Crate("simcore")
        );
        assert_eq!(origin("vendor/rand/src/lib.rs"), Origin::Vendor("rand"));
        assert_eq!(origin("src/lib.rs"), Origin::Root);
        assert_eq!(origin("tests/determinism.rs"), Origin::Root);
    }
}
