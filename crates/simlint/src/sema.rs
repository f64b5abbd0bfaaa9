//! simsema — the semantic layer over simlint (rules R7, R8, R9).
//!
//! Built on the [`crate::ast`] parser, this module understands three
//! `// simsema:` comment directives and enforces three rules:
//!
//! * **R7 fsm-transition-audit** — a state enum declares its legal
//!   transition table next to its definition:
//!
//!   ```text
//!   /* simsema: fsm(QpState): Reset->ReadyToSend, ReadyToSend->Error, terminal Done */
//!   ```
//!
//!   Chains (`A->B->C`) expand to consecutive edges, segments are
//!   comma-separated, and `terminal X` marks a state allowed to have no
//!   outgoing edge. Multiple `fsm` directives for the same enum in the
//!   same file merge (long tables stay readable). Every assignment whose
//!   right-hand side produces a variant of a declared enum is audited:
//!   the source state is inferred from the surrounding control flow
//!   (`match` arms, `==`/`!=` guards, early returns) or supplied
//!   explicitly with `/* simsema: from(A, B) */` (or `from(*)` for "any
//!   state") on the assignment's line or the line above. Undeclared
//!   transitions, states missing from the table, dead-end non-terminal
//!   states, and declared-but-never-performed edges are all findings.
//!
//! * **R8 time-unit-analysis** — dimensional checking over the
//!   `_ns`/`_us`/`_ms` naming convention: mixed-unit `+`/`-`/comparison
//!   operands, unit-suffixed bindings/fields/params initialized from a
//!   different unit, and unit-named calls (`SimDuration::micros`,
//!   `as_nanos`, …) fed a value of another unit. Multiplying or dividing
//!   by a power-of-1000 literal (or a `*_PER_*` scale constant) is
//!   recognized as a conversion and silences the expression.
//!
//! * **R9 counter-conservation** — issued-type counters must declare
//!   their conservation equation next to the struct:
//!
//!   ```text
//!   /* simsema: conserve(Harness: issued = completed + in_flight) */
//!   ```
//!
//!   Each term must resolve to a field of the struct or a method of a
//!   same-file `impl`. Any struct field named `issued`/`submitted` (or
//!   `*_issued`/`*_submitted`) without a covering equation is a finding.
//!
//! Directives are only recognized in plain `//` line comments whose
//! trimmed text *starts* with `simsema:` — doc comments can quote the
//! grammar freely. All three rules scope to `SIM_CRATES` `src/` trees
//! and skip `#[cfg(test)]` regions.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::analysis::{SourceFile, IN_TEST};
use crate::ast::{self, Arm, Ast, BinOp, Block, EnumDef, Expr, FnDef, Item, Stmt, StructDef};
use crate::lexer::TokKind;
use crate::rules::{origin, Finding, Origin, Rule, SIM_CRATES};

/// Whether the semantic rules apply to this file: a sim crate's `src/`
/// tree (fixtures and vendor stubs are out of scope; simlint itself is
/// not a sim crate, so its own docs never register directives).
pub fn in_scope(path: &str) -> bool {
    match origin(path) {
        Origin::Crate(n) => SIM_CRATES.contains(&n) && path.contains("/src/"),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Directive grammar
// ---------------------------------------------------------------------------

/// A parsed `fsm(...)` directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FsmSpec {
    /// The enum the table belongs to.
    pub name: String,
    /// Declared edges: `(from, to, byte offset of the edge's from-state
    /// within the directive body)`.
    pub edges: Vec<(String, String, usize)>,
    /// States declared `terminal` (no outgoing edge required).
    pub terminals: Vec<String>,
}

/// A parsed `from(...)` annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FromSpec {
    /// `from(*)` — any state.
    All,
    /// `from(A, B)` — exactly these states.
    Set(Vec<String>),
}

/// A parsed `conserve(...)` directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConserveSpec {
    /// The struct the equation belongs to.
    pub strukt: String,
    /// Left-hand side (the derived/issued-type quantity).
    pub total: String,
    /// Right-hand side terms.
    pub parts: Vec<String>,
}

/// One directive found in a file, with its anchor position.
#[derive(Clone, Debug)]
pub enum Directive {
    Fsm { spec: FsmSpec, line: u32, col: u32 },
    From { spec: FromSpec, line: u32 },
    Conserve { spec: ConserveSpec, line: u32, col: u32 },
    /// Syntactically a simsema directive, semantically broken. `rule`
    /// attributes the diagnostic (R9 for conserve, R7 otherwise).
    Malformed { msg: String, rule: Rule, line: u32, col: u32 },
}

/// A tiny cursor for the directive grammar.
struct Cur<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn new(s: &'a str) -> Cur<'a> {
        Cur { s: s.as_bytes(), i: 0 }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        if self.i < self.s.len() && self.s[self.i] == c {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// Reads an identifier, returning it with its byte offset.
    fn ident(&mut self) -> Option<(String, usize)> {
        self.ws();
        let start = self.i;
        while self.i < self.s.len() {
            let c = self.s[self.i] as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                self.i += 1;
            } else {
                break;
            }
        }
        if self.i == start || (self.s[start] as char).is_ascii_digit() {
            self.i = start;
            return None;
        }
        Some((
            String::from_utf8_lossy(&self.s[start..self.i]).into_owned(),
            start,
        ))
    }

    /// Consumes `->` if present.
    fn arrow(&mut self) -> bool {
        self.ws();
        if self.i + 1 < self.s.len() && self.s[self.i] == b'-' && self.s[self.i + 1] == b'>' {
            self.i += 2;
            true
        } else {
            false
        }
    }

    fn at_end(&mut self) -> bool {
        self.ws();
        self.i >= self.s.len()
    }
}

/// Parses the body of an `fsm` directive (everything after `simsema:`).
/// Offsets in the result are byte offsets into `body`.
pub fn parse_fsm_spec(body: &str) -> Result<FsmSpec, String> {
    let mut c = Cur::new(body);
    match c.ident() {
        Some((kw, _)) if kw == "fsm" => {}
        _ => return Err("expected `fsm`".to_string()),
    }
    if !c.eat(b'(') {
        return Err("expected `(` after `fsm`".to_string());
    }
    let Some((name, _)) = c.ident() else {
        return Err("expected enum name in `fsm(...)`".to_string());
    };
    if !c.eat(b')') {
        return Err("expected `)` after enum name".to_string());
    }
    if !c.eat(b':') {
        return Err("expected `:` after `fsm(...)`".to_string());
    }
    let mut edges = Vec::new();
    let mut terminals = Vec::new();
    loop {
        let Some((first, first_off)) = c.ident() else {
            return Err("expected a state name or `terminal`".to_string());
        };
        if first == "terminal" {
            let Some((t, _)) = c.ident() else {
                return Err("expected a state name after `terminal`".to_string());
            };
            terminals.push(t);
        } else {
            // A chain `A->B->C` of at least two states.
            let mut prev = (first, first_off);
            let mut hops = 0usize;
            while c.arrow() {
                let Some((next, next_off)) = c.ident() else {
                    return Err(format!("expected a state name after `{}->`", prev.0));
                };
                edges.push((prev.0.clone(), next.clone(), prev.1));
                prev = (next, next_off);
                hops += 1;
            }
            if hops == 0 {
                return Err(format!(
                    "state `{}` forms no transition; write `A->B` (or `terminal {}`)",
                    prev.0, prev.0
                ));
            }
        }
        if c.eat(b',') {
            continue;
        }
        if c.at_end() {
            break;
        }
        return Err("expected `,` between segments".to_string());
    }
    Ok(FsmSpec { name, edges, terminals })
}

/// Formats a spec back into directive-body syntax; the inverse of
/// [`parse_fsm_spec`] up to chain grouping and whitespace (edge sets and
/// terminal sets round-trip exactly).
pub fn format_fsm_spec(spec: &FsmSpec) -> String {
    let mut segs: Vec<String> = spec
        .edges
        .iter()
        .map(|(f, t, _)| format!("{f}->{t}"))
        .collect();
    segs.extend(spec.terminals.iter().map(|t| format!("terminal {t}")));
    format!("fsm({}): {}", spec.name, segs.join(", "))
}

/// Parses the body of a `from` annotation.
pub fn parse_from_spec(body: &str) -> Result<FromSpec, String> {
    let mut c = Cur::new(body);
    match c.ident() {
        Some((kw, _)) if kw == "from" => {}
        _ => return Err("expected `from`".to_string()),
    }
    if !c.eat(b'(') {
        return Err("expected `(` after `from`".to_string());
    }
    if c.eat(b'*') {
        if !c.eat(b')') {
            return Err("expected `)` after `*`".to_string());
        }
        if !c.at_end() {
            return Err("unexpected trailing text after `from(*)`".to_string());
        }
        return Ok(FromSpec::All);
    }
    let mut states = Vec::new();
    loop {
        let Some((s, _)) = c.ident() else {
            return Err("expected a state name in `from(...)`".to_string());
        };
        states.push(s);
        if c.eat(b',') {
            continue;
        }
        if c.eat(b')') {
            break;
        }
        return Err("expected `,` or `)` in `from(...)`".to_string());
    }
    if !c.at_end() {
        return Err("unexpected trailing text after `from(...)`".to_string());
    }
    Ok(FromSpec::Set(states))
}

/// Parses the body of a `conserve` directive.
pub fn parse_conserve_spec(body: &str) -> Result<ConserveSpec, String> {
    let mut c = Cur::new(body);
    match c.ident() {
        Some((kw, _)) if kw == "conserve" => {}
        _ => return Err("expected `conserve`".to_string()),
    }
    if !c.eat(b'(') {
        return Err("expected `(` after `conserve`".to_string());
    }
    let Some((strukt, _)) = c.ident() else {
        return Err("expected a struct name in `conserve(...)`".to_string());
    };
    if !c.eat(b':') {
        return Err("expected `:` after the struct name".to_string());
    }
    let Some((total, _)) = c.ident() else {
        return Err("expected the conserved total after `:`".to_string());
    };
    if !c.eat(b'=') {
        return Err("expected `=` after the total".to_string());
    }
    let mut parts = Vec::new();
    loop {
        let Some((p, _)) = c.ident() else {
            return Err("expected a counter name on the right-hand side".to_string());
        };
        parts.push(p);
        if c.eat(b'+') {
            continue;
        }
        break;
    }
    if !c.eat(b')') {
        return Err("expected `)` closing `conserve(...)`".to_string());
    }
    if !c.at_end() {
        return Err("unexpected trailing text after `conserve(...)`".to_string());
    }
    Ok(ConserveSpec { strukt, total, parts })
}

/// Extracts the directive body from one comment token's text, if the
/// comment is a plain `//` line comment whose trimmed text starts with
/// `simsema:`. Returns the body and its byte offset within `text`.
fn directive_body(text: &str) -> Option<(&str, usize)> {
    let rest = text.strip_prefix("//")?;
    // `///` and `//!` are doc comments: grammar examples live there.
    if rest.starts_with('/') || rest.starts_with('!') {
        return None;
    }
    let trimmed = rest.trim_start();
    let lead = rest.len() - trimmed.len();
    let body = trimmed.strip_prefix("simsema:")?;
    Some((body, 2 + lead + "simsema:".len()))
}

/// Scans a file's comments for simsema directives.
pub fn directives(file: &SourceFile) -> Vec<Directive> {
    let mut out = Vec::new();
    for t in &file.tokens {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let Some((body, body_off)) = directive_body(&t.text) else {
            continue;
        };
        let col = t.col + body_off as u32;
        let verb = body
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect::<String>();
        let d = match verb.as_str() {
            "fsm" => match parse_fsm_spec(body) {
                Ok(mut spec) => {
                    // Rebase edge offsets onto the comment's column.
                    for e in &mut spec.edges {
                        e.2 += t.col as usize + body_off;
                    }
                    Directive::Fsm { spec, line: t.line, col }
                }
                Err(msg) => Directive::Malformed {
                    msg: format!("malformed fsm directive: {msg}"),
                    rule: Rule::R7,
                    line: t.line,
                    col,
                },
            },
            "from" => match parse_from_spec(body) {
                Ok(spec) => Directive::From { spec, line: t.line },
                Err(msg) => Directive::Malformed {
                    msg: format!("malformed from annotation: {msg}"),
                    rule: Rule::R7,
                    line: t.line,
                    col,
                },
            },
            "conserve" => match parse_conserve_spec(body) {
                Ok(spec) => Directive::Conserve { spec, line: t.line, col },
                Err(msg) => Directive::Malformed {
                    msg: format!("malformed conserve directive: {msg}"),
                    rule: Rule::R9,
                    line: t.line,
                    col,
                },
            },
            other => Directive::Malformed {
                msg: format!("unknown simsema directive `{other}`"),
                rule: Rule::R7,
                line: t.line,
                col,
            },
        };
        out.push(d);
    }
    out
}

// ---------------------------------------------------------------------------
// Symbol collection
// ---------------------------------------------------------------------------

/// Items of one file flattened out of modules, test regions excluded.
struct FileSyms<'a> {
    enums: Vec<&'a EnumDef>,
    structs: Vec<&'a StructDef>,
    /// Method names per `impl` target type.
    methods: BTreeMap<&'a str, Vec<&'a str>>,
    fns: Vec<&'a FnDef>,
}

fn collect_syms<'a>(file: &SourceFile, items: &'a [Item], syms: &mut FileSyms<'a>) {
    for item in items {
        match item {
            Item::Enum(e) => {
                if file.gate_at(e.line, e.col) & IN_TEST == 0 {
                    syms.enums.push(e);
                }
            }
            Item::Struct(s) => {
                if file.gate_at(s.line, s.col) & IN_TEST == 0 {
                    syms.structs.push(s);
                }
            }
            Item::Impl(i) => {
                let entry = syms.methods.entry(i.name.as_str()).or_default();
                for f in &i.fns {
                    entry.push(f.name.as_str());
                    if file.gate_at(f.line, f.col) & IN_TEST == 0 {
                        syms.fns.push(f);
                    }
                }
            }
            Item::Fn(f) => {
                if file.gate_at(f.line, f.col) & IN_TEST == 0 {
                    syms.fns.push(f);
                }
            }
            Item::Mod { items, .. } => collect_syms(file, items, syms),
            Item::Const { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace context (cross-file inputs of R7)
// ---------------------------------------------------------------------------

/// A validated FSM table, keyed by enum name in [`SemaCtx`].
#[derive(Clone, Debug)]
pub struct FsmTable {
    pub enum_name: String,
    /// The defining file.
    pub path: String,
    /// The enum's variant names.
    pub variants: Vec<String>,
    /// Declared edges with their directive spans (for unused-edge
    /// findings).
    pub edges: Vec<(String, String, u32, u32)>,
    pub terminals: Vec<String>,
}

impl FsmTable {
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.iter().any(|(f, t, _, _)| f == from && t == to)
    }
}

/// What one file contributes to the cross-file R7 state.
#[derive(Clone, Debug, Default)]
pub struct SemaCollect {
    /// Tables whose enum is defined in this file (valid edges only).
    pub tables: Vec<FsmTable>,
    /// Non-test enum definitions (for ambiguity detection).
    pub enum_defs: Vec<String>,
}

/// Cross-file semantic context.
#[derive(Debug, Default)]
pub struct SemaCtx {
    /// Enum name → its (unique) transition table.
    pub tables: BTreeMap<String, FsmTable>,
    /// Enum name → number of non-test definitions workspace-wide.
    pub enum_defs: BTreeMap<String, u32>,
}

/// Pass 1: what this file contributes to the workspace tables.
pub fn collect_file(file: &SourceFile, ast: &Ast) -> SemaCollect {
    let mut out = SemaCollect::default();
    if !in_scope(&file.path) {
        return out;
    }
    let mut syms = FileSyms {
        enums: Vec::new(),
        structs: Vec::new(),
        methods: BTreeMap::new(),
        fns: Vec::new(),
    };
    collect_syms(file, &ast.items, &mut syms);
    for e in &syms.enums {
        out.enum_defs.push(e.name.clone());
    }
    // Merge fsm directives per enum; only edges whose endpoints are
    // real variants enter the table (bad names are per-file findings).
    let mut merged: BTreeMap<String, FsmTable> = BTreeMap::new();
    for d in directives(file) {
        let Directive::Fsm { spec, line, .. } = d else {
            continue;
        };
        let Some(e) = syms.enums.iter().find(|e| e.name == spec.name) else {
            continue;
        };
        let variants: Vec<String> = e.variants.iter().map(|v| v.0.clone()).collect();
        let table = merged.entry(spec.name.clone()).or_insert_with(|| FsmTable {
            enum_name: spec.name.clone(),
            path: file.path.clone(),
            variants: variants.clone(),
            edges: Vec::new(),
            terminals: Vec::new(),
        });
        for (f, t, off) in &spec.edges {
            if variants.iter().any(|v| v == f) && variants.iter().any(|v| v == t) {
                let col = *off as u32;
                if !table.edges.iter().any(|(ef, et, _, _)| ef == f && et == t) {
                    table.edges.push((f.clone(), t.clone(), line, col));
                }
            }
        }
        for t in &spec.terminals {
            if variants.iter().any(|v| v == t) && !table.terminals.contains(t) {
                table.terminals.push(t.clone());
            }
        }
    }
    out.tables = merged.into_values().collect();
    out
}

/// Pass 2 input: merges all per-file contributions, reporting tables
/// declared in more than one file.
pub fn build_ctx(collects: &[SemaCollect], out: &mut Vec<Finding>) -> SemaCtx {
    let mut ctx = SemaCtx::default();
    for c in collects {
        for name in &c.enum_defs {
            *ctx.enum_defs.entry(name.clone()).or_insert(0) += 1;
        }
    }
    for c in collects {
        for table in &c.tables {
            if let Some(first) = ctx.tables.get(&table.enum_name) {
                out.push(Finding {
                    path: table.path.clone(),
                    line: table.edges.first().map(|e| e.2).unwrap_or(1),
                    col: 1,
                    rule: Rule::R7,
                    msg: format!(
                        "fsm table for `{}` is already declared in {}; \
                         a state machine has one defining table",
                        table.enum_name, first.path
                    ),
                });
            } else {
                ctx.tables.insert(table.enum_name.clone(), table.clone());
            }
        }
    }
    ctx
}

// ---------------------------------------------------------------------------
// Per-file checks
// ---------------------------------------------------------------------------

/// Performed transitions: `(enum, from, to)` triples observed at any
/// audited assignment, for the global unused-edge pass.
pub type PerformedEdges = BTreeSet<(String, String, String)>;

/// Runs R7/R8/R9 on one file. Findings go to `out`; transitions the
/// code performs are accumulated into `performed`.
pub fn check_file(
    file: &SourceFile,
    ast: &Ast,
    ctx: &SemaCtx,
    out: &mut Vec<Finding>,
    performed: &mut PerformedEdges,
) {
    if !in_scope(&file.path) {
        return;
    }
    let mut syms = FileSyms {
        enums: Vec::new(),
        structs: Vec::new(),
        methods: BTreeMap::new(),
        fns: Vec::new(),
    };
    collect_syms(file, &ast.items, &mut syms);
    let dirs = directives(file);
    let mut froms: BTreeMap<u32, FromSpec> = BTreeMap::new();
    let mut conserves: Vec<(&ConserveSpec, u32, u32)> = Vec::new();
    for d in &dirs {
        match d {
            Directive::Malformed { msg, rule, line, col } => out.push(Finding {
                path: file.path.clone(),
                line: *line,
                col: *col,
                rule: *rule,
                msg: msg.clone(),
            }),
            Directive::From { spec, line } => {
                froms.insert(*line, spec.clone());
            }
            Directive::Conserve { spec, line, col } => conserves.push((spec, *line, *col)),
            Directive::Fsm { spec, line, col } => {
                check_fsm_directive(file, spec, *line, *col, &syms, ctx, out);
            }
        }
    }
    check_conserve(file, &syms, &conserves, out);
    let mut w = Walker {
        file,
        ctx,
        froms: &froms,
        out,
        performed,
        constraints: Vec::new(),
        fn_unit: None,
    };
    for f in &syms.fns {
        w.fn_unit = call_unit(&f.name);
        if let Some(body) = &f.body {
            w.walk_block(body, true);
        }
    }
    // Const initializers are unit-checked too.
    check_consts(file, &ast.items, out);
}

/// Validates one fsm directive against the file's own symbols.
fn check_fsm_directive(
    file: &SourceFile,
    spec: &FsmSpec,
    line: u32,
    col: u32,
    syms: &FileSyms<'_>,
    ctx: &SemaCtx,
    out: &mut Vec<Finding>,
) {
    let push = |out: &mut Vec<Finding>, l: u32, c: u32, msg: String| {
        out.push(Finding { path: file.path.clone(), line: l, col: c, rule: Rule::R7, msg });
    };
    let Some(e) = syms.enums.iter().find(|e| e.name == spec.name) else {
        push(
            out,
            line,
            col,
            format!(
                "fsm table for `{}` but no such enum is defined in this file; \
                 declare the table next to the enum definition",
                spec.name
            ),
        );
        return;
    };
    if ctx.enum_defs.get(&spec.name).copied().unwrap_or(0) > 1 {
        push(
            out,
            line,
            col,
            format!(
                "enum name `{}` is defined more than once in the workspace; \
                 fsm auditing needs an unambiguous name",
                spec.name
            ),
        );
    }
    let variants: Vec<&str> = e.variants.iter().map(|v| v.0.as_str()).collect();
    let mut states: BTreeSet<&str> = BTreeSet::new();
    for (f, t, off) in &spec.edges {
        for s in [f, t] {
            if !variants.contains(&s.as_str()) {
                push(
                    out,
                    line,
                    *off as u32 + col_rebase(file, line, col),
                    format!("state `{s}` in the fsm table is not a variant of `{}`", spec.name),
                );
            }
        }
        states.insert(f);
        states.insert(t);
    }
    for t in &spec.terminals {
        if !variants.contains(&t.as_str()) {
            push(
                out,
                line,
                col,
                format!("terminal state `{t}` is not a variant of `{}`", spec.name),
            );
        }
        states.insert(t);
    }
    // Merged view for coverage checks: this directive alone may be one
    // of several; use the ctx table when it exists for this file.
    let merged = ctx.tables.get(&spec.name).filter(|t| t.path == file.path);
    if let Some(table) = merged {
        for (v, vl, vc) in &e.variants {
            let covered = table.edges.iter().any(|(f, t, _, _)| f == v || t == v)
                || table.terminals.iter().any(|t| t == v);
            if !covered {
                push(
                    out,
                    *vl,
                    *vc,
                    format!(
                        "variant `{v}` of `{}` is missing from its fsm table; \
                         add a transition or declare it `terminal {v}`",
                        spec.name
                    ),
                );
            }
        }
        // Dead ends: a state with incoming edges but no outgoing edge
        // and no terminal declaration is the QpState-poisoning shape.
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (f, t, _, _) in &table.edges {
            seen.insert(f);
            seen.insert(t);
        }
        for s in seen {
            let has_out = table.edges.iter().any(|(f, _, _, _)| f == s);
            let terminal = table.terminals.iter().any(|t| t == s);
            if !has_out && !terminal && variants.contains(&s) {
                push(
                    out,
                    line,
                    col,
                    format!(
                        "state `{s}` of `{}` has no outgoing transition and is not \
                         declared terminal — a dead-end state",
                        spec.name
                    ),
                );
            }
        }
    }
}

/// Directive-edge offsets are absolute columns already (rebased in
/// [`directives`]); this exists to keep the call sites honest about it.
fn col_rebase(_file: &SourceFile, _line: u32, _col: u32) -> u32 {
    0
}

/// R9: conserve directives + the issued-counter pairing heuristic.
fn check_conserve(
    file: &SourceFile,
    syms: &FileSyms<'_>,
    conserves: &[(&ConserveSpec, u32, u32)],
    out: &mut Vec<Finding>,
) {
    let push = |out: &mut Vec<Finding>, l: u32, c: u32, msg: String| {
        out.push(Finding { path: file.path.clone(), line: l, col: c, rule: Rule::R9, msg });
    };
    for (spec, line, col) in conserves {
        let Some(s) = syms.structs.iter().find(|s| s.name == spec.strukt) else {
            push(
                out,
                *line,
                *col,
                format!(
                    "conserve directive for `{}` but no such struct is defined in \
                     this file; declare the equation next to the struct",
                    spec.strukt
                ),
            );
            continue;
        };
        let methods = syms.methods.get(spec.strukt.as_str());
        for term in std::iter::once(&spec.total).chain(spec.parts.iter()) {
            let is_field = s.fields.iter().any(|(f, _, _)| f == term);
            let is_method = methods.map(|m| m.contains(&term.as_str())).unwrap_or(false);
            if !is_field && !is_method {
                push(
                    out,
                    *line,
                    *col,
                    format!(
                        "`{term}` in conserve({}) is neither a field nor a \
                         same-file method of `{}`",
                        spec.strukt, spec.strukt
                    ),
                );
            }
        }
    }
    // Heuristic: issued-type fields must appear in some equation.
    for s in &syms.structs {
        for (fname, fl, fc) in &s.fields {
            let base = fname.as_str();
            let issuedish = base == "issued"
                || base == "submitted"
                || base.ends_with("_issued")
                || base.ends_with("_submitted");
            if !issuedish {
                continue;
            }
            let covered = conserves.iter().any(|(spec, _, _)| {
                spec.strukt == s.name
                    && (spec.total == *fname || spec.parts.iter().any(|p| p == fname))
            });
            if !covered {
                push(
                    out,
                    *fl,
                    *fc,
                    format!(
                        "issued-type counter `{fname}` of `{}` has no conserve \
                         declaration pairing it with completed/in-flight accessors; \
                         add `// simsema: conserve({}: …)`",
                        s.name, s.name
                    ),
                );
            }
        }
    }
}

/// R8 on `const`/`static` initializers (they sit outside fn bodies).
fn check_consts(file: &SourceFile, items: &[Item], out: &mut Vec<Finding>) {
    for item in items {
        match item {
            Item::Const { name, init: Some(init), line, col } => {
                if file.gate_at(*line, *col) & IN_TEST != 0 {
                    continue;
                }
                if let (Some(want), Some(got)) = (name_unit(name), expr_unit(init)) {
                    if want != got {
                        out.push(Finding {
                            path: file.path.clone(),
                            line: *line,
                            col: *col,
                            rule: Rule::R8,
                            msg: format!(
                                "time-unit mismatch: `{name}` is {want} but its \
                                 initializer is {got}"
                            ),
                        });
                    }
                }
            }
            Item::Mod { items, .. } => check_consts(file, items, out),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The combined R7/R8 expression walk
// ---------------------------------------------------------------------------

/// A flow constraint: while active, `place` (by canonical key) holds one
/// of `allowed` variants of `enum_name`.
struct Constraint {
    key: String,
    enum_name: String,
    allowed: BTreeSet<String>,
}

struct Walker<'a> {
    file: &'a SourceFile,
    ctx: &'a SemaCtx,
    froms: &'a BTreeMap<u32, FromSpec>,
    out: &'a mut Vec<Finding>,
    performed: &'a mut PerformedEdges,
    constraints: Vec<Constraint>,
    /// Unit implied by the enclosing fn's name (for return checks).
    fn_unit: Option<Unit>,
}

impl<'a> Walker<'a> {
    fn push_finding(&mut self, rule: Rule, line: u32, col: u32, msg: String) {
        if self.file.gate_at(line, col) & IN_TEST != 0 {
            return;
        }
        self.out.push(Finding { path: self.file.path.clone(), line, col, rule, msg });
    }

    /// Walks a block. `is_fn_body` enables return-unit checking of the
    /// tail expression.
    fn walk_block(&mut self, b: &Block, is_fn_body: bool) {
        let base = self.constraints.len();
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { name, init, line, col } => {
                    if let Some(init) = init {
                        if let Some(name) = name {
                            if let (Some(want), Some(got)) = (name_unit(name), expr_unit(init)) {
                                if want != got {
                                    self.push_finding(
                                        Rule::R8,
                                        *line,
                                        *col,
                                        format!(
                                            "time-unit mismatch: `{name}` is {want} but \
                                             its initializer is {got}"
                                        ),
                                    );
                                }
                            }
                        }
                        self.walk_expr(init);
                    }
                }
                Stmt::Expr(e) => {
                    self.walk_expr(e);
                    // Early-return inference: `if place != E::V { return; }`
                    // pins `place` for the rest of the block.
                    if let Expr::If { cond, then, else_: None, let_pats } = e {
                        if let_pats.is_empty() && block_diverges(then) {
                            let (_, else_cs) = self.cond_constraints(cond);
                            self.constraints.extend(else_cs);
                        }
                    }
                }
                Stmt::Item(item) => {
                    if let Item::Fn(f) = item {
                        let saved = self.fn_unit;
                        self.fn_unit = call_unit(&f.name);
                        if let Some(body) = &f.body {
                            let outer = std::mem::take(&mut self.constraints);
                            self.walk_block(body, true);
                            self.constraints = outer;
                        }
                        self.fn_unit = saved;
                    }
                }
            }
        }
        if let Some(tail) = &b.tail {
            self.walk_expr(tail);
            if is_fn_body {
                self.check_return_unit(tail);
            }
        }
        self.constraints.truncate(base);
    }

    fn check_return_unit(&mut self, e: &Expr) {
        if let (Some(want), Some(got)) = (self.fn_unit, expr_unit(e)) {
            if want != got {
                let (line, col) = e.pos().unwrap_or((0, 0));
                self.push_finding(
                    Rule::R8,
                    line,
                    col,
                    format!("time-unit mismatch: fn is named for {want} but returns {got}"),
                );
            }
        }
    }

    fn walk_expr(&mut self, e: &Expr) {
        match e {
            Expr::Assign { place, value, op, line, col } => {
                self.check_transition(place, value);
                let check = op.is_none() || op.map(|o| o.wants_same_unit()).unwrap_or(false);
                if check {
                    if let (Some(a), Some(b)) = (expr_unit(place), expr_unit(value)) {
                        if a != b {
                            self.push_finding(
                                Rule::R8,
                                *line,
                                *col,
                                format!(
                                    "time-unit mismatch: assigning {b} value to {a} place"
                                ),
                            );
                        }
                    }
                }
                self.walk_expr(place);
                self.walk_expr(value);
            }
            Expr::Binary { op, lhs, rhs, line, col } => {
                if op.wants_same_unit() {
                    if let (Some(a), Some(b)) = (expr_unit(lhs), expr_unit(rhs)) {
                        if a != b {
                            self.push_finding(
                                Rule::R8,
                                *line,
                                *col,
                                format!("time-unit mismatch: {a} vs {b} operands"),
                            );
                        }
                    }
                }
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            Expr::Call { callee, args, line, col } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if let Some(want) = segs.last().and_then(|s| call_unit(s)) {
                        for a in args {
                            if let Some(got) = expr_unit(a) {
                                if got != want {
                                    let (al, ac) = a.pos().unwrap_or((*line, *col));
                                    self.push_finding(
                                        Rule::R8,
                                        al,
                                        ac,
                                        format!(
                                            "time-unit mismatch: {got} argument passed to \
                                             `{}` which expects {want}",
                                            segs.join("::")
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                self.walk_expr(callee);
                for a in args {
                    self.walk_expr(a);
                }
            }
            Expr::MethodCall { recv, name, args, line, col } => {
                if let Some(want) = call_unit(name) {
                    for a in args {
                        if let Some(got) = expr_unit(a) {
                            if got != want {
                                let (al, ac) = a.pos().unwrap_or((*line, *col));
                                self.push_finding(
                                    Rule::R8,
                                    al,
                                    ac,
                                    format!(
                                        "time-unit mismatch: {got} argument passed to \
                                         `.{name}()` which expects {want}"
                                    ),
                                );
                            }
                        }
                    }
                } else if is_passthrough_method(name) {
                    if let Some(want) = expr_unit(recv) {
                        for a in args {
                            if let Some(got) = expr_unit(a) {
                                if got != want {
                                    let (al, ac) = a.pos().unwrap_or((*line, *col));
                                    self.push_finding(
                                        Rule::R8,
                                        al,
                                        ac,
                                        format!(
                                            "time-unit mismatch: {got} argument to \
                                             `.{name}()` on a {want} receiver"
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                self.walk_expr(recv);
                for a in args {
                    self.walk_expr(a);
                }
            }
            Expr::StructLit { fields, .. } => {
                for (fname, value, fl, fc) in fields {
                    if let (Some(want), Some(got)) = (name_unit(fname), expr_unit(value)) {
                        if want != got {
                            self.push_finding(
                                Rule::R8,
                                *fl,
                                *fc,
                                format!(
                                    "time-unit mismatch: field `{fname}` is {want} but \
                                     its initializer is {got}"
                                ),
                            );
                        }
                    }
                    self.walk_expr(value);
                }
            }
            Expr::If { cond, then, else_, .. } => {
                self.walk_expr(cond);
                let (then_cs, else_cs) = self.cond_constraints(cond);
                let base = self.constraints.len();
                self.constraints.extend(then_cs);
                self.walk_block(then, false);
                self.constraints.truncate(base);
                if let Some(else_) = else_ {
                    self.constraints.extend(else_cs);
                    self.walk_expr(else_);
                    self.constraints.truncate(base);
                }
            }
            Expr::Match { scrutinee, arms } => {
                self.walk_expr(scrutinee);
                self.walk_match(scrutinee, arms);
            }
            Expr::Loop { cond, body } => {
                let base = self.constraints.len();
                if let Some(cond) = cond {
                    self.walk_expr(cond);
                    let (then_cs, _) = self.cond_constraints(cond);
                    self.constraints.extend(then_cs);
                }
                self.walk_block(body, false);
                self.constraints.truncate(base);
            }
            Expr::Block(b) => self.walk_block(b, false),
            Expr::Return { value, .. } => {
                if let Some(v) = value {
                    self.walk_expr(v);
                    self.check_return_unit(v);
                }
            }
            Expr::Closure(body) => {
                // A closure's run time is unknown: flow constraints from
                // the enclosing fn do not apply inside it.
                let outer = std::mem::take(&mut self.constraints);
                self.walk_expr(body);
                self.constraints = outer;
            }
            Expr::Field { base, .. } => self.walk_expr(base),
            Expr::Unary(inner) | Expr::Cast(inner) => self.walk_expr(inner),
            Expr::Index { base, index } => {
                self.walk_expr(base);
                self.walk_expr(index);
            }
            Expr::Tuple(es) | Expr::Array(es) => {
                for e in es {
                    self.walk_expr(e);
                }
            }
            Expr::Range { lo, hi } => {
                if let Some(lo) = lo {
                    self.walk_expr(lo);
                }
                if let Some(hi) = hi {
                    self.walk_expr(hi);
                }
            }
            Expr::Path { .. }
            | Expr::Number { .. }
            | Expr::Lit
            | Expr::Jump
            | Expr::Macro { .. }
            | Expr::Unknown { .. } => {}
        }
    }

    /// Derives flow constraints from an `if`/`while` condition. The
    /// first vec holds then-branch constraints (every `&&`-conjunct
    /// contributes); the second holds else-branch constraints (only when
    /// the whole condition is a single comparison, so negation is exact).
    fn cond_constraints(&self, cond: &Expr) -> (Vec<Constraint>, Vec<Constraint>) {
        let mut then_cs = Vec::new();
        let mut conjuncts = Vec::new();
        split_conjuncts(cond, &mut conjuncts);
        for c in &conjuncts {
            if let Some((key, en, var, eq)) = self.variant_comparison(c) {
                let table = &self.ctx.tables[&en];
                let allowed: BTreeSet<String> = if eq {
                    std::iter::once(var.clone()).collect()
                } else {
                    table.variants.iter().filter(|v| **v != var).cloned().collect()
                };
                then_cs.push(Constraint { key, enum_name: en, allowed });
            }
        }
        let mut else_cs = Vec::new();
        if conjuncts.len() == 1 {
            if let Some((key, en, var, eq)) = self.variant_comparison(conjuncts[0]) {
                let table = &self.ctx.tables[&en];
                let allowed: BTreeSet<String> = if eq {
                    table.variants.iter().filter(|v| **v != var).cloned().collect()
                } else {
                    std::iter::once(var).collect()
                };
                else_cs.push(Constraint { key, enum_name: en, allowed });
            }
        }
        (then_cs, else_cs)
    }

    /// Matches `place == Enum::Variant` / `place != Enum::Variant` for a
    /// tracked enum. Returns `(place key, enum, variant, is_eq)`.
    fn variant_comparison(&self, e: &Expr) -> Option<(String, String, String, bool)> {
        let Expr::Binary { op, lhs, rhs, .. } = e else {
            return None;
        };
        let eq = match op {
            BinOp::Eq => true,
            BinOp::Ne => false,
            _ => return None,
        };
        for (place, path) in [(lhs, rhs), (rhs, lhs)] {
            if let Some((en, var)) = self.tracked_variant(path) {
                if let Some(key) = place_key(place) {
                    return Some((key, en, var, eq));
                }
            }
        }
        None
    }

    /// If `e` is a qualified `Enum::Variant` path of a tracked enum,
    /// returns the pair.
    fn tracked_variant(&self, e: &Expr) -> Option<(String, String)> {
        let Expr::Path { segs, .. } = e else {
            return None;
        };
        if segs.len() < 2 {
            return None;
        }
        let en = &segs[segs.len() - 2];
        let var = &segs[segs.len() - 1];
        let table = self.ctx.tables.get(en)?;
        if table.variants.iter().any(|v| v == var) {
            Some((en.clone(), var.clone()))
        } else {
            None
        }
    }

    fn walk_match(&mut self, scrutinee: &Expr, arms: &[Arm]) {
        // Keys the scrutinee (or its tuple elements) binds.
        let mut keys: Vec<String> = Vec::new();
        match scrutinee {
            Expr::Tuple(es) => keys.extend(es.iter().filter_map(place_key)),
            other => keys.extend(place_key(other)),
        }
        // Per tracked enum: which variants does each arm mention?
        let mut mentioned: BTreeMap<String, Vec<BTreeSet<String>>> = BTreeMap::new();
        for (i, arm) in arms.iter().enumerate() {
            for p in &arm.pat_paths {
                if p.len() < 2 {
                    continue;
                }
                let en = &p[p.len() - 2];
                let var = &p[p.len() - 1];
                if let Some(table) = self.ctx.tables.get(en) {
                    if table.variants.iter().any(|v| v == var) {
                        let sets = mentioned
                            .entry(en.clone())
                            .or_insert_with(|| vec![BTreeSet::new(); arms.len()]);
                        sets[i].insert(var.clone());
                    }
                }
            }
        }
        for (i, arm) in arms.iter().enumerate() {
            let base = self.constraints.len();
            if !keys.is_empty() {
                for (en, sets) in &mentioned {
                    let table = &self.ctx.tables[en];
                    let allowed: BTreeSet<String> = if !sets[i].is_empty() {
                        sets[i].clone()
                    } else {
                        // Wildcard-ish arm: the complement of everything
                        // the other arms name.
                        let union: BTreeSet<&String> = sets.iter().flatten().collect();
                        table
                            .variants
                            .iter()
                            .filter(|v| !union.contains(v))
                            .cloned()
                            .collect()
                    };
                    if allowed.is_empty() {
                        continue;
                    }
                    for key in &keys {
                        self.constraints.push(Constraint {
                            key: key.clone(),
                            enum_name: en.clone(),
                            allowed: allowed.clone(),
                        });
                    }
                }
            }
            self.walk_expr(&arm.body);
            self.constraints.truncate(base);
        }
    }

    /// R7: audits one assignment whose RHS may produce tracked-enum
    /// variants.
    fn check_transition(&mut self, place: &Expr, value: &Expr) {
        let mut targets: Vec<(String, String, u32, u32)> = Vec::new();
        rhs_targets(value, self.ctx, &mut targets);
        if targets.is_empty() {
            return;
        }
        let anchor = place
            .pos()
            .or_else(|| targets.first().map(|t| (t.2, t.3)))
            .unwrap_or((0, 0));
        let enums: BTreeSet<&String> = targets.iter().map(|(e, _, _, _)| e).collect();
        for en in enums {
            let table = &self.ctx.tables[en];
            let from_set: Option<BTreeSet<String>> = if let Some(spec) = self
                .froms
                .get(&anchor.0)
                .or_else(|| self.froms.get(&(anchor.0.saturating_sub(1))))
            {
                match spec {
                    FromSpec::All => Some(table.variants.iter().cloned().collect()),
                    FromSpec::Set(states) => {
                        let mut set = BTreeSet::new();
                        for s in states {
                            if table.variants.iter().any(|v| v == s) {
                                set.insert(s.clone());
                            } else {
                                self.push_finding(
                                    Rule::R7,
                                    anchor.0,
                                    anchor.1,
                                    format!(
                                        "state `{s}` in from(...) is not a variant of `{en}`"
                                    ),
                                );
                            }
                        }
                        Some(set)
                    }
                }
            } else {
                self.inferred_from(place, en)
            };
            let Some(from_set) = from_set else {
                self.push_finding(
                    Rule::R7,
                    anchor.0,
                    anchor.1,
                    format!(
                        "cannot infer the source state of this `{en}` transition; \
                         annotate it with `// simsema: from(...)` or `from(*)`"
                    ),
                );
                continue;
            };
            for f in &from_set {
                for (te, tv, tl, tc) in &targets {
                    if te != en || f == tv {
                        continue;
                    }
                    self.performed.insert((en.clone(), f.clone(), tv.clone()));
                    if !table.has_edge(f, tv) {
                        self.push_finding(
                            Rule::R7,
                            *tl,
                            *tc,
                            format!(
                                "undeclared transition `{f} -> {tv}` for `{en}`; \
                                 declare it in the fsm table in {} or fix the code",
                                table.path
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Intersects active flow constraints matching `(place, enum)`.
    /// `None` means nothing is known about the source state.
    fn inferred_from(&self, place: &Expr, en: &str) -> Option<BTreeSet<String>> {
        let key = place_key(place)?;
        let mut acc: Option<BTreeSet<String>> = None;
        for c in &self.constraints {
            if c.key == key && c.enum_name == en {
                acc = Some(match acc {
                    None => c.allowed.clone(),
                    Some(prev) => prev.intersection(&c.allowed).cloned().collect(),
                });
            }
        }
        acc
    }
}

/// Splits a condition into `&&`-conjuncts.
fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary { op: BinOp::And, lhs, rhs, .. } = e {
        split_conjuncts(lhs, out);
        split_conjuncts(rhs, out);
    } else {
        out.push(e);
    }
}

/// Canonical key for an assignable place: `self.state`,
/// `self.clients[].conn`, … `None` when the place is not a stable path.
fn place_key(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } => Some(segs.join("::")),
        Expr::Field { base, name, .. } => Some(format!("{}.{name}", place_key(base)?)),
        Expr::Index { base, .. } => Some(format!("{}[]", place_key(base)?)),
        Expr::Unary(inner) | Expr::Cast(inner) => place_key(inner),
        _ => None,
    }
}

/// Whether a block definitely diverges (ends in `return`, `break`,
/// `continue`, or a panicking macro).
fn block_diverges(b: &Block) -> bool {
    let last: Option<&Expr> = b.tail.as_deref().or_else(|| {
        b.stmts.iter().rev().find_map(|s| match s {
            Stmt::Expr(e) => Some(e),
            _ => None,
        })
    });
    match last {
        Some(Expr::Return { .. }) | Some(Expr::Jump) => true,
        Some(Expr::Macro { name, .. }) => {
            matches!(name.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        }
        _ => false,
    }
}

/// Collects `Enum::Variant` targets from the structural value positions
/// of an assignment RHS: the path itself, `if`/`match` branch tails, and
/// block tails. Call arguments and struct-literal fields are not value
/// positions of *this* assignment.
fn rhs_targets(e: &Expr, ctx: &SemaCtx, out: &mut Vec<(String, String, u32, u32)>) {
    match e {
        Expr::Path { segs, line, col } if segs.len() >= 2 => {
            let en = &segs[segs.len() - 2];
            let var = &segs[segs.len() - 1];
            if let Some(table) = ctx.tables.get(en) {
                if table.variants.iter().any(|v| v == var) {
                    out.push((en.clone(), var.clone(), *line, *col));
                }
            }
        }
        Expr::If { then, else_, .. } => {
            if let Some(t) = &then.tail {
                rhs_targets(t, ctx, out);
            }
            if let Some(else_) = else_ {
                rhs_targets(else_, ctx, out);
            }
        }
        Expr::Match { arms, .. } => {
            for arm in arms {
                rhs_targets(&arm.body, ctx, out);
            }
        }
        Expr::Block(b) => {
            if let Some(t) = &b.tail {
                rhs_targets(t, ctx, out);
            }
        }
        Expr::Unary(inner) | Expr::Cast(inner) => rhs_targets(inner, ctx, out),
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Global pass
// ---------------------------------------------------------------------------

/// R7 global: every declared edge must be performed somewhere in the
/// workspace, else the table over-promises (self-edges are exempt:
/// they are always legal and never audited).
pub fn unused_edges(ctx: &SemaCtx, performed: &PerformedEdges, out: &mut Vec<Finding>) {
    for table in ctx.tables.values() {
        for (f, t, line, col) in &table.edges {
            if f == t {
                continue;
            }
            if !performed.contains(&(table.enum_name.clone(), f.clone(), t.clone())) {
                out.push(Finding {
                    path: table.path.clone(),
                    line: *line,
                    col: *col,
                    rule: Rule::R7,
                    msg: format!(
                        "declared transition `{f} -> {t}` of `{}` is never performed \
                         by any audited assignment; remove it or wire the code path",
                        table.enum_name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R8 unit algebra
// ---------------------------------------------------------------------------

/// A time unit implied by a name suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    Ns,
    Us,
    Ms,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Unit::Ns => "ns",
            Unit::Us => "us",
            Unit::Ms => "ms",
        })
    }
}

/// Unit of a variable/field name: the `_ns`/`_us`/`_ms` suffix
/// convention (case-insensitive, so `TIMEOUT_NS` counts).
pub fn name_unit(name: &str) -> Option<Unit> {
    let lower = name.to_ascii_lowercase();
    if lower.ends_with("_ns") {
        Some(Unit::Ns)
    } else if lower.ends_with("_us") {
        Some(Unit::Us)
    } else if lower.ends_with("_ms") {
        Some(Unit::Ms)
    } else {
        None
    }
}

/// Unit of a function/method name: suffix convention plus the
/// `nanos`/`micros`/`millis` constructor/accessor convention
/// (`SimDuration::micros`, `as_nanos`, `as_nanos_f64`, `median_us`, …).
pub fn call_unit(name: &str) -> Option<Unit> {
    let lower = name.to_ascii_lowercase();
    let base = lower.strip_suffix("_f64").unwrap_or(&lower);
    if base.ends_with("_ns") || base.ends_with("nanos") {
        Some(Unit::Ns)
    } else if base.ends_with("_us") || base.ends_with("micros") {
        Some(Unit::Us)
    } else if base.ends_with("_ms") || base.ends_with("millis") {
        Some(Unit::Ms)
    } else {
        None
    }
}

/// Methods that return a value of their receiver's unit and expect
/// same-unit arguments.
fn is_passthrough_method(name: &str) -> bool {
    matches!(
        name,
        "min" | "max" | "clamp"
            | "saturating_add" | "saturating_sub"
            | "wrapping_add" | "wrapping_sub"
            | "checked_add" | "checked_sub"
    )
}

/// Whether a numeric literal is a power-of-1000 scale factor
/// (`1000`, `1_000_000`, `1e9`, with or without a type suffix).
fn is_scale_literal(text: &str) -> bool {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let trimmed = cleaned
        .trim_end_matches(|c: char| c.is_ascii_alphabetic() && c != 'e' && c != 'E')
        .trim_end_matches(|c: char| c.is_ascii_digit())
        .len();
    // Keep digits: strip only a trailing type suffix like u64/f64.
    let mut s = cleaned.as_str();
    for suffix in [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
        "f32", "f64",
    ] {
        if let Some(rest) = s.strip_suffix(suffix) {
            s = rest;
            break;
        }
    }
    let _ = trimmed;
    match s.parse::<f64>() {
        Ok(v) => v == 1e3 || v == 1e6 || v == 1e9 || v == 1e12,
        Err(_) => false,
    }
}

/// Whether an identifier looks like a unit-scale constant
/// (`NANOS_PER_MICRO`, `US_PER_MS`, …).
fn is_scale_ident(name: &str) -> bool {
    let upper = name.to_ascii_uppercase();
    upper.contains("PER")
        && ["NANO", "MICRO", "MILLI", "NS", "US", "MS", "SEC"]
            .iter()
            .any(|u| upper.contains(u))
}

/// Whether an expression is a recognized scale factor.
fn is_scale_expr(e: &Expr) -> bool {
    match e {
        Expr::Number { text, .. } => is_scale_literal(text),
        Expr::Path { segs, .. } => segs.last().map(|s| is_scale_ident(s)).unwrap_or(false),
        Expr::Unary(inner) | Expr::Cast(inner) => is_scale_expr(inner),
        _ => false,
    }
}

/// The unit an expression's value carries, by the naming convention.
/// `None` means unitless or unknown — both unify with everything.
pub fn expr_unit(e: &Expr) -> Option<Unit> {
    match e {
        Expr::Path { segs, .. } => {
            if segs.len() >= 2 {
                // `Config::DEFAULT_TIMEOUT_NS` — unit from the constant
                // name; `Enum::Variant` has no suffix and yields None.
                name_unit(segs.last()?)
            } else {
                name_unit(&segs[0])
            }
        }
        Expr::Field { name, .. } => name_unit(name),
        Expr::MethodCall { recv, name, .. } => {
            if is_passthrough_method(name) {
                expr_unit(recv)
            } else {
                call_unit(name)
            }
        }
        Expr::Call { callee, .. } => match callee.as_ref() {
            Expr::Path { segs, .. } => segs.last().and_then(|s| call_unit(s)),
            _ => None,
        },
        Expr::Binary { op, lhs, rhs, .. } => match op {
            BinOp::Mul | BinOp::Div | BinOp::Rem => {
                if is_scale_expr(lhs) || is_scale_expr(rhs) {
                    // A conversion: the result's unit is deliberately
                    // different, so it unifies with anything.
                    None
                } else {
                    match (expr_unit(lhs), expr_unit(rhs)) {
                        (Some(u), None) => Some(u),
                        (None, Some(u)) => Some(u),
                        _ => None,
                    }
                }
            }
            BinOp::Add | BinOp::Sub => expr_unit(lhs).or_else(|| expr_unit(rhs)),
            _ => None,
        },
        Expr::Unary(inner) | Expr::Cast(inner) => expr_unit(inner),
        Expr::Block(b) => b.tail.as_deref().and_then(expr_unit),
        _ => None,
    }
}

/// Convenience used by lib.rs: parse + collect in one step.
pub fn parse_file(file: &SourceFile) -> Ast {
    ast::parse(&file.tokens)
}
