//! File model: tokens, cfg regions, comment geography, and
//! `// simlint:` directives.
//!
//! The rules need three kinds of context beyond the raw token stream:
//!
//! - **cfg regions** — which tokens sit inside `#[cfg(test)]`,
//!   `#[cfg(feature = "trace")]` or `#[cfg(not(feature = "trace"))]`
//!   gated items (attributes are parsed with balanced delimiters, so
//!   `cfg(all(test, feature = "trace"))` and `cfg_attr(…)` forms are
//!   classified correctly — `cfg_attr` is *not* a region gate);
//! - **comment geography** — which lines carry a comment at all
//!   (the R3 "indexing without a comment" check) and which carry a
//!   `SAFETY:` comment (R5);
//! - **directives** — `// simlint: allow(R1, R3)` suppresses those
//!   rules on the directive's line and the line below it.

use crate::lexer::{lex, Token};
use crate::rules::Rule;

/// Per-token gate flags (bitset).
pub const IN_TEST: u8 = 1;
pub const IN_TRACE_ON: u8 = 2;
pub const IN_TRACE_OFF: u8 = 4;

/// One analyzed source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Per-token gate flags, same length as `tokens`.
    pub gates: Vec<u8>,
    /// `has_comment[line]` — any comment token touches this line.
    pub has_comment: Vec<bool>,
    /// `has_safety[line]` — a comment containing `SAFETY:` touches it.
    pub has_safety: Vec<bool>,
    /// Suppressed rules per line: `(line, rule)` pairs, sorted.
    allows: Vec<(u32, Rule)>,
    /// Rules suppressed for the whole file by `// simlint: allow-file(Rn): reason`.
    allow_file: Vec<Rule>,
}

impl SourceFile {
    /// Lexes and annotates one file.
    pub fn analyze(path: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let max_line = tokens.last().map(|t| t.line).unwrap_or(0) as usize;
        let mut has_comment = vec![false; max_line + 2];
        let mut has_safety = vec![false; max_line + 2];
        let mut allows = Vec::new();
        let mut allow_file = Vec::new();
        for t in &tokens {
            if !t.is_comment() {
                continue;
            }
            let span_lines = t.text.bytes().filter(|&b| b == b'\n').count() as u32;
            for line in t.line..=t.line + span_lines {
                if let Some(slot) = has_comment.get_mut(line as usize) {
                    *slot = true;
                }
                if t.text.contains("SAFETY:") {
                    if let Some(slot) = has_safety.get_mut(line as usize) {
                        *slot = true;
                    }
                }
            }
            parse_allow_directive(&t.text, t.line, &mut allows);
            parse_allow_file_directive(&t.text, &mut allow_file);
        }
        allows.sort_unstable();
        allow_file.sort_unstable();
        allow_file.dedup();
        let gates = compute_gates(&tokens);
        SourceFile {
            path: path.to_string(),
            tokens,
            gates,
            has_comment,
            has_safety,
            allows,
            allow_file,
        }
    }

    /// Whether `rule` is suppressed at `line` by an inline directive
    /// (on the same line or the line directly above).
    pub fn allowed(&self, rule: Rule, line: u32) -> bool {
        self.allows
            .iter()
            .any(|&(l, r)| r == rule && (l == line || l + 1 == line))
    }

    /// Whether any line in `[line.saturating_sub(back), line]` carries a
    /// comment.
    pub fn comment_within(&self, line: u32, back: u32) -> bool {
        (line.saturating_sub(back)..=line)
            .any(|l| *self.has_comment.get(l as usize).unwrap_or(&false))
    }

    /// Whether a `SAFETY:` comment appears in `[line - back, line]`.
    pub fn safety_within(&self, line: u32, back: u32) -> bool {
        (line.saturating_sub(back)..=line)
            .any(|l| *self.has_safety.get(l as usize).unwrap_or(&false))
    }

    /// Index of the next non-comment token at or after `i`.
    pub fn skip_comments(&self, mut i: usize) -> usize {
        while i < self.tokens.len() && self.tokens[i].is_comment() {
            i += 1;
        }
        i
    }

    /// The previous non-comment token before index `i`, if any.
    pub fn prev_code(&self, i: usize) -> Option<&Token> {
        self.tokens[..i].iter().rev().find(|t| !t.is_comment())
    }

    /// Whether `rule` is suppressed for the entire file by an
    /// `allow-file` directive.
    pub fn file_allowed(&self, rule: Rule) -> bool {
        self.allow_file.contains(&rule)
    }
}

/// Extracts `// simlint: allow-file(R1, R2): reason` from one comment.
/// Stricter than the line-level form: the trimmed comment must *start*
/// with the directive (so prose mentioning the syntax cannot trigger
/// it), and a reason after the closing parenthesis is required.
fn parse_allow_file_directive(text: &str, out: &mut Vec<Rule>) {
    let Some(rest) = text.strip_prefix("//") else {
        return;
    };
    if rest.starts_with('/') || rest.starts_with('!') {
        return; // doc comments document, they don't configure
    }
    let Some(rest) = rest.trim_start().strip_prefix("simlint:") else {
        return;
    };
    let Some(args) = rest.trim_start().strip_prefix("allow-file(") else {
        return;
    };
    let Some(close) = args.find(')') else {
        return;
    };
    // A reason is mandatory: `): why` — otherwise the directive is inert.
    let after = args[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        return;
    };
    if reason.trim().is_empty() {
        return;
    }
    for part in args[..close].split(',') {
        if let Some(rule) = Rule::parse(part.trim()) {
            out.push(rule);
        }
    }
}

/// Extracts `simlint: allow(R1, R2)` from one comment's text.
fn parse_allow_directive(text: &str, line: u32, out: &mut Vec<(u32, Rule)>) {
    let Some(at) = text.find("simlint:") else {
        return;
    };
    let rest = &text[at + "simlint:".len()..];
    let Some(open) = rest.find("allow(") else {
        return;
    };
    let args = &rest[open + "allow(".len()..];
    let Some(close) = args.find(')') else {
        return;
    };
    for part in args[..close].split(',') {
        if let Some(rule) = Rule::parse(part.trim()) {
            out.push((line, rule));
        }
    }
}

/// What a `#[cfg(…)]` attribute gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GateKind {
    Test,
    TraceOn,
    TraceOff,
}

/// Computes per-token gate flags by walking attributes and bracketing
/// the item each gate applies to.
fn compute_gates(tokens: &[Token]) -> Vec<u8> {
    let mut gates = vec![0u8; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') {
            // Inner attributes (`#![…]`) configure the enclosing scope,
            // not a following item; skip them.
            let mut j = i + 1;
            while j < tokens.len() && tokens[j].is_comment() {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('!') {
                i = j + 1;
                continue;
            }
            if j < tokens.len() && tokens[j].is_punct('[') {
                let attr_end = match matching(tokens, j, '[', ']') {
                    Some(e) => e,
                    None => break,
                };
                let kinds = classify_cfg(&tokens[j + 1..attr_end]);
                if !kinds.is_empty() {
                    if let Some((start, end)) = gated_item(tokens, attr_end + 1) {
                        let mut mask = 0u8;
                        for k in &kinds {
                            mask |= match k {
                                GateKind::Test => IN_TEST,
                                GateKind::TraceOn => IN_TRACE_ON,
                                GateKind::TraceOff => IN_TRACE_OFF,
                            };
                        }
                        for g in &mut gates[start..=end] {
                            *g |= mask;
                        }
                    }
                }
                i = attr_end + 1;
                continue;
            }
        }
        i += 1;
    }
    gates
}

/// Classifies the token body of one outer attribute (`cfg(test)`,
/// `cfg(all(test, feature = "trace"))`, …). `cfg_attr` never gates.
fn classify_cfg(body: &[Token]) -> Vec<GateKind> {
    let mut kinds = Vec::new();
    let first = body.iter().find(|t| !t.is_comment());
    if !first.map(|t| t.is_ident("cfg")).unwrap_or(false) {
        return kinds;
    }
    if body.iter().any(|t| t.is_ident("test")) {
        kinds.push(GateKind::Test);
    }
    // Find `feature = "trace"` and decide polarity by whether a `not(`
    // opens before it and closes after it. The stub grammar in this
    // workspace never nests `not` deeper than one level.
    let mut depth_not: i32 = -1; // paren depth at which `not(` opened
    let mut depth: i32 = 0;
    let mut idx = 0;
    while idx < body.len() {
        let t = &body[idx];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth_not >= 0 && depth < depth_not {
                depth_not = -1;
            }
        } else if t.is_ident("not") {
            if body.get(idx + 1).map(|n| n.is_punct('(')).unwrap_or(false) {
                depth_not = depth + 1;
            }
        } else if t.is_ident("feature") {
            let eq = body.get(idx + 1).map(|n| n.is_punct('=')).unwrap_or(false);
            let val = body.get(idx + 2).map(|n| n.text.as_str());
            if eq && val == Some("\"trace\"") {
                kinds.push(if depth_not >= 0 {
                    GateKind::TraceOff
                } else {
                    GateKind::TraceOn
                });
            }
        }
        idx += 1;
    }
    kinds
}

/// Returns the token index of the delimiter matching `tokens[open]`.
fn matching(tokens: &[Token], open: usize, lhs: char, rhs: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(lhs) {
            depth += 1;
        } else if t.is_punct(rhs) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Finds the extent of the item a gate attribute applies to, starting
/// the search at token `from` (skipping further attributes and doc
/// comments). Returns `(start, end)` token indices inclusive, covering
/// a braced item to its closing `}` or a `;`-terminated one.
fn gated_item(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    // Skip stacked attributes and comments between the gate and the item.
    loop {
        while i < tokens.len() && tokens[i].is_comment() {
            i += 1;
        }
        if i + 1 < tokens.len() && tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
            i = matching(tokens, i + 1, '[', ']')? + 1;
        } else {
            break;
        }
    }
    let start = i;
    // Scan to the first top-level `{` (braced item) or `;` (declaration).
    // Track (), [] and <> shallowly: a `;` inside parentheses (e.g. an
    // array type `[u8; 8]` in a signature) must not end the item.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') && paren == 0 && bracket == 0 {
            let end = matching(tokens, i, '{', '}')?;
            return Some((start, end));
        } else if t.is_punct(';') && paren == 0 && bracket == 0 {
            return Some((start, i));
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_gated() {
        let f = SourceFile::analyze(
            "x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn inner() { bad(); }\n}\nfn after() {}",
        );
        let bad = f.tokens.iter().position(|t| t.is_ident("bad")).unwrap();
        let live = f.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        let after = f.tokens.iter().position(|t| t.is_ident("after")).unwrap();
        assert_eq!(f.gates[bad] & IN_TEST, IN_TEST);
        assert_eq!(f.gates[live], 0);
        assert_eq!(f.gates[after], 0);
    }

    #[test]
    fn cfg_all_test_and_trace() {
        let f = SourceFile::analyze(
            "x.rs",
            "#[cfg(all(test, feature = \"trace\"))]\nmod t { fn x() {} }",
        );
        let x = f.tokens.iter().position(|t| t.is_ident("x")).unwrap();
        assert_eq!(f.gates[x] & IN_TEST, IN_TEST);
        assert_eq!(f.gates[x] & IN_TRACE_ON, IN_TRACE_ON);
    }

    #[test]
    fn not_trace_is_off_gate() {
        let f = SourceFile::analyze(
            "x.rs",
            "#[cfg(not(feature = \"trace\"))]\nmod off { fn shadow() {} }\n\
             #[cfg(feature = \"trace\")]\nmod on { fn shadow() {} }",
        );
        let offs: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("shadow"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(f.gates[offs[0]] & IN_TRACE_OFF, IN_TRACE_OFF);
        assert_eq!(f.gates[offs[1]] & IN_TRACE_ON, IN_TRACE_ON);
    }

    #[test]
    fn cfg_attr_is_not_a_gate() {
        let f = SourceFile::analyze(
            "x.rs",
            "#[cfg_attr(not(feature = \"trace\"), allow(dead_code))]\nfn styled() {}",
        );
        let s = f.tokens.iter().position(|t| t.is_ident("styled")).unwrap();
        assert_eq!(f.gates[s], 0);
    }

    #[test]
    fn test_attribute_on_fn_is_gated() {
        let f = SourceFile::analyze("x.rs", "#[cfg(test)]\nfn probe() { target(); }");
        let t = f.tokens.iter().position(|t| t.is_ident("target")).unwrap();
        assert_eq!(f.gates[t] & IN_TEST, IN_TEST);
    }

    #[test]
    fn semicolon_terminated_items() {
        let f = SourceFile::analyze(
            "x.rs",
            "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}",
        );
        let h = f.tokens.iter().position(|t| t.is_ident("HashMap")).unwrap();
        let l = f.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert_eq!(f.gates[h] & IN_TEST, IN_TEST);
        assert_eq!(f.gates[l], 0);
    }

    #[test]
    fn allow_directive_covers_same_and_next_line() {
        let f = SourceFile::analyze(
            "x.rs",
            "// simlint: allow(R1, R3)\nx();\ny();\nz(); // simlint: allow(R5)",
        );
        assert!(f.allowed(Rule::R1, 1));
        assert!(f.allowed(Rule::R1, 2));
        assert!(f.allowed(Rule::R3, 2));
        assert!(!f.allowed(Rule::R1, 3));
        assert!(f.allowed(Rule::R5, 4));
        assert!(!f.allowed(Rule::R5, 2));
    }

    #[test]
    fn safety_and_comment_geography() {
        let f = SourceFile::analyze(
            "x.rs",
            "// SAFETY: in bounds.\nunsafe { x() }\n\nplain();\n// note\nindexed[0];",
        );
        assert!(f.safety_within(2, 3));
        assert!(!f.safety_within(4, 1));
        assert!(f.comment_within(6, 1));
        assert!(!f.comment_within(4, 0));
    }

    #[test]
    fn stacked_attributes_reach_the_item() {
        let f = SourceFile::analyze(
            "x.rs",
            "#[cfg(test)]\n#[derive(Debug)]\nstruct T { x: u8 }\nfn live() {}",
        );
        let x = f.tokens.iter().position(|t| t.is_ident("x")).unwrap();
        let l = f.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert_eq!(f.gates[x] & IN_TEST, IN_TEST);
        assert_eq!(f.gates[l], 0);
    }
}
