//! A dependency-free TOML-subset parser.
//!
//! The scenario format needs tables, arrays-of-tables and scalar
//! key/value entries — nothing more — and CI builds offline, so this is
//! a hand-rolled single-pass parser rather than a crates.io dependency.
//! The accepted subset:
//!
//! - `# comment` to end of line, blank lines;
//! - `[name]` tables and `[[name]]` arrays-of-tables (bare single-segment
//!   names, `[A-Za-z0-9_-]+`);
//! - `key = value` entries inside a table (bare keys);
//! - values: basic `"strings"` (escapes `\\ \" \n \t`), integers
//!   (optional sign, `_` separators), floats and booleans.
//!
//! Not accepted (a typed [`ParseError`] with an exact line:column span,
//! never a panic): arrays (no scenario key takes one), dotted keys,
//! inline tables, multiline strings, dates, keys outside any table,
//! duplicate keys, redefined tables.

use std::fmt;

/// A source position, 1-based.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Line number (1-based).
    pub line: usize,
    /// Column number (1-based, in characters).
    pub col: usize,
}

/// A parsed scalar value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
        }
    }
}

/// One `key = value` entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// The bare key.
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// Where the key starts.
    pub span: Span,
}

/// One `[name]` or `[[name]]` table.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// The table name.
    pub name: String,
    /// True for `[[name]]` (array-of-tables element).
    pub array: bool,
    /// Where the header starts.
    pub span: Span,
    /// Entries in file order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// Looks up an entry by key.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed document: tables in file order.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Doc {
    /// All tables, `[[name]]` elements kept as separate entries.
    pub tables: Vec<Table>,
}

impl Doc {
    /// The single `[name]` table, if present.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// All `[[name]]` elements, in file order.
    pub fn tables_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Table> {
        self.tables.iter().filter(move |t| t.name == name)
    }
}

/// A parse failure with an exact source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Where the problem starts.
    pub span: Span,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.span.line, self.span.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, col: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        span: Span { line, col },
        msg: msg.into(),
    }
}

fn is_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// A cursor over one line's characters, tracking the column.
struct Line {
    chars: Vec<char>,
    pos: usize,
    line: usize,
}

impl Line {
    fn new(text: &str, line: usize) -> Self {
        Line {
            chars: text.chars().collect(),
            pos: 0,
            line,
        }
    }

    fn col(&self) -> usize {
        self.pos + 1
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    /// True when only whitespace or a comment remains.
    fn at_end(&mut self) -> bool {
        self.skip_ws();
        matches!(self.peek(), None | Some('#'))
    }

    fn take_key(&mut self) -> Option<String> {
        let start = self.pos;
        while self.peek().is_some_and(is_key_char) {
            self.pos += 1;
        }
        if self.pos == start {
            None
        } else {
            Some(self.chars[start..self.pos].iter().collect())
        }
    }

    fn parse_string(&mut self) -> Result<Value, ParseError> {
        let open_col = self.col();
        self.bump(); // consume the opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(err(self.line, open_col, "unterminated string")),
                Some('"') => return Ok(Value::Str(out)),
                Some('\\') => match self.bump() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    _ => {
                        return Err(err(
                            self.line,
                            self.col().saturating_sub(1),
                            "unsupported escape (only \\\\ \\\" \\n \\t)",
                        ))
                    }
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start_col = self.col();
        let start = self.pos;
        if matches!(self.peek(), Some('+' | '-')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' | '_' => self.pos += 1,
                '.' | 'e' | 'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                '+' | '-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let raw: String = self.chars[start..self.pos].iter().collect();
        if is_float {
            raw.replace('_', "")
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| err(self.line, start_col, format!("invalid float `{raw}`")))
        } else {
            raw.replace('_', "")
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| err(self.line, start_col, format!("invalid integer `{raw}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            None | Some('#') => Err(err(self.line, self.col(), "missing value")),
            Some('"') => self.parse_string(),
            Some('[') => Err(err(self.line, self.col(), "arrays are not supported")),
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' => self.parse_number(),
            Some(_) => {
                let col = self.col();
                match self.take_key().as_deref() {
                    Some("true") => Ok(Value::Bool(true)),
                    Some("false") => Ok(Value::Bool(false)),
                    Some(word) => Err(err(
                        self.line,
                        col,
                        format!("unrecognized value `{word}` (bare words must be true/false)"),
                    )),
                    None => Err(err(self.line, col, "unrecognized value")),
                }
            }
        }
    }
}

/// Parses a document. Errors carry the exact offending span.
pub fn parse(text: &str) -> Result<Doc, ParseError> {
    let mut doc = Doc::default();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let mut ln = Line::new(raw, lineno);
        if ln.at_end() {
            continue;
        }
        if ln.peek() == Some('[') {
            parse_header(&mut ln, &mut doc)?;
            continue;
        }
        let key_col = ln.col();
        let Some(key) = ln.take_key() else {
            return Err(err(lineno, key_col, "expected key or table header"));
        };
        ln.skip_ws();
        if ln.bump() != Some('=') {
            return Err(err(lineno, ln.col().saturating_sub(1), "expected `=`"));
        }
        let value = ln.parse_value()?;
        if !ln.at_end() {
            return Err(err(lineno, ln.col(), "trailing characters after value"));
        }
        let Some(table) = doc.tables.last_mut() else {
            return Err(err(lineno, key_col, "key outside any table"));
        };
        if table.get(&key).is_some() {
            return Err(err(lineno, key_col, format!("duplicate key `{key}`")));
        }
        table.entries.push(Entry {
            key,
            value,
            span: Span {
                line: lineno,
                col: key_col,
            },
        });
    }
    Ok(doc)
}

fn parse_header(ln: &mut Line, doc: &mut Doc) -> Result<(), ParseError> {
    let start_col = ln.col();
    ln.bump(); // `[`
    let array = ln.peek() == Some('[');
    if array {
        ln.bump();
    }
    let name_col = ln.col();
    let Some(name) = ln.take_key() else {
        return Err(err(ln.line, name_col, "expected table name"));
    };
    for _ in 0..if array { 2 } else { 1 } {
        if ln.bump() != Some(']') {
            return Err(err(ln.line, ln.col().saturating_sub(1), "expected `]`"));
        }
    }
    if !ln.at_end() {
        return Err(err(
            ln.line,
            ln.col(),
            "trailing characters after table header",
        ));
    }
    // `[x]` may appear once; `[[x]]` may repeat but must not clash with
    // a plain `[x]` and vice versa.
    if let Some(prev) = doc.tables.iter().find(|t| t.name == name) {
        if !(prev.array && array) {
            return Err(err(
                ln.line,
                start_col,
                format!("table `{name}` already defined"),
            ));
        }
    }
    doc.tables.push(Table {
        name,
        array,
        span: Span {
            line: ln.line,
            col: start_col,
        },
        entries: Vec::new(),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_and_scalars() {
        let doc =
            parse("# comment\n[scenario]\nname = \"demo\"\nseed = 42\nrate = 1.5\nflag = true\n")
                .unwrap();
        let t = doc.table("scenario").unwrap();
        assert_eq!(t.get("name").unwrap().value, Value::Str("demo".into()));
        assert_eq!(t.get("seed").unwrap().value, Value::Int(42));
        assert_eq!(t.get("rate").unwrap().value, Value::Float(1.5));
        assert_eq!(t.get("flag").unwrap().value, Value::Bool(true));
        // No key takes an array, so the subset has none.
        let e = parse("[scenario]\nlist = [1, 2, 3]\n").unwrap_err();
        assert_eq!(e.to_string(), "line 2:8: arrays are not supported");
    }

    #[test]
    fn array_of_tables_keeps_order() {
        let doc = parse("[[p]]\nx = 1\n[[p]]\nx = 2\n").unwrap();
        let xs: Vec<_> = doc
            .tables_named("p")
            .map(|t| t.get("x").unwrap().value.clone())
            .collect();
        assert_eq!(xs, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn errors_carry_exact_spans() {
        let e = parse("[t]\nkey 5\n").unwrap_err();
        assert_eq!(e.span, Span { line: 2, col: 5 });
        let e = parse("key = 1\n").unwrap_err();
        assert_eq!(e.span, Span { line: 1, col: 1 });
        let e = parse("[t]\nk = \"open\n").unwrap_err();
        assert_eq!(e.span, Span { line: 2, col: 5 });
        let e = parse("[t]\nk = 1\nk = 2\n").unwrap_err();
        assert_eq!(e.span, Span { line: 3, col: 1 });
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn rejects_redefined_table_and_mixed_kinds() {
        assert!(parse("[t]\n[t]\n").is_err());
        assert!(parse("[t]\n[[t]]\n").is_err());
        assert!(parse("[[t]]\n[t]\n").is_err());
        assert!(parse("[[t]]\n[[t]]\n").is_ok());
    }

    #[test]
    fn negative_and_underscored_numbers() {
        let doc = parse("[t]\na = -3\nb = 1_000_000\nc = -2.5\n").unwrap();
        let t = doc.table("t").unwrap();
        assert_eq!(t.get("a").unwrap().value, Value::Int(-3));
        assert_eq!(t.get("b").unwrap().value, Value::Int(1_000_000));
        assert_eq!(t.get("c").unwrap().value, Value::Float(-2.5));
    }
}
