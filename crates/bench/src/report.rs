//! Table and CSV output helpers.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A simple aligned-column table that can also be dumped as CSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringify with `format!`).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{c:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Prints the table to stdout and writes it as CSV under
    /// `target/figures/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let mut path = PathBuf::from("target/figures");
        if fs::create_dir_all(&path).is_err() {
            return;
        }
        path.push(format!("{name}.csv"));
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.join(","));
        }
        let _ = fs::write(path, s);
    }
}

/// Formats a rate as the paper's Mops/s columns.
pub fn mops(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats microseconds.
pub fn us(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["clients", "Mops"]);
        t.row(vec!["40".into(), "11.04".into()]);
        t.row(vec!["400".into(), "1.96".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("clients"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
