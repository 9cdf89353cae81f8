//! Plain-text and CSV table rendering for experiment results, and the
//! one place a report field is named: a report struct lists its fields
//! once, as `fields() -> Vec<Field>`, and the CLI table
//! ([`Table::key_value`]) reads that list.

use std::fmt;

/// The value of a report field.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count.
    Int(u64),
    /// A measurement and the decimals it is reported to.
    Float(f64, usize),
    /// A verdict.
    Bool(bool),
    /// A label.
    Text(String),
    /// A nested report.
    Object(Vec<Field>),
    /// A curve, or the runs of several scenarios.
    List(Vec<Value>),
}

/// A report field: its name — JSON key and table row alike — and value.
pub type Field = (&'static str, Value);

/// `x`, reported to `decimals` places.
pub fn float(x: f64, decimals: usize) -> Value {
    Value::Float(x, decimals)
}

/// One [`Value::Object`] per item, from its `fields()`.
pub fn list<T>(items: &[T], fields: impl Fn(&T) -> Vec<Field>) -> Value {
    Value::List(items.iter().map(|i| Value::Object(fields(i))).collect())
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

/// JSON on one line.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x, decimals) => write!(f, "{x:.decimals$}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Text(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (name, value)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}\"{name}\": {value}")?;
                }
                f.write_str("}")
            }
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{item}")?;
                }
                f.write_str("]")
            }
        }
    }
}

/// A rendered experiment result: a titled table of strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (the paper artifact it reproduces).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A metric/value table with one row per field.
    pub fn key_value(title: impl Into<String>, fields: &[Field]) -> Self {
        let mut t = Table::new(title, &["metric", "value"]);
        for (name, value) in fields {
            let cell = match value {
                Value::Text(s) => s.clone(),
                other => other.to_string(),
            };
            t.push_row(vec![name.to_string(), cell]);
        }
        t
    }

    /// Append a row (must match the header arity).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Render as CSV (header line + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "=== {} ===", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                write!(f, "{cell:>width$}  ", width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Format a float with `digits` decimals.
pub fn fnum(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("demo", &["miles", "value"]);
        t.push_row(vec!["1".into(), "10.5".into()]);
        t.push_row(vec!["10".into(), "7".into()]);
        let s = t.to_string();
        assert!(s.starts_with("=== demo ==="));
        assert!(s.contains("miles"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1,2".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"1,2\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn fields_render_as_json_and_as_rows() {
        let doc = vec![
            ("name", "a \"b\"".into()),
            ("ratio", float(0.97884, 4)),
            ("ok", true.into()),
            (
                "curve",
                list(&[1usize, 2], |&t| vec![("threads", t.into())]),
            ),
            ("io", Value::Object(vec![("reads", 3u64.into())])),
        ];
        assert_eq!(
            Value::Object(doc.clone()).to_string(),
            "{\"name\": \"a \\\"b\\\"\", \"ratio\": 0.9788, \"ok\": true, \
             \"curve\": [{\"threads\": 1}, {\"threads\": 2}], \"io\": {\"reads\": 3}}"
        );
        let t = Table::key_value("demo", &doc);
        assert_eq!(t.rows[0], ["name", "a \"b\""]);
        assert_eq!(t.rows[4], ["io", "{\"reads\": 3}"]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
