//! Plain-text and CSV rendering of experiment results.

/// A rectangular results table with a title and footnotes.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (e.g. `Figure 5 — ...`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; each row should match `headers` in length.
    pub rows: Vec<Vec<String>>,
    /// Footnotes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a footnote.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders an aligned ASCII table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(cell.len());
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("  {cell:>w$}"));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimal places (the paper's usual precision).
#[must_use]
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float as a percentage with 1 decimal place.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1.50".into()]);
        t.row(vec!["beta,x".into(), "2.25".into()]);
        t.note("a footnote");
        t
    }

    #[test]
    fn render_contains_all_cells() {
        let s = sample().render();
        assert!(s.contains("Demo"));
        assert!(s.contains("alpha"));
        assert!(s.contains("2.25"));
        assert!(s.contains("footnote"));
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("name,value\n"));
        assert!(csv.contains("\"beta,x\""));
    }

    #[test]
    fn columns_align() {
        let s = sample().render();
        let lines: Vec<&str> = s.lines().collect();
        // Header and first data line end at the same column.
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(39.01), "39.0%");
    }
}
