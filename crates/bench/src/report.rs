//! Plain-text table rendering for the experiment harnesses.

/// A simple fixed-width table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: vec![] }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..cols {
                if c > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[c];
                // Right-align numbers, left-align text.
                if cell
                    .chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_digit() || ch == '-' || ch == '+')
                {
                    line.push_str(&" ".repeat(widths[c].saturating_sub(cell.len())));
                    line.push_str(cell);
                } else {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(widths[c].saturating_sub(cell.len())));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with engineering-style precision for tables.
pub fn f(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a != 0.0 && !(1e-3..1e5).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A section banner for harness output.
pub fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// An Observation line: a PASS/FAIL verdict against a paper claim.
pub fn observation(id: &str, claim: &str, holds: bool) -> String {
    format!("[{}] Observation {id}: {claim}", if holds { "PASS " } else { "FAIL " })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1.5".into()]);
        t.row(vec!["b".into(), "22.25".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("alpha"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.5), "0.5000");
        assert_eq!(f(123.45), "123.5");
        assert_eq!(f(1.0e7), "1.000e7");
        assert_eq!(f(0.00001), "1.000e-5");
        assert_eq!(f(f64::NAN), "NaN");
    }

    #[test]
    fn observation_verdicts() {
        assert!(observation("1", "x", true).starts_with("[PASS ]"));
        assert!(observation("1", "x", false).starts_with("[FAIL ]"));
    }
}
