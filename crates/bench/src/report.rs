//! Plain-text table rendering for experiment reports.

/// A simple aligned-column table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}  "));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Mean of a sample (0 for empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A report section with a title, paper-expectation note and body.
pub fn section(title: &str, paper: &str, body: &str) -> String {
    format!("\n=== {title} ===\nPaper: {paper}\n\n{body}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["action", "rbrr"]);
        t.row(&["typing".into(), "4.4%".into()]);
        t.row(&["enter-exit".into(), "38.6%".into()]);
        let s = t.render();
        assert!(s.contains("action"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // The rbrr column starts at the same offset in both data rows.
        let off1 = lines[2].find("4.4%").unwrap();
        let off2 = lines[3].find("38.6%").unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(38.64), "38.6%");
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn section_contains_parts() {
        let s = section("Fig 7", "expectation", "body");
        assert!(s.contains("Fig 7") && s.contains("expectation") && s.contains("body"));
    }
}
