//! Aligned plain-text tables matching the paper's layout.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert!(
            cells.len() <= self.headers.len(),
            "row wider than header ({} > {})",
            cells.len(),
            self.headers.len()
        );
        let mut row = cells;
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Column widths in chars, the unit `format!`'s padding counts, so a
    /// column holding `µ` or `–` lines up too.
    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }

    /// Renders with `|`-separated, space-padded columns and a rule under
    /// the header.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let render_row = |cells: &[String], w: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(w)
                .map(|(c, &width)| format!("{c:<width$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        out.push_str(&render_row(&self.headers, &w));
        out.push('\n');
        let rule: Vec<String> = w.iter().map(|&width| "-".repeat(width)).collect();
        out.push_str(&format!("|-{}-|", rule.join("-|-")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &w));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["Method", "ADE", "FDE"]);
        t.push_row(vec![
            "PECNet-vanilla".into(),
            "0.948".into(),
            "1.785".into(),
        ]);
        t.push_row(vec!["x".into(), "1".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("Method"));
        assert!(lines[2].contains("PECNet-vanilla"));
    }

    #[test]
    fn non_ascii_cells_align_by_chars() {
        let mut t = TextTable::new(&["Model", "µs: median (p25–p75)"]);
        t.push_row(vec!["PECNet".into(), "212 (201–230)".into()]);
        let s = t.render();
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(widths.iter().all(|&w| w == widths[0]), "{s}");
        assert!(s.lines().next().unwrap().ends_with("(p25–p75) |"), "{s}");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(&["A", "B"]);
        t.push_row(vec!["only".into()]);
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("only"));
    }

    #[test]
    #[should_panic(expected = "row wider")]
    fn rejects_wide_rows() {
        let mut t = TextTable::new(&["A"]);
        t.push_row(vec!["x".into(), "y".into()]);
    }
}
