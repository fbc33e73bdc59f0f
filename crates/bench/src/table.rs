//! Minimal aligned-text table rendering for experiment reports.

/// A simple text table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

/// Least-squares linear fit `y = a + b·x`; returns `(a, b, r_squared)`.
/// Used to verify the paper's "execution time is linear with respect to the
/// depth of the structure".
pub(crate) fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (0.0, 0.0, 1.0);
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return (sy / n, 0.0, 1.0);
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a + b * p.0)).powi(2)).sum();
    let r2 = if ss_tot.abs() < f64::EPSILON {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (a, b, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("name    value"));
        assert!(s.lines().count() == 4);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn perfect_line_has_r2_one() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let (a, b, r2) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quadratic_has_poor_r2_against_line_through_origin() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, (i * i) as f64)).collect();
        let (_, _, r2) = linear_fit(&pts);
        assert!(r2 < 0.99, "r2={r2}");
    }
}
