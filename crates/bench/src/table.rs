//! Minimal fixed-width table printer for the figure reports, over typed
//! cells so a caller (e.g. `regress`) can read values back instead of
//! parsing strings.

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text: a row label, or a value with no numeric reading.
    Text(String),
    /// A cost in milli-cents (the unit of the benchmark's
    /// `cost_mc_per_query`), rendered in cents to the milli-cent.
    MilliCents(f64),
    /// A percentage; `proven: false` (rendered with a `*`) marks one taken
    /// against an oracle that hit its budget, i.e. an upper bound.
    Pct {
        /// The percentage.
        value: f64,
        /// Whether the reference value was proven optimal.
        proven: bool,
    },
    /// An exact work counter.
    Count(u64),
}

impl Cell {
    /// A cost cell.
    pub fn money(m: wisedb_core::Money) -> Cell {
        Cell::MilliCents(m.as_cents() * 1000.0)
    }

    /// The cell as printed.
    pub fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::MilliCents(mc) => format!("{:.3}", mc / 1000.0),
            Cell::Pct { value, proven } => {
                format!("{value:+.1}%{}", if *proven { "" } else { "*" })
            }
            Cell::Count(n) => n.to_string(),
        }
    }
}

impl From<&String> for Cell {
    fn from(s: &String) -> Cell {
        Cell::Text(s.clone())
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

/// A simple column-aligned table accumulated row by row.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
}

impl Table {
    /// Starts a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row<C: Into<Cell>>(&mut self, cells: impl IntoIterator<Item = C>) {
        let cells: Vec<Cell> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells);
    }

    /// Appends a line printed under the table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Replaces the title.
    pub fn titled(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["metric", "value"]);
        t.row(&["Max".to_string(), "1.0".to_string()]);
        t.row(&["PerQuery".to_string(), "12.5".to_string()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("metric"));
        let lines: Vec<&str> = s.lines().collect();
        // Header + separator + 2 rows + title.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn typed_cells_render_and_read_back() {
        let mut t = Table::new("demo", &["goal", "cost", "gap", "solves"]);
        t.row([
            Cell::from("Max"),
            Cell::money(wisedb_core::Money::from_cents(16.29)),
            Cell::Pct {
                value: 4.21,
                proven: false,
            },
            Cell::Count(150),
        ]);
        assert!(
            t.render().contains("16.290  +4.2%*     150"),
            "{}",
            t.render()
        );
        assert!(matches!(t.rows()[0][1], Cell::MilliCents(mc) if (mc - 16_290.0).abs() < 1e-6));
    }
}
