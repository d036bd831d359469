//! The experiment harness: declarative scenario grids, a parallel sweep
//! engine, machine-readable results, and the scenario-suite runner that
//! executes the committed `scenarios/*.scn` files (every `e01`–`e17`
//! experiment is such a file — data, not Rust).
//!
//! One front end runs the suite: `doall test --suite <dir>`. It prints
//! the pass/fail report (or diffs a baseline) on stdout and each
//! experiment's tables, with its title, setup and notes
//! ([`suite::render_sections`]), on stderr:
//!
//! ```text
//! doall test --suite scenarios/ --smoke --only e05 2> e05.md
//! ```
//!
//! The module split mirrors the pipeline: [`scenario`] (the `*.scn` file
//! format: grids + assertions) → [`grid`] (what to run) → [`sweep`] (run
//! it, in parallel, deterministically) → [`resultset`] (the record
//! schema and its deterministic JSON/CSV/Markdown renderers), with
//! [`suite`] orchestrating discovery, assertion evaluation, and the
//! pass/fail report, [`experiments`] holding the named derived-metric
//! hooks, and [`mod@compare`] diffing two result sets cell by cell at
//! tolerance 0. Host timings are not measured here: the `perfbench/`
//! program (declared in `BENCHMARK.json`) times these public entry
//! points from outside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod experiments;
pub mod grid;
pub mod resultset;
pub mod scenario;
pub mod suite;
pub mod sweep;

/// A Markdown table accumulated row by row and rendered to a string.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavoured Markdown (one trailing
    /// newline per row; deterministic for identical content).
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&format!("| {} |\n", padded.join(" | ")));
        };
        line(&self.headers, &mut out);
        let dashes: Vec<String> = widths.iter().map(|w| format!("{:->w$}", "-")).collect();
        out.push_str(&format!("|-{}-|\n", dashes.join("-|-")));
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Formats a float compactly for table cells.
#[must_use]
pub fn fmt(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["10", "2"]);
        assert_eq!(t.render(), "|  a | b |\n|----|---|\n| 10 | 2 |\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.5), "0.500");
        assert_eq!(fmt(42.123), "42.1");
        assert_eq!(fmt(12345.6), "12346");
    }
}
