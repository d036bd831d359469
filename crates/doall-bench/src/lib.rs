//! The experiment harness: declarative scenario grids, a parallel sweep
//! engine, machine-readable results, and the scenario-suite runner that
//! executes the committed `scenarios/*.scn` files (every `e01`–`e17`
//! experiment is such a file — data, not Rust).
//!
//! Two front ends run the suite: `doall test --suite <dir>` (pass/fail
//! report, baseline diff) and the `all_experiments` binary via
//! [`suite_main`], which prints each experiment's tables with its title,
//! setup and notes, or emits one merged result set. The binary's flags
//! (`--smoke`, `--only`, `--json`, `--csv`, `--threads N`,
//! `--shard-size N`, `--out PATH`, `--max-ticks N`, …) are listed in
//! [`output::FLAGS_USAGE`].
//!
//! ```text
//! cargo run --release -p doall-bench --bin all_experiments            # full tables
//! cargo run --release -p doall-bench --bin all_experiments -- \
//!     --smoke --json --out bench-smoke.json                          # the CI artifact
//! cargo run --release -p doall-bench --bin all_experiments -- --only e05
//! ```
//!
//! The module split mirrors the pipeline: [`scenario`] (the `*.scn` file
//! format: grids + assertions) → [`grid`] (what to run) → [`sweep`] (run
//! it, in parallel, deterministically) → [`resultset`] (the record
//! schema and its deterministic JSON/CSV renderers) → [`output`] (which
//! rendering, and where it goes), with [`suite`] orchestrating
//! discovery, assertion evaluation, and the pass/fail report,
//! [`experiments`] holding the named derived-metric hooks plus the
//! binary entry point, and [`mod@compare`] diffing two result sets
//! cell by cell at tolerance 0. Host timings are not measured here: the
//! `perfbench/` program (declared in `BENCHMARK.json`) times these
//! public entry points from outside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod experiments;
pub mod grid;
pub mod output;
pub mod resultset;
pub mod scenario;
pub mod suite;
pub mod sweep;

pub use compare::{
    compare, compare_files, load_result_set, parse_result_set, preserve_measured_values,
    BaselineSet, CellDiff, CellKey, CellStatus, CompareError, Comparison, MetricDelta,
    DIFF_SCHEMA_VERSION,
};
pub use experiments::{derive_by_name, scenarios_dir, suite_main, DeriveFn};
pub use grid::{AdversarySpec, Cell, CrashStagger, Grid, GridError};
pub use output::{Flags, Format, Record, ResultSet, SCHEMA_VERSION};
pub use resultset::{canonical_adversary, parse_json, Json, ResultSetError};
pub use scenario::{Assertion, Scenario, ScenarioError};
pub use suite::{
    load_dir, run_scenario, run_suite, AssertionFailure, ScenarioOutcome, SuiteConfig, SuiteReport,
};
pub use sweep::{
    effective_shard_size, run_cells, run_cells_with_stats, CellMeasurement, SweepConfig,
    SweepError, SweepStats,
};

/// A Markdown table accumulated row by row and printed to stdout.
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

    /// Prints the table as GitHub-flavoured Markdown.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints an experiment header in the format EXPERIMENTS.md collates.
pub fn section(id: &str, reproduces: &str, setup: &str) {
    println!("\n## {id} — {reproduces}\n");
    println!("{setup}\n");
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
        t.row(vec!["1", "2"]);
        t.print(); // smoke: must not panic
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
