//! The scenario-suite runner: discover `*.scn` files, execute each
//! scenario's grids through the shared sweep engine, evaluate its
//! assertions, and render an aggregated pass/fail report (optionally
//! diffed against a committed baseline).
//!
//! This is the engine behind `doall test --suite <dir>`, which also
//! prints each scenario's tables via [`render_sections`]. Determinism
//! contract: discovery sorts paths, cells are seeded from each
//! scenario's own grid spec (never from file order or execution order),
//! and the merged [`ResultSet`] is byte-identical across worker counts,
//! shard sizes, and directory-listing order.

use crate::compare::Comparison;
use crate::experiments::{derive_by_name, DERIVE_HOOKS};
use crate::grid::Cell;
use crate::resultset::{Record, ResultSet};
use crate::scenario::{Scenario, Verdict};
use crate::sweep::{default_threads, run_cells, SweepConfig};
use crate::Table;
use doall_sim::DEFAULT_MAX_TICKS;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// How to execute a suite (the flag subset that affects scenario runs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SuiteConfig {
    /// Run each scenario's smoke grids instead of the full grids.
    pub smoke: bool,
    /// Worker threads (`None` = available parallelism). Wall-clock only;
    /// never results.
    pub threads: Option<usize>,
    /// Replicates per shard (`None` = auto). Wall-clock only.
    pub shard_size: Option<u64>,
    /// Tick-cutoff override; `None` uses each scenario's own `max_ticks`
    /// (or the simulator default).
    pub max_ticks: Option<u64>,
}

/// Recursively discovers every `*.scn` file under `dir`, in sorted path
/// order — so suite output is independent of directory-listing order.
///
/// # Errors
///
/// Returns a message when `dir` is unreadable or contains no scenarios.
pub fn discover(dir: &Path) -> Result<Vec<PathBuf>, String> {
    #[allow(
        clippy::disallowed_methods,
        reason = "D004: directory order never escapes; `discover` sorts the collected paths"
    )]
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|ext| ext == "scn") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut paths = Vec::new();
    walk(dir, &mut paths)?;
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.scn files under {}", dir.display()));
    }
    Ok(paths)
}

/// Parses one scenario file, checking that its derive hook exists and
/// can derive for every algorithm its grids name (see
/// [`DERIVE_HOOKS`]), so a mismatch fails before any cell runs.
///
/// # Errors
///
/// Returns `"<path>: line N: <msg>"`-style messages.
pub fn load_file(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let scn = Scenario::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(name) = &scn.derive {
        let Some(&(_, _, (needs, accepts))) = DERIVE_HOOKS.iter().find(|(n, ..)| n == name) else {
            return Err(format!(
                "{}: unknown derive hook `{name}` (see doall_bench::experiments::DERIVE_HOOKS)",
                path.display()
            ));
        };
        let mut algos = scn.grids.iter().chain(&scn.smoke).flat_map(|g| &g.algos);
        if let Some(algo) = algos.find(|algo| !accepts(algo)) {
            return Err(format!(
                "{}: derive hook `{name}` cannot derive for algorithm `{algo}`: it needs {needs}",
                path.display()
            ));
        }
    }
    Ok(scn)
}

/// Discovers and parses every scenario under `dir` (sorted path order),
/// rejecting duplicate ids.
///
/// # Errors
///
/// Returns the first discovery, parse, validation, or duplicate-id
/// problem.
pub fn load_dir(dir: &Path) -> Result<Vec<Scenario>, String> {
    let mut scenarios = Vec::new();
    let mut seen: std::collections::BTreeMap<String, PathBuf> = std::collections::BTreeMap::new();
    for path in discover(dir)? {
        let scn = load_file(&path)?;
        if let Some(first) = seen.insert(scn.id.clone(), path.clone()) {
            return Err(format!(
                "duplicate scenario id `{}`: {} and {}",
                scn.id,
                first.display(),
                path.display()
            ));
        }
        scenarios.push(scn);
    }
    Ok(scenarios)
}

/// Why an assertion failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// The comparison evaluated and did not hold; `cell` names the exact
    /// offending cell for per-cell assertions (`None` for aggregates).
    Violated {
        /// `algo=… adversary=… p=… t=… d=… seeds=… seed=…`.
        cell: Option<String>,
        /// Observed left-hand value.
        lhs: f64,
        /// Observed right-hand value.
        rhs: f64,
    },
    /// The assertion evaluated on zero cells — every cell was filtered
    /// out, guarded off, or missing a referenced metric. Almost always a
    /// typo in a metric name or selector, so it fails rather than
    /// silently passing.
    NoMatch,
}

/// One failed assertion, with everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionFailure {
    /// Scenario id.
    pub scenario: String,
    /// The assertion, rendered canonically.
    pub assertion: String,
    /// What went wrong.
    pub kind: FailureKind,
}

impl fmt::Display for AssertionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FailureKind::Violated {
                cell: Some(cell),
                lhs,
                rhs,
            } => write!(
                f,
                "{}: `{}` violated at ({cell}): observed {lhs} vs {rhs}",
                self.scenario, self.assertion
            ),
            FailureKind::Violated {
                cell: None,
                lhs,
                rhs,
            } => write!(
                f,
                "{}: `{}` violated: observed {lhs} vs {rhs}",
                self.scenario, self.assertion
            ),
            FailureKind::NoMatch => write!(
                f,
                "{}: `{}` matched no cells (typo in a metric or selector?)",
                self.scenario, self.assertion
            ),
        }
    }
}

/// The exact-cell label required of failure reports: everything needed
/// to re-run the offending cell, including its derived seed.
#[must_use]
pub fn cell_label(cell: &Cell) -> String {
    format!(
        "algo={} adversary={} p={} t={} d={} seeds={} seed={:#018x}",
        cell.algo, cell.adversary, cell.p, cell.t, cell.d, cell.seeds, cell.cell_seed
    )
}

/// Runs one scenario under `cfg`: expands and validates its grids, runs
/// the cells through the sweep engine, applies the derive hook, and
/// evaluates every assertion. Returns the scenario's tallies and its
/// records (measured + derived metrics), in cell order.
///
/// # Errors
///
/// Returns a rendered message for invalid grids, unknown derive hooks,
/// and sweep failures (bad keys, tick-cutoff hits).
pub fn run_scenario(
    scn: &Scenario,
    cfg: &SuiteConfig,
) -> Result<(ScenarioSummary, Vec<Record>), String> {
    let derive = match &scn.derive {
        Some(name) => Some(
            derive_by_name(name)
                .ok_or_else(|| format!("{}: unknown derive hook `{name}`", scn.id))?,
        ),
        None => None,
    };
    let mut cells = Vec::new();
    for grid in scn.grids_for(cfg.smoke) {
        grid.validate().map_err(|e| format!("{}: {e}", scn.id))?;
        cells.extend(grid.cells());
    }
    let sweep = SweepConfig {
        threads: cfg.threads.unwrap_or_else(default_threads),
        max_ticks: cfg.max_ticks.or(scn.max_ticks).unwrap_or(DEFAULT_MAX_TICKS),
        trace: scn.trace,
        shard_size: cfg.shard_size,
    };
    let measurements = run_cells(&cells, &sweep).map_err(|e| format!("{}: {e}", scn.id))?;
    let mut records = Vec::with_capacity(measurements.len());
    for m in measurements {
        let mut metrics = m.metrics();
        if let Some(derive) = derive {
            derive(&m.cell, &mut metrics);
        }
        records.push(Record {
            experiment: scn.id.clone(),
            cell: m.cell,
            metrics,
        });
    }
    let mut checks = 0usize;
    let mut failures = Vec::new();
    let rows: Vec<(&Cell, &std::collections::BTreeMap<String, f64>)> =
        records.iter().map(|r| (&r.cell, &r.metrics)).collect();
    for assertion in &scn.asserts {
        let verdicts: Vec<(Option<&Cell>, Verdict)> = if assertion.aggregate {
            assertion
                .check_agg(&rows)
                .map(|v| (None, v))
                .into_iter()
                .collect()
        } else {
            rows.iter()
                .filter_map(|&(cell, metrics)| {
                    Some((Some(cell), assertion.check_cell(cell, metrics)?))
                })
                .collect()
        };
        checks += verdicts.len();
        let mut kinds: Vec<FailureKind> = verdicts
            .iter()
            .filter_map(|&(cell, verdict)| {
                let (lhs, rhs) = verdict.err()?;
                Some(FailureKind::Violated {
                    cell: cell.map(cell_label),
                    lhs,
                    rhs,
                })
            })
            .collect();
        if verdicts.is_empty() {
            kinds.push(FailureKind::NoMatch);
        }
        failures.extend(kinds.into_iter().map(|kind| AssertionFailure {
            scenario: scn.id.clone(),
            assertion: assertion.to_string(),
            kind,
        }));
    }
    let summary = ScenarioSummary {
        id: scn.id.clone(),
        cells: records.len(),
        checks,
        failures,
    };
    Ok((summary, records))
}

/// One row of the suite report: a scenario's tallies without its records.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Scenario id.
    pub id: String,
    /// Cells executed.
    pub cells: usize,
    /// Assertion evaluations performed.
    pub checks: usize,
    /// Every failed assertion.
    pub failures: Vec<AssertionFailure>,
}

/// The aggregated result of a suite run: per-scenario tallies, the
/// merged result set (ready for emission or baseline comparison), and an
/// optional baseline comparison the caller attaches.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Per-scenario tallies, in run (sorted-path) order.
    pub scenarios: Vec<ScenarioSummary>,
    /// All records, merged in run order (`mode` = `"smoke"` / `"full"`).
    pub results: ResultSet,
    /// Baseline comparison, when `--baseline` was given.
    pub comparison: Option<Comparison>,
}

/// Runs every scenario and merges the outcomes into a [`SuiteReport`]
/// (with no baseline comparison attached yet).
///
/// # Errors
///
/// Returns the first scenario-level failure ([`run_scenario`]'s errors);
/// assertion failures are *not* errors — they land in the report.
pub fn run_suite(scenarios: &[Scenario], cfg: &SuiteConfig) -> Result<SuiteReport, String> {
    let mut summaries = Vec::with_capacity(scenarios.len());
    let mut records = Vec::new();
    for scn in scenarios {
        let (summary, scenario_records) = run_scenario(scn, cfg)?;
        summaries.push(summary);
        records.extend(scenario_records);
    }
    Ok(SuiteReport {
        scenarios: summaries,
        results: ResultSet {
            mode: if cfg.smoke { "smoke" } else { "full" }.to_string(),
            records,
        },
        comparison: None,
    })
}

/// Renders the human view of a suite run, one section per scenario in
/// `scenarios` order: a `## id — title` header, the setup line, a
/// Markdown table of the scenario's records in `results`, and its notes.
/// This view is for reading; the report and the records are what a
/// baseline diffs.
#[must_use]
pub fn render_sections(scenarios: &[Scenario], results: &ResultSet) -> String {
    let mut out = String::new();
    for scn in scenarios {
        let records = results
            .records
            .iter()
            .filter(|r| r.experiment == scn.id)
            .cloned()
            .collect();
        let tables = ResultSet {
            mode: results.mode.clone(),
            records,
        }
        .render_tables();
        let _ = writeln!(
            out,
            "\n## {} — {}\n\n{}\n\n{tables}{}",
            scn.id, scn.title, scn.setup, scn.notes
        );
    }
    out
}

impl SuiteReport {
    /// Every assertion failure across the suite, in run order.
    pub fn failures(&self) -> impl Iterator<Item = &AssertionFailure> {
        self.scenarios.iter().flat_map(|s| s.failures.iter())
    }

    /// `true` when every assertion held and the baseline comparison (if
    /// any) was clean — the exit-0 condition.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures().next().is_none()
            && self.comparison.as_ref().is_none_or(Comparison::is_clean)
    }

    /// Renders the aggregated pass/fail table plus failure details and
    /// the baseline summary. Deterministic for a given report.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let mut table = Table::new(vec![
            "scenario".to_string(),
            "cells".to_string(),
            "checks".to_string(),
            "failures".to_string(),
            "status".to_string(),
        ]);
        let (mut cells, mut checks, mut failed) = (0usize, 0usize, 0usize);
        for s in &self.scenarios {
            cells += s.cells;
            checks += s.checks;
            failed += s.failures.len();
            table.row(vec![
                s.id.clone(),
                s.cells.to_string(),
                s.checks.to_string(),
                s.failures.len().to_string(),
                if s.failures.is_empty() {
                    "pass"
                } else {
                    "FAIL"
                }
                .to_string(),
            ]);
        }
        table.row(vec![
            "total".to_string(),
            cells.to_string(),
            checks.to_string(),
            failed.to_string(),
            if failed == 0 { "pass" } else { "FAIL" }.to_string(),
        ]);
        out.push_str(&table.render());
        for failure in self.failures() {
            let _ = writeln!(out, "FAIL {failure}");
        }
        if let Some(cmp) = &self.comparison {
            let _ = writeln!(
                out,
                "baseline: {} (exact={} drift={} added={} removed={})",
                if cmp.is_clean() { "clean" } else { "DRIFT" },
                cmp.exact,
                cmp.count(crate::compare::CellStatus::Drift),
                cmp.count(crate::compare::CellStatus::Added),
                cmp.count(crate::compare::CellStatus::Removed),
            );
        }
        out
    }

    /// Renders the report as deterministic JSON (suite tallies, failure
    /// strings, and the clean verdict — not the full result set, which
    /// has its own schema via [`ResultSet::to_json`]).
    #[must_use]
    pub fn render_json(&self) -> String {
        use crate::resultset::json_escape;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"mode\": \"{}\",", json_escape(&self.results.mode));
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"id\": \"{}\", \"cells\": {}, \"checks\": {}, \"failures\": [",
                json_escape(&s.id),
                s.cells,
                s.checks
            );
            for (j, f) in s.failures.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\"{}\"",
                    if j == 0 { "" } else { ", " },
                    json_escape(&f.to_string())
                );
            }
            out.push_str("]}");
            out.push_str(if i + 1 == self.scenarios.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests build scratch scenario trees under the system temp dir"
)]
mod tests {
    use super::*;

    fn scenario(text: &str) -> Scenario {
        Scenario::parse(text).unwrap()
    }

    fn smoke_cfg() -> SuiteConfig {
        SuiteConfig {
            smoke: true,
            threads: Some(2),
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn run_scenario_checks_assertions_per_cell() {
        let scn = scenario(
            "id = tiny\n\
             grid = algos=soloall,paran1 advs=unit shapes=4x8 ds=1 seeds=1 seed=0\n\
             derive = ratio_quadratic\n\
             assert work >= t\n\
             assert ratio_quadratic > 0\n",
        );
        let (summary, records) = run_scenario(&scn, &smoke_cfg()).unwrap();
        assert_eq!(summary.cells, 2);
        assert_eq!(summary.checks, 4, "2 assertions × 2 cells");
        assert!(summary.failures.is_empty(), "{:?}", summary.failures);
        assert!(records.iter().all(|r| r.experiment == "tiny"));
    }

    #[test]
    fn violated_assertions_name_the_exact_cell() {
        let scn = scenario(
            "id = tiny\n\
             grid = algos=soloall advs=unit shapes=4x8 ds=1 seeds=1 seed=0\n\
             assert work <= 1\n",
        );
        let (summary, _) = run_scenario(&scn, &smoke_cfg()).unwrap();
        assert_eq!(summary.failures.len(), 1);
        let msg = summary.failures[0].to_string();
        assert!(
            msg.contains("tiny: `assert work <= 1` violated at ("),
            "{msg}"
        );
        for needle in [
            "algo=soloall",
            "adversary=unit",
            "p=4",
            "t=8",
            "d=1",
            "seeds=1",
            "seed=0x",
            "observed ",
        ] {
            assert!(msg.contains(needle), "`{msg}` lacks `{needle}`");
        }
    }

    #[test]
    fn assertions_matching_no_cells_fail_the_scenario() {
        let scn = scenario(
            "id = tiny\n\
             grid = algos=soloall advs=unit shapes=4x8 ds=1 seeds=1 seed=0\n\
             assert no_such_metric >= 1\n\
             assert [algo=padet] work >= t\n\
             assert agg max(no_such_metric) >= 1\n",
        );
        let (summary, _) = run_scenario(&scn, &smoke_cfg()).unwrap();
        assert_eq!(summary.failures.len(), 3);
        assert!(summary
            .failures
            .iter()
            .all(|f| matches!(f.kind, FailureKind::NoMatch)));
        assert!(summary.failures[0].to_string().contains("matched no cells"));
    }

    #[test]
    fn aggregate_assertions_evaluate_once() {
        let scn = scenario(
            "id = tiny\n\
             grid = algos=soloall,paran1 advs=unit shapes=4x8 ds=1 seeds=1 seed=0\n\
             assert agg min(work) >= 10000\n",
        );
        let (summary, _) = run_scenario(&scn, &smoke_cfg()).unwrap();
        assert_eq!(summary.checks, 1);
        assert_eq!(summary.failures.len(), 1);
        assert!(matches!(
            summary.failures[0].kind,
            FailureKind::Violated { cell: None, .. }
        ));
    }

    #[test]
    fn suite_runs_merge_records_in_scenario_order() {
        let a = scenario(
            "id = a\ngrid = algos=soloall advs=unit shapes=2x4 ds=1 seeds=1 seed=0\n\
             assert work >= t\n",
        );
        let b = scenario(
            "id = b\ngrid = algos=soloall advs=unit shapes=2x4 ds=1 seeds=1 seed=0\n\
             assert work >= t + 1000\n",
        );
        let report = run_suite(&[a, b], &smoke_cfg()).unwrap();
        assert_eq!(report.results.mode, "smoke");
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(report.results.records.len(), 2);
        assert_eq!(report.results.records[0].experiment, "a");
        assert_eq!(report.results.records[1].experiment, "b");
        assert!(!report.is_clean(), "b's assertion fails");
        let table = report.render_table();
        assert!(table.contains(" a |"), "{table}");
        assert!(table.contains("FAIL"), "{table}");
        assert!(table.contains("total"), "{table}");
        let json = report.render_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"id\": \"b\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn sections_render_each_scenario_with_its_table_and_prose() {
        let a = scenario(
            "id = a\ntitle = Alpha\nsetup = alpha setup\nnotes = alpha notes\n\
             grid = algos=soloall,paran1 advs=unit shapes=2x4 ds=1 seeds=1 seed=0\n\
             assert work >= t\n",
        );
        let b = scenario(
            "id = b\ntitle = Beta\nsetup = beta setup\nnotes = beta notes\n\
             grid = algos=paran1 advs=fixed shapes=2x4 ds=2 seeds=1 seed=0\n\
             assert work >= t\n",
        );
        let scenarios = [a, b];
        let report = run_suite(&scenarios, &smoke_cfg()).unwrap();
        let text = render_sections(&scenarios, &report.results);
        let starts: Vec<usize> = text.match_indices("\n## ").map(|(i, _)| i).collect();
        assert_eq!(starts.len(), 2, "{text}");
        let sections = [&text[starts[0]..starts[1]], &text[starts[1]..]];
        for (section, scn) in sections.iter().zip(&scenarios) {
            let head = format!("\n## {} — {}\n\n{}\n\n|", scn.id, scn.title, scn.setup);
            assert!(section.starts_with(&head), "{section}");
            assert!(
                section.ends_with(&format!("\n\n{}\n", scn.notes)),
                "{section}"
            );
            let rows = report
                .results
                .records
                .iter()
                .filter(|r| r.experiment == scn.id)
                .count();
            let table_lines = section.lines().filter(|l| l.starts_with('|')).count();
            assert_eq!(table_lines, 2 + rows, "header + rule + rows: {section}");
            let rules = section.lines().filter(|l| l.starts_with("|-")).count();
            assert_eq!(rules, 1, "one table per section: {section}");
        }
        assert!(sections[0].lines().all(|l| !l.contains("fixed")));
        assert!(sections[1].contains(" fixed |"), "{}", sections[1]);
        let report_text = report.render_table();
        for needle in ["## ", "Alpha", "beta setup", "beta notes", "fixed"] {
            assert!(!report_text.contains(needle), "{report_text}");
        }
    }

    #[test]
    fn derive_hooks_refuse_algorithms_they_cannot_derive_for() {
        let dir = std::env::temp_dir().join(format!("doall_suite_needs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.scn");
        let scn = |hook: &str, grid: &str, smoke: &str| {
            format!(
                "id = x
grid = algos={grid} advs=unit shapes=4x8 ds=1 seeds=1 seed=0
                 smoke = algos={smoke} advs=unit shapes=4x8 ds=1 seeds=1 seed=0
                 derive = {hook}
assert t >= 1
"
            )
        };
        for (hook, good, bad) in [
            ("da_bound", "da:3", "paran1"),
            ("da_epsilon", "da:2", "padet"),
            ("dcont_lemma", "padet", "none"),
            ("dcont_list", "padet-rot", "da:3"),
            ("contention_lemmas", "none,oblido", "da:3"),
        ] {
            std::fs::write(&path, scn(hook, good, good)).unwrap();
            assert!(load_file(&path).is_ok(), "{hook} on {good}");
            // A bad key in the full or in the smoke grid is refused.
            for text in [scn(hook, bad, good), scn(hook, good, bad)] {
                std::fs::write(&path, text).unwrap();
                let e = load_file(&path).unwrap_err();
                for needle in ["x.scn", &format!("hook `{hook}`"), &format!("`{bad}`")] {
                    assert!(e.contains(needle), "{e}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discovery_is_sorted_and_recursive() {
        let dir = std::env::temp_dir().join(format!("doall_suite_disc_{}", std::process::id()));
        let sub = dir.join("nested");
        std::fs::create_dir_all(&sub).unwrap();
        let scn = |id: &str| {
            format!("id = {id}\ngrid = algos=soloall advs=unit shapes=2x4 ds=1 seeds=1 seed=0\n")
        };
        // Create in non-sorted order; discovery must sort by path.
        std::fs::write(dir.join("b.scn"), scn("b")).unwrap();
        std::fs::write(sub.join("c.scn"), scn("c")).unwrap();
        std::fs::write(dir.join("a.scn"), scn("a")).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a scenario").unwrap();
        let paths = discover(&dir).unwrap();
        assert_eq!(paths.len(), 3);
        assert!(paths[0].ends_with("a.scn"));
        assert!(paths[1].ends_with("b.scn"));
        assert!(paths[2].ends_with("nested/c.scn"));
        let ids: Vec<String> = load_dir(&dir)
            .unwrap()
            .iter()
            .map(|s| s.id.clone())
            .collect();
        assert_eq!(ids, ["a", "b", "c"]);
        // A duplicate id anywhere in the tree is an error.
        std::fs::write(sub.join("d.scn"), scn("a")).unwrap();
        let e = load_dir(&dir).unwrap_err();
        assert!(e.contains("duplicate scenario id `a`"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_errors_name_the_file_and_line() {
        let dir = std::env::temp_dir().join(format!("doall_suite_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.scn");
        std::fs::write(&path, "id = bad\ngrid = algos=frob shapes=2x4\n").unwrap();
        let e = load_file(&path).unwrap_err();
        assert!(e.contains("bad.scn"), "{e}");
        assert!(e.contains("line 2"), "{e}");
        std::fs::write(
            &path,
            "id = bad\ngrid = algos=soloall shapes=2x4\nderive = frob\n",
        )
        .unwrap();
        let e = load_file(&path).unwrap_err();
        assert!(e.contains("unknown derive hook `frob`"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(discover(Path::new("/nonexistent-doall")).is_err());
    }
}
