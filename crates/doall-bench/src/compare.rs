//! Baseline comparison for sweep results: parse two result sets (via
//! the shared [`crate::resultset`] schema module), match cells by
//! `(experiment, algo, adversary, p, t, d, seeds)`, and classify every
//! matched cell as exact or drifting and every unmatched cell as added
//! or removed.
//!
//! The sweep harness is byte-deterministic per cell (seeds derive from
//! cell parameters, output carries nothing time- or machine-dependent),
//! so on an unchanged grid *any* value difference is a regression — the
//! default tolerance is therefore `0`, and every metric of every cell
//! is compared. A non-zero tolerance treats a metric as drifted only
//! when `|new − old| > tolerance · max(1, |old|, |new|)` (relative, with
//! an absolute floor of `tolerance` for values near zero).
//!
//! Rendering is deterministic: cells sort by key, metrics by name, and
//! floats print via Rust's shortest-round-trip `Display` — comparing the
//! same pair of files always yields byte-identical output, regardless of
//! thread counts anywhere upstream.

use crate::resultset::{
    json_escape, json_number, load_result_set, BaselineSet, CellKey, ResultSetError,
};
use crate::Table;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Version of the *diff* JSON schema emitted by
/// [`Comparison::render_json`]; independent of the result-set schema
/// ([`crate::resultset::SCHEMA_VERSION`]). Since version 2 a cell is
/// identified by the seven fields of its [`CellKey`].
pub const DIFF_SCHEMA_VERSION: u32 = 2;

// === Comparison ===========================================================

/// How one matched-or-unmatched cell compares across the two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Present in both; at least one metric drifted beyond tolerance.
    Drift,
    /// Present only in the new set.
    Added,
    /// Present only in the old set.
    Removed,
}

impl CellStatus {
    fn label(self) -> &'static str {
        match self {
            CellStatus::Drift => "drift",
            CellStatus::Added => "added",
            CellStatus::Removed => "removed",
        }
    }
}

/// One drifting metric of a matched cell: both sides plus the deltas.
/// `None` means the metric is absent on that side; `NaN` means it was
/// serialized as `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub old: Option<f64>,
    /// New value.
    pub new: Option<f64>,
}

impl MetricDelta {
    /// `new − old`, when both sides are finite.
    #[must_use]
    pub fn abs_delta(&self) -> Option<f64> {
        match (self.old, self.new) {
            (Some(o), Some(n)) if o.is_finite() && n.is_finite() => Some(n - o),
            _ => None,
        }
    }

    /// `(new − old) / |old|`, when defined.
    #[must_use]
    pub fn rel_delta(&self) -> Option<f64> {
        match (self.old, self.new) {
            (Some(o), Some(n)) if o.is_finite() && n.is_finite() && o != 0.0 => {
                Some((n - o) / o.abs())
            }
            _ => None,
        }
    }
}

/// A non-exact cell in a comparison: its key, classification, and (for
/// drifting cells) the metrics that moved.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// The cell's identity.
    pub key: CellKey,
    /// Drift / added / removed.
    pub status: CellStatus,
    /// Drifting metrics (sorted by name); empty for added/removed cells,
    /// whose whole metric map is one-sided.
    pub deltas: Vec<MetricDelta>,
    /// Metric count on whichever side(s) the cell exists — rendered for
    /// added/removed rows.
    pub metric_count: usize,
}

/// The outcome of comparing two result sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The tolerance the comparison ran with.
    pub tolerance: f64,
    /// `(schema_version, mode, cell count)` of the baseline.
    pub old_info: (u64, String, usize),
    /// `(schema_version, mode, cell count)` of the new set.
    pub new_info: (u64, String, usize),
    /// Matched cells whose every metric agreed within tolerance.
    pub exact: usize,
    /// Every non-exact cell, sorted by key.
    pub cells: Vec<CellDiff>,
}

/// `true` when a metric value pair counts as drift at `tolerance`.
///
/// Absence on exactly one side is drift; `NaN` (serialized `null`)
/// equals itself; otherwise the test is
/// `|new − old| > tolerance · max(1, |old|, |new|)` — so `tolerance = 0`
/// demands exact equality, and a non-zero tolerance is relative with an
/// absolute floor for near-zero values.
#[must_use]
pub fn drifted(old: Option<f64>, new: Option<f64>, tolerance: f64) -> bool {
    match (old, new) {
        (None, None) => false,
        (None, Some(_)) | (Some(_), None) => true,
        (Some(o), Some(n)) => {
            if o.is_nan() && n.is_nan() {
                false
            } else if o.is_nan() || n.is_nan() {
                true
            } else {
                (n - o).abs() > tolerance * o.abs().max(n.abs()).max(1.0)
            }
        }
    }
}

/// Compares `new` against the baseline `old` at `tolerance`.
#[must_use]
pub fn compare(old: &BaselineSet, new: &BaselineSet, tolerance: f64) -> Comparison {
    let mut cells = Vec::new();
    let mut exact = 0usize;
    for (key, old_metrics) in &old.cells {
        match new.cells.get(key) {
            None => cells.push(CellDiff {
                key: key.clone(),
                status: CellStatus::Removed,
                deltas: Vec::new(),
                metric_count: old_metrics.len(),
            }),
            Some(new_metrics) => {
                let names: BTreeSet<&String> =
                    old_metrics.keys().chain(new_metrics.keys()).collect();
                let metric_count = names.len();
                let deltas: Vec<MetricDelta> = names
                    .into_iter()
                    .filter_map(|name| {
                        let o = old_metrics.get(name).copied();
                        let n = new_metrics.get(name).copied();
                        drifted(o, n, tolerance).then(|| MetricDelta {
                            name: name.clone(),
                            old: o,
                            new: n,
                        })
                    })
                    .collect();
                if deltas.is_empty() {
                    exact += 1;
                } else {
                    cells.push(CellDiff {
                        key: key.clone(),
                        status: CellStatus::Drift,
                        deltas,
                        metric_count,
                    });
                }
            }
        }
    }
    for (key, new_metrics) in &new.cells {
        if !old.cells.contains_key(key) {
            cells.push(CellDiff {
                key: key.clone(),
                status: CellStatus::Added,
                deltas: Vec::new(),
                metric_count: new_metrics.len(),
            });
        }
    }
    cells.sort_by(|a, b| a.key.cmp(&b.key));
    Comparison {
        tolerance,
        old_info: (old.schema_version, old.mode.clone(), old.cells.len()),
        new_info: (new.schema_version, new.mode.clone(), new.cells.len()),
        exact,
        cells,
    }
}

fn value_cell(v: Option<f64>) -> String {
    match v {
        Some(v) => json_number(v),
        None => "—".to_string(),
    }
}

impl Comparison {
    /// Count of cells with the given status.
    #[must_use]
    pub fn count(&self, status: CellStatus) -> usize {
        self.cells.iter().filter(|c| c.status == status).count()
    }

    /// `true` when the comparison found nothing to flag: schemas match
    /// and every cell of both sets matched exactly (within tolerance).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.cells.is_empty() && self.old_info.0 == self.new_info.0
    }

    /// Renders the deterministic human-readable diff: a header, and —
    /// when anything drifted — a Markdown table with one row per
    /// drifting metric (plus one row per added/removed cell).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "baseline comparison — tolerance {}",
            json_number(self.tolerance)
        );
        let side = |(schema, mode, cells): &(u64, String, usize)| {
            format!("mode={mode} schema={schema} cells={cells}")
        };
        let _ = writeln!(out, "  old: {}", side(&self.old_info));
        let _ = writeln!(out, "  new: {}", side(&self.new_info));
        let _ = writeln!(
            out,
            "  exact={} drift={} added={} removed={}",
            self.exact,
            self.count(CellStatus::Drift),
            self.count(CellStatus::Added),
            self.count(CellStatus::Removed),
        );
        if self.old_info.0 != self.new_info.0 {
            let _ = writeln!(
                out,
                "  schema_version changed: {} -> {} (value comparison unreliable)",
                self.old_info.0, self.new_info.0
            );
        }
        if self.old_info.1 != self.new_info.1 {
            let _ = writeln!(
                out,
                "  note: mode changed: {} -> {}",
                self.old_info.1, self.new_info.1
            );
        }
        if self.is_clean() {
            let _ = writeln!(out, "all {} matched cells are exact — no drift", self.exact);
            return out;
        }
        let mut table = Table::new(vec![
            "status",
            "experiment",
            "algo",
            "adversary",
            "shape",
            "d",
            "seeds",
            "metric",
            "old",
            "new",
            "delta",
            "rel",
        ]);
        for cell in &self.cells {
            let k = &cell.key;
            let base = vec![
                cell.status.label().to_string(),
                k.experiment.clone(),
                k.algo.clone(),
                k.adversary.clone(),
                format!("{}x{}", k.p, k.t),
                k.d.to_string(),
                k.seeds.to_string(),
            ];
            if cell.deltas.is_empty() {
                let mut row = base;
                row.push(format!("({} metrics)", cell.metric_count));
                row.extend(["—", "—", "—", "—"].map(String::from));
                table.row(row);
            } else {
                for delta in &cell.deltas {
                    let mut row = base.clone();
                    row.push(delta.name.clone());
                    row.push(value_cell(delta.old));
                    row.push(value_cell(delta.new));
                    row.push(match delta.abs_delta() {
                        Some(d) => format!("{d:+}"),
                        None => "—".to_string(),
                    });
                    row.push(match delta.rel_delta() {
                        Some(r) => format!("{:+.3}%", r * 100.0),
                        None => "—".to_string(),
                    });
                    table.row(row);
                }
            }
        }
        out.push_str(&table.render());
        out
    }

    /// Renders the deterministic machine-readable diff
    /// (`diff_schema_version` [`DIFF_SCHEMA_VERSION`]).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"diff_schema_version\": {DIFF_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"tolerance\": {},", json_number(self.tolerance));
        let side = |(schema, mode, cells): &(u64, String, usize)| {
            format!(
                "{{\"mode\": \"{}\", \"schema_version\": {schema}, \"cells\": {cells}}}",
                json_escape(mode)
            )
        };
        let _ = writeln!(out, "  \"old\": {},", side(&self.old_info));
        let _ = writeln!(out, "  \"new\": {},", side(&self.new_info));
        let _ = writeln!(
            out,
            "  \"summary\": {{\"exact\": {}, \"drift\": {}, \"added\": {}, \"removed\": {}}},",
            self.exact,
            self.count(CellStatus::Drift),
            self.count(CellStatus::Added),
            self.count(CellStatus::Removed),
        );
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let k = &cell.key;
            let _ = write!(
                out,
                "    {{\"status\": \"{}\", \"experiment\": \"{}\", \"algo\": \"{}\", \
                 \"adversary\": \"{}\", \"p\": {}, \"t\": {}, \"d\": {}, \"seeds\": {}, \
                 \"metrics\": [",
                cell.status.label(),
                json_escape(&k.experiment),
                json_escape(&k.algo),
                json_escape(&k.adversary),
                k.p,
                k.t,
                k.d,
                k.seeds,
            );
            for (j, delta) in cell.deltas.iter().enumerate() {
                let opt = |v: Option<f64>| match v {
                    Some(v) => json_number(v),
                    None => "null".to_string(),
                };
                let _ = write!(
                    out,
                    "{}{{\"name\": \"{}\", \"old\": {}, \"new\": {}, \"delta\": {}, \"rel\": {}}}",
                    if j == 0 { "" } else { ", " },
                    json_escape(&delta.name),
                    opt(delta.old),
                    opt(delta.new),
                    opt(delta.abs_delta()),
                    opt(delta.rel_delta()),
                );
            }
            out.push_str("]}");
            out.push_str(if i + 1 == self.cells.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Loads two result-set files and compares them.
///
/// # Errors
///
/// Returns a [`ResultSetError`] if either file cannot be read or parsed.
pub fn compare_files(
    old_path: &str,
    new_path: &str,
    tolerance: f64,
) -> Result<Comparison, ResultSetError> {
    let old = load_result_set(old_path)?;
    let new = load_result_set(new_path)?;
    Ok(compare(&old, &new, tolerance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resultset::{parse_json, parse_result_set, Json};

    fn set(records: &str) -> BaselineSet {
        let text = format!(
            "{{\"schema_version\": 1, \"generator\": \"x\", \"mode\": \"smoke\", \
             \"records\": [{records}]}}"
        );
        parse_result_set(&text).unwrap()
    }

    fn record(algo: &str, d: u64, work: f64) -> String {
        format!(
            "{{\"experiment\": \"e01\", \"algo\": \"{algo}\", \"adversary\": \"stage\", \
             \"p\": 4, \"t\": 16, \"d\": {d}, \"seeds\": 1, \
             \"metrics\": {{\"mean_work\": {work}, \"completed\": 1}}}}"
        )
    }

    #[test]
    fn parses_the_harness_schema() {
        let s = set(&[record("soloall", 1, 64.0), record("da:3", 2, 40.5)].join(", "));
        assert_eq!(s.schema_version, 1);
        assert_eq!(s.mode, "smoke");
        assert_eq!(s.cells.len(), 2);
        let key = CellKey {
            experiment: "e01".into(),
            algo: "da:3".into(),
            adversary: "stage".into(),
            p: 4,
            t: 16,
            d: 2,
            seeds: 1,
        };
        assert_eq!(s.cells[&key]["mean_work"], 40.5);
    }

    #[test]
    fn every_metric_gates_at_tolerance_zero() {
        // No metric is exempt: a wall-clock-like name drifts like any
        // other.
        let cell = |wall: f64| {
            format!(
                "{{\"experiment\": \"e01\", \"algo\": \"paran1\", \"adversary\": \"unit\", \
                 \"p\": 4, \"t\": 16, \"d\": 2, \"seeds\": 1, \
                 \"metrics\": {{\"mean_work\": 64, \"wall_clock_ms\": {wall}}}}}"
            )
        };
        let cmp = compare(&set(&cell(0.0)), &set(&cell(3.25)), 0.0);
        assert_eq!(cmp.count(CellStatus::Drift), 1);
        assert_eq!(cmp.cells[0].deltas[0].name, "wall_clock_ms");
    }

    #[test]
    fn null_metrics_parse_as_nan_and_match_themselves() {
        let rec = "{\"experiment\": \"e01\", \"algo\": \"a\", \"adversary\": \"stage\", \
                   \"p\": 1, \"t\": 1, \"d\": 1, \"seeds\": 1, \"metrics\": {\"bad\": null}}";
        let s = set(rec);
        let v = s.cells.values().next().unwrap()["bad"];
        assert!(v.is_nan());
        let cmp = compare(&s, &s, 0.0);
        assert!(cmp.is_clean(), "{}", cmp.render_text());
    }

    #[test]
    fn schema_errors_are_descriptive() {
        for (doc, needle) in [
            ("[1]", "top level"),
            ("{\"mode\": \"x\", \"records\": []}", "schema_version"),
            ("{\"schema_version\": 1, \"records\": []}", "mode"),
            ("{\"schema_version\": 1, \"mode\": \"x\"}", "records"),
            (
                "{\"schema_version\": 1, \"mode\": \"x\", \"records\": [{}]}",
                "records[0]",
            ),
        ] {
            let e = parse_result_set(doc).unwrap_err().to_string();
            assert!(e.contains(needle), "`{doc}` -> {e}");
        }
    }

    #[test]
    fn adversary_spellings_are_canonicalized_for_matching() {
        // A pre-normalization baseline may spell numeric knobs with
        // leading zeros or an explicit default stagger; both must match a
        // fresh run's canonical key instead of reporting removed + added.
        // The normalization itself has exactly one implementation:
        // resultset::canonical_adversary.
        let cell = |adversary: &str, work: f64| {
            format!(
                "{{\"experiment\": \"e12\", \"algo\": \"paran1\", \"adversary\": \"{adversary}\", \
                 \"p\": 8, \"t\": 32, \"d\": 4, \"seeds\": 1, \
                 \"metrics\": {{\"mean_work\": {work}}}}}"
            )
        };
        let old = set(&[cell("crash:07", 64.0), cell("crash:25@even", 40.0)].join(", "));
        let new = set(&[cell("crash:7", 64.0), cell("crash:25", 40.0)].join(", "));
        let cmp = compare(&old, &new, 0.0);
        assert!(cmp.is_clean(), "{}", cmp.render_text());
        assert_eq!(cmp.exact, 2);
        // Keys outside the grammar pass through verbatim (no false merge).
        let exotic = set(&cell("quantum:3", 1.0));
        assert!(exotic.cells.keys().any(|k| k.adversary == "quantum:3"));
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let e = parse_result_set(&format!(
            "{{\"schema_version\": 1, \"mode\": \"smoke\", \"records\": [{}, {}]}}",
            record("soloall", 1, 64.0),
            record("soloall", 1, 65.0),
        ))
        .unwrap_err();
        assert!(e.to_string().contains("duplicate cell"), "{e}");
    }

    #[test]
    fn identical_sets_compare_clean() {
        let s = set(&record("soloall", 1, 64.0));
        let cmp = compare(&s, &s, 0.0);
        assert!(cmp.is_clean());
        assert_eq!(cmp.exact, 1);
        assert!(cmp.cells.is_empty());
        assert!(cmp.render_text().contains("no drift"));
    }

    #[test]
    fn drift_added_and_removed_are_classified() {
        let old = set(&[record("soloall", 1, 64.0), record("soloall", 2, 64.0)].join(", "));
        let new = set(&[record("soloall", 1, 70.0), record("da:3", 2, 40.0)].join(", "));
        let cmp = compare(&old, &new, 0.0);
        assert!(!cmp.is_clean());
        assert_eq!(cmp.exact, 0);
        assert_eq!(cmp.count(CellStatus::Drift), 1);
        assert_eq!(cmp.count(CellStatus::Added), 1);
        assert_eq!(cmp.count(CellStatus::Removed), 1);
        let drift = cmp
            .cells
            .iter()
            .find(|c| c.status == CellStatus::Drift)
            .unwrap();
        assert_eq!(drift.deltas.len(), 1);
        assert_eq!(drift.deltas[0].name, "mean_work");
        assert_eq!(drift.deltas[0].abs_delta(), Some(6.0));
        let text = cmp.render_text();
        for needle in ["drift", "added", "removed", "mean_work", "+6", "+9.375%"] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn metric_appearing_or_vanishing_is_drift() {
        let old = set(&record("soloall", 1, 64.0));
        let extra = "{\"experiment\": \"e01\", \"algo\": \"soloall\", \"adversary\": \"stage\", \
                     \"p\": 4, \"t\": 16, \"d\": 1, \"seeds\": 1, \
                     \"metrics\": {\"mean_work\": 64, \"completed\": 1, \"crash_count\": 2}}";
        let new = set(extra);
        let cmp = compare(&old, &new, 0.0);
        assert_eq!(cmp.count(CellStatus::Drift), 1);
        assert_eq!(cmp.cells[0].deltas[0].name, "crash_count");
        assert_eq!(cmp.cells[0].deltas[0].old, None);
    }

    #[test]
    fn tolerance_is_relative_with_a_unit_floor() {
        let old = set(&record("soloall", 1, 1000.0));
        let new = set(&record("soloall", 1, 1004.0));
        assert!(compare(&old, &new, 0.01).is_clean(), "0.4% < 1%");
        assert!(!compare(&old, &new, 0.001).is_clean(), "0.4% > 0.1%");
        // Near-zero values use the absolute floor of `tolerance`.
        assert!(!drifted(Some(0.0), Some(0.0005), 0.001));
        assert!(drifted(Some(0.0), Some(0.5), 0.001));
        // Tolerance 0 is exact.
        assert!(drifted(Some(1.0), Some(1.0 + f64::EPSILON), 0.0));
        assert!(!drifted(Some(1.0), Some(1.0), 0.0));
    }

    #[test]
    fn schema_version_mismatch_is_never_clean() {
        let old = set(&record("soloall", 1, 64.0));
        let mut new = old.clone();
        new.schema_version = 2;
        let cmp = compare(&old, &new, 0.0);
        assert!(!cmp.is_clean());
        assert!(cmp.render_text().contains("schema_version changed"));
    }

    #[test]
    fn renders_are_deterministic_and_json_is_balanced() {
        let old = set(&[record("soloall", 1, 64.0), record("soloall", 2, 64.0)].join(", "));
        let new = set(&[record("soloall", 1, 70.0), record("da:3", 2, 40.0)].join(", "));
        let cmp = compare(&old, &new, 0.0);
        assert_eq!(cmp.render_text(), cmp.render_text());
        let json = cmp.render_json();
        assert_eq!(json, cmp.render_json());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // And the diff document itself parses with our own reader.
        let doc = parse_json(&json).unwrap();
        assert_eq!(doc.get("clean"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("summary").unwrap().get("drift"),
            Some(&Json::Number("1".to_string()))
        );
    }

    #[test]
    fn compare_files_reports_missing_files() {
        let e = compare_files("/nonexistent/a.json", "/nonexistent/b.json", 0.0).unwrap_err();
        assert!(e.to_string().contains("cannot read"));
    }
}
