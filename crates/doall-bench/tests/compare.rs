//! The comparator's contract, end to end against the real sweep engine:
//! render → parse → compare(x, x) is all-exact for any grid the harness
//! can run, classification matches hand-built fixtures, and `--compare`
//! output is byte-identical no matter how many threads produced either
//! side (the determinism guarantee extends from results to diffs).

use doall_bench::compare::{compare, CellStatus, Comparison};
use doall_bench::grid::Grid;
use doall_bench::resultset::{parse_result_set, BaselineSet, Record, ResultSet};
use doall_bench::sweep::{run_cells, SweepConfig};

fn results(grid: &Grid, threads: usize) -> ResultSet {
    let cfg = SweepConfig {
        threads,
        ..SweepConfig::default()
    };
    let measurements = run_cells(&grid.cells(), &cfg).expect("grid runs");
    ResultSet {
        mode: "custom".to_string(),
        records: measurements
            .into_iter()
            .map(|m| Record {
                experiment: "compare-test".to_string(),
                metrics: m.metrics(),
                cell: m.cell,
            })
            .collect(),
    }
}

/// Randomized algorithms, seeded adversaries (including a crash family),
/// replicates, and more cells than workers: the same shape of grid the
/// determinism suite uses to make scheduling races visible.
fn racy_grid() -> Grid {
    Grid::parse(
        "algos=paran1,da:2,padet advs=stage,random,crash:50 shapes=4x8,8x8 ds=1,2 seeds=3 seed=11",
    )
    .expect("valid grid")
}

#[test]
fn round_trip_comparison_is_all_exact() {
    let set = results(&racy_grid(), 4);
    // Render to the wire format, parse it back, compare against itself.
    let parsed = parse_result_set(&set.to_json()).expect("own JSON parses");
    let comparison = compare(&parsed, &parsed, 0.0);
    assert!(comparison.is_clean(), "{}", comparison.render_text());
    assert_eq!(comparison.exact, set.records.len());
    assert!(comparison.cells.is_empty());
    // And the in-memory reduction agrees with the wire round-trip.
    assert_eq!(BaselineSet::of(&set), parsed);
}

#[test]
fn compare_output_is_byte_identical_across_thread_counts() {
    let grid = racy_grid();
    let baseline = BaselineSet::of(&results(&grid, 1));

    // Perturb the baseline so the diff actually has drift rows to render:
    // shift every mean_work and drop one cell, forcing drift + added.
    let mut doctored = baseline.clone();
    let first_key = doctored.cells.keys().next().expect("non-empty").clone();
    doctored.cells.remove(&first_key);
    for metrics in doctored.cells.values_mut() {
        if let Some(v) = metrics.get_mut("mean_work") {
            *v += 1.0;
        }
    }

    let render = |threads: usize| -> (String, String) {
        let current = BaselineSet::of(&results(&grid, threads));
        let comparison = compare(&doctored, &current, 0.0);
        (comparison.render_text(), comparison.render_json())
    };
    let (text1, json1) = render(1);
    let (text8, json8) = render(8);
    assert_eq!(text1, text8, "diff table must not depend on thread count");
    assert_eq!(json1, json8, "diff JSON must not depend on thread count");
    assert!(text1.contains("drift"), "{text1}");
    assert!(text1.contains("added"), "{text1}");
}

#[test]
fn classification_matches_hand_built_fixtures() {
    let record = |algo: &str, d: u64, work: f64, msgs: f64| -> String {
        format!(
            "{{\"experiment\": \"e11\", \"algo\": \"{algo}\", \"adversary\": \"stage\", \
             \"p\": 8, \"t\": 8, \"d\": {d}, \"seeds\": 1, \
             \"metrics\": {{\"mean_work\": {work}, \"mean_messages\": {msgs}}}}}"
        )
    };
    let doc = |records: Vec<String>| -> BaselineSet {
        parse_result_set(&format!(
            "{{\"schema_version\": 1, \"mode\": \"smoke\", \"records\": [{}]}}",
            records.join(", ")
        ))
        .expect("fixture parses")
    };
    let old = doc(vec![
        record("soloall", 1, 64.0, 0.0),
        record("paran1", 1, 64.0, 448.0),
        record("padet", 1, 64.0, 448.0),
    ]);
    let new = doc(vec![
        record("soloall", 1, 64.0, 0.0),   // exact
        record("paran1", 1, 128.0, 448.0), // work doubled: drift
        record("da:3", 1, 120.0, 350.0),   // added
                                           // padet removed
    ]);
    let comparison: Comparison = compare(&old, &new, 0.0);
    assert!(!comparison.is_clean());
    assert_eq!(comparison.exact, 1);
    assert_eq!(comparison.count(CellStatus::Drift), 1);
    assert_eq!(comparison.count(CellStatus::Added), 1);
    assert_eq!(comparison.count(CellStatus::Removed), 1);
    let drift = comparison
        .cells
        .iter()
        .find(|c| c.status == CellStatus::Drift)
        .expect("one drifting cell");
    assert_eq!(drift.key.algo, "paran1");
    assert_eq!(drift.deltas.len(), 1, "messages did not move");
    assert_eq!(drift.deltas[0].name, "mean_work");
    assert_eq!(drift.deltas[0].abs_delta(), Some(64.0));
    assert_eq!(drift.deltas[0].rel_delta(), Some(1.0));
    // A 100% relative tolerance absorbs the doubling; the added/removed
    // cells still fail the comparison.
    let lax = compare(&old, &new, 1.0);
    assert_eq!(lax.count(CellStatus::Drift), 0);
    assert!(!lax.is_clean(), "added/removed cells are never tolerated");
}
