//! End-to-end suite tests: the committed `scenarios/` directory is the
//! paper's experiment suite (e01–e16), its smoke run reproduces the
//! committed `BENCH_smoke_baseline.json`, suite output is byte-identical
//! across worker counts, shard sizes, and directory-listing order, and
//! the `examples/lb_stage.scn` walkthrough scenario runs clean.

use doall_bench::compare::compare;
use doall_bench::experiments::scenarios_dir;
use doall_bench::resultset::{parse_result_set, BaselineSet};
use doall_bench::suite::{load_dir, load_file, run_scenario, run_suite, SuiteConfig};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    scenarios_dir()
        .parent()
        .expect("scenarios/ sits in the repo root")
        .to_path_buf()
}

fn smoke_cfg() -> SuiteConfig {
    SuiteConfig {
        smoke: true,
        ..SuiteConfig::default()
    }
}

/// The committed suite holds exactly the sixteen paper experiments,
/// in sorted-path (= registry) order.
#[test]
fn committed_suite_loads_sixteen_experiments() {
    let scenarios = load_dir(&scenarios_dir()).expect("committed suite loads");
    let ids: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
    let expected: Vec<String> = (1..=16).map(|i| format!("e{i:02}")).collect();
    assert_eq!(ids, expected);
}

/// The acceptance gate of the registry-to-loader refactor: running the
/// committed suite in smoke mode reproduces `BENCH_smoke_baseline.json`
/// byte for byte, and clean under the tolerance-0 comparator.
#[test]
fn committed_suite_reproduces_the_smoke_baseline() {
    let scenarios = load_dir(&scenarios_dir()).unwrap();
    let report = run_suite(&scenarios, &smoke_cfg()).unwrap();
    assert!(
        report.failures().next().is_none(),
        "committed assertions must hold: {:?}",
        report.failures().collect::<Vec<_>>()
    );
    let baseline_path = repo_root().join("BENCH_smoke_baseline.json");
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap();

    // Comparator gate: 193 cells, tolerance 0, no drift in any metric.
    let baseline = parse_result_set(&baseline_text).unwrap();
    let current = BaselineSet::of(&report.results);
    let comparison = compare(&baseline, &current, 0.0);
    assert!(comparison.is_clean(), "{}", comparison.render_text());
    assert_eq!(comparison.exact, 193);

    // Byte gate: the rendered result set is the committed file.
    assert_eq!(
        report.results.to_json(),
        baseline_text,
        "records must be byte-exact"
    );
}

/// Determinism contract: the merged result set is byte-identical across
/// worker counts and shard sizes (run on a cheap three-scenario slice of
/// the committed suite so the matrix stays fast in debug builds).
#[test]
fn suite_output_is_byte_identical_across_threads_and_sharding() {
    let scenarios: Vec<_> = load_dir(&scenarios_dir())
        .unwrap()
        .into_iter()
        .filter(|s| ["e01", "e05", "e12"].contains(&s.id.as_str()))
        .collect();
    assert_eq!(scenarios.len(), 3);
    let mut renderings = Vec::new();
    for threads in [Some(1), Some(8)] {
        for shard_size in [Some(1), None] {
            let cfg = SuiteConfig {
                smoke: true,
                threads,
                shard_size,
                max_ticks: None,
            };
            let report = run_suite(&scenarios, &cfg).unwrap();
            assert!(report.is_clean());
            renderings.push(report.results.to_json());
        }
    }
    for other in &renderings[1..] {
        assert_eq!(&renderings[0], other);
    }
}

/// Directory-listing order must not leak into results: the same files
/// written in different orders (and discovered from scratch) produce
/// byte-identical suite output.
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "a scratch scenario tree under the system temp dir"
)]
fn suite_output_is_independent_of_directory_listing_order() {
    let base = std::env::temp_dir().join(format!("doall_suite_order_{}", std::process::id()));
    let texts: Vec<(String, String)> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|id| {
            (
                format!("{id}.scn"),
                format!(
                    "id = {id}\ngrid = algos=soloall advs=unit shapes=2x4 ds=1 seeds=1 \
                     seed=0\nassert work >= t\n"
                ),
            )
        })
        .collect();
    let mut renderings = Vec::new();
    for (round, order) in [[0, 1, 2], [2, 0, 1]].iter().enumerate() {
        let dir = base.join(round.to_string());
        std::fs::create_dir_all(&dir).unwrap();
        for &i in order {
            let (name, text) = &texts[i];
            std::fs::write(dir.join(name), text).unwrap();
        }
        let scenarios = load_dir(&dir).unwrap();
        let report = run_suite(&scenarios, &SuiteConfig::default()).unwrap();
        renderings.push(report.results.to_json());
    }
    assert_eq!(renderings[0], renderings[1]);
    std::fs::remove_dir_all(&base).unwrap();
}

/// The walkthrough scenario outside the committed suite: the Theorem
/// 3.1 lower-bound adversary with a pinned stage knob. At t = 12 the
/// computed stage equals the pinned one, so `lb` and `lb:2` must force
/// identical work — and every ratio assertion in the file holds.
#[test]
fn example_lb_stage_scenario_runs_clean() {
    let path = repo_root().join("examples").join("lb_stage.scn");
    let scn = load_file(&path).expect("example scenario loads");
    assert_eq!(scn.id, "lb-stage");
    let (summary, records) = run_scenario(&scn, &SuiteConfig::default()).unwrap();
    assert_eq!(summary.cells, 4, "lb,lb:2 × d=2,12");
    assert!(summary.failures.is_empty(), "{:?}", summary.failures);
    // The stage-knob claim itself: per d, the pinned spelling forces
    // exactly the work of the computed one.
    for d in [2u64, 12] {
        let work_of = |adv: &str| {
            records
                .iter()
                .find(|r| r.cell.adversary.to_string() == adv && r.cell.d == d)
                .and_then(|r| r.metrics.get("mean_work").copied())
                .unwrap_or_else(|| panic!("missing cell {adv} d={d}"))
        };
        assert_eq!(work_of("lb"), work_of("lb:2"), "d={d}");
    }
}

/// A one-task instance derives its Lemma 4.1 metrics: the searched list
/// over one job is the one permutation of [1], with contention 1.
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "a scratch scenario tree under the system temp dir"
)]
fn one_task_contention_lemmas_scenario_runs_clean() {
    let dir = std::env::temp_dir().join(format!("doall_suite_one_task_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("one.scn"),
        "id = one
grid = algos=none advs=unit shapes=1x1 ds=1 seeds=1 seed=0
         derive = contention_lemmas
assert cont_found == 1
",
    )
    .unwrap();
    let scenarios = load_dir(&dir).unwrap();
    let report = run_suite(&scenarios, &SuiteConfig::default());
    std::fs::remove_dir_all(&dir).unwrap();
    let report = report.unwrap();
    assert!(report.is_clean(), "{}", report.render_table());
    assert_eq!(report.scenarios[0].checks, 1);
}

/// Failure reports stay actionable end to end: a violated assertion
/// names the exact cell tuple, and the rendered table carries it.
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "a scratch scenario tree under the system temp dir"
)]
fn suite_failures_name_the_exact_cell_in_the_rendered_table() {
    let dir = std::env::temp_dir().join(format!("doall_suite_fail_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("f.scn"),
        "id = f\ngrid = algos=soloall advs=unit shapes=4x8 ds=2 seeds=1 seed=0\n\
         assert work <= 1\n",
    )
    .unwrap();
    let scenarios = load_dir(&dir).unwrap();
    let report = run_suite(&scenarios, &SuiteConfig::default()).unwrap();
    assert!(!report.is_clean());
    let table = report.render_table();
    for needle in [
        "FAIL f: `assert work <= 1` violated at (",
        "algo=soloall",
        "adversary=unit",
        "p=4",
        "t=8",
        "d=2",
        "seeds=1",
        "seed=0x",
    ] {
        assert!(table.contains(needle), "`{table}` lacks `{needle}`");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
