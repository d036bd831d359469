//! The experiment hooks: every experiment is a committed
//! `scenarios/*.scn` file, run by `doall test --suite scenarios/`
//! (`--only e05` picks one) through [`crate::suite`] and the shared
//! sweep engine.
//!
//! Experiments used to be a 950-line Rust registry of spec structs and
//! derive closures; they are now *data* — each scenario file holds its
//! grids, smoke override, prose, and property assertions (see
//! [`crate::scenario`] for the format). What stays in Rust is the one
//! thing a text format cannot express: the derived-metric hooks that
//! restate the paper's closed-form bounds next to the measurements. A
//! scenario names its hook with `derive = <name>`; the name table is
//! [`DERIVE_HOOKS`]. The paper's inequality lemmas (4.2 and 6.1), once
//! buried in `assert!`s here, are now declarative `assert` lines in the
//! scenario files — a violation names the exact offending cell instead
//! of panicking the harness.
//!
//! Most hooks derive for any algorithm. Five read something only some
//! algorithm keys carry, and [`DERIVE_HOOKS`] names that precondition
//! next to each hook: `da_bound` and `da_epsilon` rebuild DA's schedules
//! from the `q` of a `da:<q>` key; `dcont_lemma` and `dcont_list` rebuild
//! the cell's own list, which only the [`SCHEDULE_KEYS`] have; and
//! `contention_lemmas` takes those keys or `none` (Lemma 4.1's list
//! search). [`crate::suite::load_file`] refuses a scenario whose grids
//! name a key its hook cannot derive for, before any cell runs.

use crate::grid::{schedules_for_algo, Cell, ALGO_NONE, SCHEDULE_KEYS};
use doall_algorithms::Da;
use doall_bounds::{da_epsilon, da_upper_bound, lower_bound_work, oblivious_work, pa_upper_bound};
use doall_core::Instance;
use doall_perms::{d_contention_exact, d_contention_of_list, dcont_threshold, search, Schedules};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The standard algorithm roster used by the headline sweeps.
pub const ROSTER: &[&str] = &["soloall", "da:2", "da:3", "paran1", "paran2", "padet"];

/// A derived-metric hook: reads a cell's measured metrics from the map
/// and inserts bounds/ratios next to them.
pub type DeriveFn = fn(&Cell, &mut BTreeMap<String, f64>);

/// The algorithm keys a derive hook can derive for: what it needs, as
/// error text, and the test of a key.
pub type AlgoNeeds = (&'static str, fn(&str) -> bool);

const ANY_ALGO: AlgoNeeds = ("any algorithm", |_| true);
const DA_KEY: AlgoNeeds = ("a da:<q> key", |key| key.starts_with("da:"));
const SCHEDULE_KEY: AlgoNeeds = ("a schedule-carrying key (oblido*, padet*)", |key| {
    SCHEDULE_KEYS.contains(&key)
});
const SCHEDULE_OR_NONE: AlgoNeeds = ("a schedule-carrying key (oblido*, padet*) or none", |key| {
    key == ALGO_NONE || SCHEDULE_KEYS.contains(&key)
});

fn instance_of(cell: &Cell) -> Instance {
    Instance::new(cell.p, cell.t).expect("cells are validated before running")
}

fn quadratic(cell: &Cell) -> f64 {
    oblivious_work(cell.p, cell.t)
}

fn ratio_quadratic(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    if let Some(&w) = m.get("mean_work") {
        m.insert("ratio_quadratic".to_string(), w / quadratic(cell));
    }
}

fn d_lower_bound(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let lb = lower_bound_work(cell.p, cell.t, cell.d);
    m.insert("lb_bound".to_string(), lb);
    if let Some(&w) = m.get("mean_work") {
        m.insert("ratio_lb".to_string(), w / lb);
    }
    ratio_quadratic(cell, m);
}

fn d_contention_lemmas(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let n = cell.t;
    if cell.algo == ALGO_NONE {
        // Lemma 4.1: certified low-contention list search vs the 3nH_n bound.
        let (_, cont) = search::low_contention_list(n, 0);
        m.insert("cont_found".to_string(), cont.value as f64);
        m.insert("bound_3nHn".to_string(), search::lemma41_bound(n));
        m.insert("worst_list_nn".to_string(), (n * n) as f64);
    } else {
        // Lemma 4.2 data: ObliDo's primary executions vs Cont(Σ) of the
        // very list it ran with. The inequality itself is a scenario
        // `assert primary <= cont` line, not a panic here.
        let sched = schedules_for_algo(&cell.algo, instance_of(cell), cell.run_seed(0))
            .expect("DERIVE_HOOKS admits schedule keys only");
        let cont = d_contention_exact(sched.as_slice(), 1) as f64;
        m.insert("cont".to_string(), cont);
        m.insert("total_nn".to_string(), (n * n) as f64);
    }
}

fn d_dcont_threshold(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    // Theorem 4.4 / Corollary 4.5: (d)-Cont of a random list vs threshold.
    let sched = Schedules::random(cell.p, cell.t, cell.run_seed(0));
    let est = d_contention_of_list(sched.as_slice(), cell.d as usize);
    let th = dcont_threshold(cell.t, cell.p, cell.d as usize);
    m.insert("dcont".to_string(), est.value as f64);
    m.insert("dcont_exact".to_string(), f64::from(u8::from(est.exact)));
    m.insert("threshold".to_string(), th);
    m.insert("ratio_threshold".to_string(), est.value as f64 / th);
    m.insert("cap_np".to_string(), (cell.t * cell.p) as f64);
}

fn da_q_of(cell: &Cell) -> usize {
    cell.algo
        .strip_prefix("da:")
        .and_then(|q| q.parse().ok())
        .expect("DERIVE_HOOKS admits da:<q> keys only")
}

fn da_eps_of(cell: &Cell, m: &mut BTreeMap<String, f64>) -> f64 {
    let q = da_q_of(cell);
    let da = Da::with_default_schedules(q, cell.run_seed(0));
    let cont = d_contention_exact(da.schedules().as_slice(), 1);
    let eps = da_epsilon(q, cont).max(0.05);
    m.insert("cont".to_string(), cont as f64);
    m.insert("epsilon".to_string(), eps);
    eps
}

fn d_da_bound(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let eps = da_eps_of(cell, m);
    let bound = da_upper_bound(cell.p, cell.t, cell.d, eps);
    m.insert("da_bound".to_string(), bound);
    if let Some(&w) = m.get("mean_work") {
        m.insert("ratio_bound".to_string(), w / bound);
    }
    ratio_quadratic(cell, m);
}

fn msgs_over_p_work(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    if let (Some(&msgs), Some(&w)) = (m.get("mean_messages"), m.get("mean_work")) {
        if w > 0.0 {
            m.insert("m_over_pw".to_string(), msgs / (cell.p as f64 * w));
        }
    }
}

fn d_pa_bound(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let bound = pa_upper_bound(cell.p, cell.t, cell.d);
    m.insert("pa_bound".to_string(), bound);
    if let Some(&w) = m.get("mean_work") {
        m.insert("ratio_bound".to_string(), w / bound);
    }
    ratio_quadratic(cell, m);
    msgs_over_p_work(cell, m);
}

fn d_dcont_lemma(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    // Lemma 6.1 data: PaDet work vs (d)-Cont(Σ) of its own schedule
    // list. The exact-row inequality (small slack: the final tick may
    // charge idle steps of processors that have not yet learned
    // completion) is a scenario `assert work <= dcont + p when
    // dcont_exact == 1` line.
    let sched = schedules_for_algo(&cell.algo, instance_of(cell), cell.run_seed(0))
        .expect("DERIVE_HOOKS admits schedule keys only");
    let dc = d_contention_of_list(sched.as_slice(), cell.d as usize);
    m.insert("dcont".to_string(), dc.value as f64);
    m.insert("dcont_exact".to_string(), f64::from(u8::from(dc.exact)));
    if let Some(&w) = m.get("mean_work") {
        m.insert("ratio_dcont".to_string(), w / dc.value as f64);
    }
}

fn d_da_epsilon(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let _ = da_eps_of(cell, m);
    msgs_over_p_work(cell, m);
}

fn d_msgs_over_work(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    if let (Some(&msgs), Some(&w)) = (m.get("mean_messages"), m.get("mean_work")) {
        if w > 0.0 {
            m.insert("m_over_w".to_string(), msgs / w);
        }
    }
    ratio_quadratic(cell, m);
}

fn d_dcont_list(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let sched = schedules_for_algo(&cell.algo, instance_of(cell), cell.run_seed(0))
        .expect("DERIVE_HOOKS admits schedule keys only");
    let dc = d_contention_of_list(sched.as_slice(), cell.d as usize);
    m.insert("dcont".to_string(), dc.value as f64);
    ratio_quadratic(cell, m);
}

/// Every derived-metric hook a scenario file may name with
/// `derive = <name>`, sorted by name, with the algorithm keys it can
/// derive for.
pub const DERIVE_HOOKS: &[(&str, DeriveFn, AlgoNeeds)] = &[
    ("contention_lemmas", d_contention_lemmas, SCHEDULE_OR_NONE),
    ("da_bound", d_da_bound, DA_KEY),
    ("da_epsilon", d_da_epsilon, DA_KEY),
    ("dcont_lemma", d_dcont_lemma, SCHEDULE_KEY),
    ("dcont_list", d_dcont_list, SCHEDULE_KEY),
    ("dcont_threshold", d_dcont_threshold, ANY_ALGO),
    ("lower_bound", d_lower_bound, ANY_ALGO),
    ("msgs_over_p_work", msgs_over_p_work, ANY_ALGO),
    ("msgs_over_work", d_msgs_over_work, ANY_ALGO),
    ("pa_bound", d_pa_bound, ANY_ALGO),
    ("ratio_quadratic", ratio_quadratic, ANY_ALGO),
];

/// Resolves a scenario's `derive = <name>` hook.
#[must_use]
pub fn derive_by_name(name: &str) -> Option<DeriveFn> {
    DERIVE_HOOKS
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(_, f, _)| f)
}

/// The committed scenario directory: `./scenarios` when invoked from the
/// repository root (the CLI and CI case), else resolved relative to this
/// crate's manifest (the `cargo test` / `cargo run` case).
#[must_use]
pub fn scenarios_dir() -> PathBuf {
    let cwd = PathBuf::from("scenarios");
    if cwd.is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::suite::{load_dir, run_scenario, run_suite, SuiteConfig};

    fn committed() -> Vec<Scenario> {
        load_dir(&scenarios_dir()).expect("committed scenarios load")
    }

    #[test]
    fn committed_suite_has_seventeen_unique_ids() {
        let scenarios = committed();
        assert_eq!(scenarios.len(), 17);
        let ids: std::collections::BTreeSet<&str> =
            scenarios.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids.len(), 17);
        assert!(ids.contains("e01"));
        assert!(ids.contains("e17"));
        // Sorted-path discovery puts them in id order.
        let in_order: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
        let mut sorted = in_order.clone();
        sorted.sort_unstable();
        assert_eq!(in_order, sorted);
    }

    #[test]
    fn every_committed_scenario_is_fully_specified() {
        for scn in committed() {
            assert!(!scn.title.is_empty(), "{} needs a title", scn.id);
            assert!(!scn.setup.is_empty(), "{} needs a setup line", scn.id);
            assert!(!scn.notes.is_empty(), "{} needs notes", scn.id);
            assert!(
                !scn.smoke.is_empty(),
                "{} needs a smoke grid for CI",
                scn.id
            );
            assert!(!scn.asserts.is_empty(), "{} needs assertions", scn.id);
            // Grids are validated by load_dir; spot-check round-tripping.
            let rendered = scn.to_string();
            assert_eq!(Scenario::parse(&rendered).unwrap(), scn, "{}", scn.id);
        }
    }

    #[test]
    fn smoke_suite_covers_the_full_algorithm_and_adversary_matrix() {
        let mut algos = std::collections::BTreeSet::new();
        let mut advs = std::collections::BTreeSet::new();
        for scn in committed() {
            for grid in scn.grids_for(true) {
                algos.extend(grid.algos.clone());
                advs.extend(grid.adversaries.iter().map(ToString::to_string));
            }
        }
        for key in ROSTER {
            assert!(algos.contains(*key), "roster algo {key} missing from smoke");
        }
        for key in [
            "oblido",
            "oblido-searched",
            "oblido-worst",
            "padet-rot",
            "padet-affine",
        ] {
            assert!(algos.contains(key), "algo {key} missing from smoke");
        }
        assert!(algos.iter().any(|a| a.starts_with("gossip:")));
        for key in ["unit", "fixed", "random", "stage", "bursty", "lb", "lbrand"] {
            assert!(advs.contains(key), "adversary {key} missing from smoke");
        }
        assert!(advs.iter().any(|a| a.starts_with("crash:")));
        // The parameterized families: every knob axis is exercised by CI.
        assert!(
            advs.iter().any(|a| a.starts_with("bursty:")),
            "no bursty period knob in smoke: {advs:?}"
        );
        for stagger in ["@burst", "@front"] {
            assert!(
                advs.iter()
                    .any(|a| a.starts_with("crash:") && a.ends_with(stagger)),
                "no crash {stagger} stagger in smoke: {advs:?}"
            );
        }
        assert!(
            advs.iter().any(|a| a.starts_with("straggler:")),
            "no straggler cell in smoke: {advs:?}"
        );
    }

    #[test]
    fn smoke_e01_produces_expected_metrics_and_passes_its_assertions() {
        let scenarios = committed();
        let e01 = scenarios.iter().find(|s| s.id == "e01").unwrap();
        let cfg = SuiteConfig {
            smoke: true,
            threads: Some(2),
            ..SuiteConfig::default()
        };
        let (summary, records) = run_scenario(e01, &cfg).unwrap();
        assert!(summary.failures.is_empty(), "{:?}", summary.failures);
        // roster × 1 shape × 2 ds
        assert_eq!(records.len(), ROSTER.len() * 2);
        for r in &records {
            assert!(r.metrics.contains_key("mean_work"));
            assert!(r.metrics.contains_key("median_work"));
            assert!(r.metrics.contains_key("max_messages"));
            // The quadratic-wall band is Θ(1), but the constant at tiny
            // smoke shapes can sit above 1 — only sanity-check the order
            // (the scenario's own assertions encode the same band).
            let ratio = r.metrics["ratio_quadratic"];
            assert!(ratio > 0.0 && ratio < 10.0, "{}: {ratio}", r.cell.algo);
        }
    }

    #[test]
    fn lemma_scenarios_pass_their_declarative_assertions_in_smoke() {
        let scenarios = committed();
        let cfg = SuiteConfig {
            smoke: true,
            threads: Some(2),
            ..SuiteConfig::default()
        };
        // e04 (Lemma 4.2) and e10 (Lemma 6.1) carry the paper's
        // inequalities as scenario asserts; a violation now names the
        // cell instead of panicking.
        let subset: Vec<Scenario> = scenarios
            .into_iter()
            .filter(|s| s.id == "e04" || s.id == "e10")
            .collect();
        assert_eq!(subset.len(), 2);
        let report = run_suite(&subset, &cfg).unwrap();
        assert!(report.is_clean(), "{}", report.render_table());
        assert!(report.scenarios.iter().all(|s| s.checks > 0));
    }

    #[test]
    fn derive_hooks_resolve_by_name() {
        for (name, ..) in DERIVE_HOOKS {
            assert!(derive_by_name(name).is_some(), "{name}");
        }
        assert!(derive_by_name("frobnicate").is_none());
        // The table is sorted so the docs render predictably.
        let names: Vec<&str> = DERIVE_HOOKS.iter().map(|(n, ..)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
