//! The three workloads, each in an untraced form (the repository's
//! public entry points, timed from outside) and a traced form (the same
//! public calls the sweep makes, one by one, with every process and
//! adversary wrapped by [`crate::probe`]).

use crate::probe::{self, Span, TracedAdversary, TracedProcess};
use doall_bench::compare::compare;
use doall_bench::experiments::derive_by_name;
use doall_bench::grid::{
    build_adversary, build_algorithm, crash_plan, straggler_flags, AdversarySpec, Backend, Cell,
    Grid, ALGO_NONE,
};
use doall_bench::resultset::{parse_result_set, BaselineSet, Record, ResultSet};
use doall_bench::scenario::Scenario;
use doall_bench::suite::{load_dir, run_suite, SuiteConfig};
use doall_bench::sweep::{
    effective_shard_size, run_cells_with_stats, CellMeasurement, SweepConfig,
};
use doall_core::{Instance, RunReport};
use doall_sim::analysis::{execution_profile, summarize, ProfilePartial};
use doall_sim::{Simulation, Trace, TraceMode, DEFAULT_MAX_TICKS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The seed whose outputs are pinned. Every other seed checks the
/// accounting invariants instead.
pub const NAMED_SEED: u64 = 0;

/// ROADMAP item 5's cell: 65536 DA replicas on the coalescing bus.
const SCALE_GRID: &str = "algos=da:3 advs=unit shapes=65536x65536 ds=4 seeds=1";
/// The CI `scale-smoke` pins of [`SCALE_GRID`] at the named seed.
const SCALE_WORK: f64 = 1_769_472.0;
const SCALE_MESSAGES: f64 = 60_128_624_640.0;

/// A per-recipient adversary: `p − 1` envelopes and delay calls per
/// broadcast, eight replicates sharded across the workers.
const MAILBOX_GRID: &str = "algos=da:3,paran1 advs=random shapes=1024x1024 ds=8 seeds=4";
/// Pinned `(algo, mean_work, mean_messages)` of [`MAILBOX_GRID`].
const MAILBOX_PINS: [(&str, f64, f64); 2] = [
    ("da:3", 21_504.0, 7_900_629.0),
    ("paran1", 5_120.0, 4_907_842.5),
];

/// The scenario whose cells run on real threads; its wall-clock is the
/// OS scheduler's, so the suite workload leaves it out.
const THREADS_SCENARIO: &str = "e17";

/// Mirrors the sweep's trace-buffer ceiling (4M events).
const TRACE_CAPACITY: usize = 4_000_000;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `p = t = 65536` DA cell, single-threaded.
    ScaleDa,
    /// A per-recipient-delay grid through the sweep engine.
    Mailbox,
    /// Every committed scenario's full grids except e17.
    SuiteSim,
}

impl Workload {
    /// All workloads, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::ScaleDa, Workload::Mailbox, Workload::SuiteSim];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleDa => "scale-da",
            Workload::Mailbox => "mailbox",
            Workload::SuiteSim => "suite-sim",
        }
    }
}

/// What the workloads read: the scenarios and the recorded result sets.
pub struct Inputs {
    root: PathBuf,
    threads: usize,
}

impl Inputs {
    /// Inputs under the benchmark package's directory `root`.
    pub fn new(root: &Path) -> Inputs {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        Inputs {
            root: root.to_path_buf(),
            threads,
        }
    }

    /// Worker threads for the sweep-driven workloads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn reference_path(&self, w: Workload) -> PathBuf {
        self.root
            .join("reference")
            .join(format!("{}.json", w.name()))
    }

    /// The recorded result set of `w` at the named seed.
    pub fn reference(&self, w: Workload) -> Result<BaselineSet, String> {
        let path = self.reference_path(w);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_result_set(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Records `w`'s result set at the named seed.
    pub fn record(&self, w: Workload) -> Result<PathBuf, String> {
        let exec = untraced(w, NAMED_SEED, self, None)?;
        let path = self.reference_path(w);
        std::fs::create_dir_all(self.root.join("reference")).map_err(|e| e.to_string())?;
        std::fs::write(&path, exec.results.to_json()).map_err(|e| e.to_string())?;
        Ok(path)
    }

    fn scenarios_dir(&self) -> PathBuf {
        self.root.join("..").join("scenarios")
    }
}

/// One execution of a workload.
pub struct Exec {
    /// Host seconds from the first call to the checked result.
    pub wall_s: f64,
    /// Host seconds before the first simulated tick.
    pub setup_s: f64,
    /// Σ `RunReport::work`.
    pub work: f64,
    /// The run reports, where the workload sees them whole (`scale-da`).
    pub reports: Vec<RunReport>,
    /// Cells run.
    pub cells: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// What failed, one line each.
    pub problems: Vec<String>,
    /// The records the execution produced.
    pub results: ResultSet,
}

/// One traced execution: its per-layer metrics and spans.
pub struct TracedExec {
    /// The execution's end-to-end view.
    pub exec: Exec,
    /// Per-layer metrics.
    pub layers: BTreeMap<&'static str, f64>,
    /// Every span, each thread's list in recording order.
    pub spans: Vec<Span>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn parse_grid(spec: &str, seed: u64) -> Result<Grid, String> {
    Grid::parse(&format!("{spec} seed={seed}")).map_err(|e| e.to_string())
}

/// A set-up timed over several repetitions: a set-up of microseconds
/// reads steady only as the median of many.
struct Setup<T> {
    out: T,
    /// Median seconds of one repetition.
    median_s: f64,
    /// Seconds spent on the repetitions beyond one, which the wall time
    /// of the execution leaves out.
    extra_s: f64,
}

fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<Setup<T>, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = setup()?;
        times.push(secs(t0));
        if times.len() >= 5 && (secs(started) > 0.05 || times.len() >= 2000) {
            let median_s = crate::median(&mut times);
            return Ok(Setup {
                out,
                median_s,
                extra_s: secs(started) - median_s,
            });
        }
    }
}

fn accounting_problems(cell: &Cell, report: &RunReport) -> Vec<String> {
    let mut out = Vec::new();
    if !report.completed {
        out.push("did not complete".to_string());
    }
    if report.work < cell.t as u64 {
        out.push(format!("work {} < t {}", report.work, cell.t));
    }
    let per_processor: u64 = report.work_per_processor.iter().sum();
    if per_processor != report.work {
        out.push(format!(
            "work per processor sums to {per_processor}, not W = {}",
            report.work
        ));
    }
    out
}

/// The sweep's measurement of a simulated cell, rebuilt from its
/// reports through the same public calls (`summarize`, `crash_plan`,
/// `straggler_flags`).
fn measurement(
    cell: &Cell,
    max_ticks: u64,
    reports: &[RunReport],
    profile: Option<ProfilePartial>,
) -> CellMeasurement {
    let mut m = CellMeasurement {
        cell: cell.clone(),
        summary: None,
        mean_primary: None,
        mean_secondary: None,
        crash_count: None,
        mean_crashes_fired: None,
        straggler_count: None,
        wall_clock_ms: None,
        crashed_drained: None,
        max_crashed_backlog: None,
    };
    if cell.algo == ALGO_NONE {
        return m;
    }
    m.summary = Some(probe::span("analysis.summarize", || summarize(reports)));
    m.mean_primary = profile.as_ref().map(ProfilePartial::mean_primary);
    m.mean_secondary = profile.as_ref().map(ProfilePartial::mean_secondary);
    if let AdversarySpec::Crash { pct, stagger } = cell.adversary {
        let plan = crash_plan(pct, stagger, cell.p, cell.t, max_ticks);
        let fired: usize = reports
            .iter()
            .map(|r| {
                let sigma = r.sigma.unwrap_or(u64::MAX);
                plan.iter().flatten().filter(|&&at| at <= sigma).count()
            })
            .sum();
        m.crash_count = Some(plan.iter().flatten().count() as f64);
        m.mean_crashes_fired = Some(fired as f64 / reports.len() as f64);
    }
    if let AdversarySpec::Straggler { pct, .. } = cell.adversary {
        m.straggler_count =
            Some(straggler_flags(pct, cell.p).iter().filter(|&&s| s).count() as f64);
    }
    if cell.backend == Some(Backend::Sim) {
        m.wall_clock_ms = Some(0.0);
        m.crashed_drained = Some(0.0);
        m.max_crashed_backlog = Some(0.0);
    }
    m
}

fn record(experiment: &str, m: &CellMeasurement) -> Record {
    Record {
        experiment: experiment.to_string(),
        cell: m.cell.clone(),
        metrics: m.metrics(),
    }
}

/// Σ work of a record set (mean work × replicates per simulated cell).
fn total_work(results: &ResultSet) -> f64 {
    results
        .records
        .iter()
        .filter_map(|r| Some(r.metrics.get("mean_work")? * r.cell.seeds as f64))
        .sum()
}

/// Diffs `results` against `reference` at tolerance 0; every cell that
/// is not exact is a failed cell.
fn diff(reference: &BaselineSet, results: &ResultSet, what: &str) -> Vec<String> {
    let new = probe::span("resultset.render", || BaselineSet::of(results));
    let cmp = probe::span("compare.diff", || compare(reference, &new, 0.0));
    if cmp.is_clean() {
        return Vec::new();
    }
    let mut out: Vec<String> = cmp
        .cells
        .iter()
        .map(|c| format!("{what}: {} differs from the recorded result set", c.key))
        .collect();
    if out.is_empty() {
        out.push(format!(
            "{what}: schema differs from the recorded result set"
        ));
    }
    out
}

/// Checks aggregate records of a seed whose values are not pinned: every
/// replicate completed, W ≥ t, and full-broadcast algorithms charge a
/// multiple of `p − 1` messages.
fn aggregate_problems(results: &ResultSet) -> Vec<String> {
    let mut out = Vec::new();
    for r in &results.records {
        let m = &r.metrics;
        let (Some(&completed), Some(&mean_work), Some(&max_messages)) = (
            m.get("completed"),
            m.get("mean_work"),
            m.get("max_messages"),
        ) else {
            continue;
        };
        let cell = &r.cell;
        if completed != cell.seeds as f64 {
            out.push(format!(
                "{}: {completed} of {} replicates completed",
                cell.algo, cell.seeds
            ));
        }
        if mean_work < cell.t as f64 {
            out.push(format!(
                "{}: mean work {mean_work} < t {}",
                cell.algo, cell.t
            ));
        }
        let full_broadcasts = cell.algo.starts_with("da:") || cell.algo.starts_with("paran");
        if full_broadcasts && cell.p > 1 && max_messages % (cell.p - 1) as f64 != 0.0 {
            out.push(format!(
                "{}: {max_messages} messages is not a multiple of p − 1",
                cell.algo
            ));
        }
    }
    out
}

fn failed_cells(problems: &[String], cells: u64) -> u64 {
    (problems.len() as u64).min(cells)
}

/// Brings the process to the state later executions start from. For
/// `scale-da`, one untimed execution: the first execution's 2 GB of
/// replicas page-fault fresh memory from the kernel (about a second,
/// varying run to run), and every later one reuses the freed heap.
pub fn warm_up(w: Workload, seed: u64, inputs: &Inputs) -> Result<(), String> {
    if w == Workload::ScaleDa {
        untraced(w, seed, inputs, None)?;
    }
    Ok(())
}

/// Runs `w` once, untraced: the repository's own entry points, timed
/// from outside. `reference` is `Some` at the named seed.
pub fn untraced(
    w: Workload,
    seed: u64,
    inputs: &Inputs,
    reference: Option<&BaselineSet>,
) -> Result<Exec, String> {
    match w {
        Workload::ScaleDa => scale_da(seed, reference, false).map(|t| t.exec),
        Workload::Mailbox => mailbox(seed, inputs, reference),
        Workload::SuiteSim => suite_sim(seed, inputs, reference),
    }
}

/// Runs `w` once, traced.
pub fn traced(
    w: Workload,
    seed: u64,
    inputs: &Inputs,
    reference: Option<&BaselineSet>,
) -> Result<TracedExec, String> {
    probe::set_thread(0);
    match w {
        Workload::ScaleDa => scale_da(seed, reference, true),
        Workload::Mailbox => mailbox_traced(seed, inputs, reference),
        Workload::SuiteSim => suite_sim_traced(seed, inputs, reference),
    }
}

/// `scale-da`: build, spawn and adversary build (the set-up), one run on
/// the broadcast bus, then the checks. `traced` wraps every process and
/// the adversary.
fn scale_da(
    seed: u64,
    reference: Option<&BaselineSet>,
    traced: bool,
) -> Result<TracedExec, String> {
    let t0 = Instant::now();
    let mut problems = Vec::new();
    let mut setup_s = 0.0;
    let mut report = None;
    let mut results = ResultSet {
        mode: "perfbench".to_string(),
        records: Vec::new(),
    };
    let mut hot = probe::Hot::default();
    probe::span("workload", || -> Result<(), String> {
        let cell = parse_grid(SCALE_GRID, seed)?.cells().remove(0);
        let instance = Instance::new(cell.p, cell.t).map_err(|e| e.to_string())?;
        let run_seed = cell.run_seed(0);
        let algo = probe::span("grid.build", || {
            build_algorithm(&cell.algo, instance, run_seed)
        })
        .map_err(|e| e.to_string())?;
        let mut procs = probe::span("algorithms.spawn", || algo.spawn(instance));
        let mut adversary = probe::span("grid.build", || {
            build_adversary(
                &cell.adversary,
                cell.p,
                cell.t,
                cell.d,
                run_seed,
                DEFAULT_MAX_TICKS,
            )
        });
        if traced {
            procs = TracedProcess::wrap_all(procs);
            adversary = TracedAdversary::wrap(adversary);
        }
        let sim = Simulation::builder(instance)
            .procs(procs)
            .adversary(adversary)
            .max_ticks(DEFAULT_MAX_TICKS)
            .build();
        setup_s = secs(t0);
        let before = probe::hot();
        let r = probe::span("sim.run", || sim.run());
        hot = probe::hot();
        hot = hot.minus(before);
        problems.extend(accounting_problems(&cell, &r));
        if traced {
            problems.extend(traced_problems(&cell, &r, &hot));
        }
        let m = measurement(&cell, DEFAULT_MAX_TICKS, std::slice::from_ref(&r), None);
        results.records.push(record(Workload::ScaleDa.name(), &m));
        match reference {
            Some(reference) => {
                let s = m.summary.as_ref().expect("simulated cell");
                if s.mean_work != SCALE_WORK || s.mean_messages != SCALE_MESSAGES {
                    problems.push(format!(
                        "scale-da: work {} messages {} (pinned {SCALE_WORK} and {SCALE_MESSAGES})",
                        s.mean_work, s.mean_messages
                    ));
                }
                problems.extend(diff(reference, &results, "scale-da"));
            }
            None => problems.extend(aggregate_problems(&results)),
        }
        report = Some(r);
        Ok(())
    })?;
    let wall_s = secs(t0);
    let spans = probe::drain();
    let report = report.expect("the run happened");
    let exec = Exec {
        wall_s,
        setup_s,
        work: report.work as f64,
        reports: vec![report.clone()],
        cells: 1,
        failed: failed_cells(&problems, 1),
        problems,
        results,
    };
    let mut layers = BTreeMap::new();
    if traced {
        layers = layer_metrics(&spans, wall_s);
        layers.insert("sim.ticks", report.sigma.map_or(0, |s| s + 1) as f64);
        layers.insert("sim.trace_events", 0.0);
        layers.insert("sweep.shards", 0.0);
        layers.insert("sweep.workers_engaged", 0.0);
    }
    Ok(TracedExec {
        exec,
        layers,
        spans,
    })
}

/// The traced run's extra invariants: the wrappers saw exactly the work
/// and messages the report charges.
fn traced_problems(cell: &Cell, report: &RunReport, hot: &probe::Hot) -> Vec<String> {
    let mut out = Vec::new();
    if hot.steps != report.work {
        out.push(format!(
            "{}: {} wrapped steps but W = {}",
            cell.algo, hot.steps, report.work
        ));
    }
    if hot.expected_messages != report.messages {
        out.push(format!(
            "{}: broadcasts charge {} messages but M = {}",
            cell.algo, hot.expected_messages, report.messages
        ));
    }
    out
}

/// Per-layer metrics from a traced execution's spans.
fn layer_metrics(spans: &[Span], wall_s: f64) -> BTreeMap<&'static str, f64> {
    let layers = probe::layers(spans, "workload");
    let h = &layers.hot;
    let mut out = BTreeMap::new();
    for (metric, span) in [
        ("grid.build_s", "grid.build"),
        ("algorithms.spawn_s", "algorithms.spawn"),
        ("algorithms.step_s", "algorithms.step"),
        ("adversary.schedule_s", "adversary.schedule"),
        ("adversary.delay_s", "adversary.delay"),
        ("sim.engine_self_s", "sim.run"),
        ("analysis.summarize_s", "analysis.summarize"),
        ("analysis.profile_s", "analysis.profile"),
        ("sweep.run_cells_s", "sweep.run_cells"),
        ("scenario.load_s", "scenario.load"),
        ("scenario.derive_s", "scenario.derive"),
        ("scenario.assert_s", "scenario.assert"),
        ("resultset.render_s", "resultset.render"),
        ("compare.diff_s", "compare.diff"),
    ] {
        out.insert(metric, layers.self_s(span));
    }
    for (metric, value) in [
        ("algorithms.steps", h.steps),
        ("algorithms.broadcasts", h.broadcasts),
        ("algorithms.inbox_msgs", h.inbox_msgs),
        ("algorithms.inbox_words", h.inbox_words),
        ("algorithms.payload_bytes", h.payload_bytes),
        ("algorithms.payload_fresh", h.payload_fresh),
        ("adversary.schedule_calls", h.schedule_calls),
        ("adversary.delay_calls", h.delay_calls),
    ] {
        out.insert(metric, value as f64);
    }
    out.insert("traced.wall_s", wall_s);
    out.insert("traced.attributed_share", layers.total_self_s() / wall_s);
    out
}

/// `mailbox`: the grid through `run_cells_with_stats` on every core.
fn mailbox(seed: u64, inputs: &Inputs, reference: Option<&BaselineSet>) -> Result<Exec, String> {
    let t0 = Instant::now();
    let setup = repeat_setup(|| Ok(parse_grid(MAILBOX_GRID, seed)?.cells()))?;
    let cells = setup.out;
    let cfg = SweepConfig {
        threads: inputs.threads(),
        max_ticks: DEFAULT_MAX_TICKS,
        trace: false,
        shard_size: None,
    };
    let (measurements, _) = run_cells_with_stats(&cells, &cfg).map_err(|e| e.to_string())?;
    let results = ResultSet {
        mode: "perfbench".to_string(),
        records: measurements
            .iter()
            .map(|m| record(Workload::Mailbox.name(), m))
            .collect(),
    };
    let problems = mailbox_checks(&results, reference);
    Ok(Exec {
        wall_s: secs(t0) - setup.extra_s,
        setup_s: setup.median_s,
        work: total_work(&results),
        reports: Vec::new(),
        cells: cells.len() as u64,
        failed: failed_cells(&problems, cells.len() as u64),
        problems,
        results,
    })
}

fn mailbox_checks(results: &ResultSet, reference: Option<&BaselineSet>) -> Vec<String> {
    let Some(reference) = reference else {
        return aggregate_problems(results);
    };
    let mut problems = Vec::new();
    for (algo, work, messages) in MAILBOX_PINS {
        let found = results.records.iter().find(|r| r.cell.algo == algo);
        let pinned = found.is_some_and(|r| {
            r.metrics.get("mean_work") == Some(&work)
                && r.metrics.get("mean_messages") == Some(&messages)
        });
        if !pinned {
            problems.push(format!(
                "mailbox: {algo} misses its pins (mean work {work}, mean messages {messages})"
            ));
        }
    }
    problems.extend(diff(reference, results, "mailbox"));
    problems
}

/// The traced `mailbox`: an untraced-equivalent replay of the grid's
/// cells through [`replay`].
fn mailbox_traced(
    seed: u64,
    inputs: &Inputs,
    reference: Option<&BaselineSet>,
) -> Result<TracedExec, String> {
    let t0 = Instant::now();
    let mut out = Err(String::new());
    probe::span("workload", || {
        out = (|| {
            let cells = probe::span("scenario.load", || parse_grid(MAILBOX_GRID, seed))?.cells();
            let setup_s = secs(t0);
            let replayed = replay(&cells, 0, inputs.threads(), DEFAULT_MAX_TICKS, false);
            let results = ResultSet {
                mode: "perfbench".to_string(),
                records: replayed
                    .measurements
                    .iter()
                    .map(|m| record(Workload::Mailbox.name(), m))
                    .collect(),
            };
            let mut problems = replayed.problems.clone();
            problems.extend(mailbox_checks(&results, reference));
            Ok((cells.len() as u64, setup_s, results, problems, replayed))
        })();
    });
    let (cells, setup_s, results, problems, replayed) = out?;
    let wall_s = secs(t0);
    let spans = gather_spans(replayed.worker_spans);
    let mut layers = layer_metrics(&spans, wall_s);
    layers.insert("sim.ticks", replayed.ticks as f64);
    layers.insert("sim.trace_events", replayed.trace_events as f64);
    layers.insert("sweep.shards", replayed.shards as f64);
    layers.insert("sweep.workers_engaged", replayed.workers_engaged as f64);
    Ok(TracedExec {
        exec: Exec {
            wall_s,
            setup_s,
            work: total_work(&results),
            reports: Vec::new(),
            cells,
            failed: failed_cells(&problems, cells),
            problems,
            results,
        },
        layers,
        spans,
    })
}

/// The calling thread's spans followed by the workers', with parent
/// indices shifted to the merged list.
fn gather_spans(workers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = probe::drain();
    for list in workers {
        let offset = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

/// Loads the scenarios, drops the threads-backend one and moves every
/// grid to the workload seed.
fn load_scenarios(inputs: &Inputs, seed: u64) -> Result<(Vec<Scenario>, u64), String> {
    let mut scenarios = load_dir(&inputs.scenarios_dir())?;
    scenarios.retain(|s| s.id != THREADS_SCENARIO);
    let mut cells = 0u64;
    for scn in &mut scenarios {
        for grid in &mut scn.grids {
            grid.base_seed ^= seed;
            cells += grid.cells().len() as u64;
        }
    }
    Ok((scenarios, cells))
}

fn suite_config(inputs: &Inputs) -> SuiteConfig {
    SuiteConfig {
        smoke: false,
        threads: Some(inputs.threads()),
        shard_size: None,
        max_ticks: None,
    }
}

/// `suite-sim`: every scenario's full grids through `run_suite`.
fn suite_sim(seed: u64, inputs: &Inputs, reference: Option<&BaselineSet>) -> Result<Exec, String> {
    let t0 = Instant::now();
    let setup = repeat_setup(|| load_scenarios(inputs, seed))?;
    let (scenarios, cells) = setup.out;
    let report = run_suite(&scenarios, &suite_config(inputs))?;
    let mut problems: Vec<String> = report.failures().map(ToString::to_string).collect();
    match reference {
        Some(reference) => problems.extend(diff(reference, &report.results, "suite-sim")),
        None => problems.extend(aggregate_problems(&report.results)),
    }
    let results = report.results;
    Ok(Exec {
        wall_s: secs(t0) - setup.extra_s,
        setup_s: setup.median_s,
        work: total_work(&results),
        reports: Vec::new(),
        cells,
        failed: failed_cells(&problems, cells),
        problems,
        results,
    })
}

/// The traced `suite-sim`: each scenario's cells replayed through the
/// public calls the sweep makes, then derive and assert as `run_suite`
/// does.
fn suite_sim_traced(
    seed: u64,
    inputs: &Inputs,
    reference: Option<&BaselineSet>,
) -> Result<TracedExec, String> {
    let t0 = Instant::now();
    let mut out = Err(String::new());
    probe::span("workload", || {
        out = (|| {
            let (scenarios, cells) = probe::span("scenario.load", || load_scenarios(inputs, seed))?;
            let setup_s = secs(t0);
            let mut results = ResultSet {
                mode: "full".to_string(),
                records: Vec::new(),
            };
            let mut problems = Vec::new();
            let mut totals = Replayed::default();
            let mut first_cell = 0u64;
            for scn in &scenarios {
                let cells: Vec<Cell> = scn.grids.iter().flat_map(Grid::cells).collect();
                let max_ticks = scn.max_ticks.unwrap_or(DEFAULT_MAX_TICKS);
                let replayed = replay(&cells, first_cell, inputs.threads(), max_ticks, scn.trace);
                first_cell += cells.len() as u64;
                let derive = scn.derive.as_deref().and_then(derive_by_name);
                let mut records: Vec<Record> = Vec::with_capacity(cells.len());
                for m in &replayed.measurements {
                    let mut r = record(&scn.id, m);
                    if let Some(derive) = derive {
                        probe::span("scenario.derive", || derive(&m.cell, &mut r.metrics));
                    }
                    records.push(r);
                }
                let failures = probe::span("scenario.assert", || assertion_failures(scn, &records));
                problems.extend(failures);
                problems.extend(replayed.problems.iter().cloned());
                results.records.extend(records);
                totals.absorb(replayed);
            }
            match reference {
                Some(reference) => problems.extend(diff(reference, &results, "suite-sim")),
                None => problems.extend(aggregate_problems(&results)),
            }
            Ok((cells, setup_s, results, problems, totals))
        })();
    });
    let (cells, setup_s, results, problems, totals) = out?;
    let wall_s = secs(t0);
    let spans = gather_spans(totals.worker_spans);
    let mut layers = layer_metrics(&spans, wall_s);
    layers.insert("sim.ticks", totals.ticks as f64);
    layers.insert("sim.trace_events", totals.trace_events as f64);
    layers.insert("sweep.shards", totals.shards as f64);
    layers.insert("sweep.workers_engaged", totals.workers_engaged as f64);
    Ok(TracedExec {
        exec: Exec {
            wall_s,
            setup_s,
            work: total_work(&results),
            reports: Vec::new(),
            cells,
            failed: failed_cells(&problems, cells),
            problems,
            results,
        },
        layers,
        spans,
    })
}

/// `run_scenario`'s assertion pass over one scenario's records.
fn assertion_failures(scn: &Scenario, records: &[Record]) -> Vec<String> {
    let rows: Vec<(&Cell, &BTreeMap<String, f64>)> =
        records.iter().map(|r| (&r.cell, &r.metrics)).collect();
    let mut out = Vec::new();
    for assertion in &scn.asserts {
        let results: Vec<Result<(), (f64, f64)>> = if assertion.aggregate {
            assertion.check_agg(&rows).into_iter().collect()
        } else {
            rows.iter()
                .filter_map(|(cell, metrics)| assertion.check_cell(cell, metrics))
                .collect()
        };
        if results.is_empty() {
            out.push(format!("{}: `{assertion}` matched no cells", scn.id));
        }
        for (lhs, rhs) in results.into_iter().filter_map(Result::err) {
            out.push(format!(
                "{}: `{assertion}` violated: {lhs} vs {rhs}",
                scn.id
            ));
        }
    }
    out
}

/// What a replay produced.
#[derive(Default)]
struct Replayed {
    measurements: Vec<CellMeasurement>,
    problems: Vec<String>,
    ticks: u64,
    trace_events: u64,
    shards: u64,
    workers_engaged: u64,
    worker_spans: Vec<Vec<Span>>,
}

impl Replayed {
    fn absorb(&mut self, other: Replayed) {
        self.problems.extend(other.problems);
        self.ticks += other.ticks;
        self.trace_events += other.trace_events;
        self.shards += other.shards;
        self.workers_engaged += other.workers_engaged;
        self.worker_spans.extend(other.worker_spans);
    }
}

/// One shard: replicates `start .. start + len` of cell `cell`.
#[derive(Clone, Copy)]
struct Shard {
    cell: usize,
    start: u64,
    len: u64,
}

/// What one shard returned.
struct ShardOut {
    shard: Shard,
    reports: Vec<RunReport>,
    profile: Option<ProfilePartial>,
    problems: Vec<String>,
    ticks: u64,
    trace_events: u64,
}

/// Replays `cells` the way `run_cells_with_stats` runs them — the same
/// shard plan (`effective_shard_size`), an atomic claim cursor over
/// `threads` workers, reports merged in replicate order — but with
/// every process and adversary wrapped. The calling thread is worker 0.
fn replay(
    cells: &[Cell],
    first_cell: u64,
    threads: usize,
    max_ticks: u64,
    trace: bool,
) -> Replayed {
    probe::span("sweep.run_cells", || {
        let cfg = SweepConfig {
            threads,
            max_ticks,
            trace,
            shard_size: None,
        };
        let simulated = cells.iter().filter(|c| c.algo != ALGO_NONE).count();
        let mut shards = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            if cell.algo == ALGO_NONE {
                continue;
            }
            let size = effective_shard_size(simulated, cell.seeds, &cfg);
            let mut start = 0;
            while start < cell.seeds {
                let len = size.min(cell.seeds - start);
                shards.push(Shard {
                    cell: i,
                    start,
                    len,
                });
                start += len;
            }
        }
        let next = AtomicUsize::new(0);
        let engaged = AtomicUsize::new(0);
        let outputs: Mutex<Vec<ShardOut>> = Mutex::new(Vec::new());
        let worker_spans: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
        let worker = |id: usize| {
            probe::set_thread(id);
            let mut trace_buf: Option<Trace> = None;
            let mut claimed = false;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&shard) = shards.get(i) else { break };
                if !claimed {
                    claimed = true;
                    engaged.fetch_add(1, Ordering::Relaxed);
                }
                let out = run_shard(cells, first_cell, shard, max_ticks, trace, &mut trace_buf);
                outputs.lock().expect("no worker panics").push(out);
            }
        };
        let workers = threads.max(1).min(shards.len().max(1));
        std::thread::scope(|s| {
            for id in 1..workers {
                let worker = &worker;
                let worker_spans = &worker_spans;
                s.spawn(move || {
                    worker(id);
                    let spans = probe::drain();
                    worker_spans.lock().expect("no worker panics").push(spans);
                });
            }
            worker(0);
        });
        let mut outputs = outputs.into_inner().expect("no worker panics");
        outputs.sort_by_key(|o| (o.shard.cell, o.shard.start));
        let mut by_cell: Vec<Vec<ShardOut>> = cells.iter().map(|_| Vec::new()).collect();
        for out in outputs {
            by_cell[out.shard.cell].push(out);
        }
        let mut replayed = Replayed {
            shards: shards.len() as u64,
            workers_engaged: engaged.load(Ordering::Relaxed) as u64,
            worker_spans: worker_spans.into_inner().expect("no worker panics"),
            ..Replayed::default()
        };
        for (cell, outs) in cells.iter().zip(by_cell) {
            let mut reports = Vec::new();
            let mut profile = trace.then(ProfilePartial::default);
            for out in outs {
                reports.extend(out.reports);
                if let (Some(whole), Some(part)) = (profile.as_mut(), out.profile.as_ref()) {
                    whole.merge(part);
                }
                replayed.problems.extend(out.problems);
                replayed.ticks += out.ticks;
                replayed.trace_events += out.trace_events;
            }
            replayed
                .measurements
                .push(measurement(cell, max_ticks, &reports, profile));
        }
        replayed
    })
}

/// The sweep's trace capacity for a `(p, max_ticks)` cell.
fn trace_capacity(p: usize, max_ticks: u64) -> usize {
    let events = max_ticks.saturating_mul(2 * p as u64).saturating_add(1);
    usize::try_from(events)
        .unwrap_or(TRACE_CAPACITY)
        .min(TRACE_CAPACITY)
}

/// Runs one shard with wrapped processes and adversaries, checking each
/// replicate's accounting against what the wrappers saw.
fn run_shard(
    cells: &[Cell],
    first_cell: u64,
    shard: Shard,
    max_ticks: u64,
    trace: bool,
    trace_buf: &mut Option<Trace>,
) -> ShardOut {
    let cell = &cells[shard.cell];
    let replicate_id = |k: u64| ((first_cell + shard.cell as u64) << 32) | k;
    let instance = Instance::new(cell.p, cell.t).expect("grid shapes are positive");
    let build = |k: u64| {
        probe::set_replicate(replicate_id(k));
        let seed = cell.run_seed(k);
        let algo = probe::span("grid.build", || build_algorithm(&cell.algo, instance, seed))
            .expect("validated grid keys build");
        let procs = probe::span("algorithms.spawn", || algo.spawn(instance));
        let adversary = probe::span("grid.build", || {
            build_adversary(&cell.adversary, cell.p, cell.t, cell.d, seed, max_ticks)
        });
        (
            TracedProcess::wrap_all(procs),
            TracedAdversary::wrap(adversary),
        )
    };
    let mut out = ShardOut {
        shard,
        reports: Vec::with_capacity(shard.len as usize),
        profile: trace.then(ProfilePartial::default),
        problems: Vec::new(),
        ticks: 0,
        trace_events: 0,
    };
    // The hot totals at each replicate's start, then at the shard's end.
    let mut marks = Vec::new();
    if let Some(partial) = out.profile.as_mut() {
        for k in shard.start..shard.start + shard.len {
            marks.push(probe::hot());
            let (procs, adversary) = build(k);
            let needed = trace_capacity(cell.p, max_ticks);
            let mode = match trace_buf.take().filter(|b| b.capacity() >= needed) {
                Some(buf) => TraceMode::Recycled(buf),
                None => TraceMode::Buffered(needed),
            };
            let (report, trace) = probe::span("sim.run", || {
                Simulation::builder(instance)
                    .procs(procs)
                    .adversary(adversary)
                    .max_ticks(max_ticks)
                    .trace(mode)
                    .build()
                    .run_traced()
            });
            let trace = trace.expect("tracing enabled");
            out.trace_events += trace.events().len() as u64;
            let profile = probe::span("analysis.profile", || execution_profile(&trace, cell.t));
            partial.record(&profile);
            *trace_buf = Some(trace);
            out.reports.push(report);
        }
    } else {
        let pending = std::cell::Cell::new(None);
        out.reports = probe::span("sim.run", || {
            Simulation::run_batch(
                instance,
                shard.len,
                max_ticks,
                |k, procs| {
                    marks.push(probe::hot());
                    let (p, a) = build(shard.start + k);
                    procs.extend(p);
                    pending.set(Some(a));
                },
                |_| pending.take().expect("procs are built first"),
            )
        });
    }
    marks.push(probe::hot());
    for (i, report) in out.reports.iter().enumerate() {
        let hot = marks[i + 1].minus(marks[i]);
        let mut problems = accounting_problems(cell, report);
        problems.extend(traced_problems(cell, report, &hot));
        let k = shard.start + i as u64;
        out.problems.extend(problems.into_iter().map(|p| {
            format!(
                "{} replicate {k}: {p}",
                doall_bench::suite::cell_label(cell)
            )
        }));
        out.ticks += report.sigma.map_or(0, |s| s + 1);
    }
    out
}
