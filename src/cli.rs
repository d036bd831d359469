//! Command-line interface for the `doall` binary.
//!
//! Subcommands:
//!
//! * `simulate` — run one execution and print the report;
//! * `sweep`    — run a scenario grid (algorithm × adversary × shape × d)
//!   through the parallel sweep harness, with table/JSON/CSV output and
//!   optional baseline comparison (`--baseline`);
//! * `test`     — run a directory of declarative `*.scn` scenario files
//!   through the suite runner: grids execute on the sweep engine, each
//!   scenario's `assert` lines are evaluated, and an aggregated
//!   pass/fail table is rendered (optionally diffed against a baseline),
//!   with each scenario's tables on stderr;
//! * `compare`  — diff two sweep-result JSON files cell by cell;
//! * `contention` — contention report for a random schedule list;
//! * `bounds`   — print every closed-form bound for `(p, t, d)`.
//!
//! Exit codes follow `diff`: 0 clean, 1 baseline drift, 2 errors.
//!
//! The parser is hand-rolled (no CLI dependency): every subcommand reads
//! its flags through one argument cursor, so each parse error is worded
//! in one place. It is exposed here so it can be unit-tested;
//! `src/bin/doall.rs` is a thin wrapper. Algorithm and adversary keys
//! are parsed by the experiment harness (`doall_bench::grid`), so both
//! accept exactly the same keys.

use crate::bounds;
use crate::perms::Schedules;
use crate::sim::Simulation;
use crate::Instance;
use doall_bench::compare::{compare, compare_files, Comparison};
use doall_bench::grid::{
    build_adversary, build_algorithm, validate_algo_key, AdversarySpec, Grid, GridError,
};
use doall_bench::resultset::{load_result_set, BaselineSet, ResultSet};
use doall_bench::scenario::Scenario;
use doall_bench::suite::{load_dir, render_sections, run_scenario, run_suite, SuiteConfig};
use std::fmt::{self, Write as _};
use std::io::{self, Write as _};
use std::path::Path;
use std::str::FromStr;

/// Tick budget for `simulate` and CLI sweeps (generous: the CLI accepts
/// paper-scale lower-bound scenarios that legitimately run long).
pub const CLI_MAX_TICKS: u64 = 50_000_000;

/// What a successfully executed command concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Nothing to flag; the process exits 0.
    Clean,
    /// A baseline comparison found drift (or added/removed cells); the
    /// process exits 1, `diff`-style — 2 stays reserved for errors.
    Drift,
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulated execution.
    Simulate(RunSpec),
    /// Run a scenario grid through the parallel sweep harness.
    Sweep(SweepSpec),
    /// Run a declarative scenario suite (`*.scn` files) and evaluate its
    /// assertions.
    Test(TestSpec),
    /// Diff two sweep-result JSON files cell by cell.
    Compare(CompareSpec),
    /// Contention report for a random list of `p` schedules over `[n]`.
    Contention {
        /// Number of schedules.
        p: usize,
        /// Size of the underlying set.
        n: usize,
        /// RNG seed for the list.
        seed: u64,
    },
    /// Print the paper's closed-form bounds for `(p, t, d)`.
    Bounds {
        /// Processors.
        p: usize,
        /// Tasks.
        t: usize,
        /// Delay bound.
        d: u64,
    },
    /// Print usage.
    Help,
}

/// Output format of `sweep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable Markdown tables (the default).
    Table,
    /// Deterministic JSON (see [`ResultSet::to_json`]).
    Json,
    /// Long-format CSV (see [`ResultSet::to_csv`]).
    Csv,
}

/// The run flags `sweep` and `test` share, each read in one place.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunFlags {
    /// Worker threads (default: available parallelism). Wall-clock only.
    pub threads: Option<usize>,
    /// Replicates per scheduled shard (default: auto — a grid with fewer
    /// cells than workers splits each cell's replicates across the pool).
    /// Wall-clock only; results are byte-identical for every value.
    pub shard_size: Option<u64>,
    /// Per-run tick cutoff (default: [`CLI_MAX_TICKS`] for `sweep`, each
    /// scenario's own `max_ticks` for `test`).
    pub max_ticks: Option<u64>,
    /// Baseline result-set file to diff the results against after the
    /// run (drift exits 1).
    pub baseline: Option<String>,
    /// Drift tolerance for `--baseline` (default 0 — results are
    /// deterministic, so any drift on an unchanged grid is a regression).
    pub tolerance: f64,
}

/// Parameters of the `sweep` subcommand: a grid plus execution/output
/// options.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The scenario grid to run.
    pub grid: Grid,
    /// Execution and baseline options.
    pub run: RunFlags,
    /// Output format.
    pub format: Format,
    /// Write output here instead of stdout.
    pub out: Option<String>,
}

/// Parameters of the `test` subcommand: a scenario directory plus the
/// execution/output/baseline options shared with `sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSpec {
    /// Directory holding the `*.scn` files (searched recursively, run in
    /// sorted path order).
    pub suite: String,
    /// Run each scenario's smoke grids instead of the full grids.
    pub smoke: bool,
    /// Restrict the run to these scenario ids (unknown ids are errors).
    pub only: Option<Vec<String>>,
    /// Execution and baseline options.
    pub run: RunFlags,
    /// Emit the report as JSON instead of the pass/fail table.
    pub json: bool,
    /// Write the rendered report here instead of stdout.
    pub out: Option<String>,
    /// Regenerate the `--baseline` file from this run instead of diffing
    /// against it (refused when assertions fail). The writer is the same
    /// deterministic renderer the baselines were committed with, so an
    /// unchanged suite regenerates the committed bytes exactly.
    pub record: bool,
}

/// Parameters of the `compare` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareSpec {
    /// Baseline result-set file.
    pub old: String,
    /// New result-set file.
    pub new: String,
    /// Drift tolerance (default 0 = exact).
    pub tolerance: f64,
    /// Emit the machine-readable diff document instead of the table.
    pub json: bool,
    /// Write the rendered diff here instead of stdout.
    pub out: Option<String>,
}

/// Common parameters of `simulate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Algorithm key (see [`build_algorithm`]).
    pub algo: String,
    /// Processors.
    pub p: usize,
    /// Tasks.
    pub t: usize,
    /// Delay bound handed to the adversary.
    pub d: u64,
    /// The adversary (see [`build_adversary`]).
    pub adversary: AdversarySpec,
    /// Seed for randomized algorithms/adversaries.
    pub seed: u64,
}

/// Errors from parsing or executing a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The error for a bad algorithm or adversary key.
fn key_err(e: GridError) -> CliError {
    err(format!("{e}; try `doall help`"))
}

/// Usage text.
pub const USAGE: &str = "\
doall — message-delay-sensitive Do-All (Kowalski & Shvartsman, PODC'03)

USAGE:
  doall simulate   --algo A -p P -t T -d D [--adversary ADV] [--seed S]
  doall sweep      --grid 'algos=A,... advs=ADV,... shapes=PxT,... ds=D,...
                   seeds=K seed=S'
                   [--threads N] [--shard-size N] [--max-ticks N] [--json|--csv]
                   [--out PATH] [--baseline BASELINE.json] [--tolerance X]
  doall test       --suite DIR [--smoke] [--only ID,...] [--baseline BASELINE.json]
                   [--record] [--tolerance X] [--threads N] [--shard-size N]
                   [--max-ticks N] [--json] [--out PATH]
  doall compare    OLD.json NEW.json [--tolerance X] [--json] [--out PATH]
  doall contention -p P -n N [--seed S]
  doall bounds     -p P -t T -d D
  doall help

ALGORITHMS (A):
  soloall | oblido | oblido-searched | oblido-worst | da:<q> | paran1 | paran2
  | padet | padet-rot | padet-affine | gossip:<fanout>

ADVERSARIES (ADV, default 'stage'):
  unit | fixed | random | stage | bursty[:<period>] | lb[:<stage>]
  | lbrand[:<stage>] | crash:<pct>[@even|@burst|@front]
  | straggler[:<pct>[:<slowdown>]]

Adversaries are parameterized: bare keys keep their legacy defaults
(bursty period max(d/2,1); lb/lbrand stage min(d, max(t/6,1)); crash
stagger even; straggler 25% at slowdown 2). Numeric knobs canonicalize
(crash:07 ≡ crash:7), so one adversary has one cell identity. An
algorithm's number has one spelling too: da:03 and da:+3 are refused
(write da:3).

Sweeps run on the doall-bench harness: work is scheduled as (cell,
replicate-chunk) shards across a thread pool with per-replicate
deterministic seeding, so --threads and --shard-size change wall-clock
only, never a number — a single huge cell spreads across every worker.
The table output's header line is the grid's canonical spec, so pasting
it back into --grid reruns the same cells. --json / --csv emit the
machine-readable result-set schema (the format of
BENCH_smoke_baseline.json).

`test` discovers every *.scn file under --suite (recursively, sorted by
path), runs each scenario's grids through the same sweep harness, and
evaluates its `assert` lines against the summarized metrics. The report
is an aggregated pass/fail table (or --json); each violated assertion
names the exact offending cell (algo, adversary, p, t, d, seeds, seed)
with observed vs expected values. --smoke substitutes each scenario's
smoke grids; --baseline diffs the merged records against a committed
result set, and --record regenerates that file from the run instead
(same deterministic renderer the baselines were committed with, so an
unchanged suite regenerates the committed bytes exactly; refused while
assertions fail). The report on stdout (or --out) is byte-identical
across --threads and --shard-size. stderr carries the human view: per
scenario a `## id — title` section with its setup line, a Markdown
table of its records, and its notes, then, when --baseline drifts, the
full `compare` drift table. Assertion failures and baseline drift exit
1; unreadable suites or malformed scenarios exit 2. The committed
scenarios/ directory is the paper's experiment suite (e01–e16).

`compare` (and the --baseline of `sweep` and `test`) matches cells of
two result sets by (experiment, algo, adversary, p, t, d, seeds) and
classifies each as exact, drift, added, or removed. Results are
deterministic, so the default --tolerance is 0: any value drift of any
metric on an unchanged grid is a regression. Exit codes follow diff:
0 clean, 1 drift, 2 errors.
";

/// A cursor over one subcommand's arguments. Every flag is read through
/// it, so each parse error is worded in one place.
struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    /// The argument last returned by [`Args::next`], named in errors.
    flag: &'a str,
}

impl<'a> Args<'a> {
    /// Advances to the next flag (or positional argument).
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<String, CliError> {
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| err(format!("flag {} needs a value", self.flag)))
    }

    /// The current flag's value as a non-negative integer.
    fn num<T: FromStr>(&mut self) -> Result<T, CliError> {
        let s = self.value()?;
        s.parse()
            .map_err(|_| err(format!("{}: `{s}` is not a positive integer", self.flag)))
    }

    /// The current flag's value as an integer of at least 1.
    fn positive<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, CliError> {
        let n = self.num()?;
        if n < T::from(1) {
            return Err(err(format!("{} must be at least 1", self.flag)));
        }
        Ok(n)
    }

    /// The current flag's value as a comma list of at least one `what`,
    /// each item read by `item`.
    fn list<T>(
        &mut self,
        what: &str,
        item: impl Fn(&str) -> Result<T, CliError>,
    ) -> Result<Vec<T>, CliError> {
        let items = self
            .value()?
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(item)
            .collect::<Result<Vec<_>, _>>()?;
        if items.is_empty() {
            return Err(err(format!("{} needs at least one {what}", self.flag)));
        }
        Ok(items)
    }

    /// The current flag's value as a drift tolerance: finite and ≥ 0.
    fn tolerance(&mut self) -> Result<f64, CliError> {
        let s = self.value()?;
        match s.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
            _ => Err(err(format!(
                "{}: `{s}` is not a finite non-negative number",
                self.flag
            ))),
        }
    }

    /// The error for an argument the subcommand does not take.
    fn unknown(&self) -> CliError {
        err(format!("unknown flag {}", self.flag))
    }
}

impl RunFlags {
    /// Reads the current flag if it is one of these; `false` if not.
    fn read(&mut self, args: &mut Args) -> Result<bool, CliError> {
        match args.flag {
            "--threads" => self.threads = Some(args.positive()?),
            "--shard-size" => self.shard_size = Some(args.positive()?),
            "--max-ticks" => self.max_ticks = Some(args.positive()?),
            "--baseline" => self.baseline = Some(args.value()?),
            "--tolerance" => self.tolerance = args.tolerance()?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The suite runner's configuration for these flags.
    fn suite_config(&self, smoke: bool) -> SuiteConfig {
        SuiteConfig {
            smoke,
            threads: self.threads,
            shard_size: self.shard_size,
            max_ticks: self.max_ticks,
        }
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut args = Args {
        rest: rest.iter(),
        flag: sub,
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "simulate" => {
            let (mut algo, mut p, mut t, mut d) = (None, None, None, None);
            let mut adversary = AdversarySpec::Stage;
            let mut seed = 0;
            while let Some(flag) = args.next() {
                match flag {
                    // Keys are checked here (syntax only — building
                    // searched-list algorithms like `oblido-searched`
                    // would run the certified search twice), so errors
                    // surface before a long run.
                    "--algo" => {
                        let key = args.value()?;
                        validate_algo_key(&key).map_err(key_err)?;
                        algo = Some(key);
                    }
                    "-p" => p = Some(args.positive()?),
                    "-t" => t = Some(args.positive()?),
                    "-d" => d = Some(args.positive()?),
                    "--adversary" => {
                        adversary = AdversarySpec::parse(&args.value()?).map_err(key_err)?
                    }
                    "--seed" => seed = args.num()?,
                    _ => return Err(args.unknown()),
                }
            }
            Ok(Command::Simulate(RunSpec {
                algo: algo.ok_or_else(|| err("--algo is required"))?,
                p: p.ok_or_else(|| err("-p is required"))?,
                t: t.ok_or_else(|| err("-t is required"))?,
                d: d.ok_or_else(|| err("-d is required"))?,
                adversary,
                seed,
            }))
        }
        "sweep" => {
            let mut grid = None;
            let mut run = RunFlags::default();
            let mut format = Format::Table;
            let mut out = None;
            while let Some(flag) = args.next() {
                match flag {
                    "--grid" => {
                        grid = Some(
                            Grid::parse(&args.value()?)
                                .map_err(|e| err(format!("bad --grid: {e}")))?,
                        );
                    }
                    // The two formats conflict, and --out without a
                    // format means JSON (a file of Markdown tables is
                    // never the ask).
                    "--json" | "--csv" => {
                        let this = if flag == "--json" {
                            Format::Json
                        } else {
                            Format::Csv
                        };
                        if format != Format::Table && format != this {
                            return Err(err("--json conflicts with --csv"));
                        }
                        format = this;
                    }
                    "--out" => out = Some(args.value()?),
                    _ if run.read(&mut args)? => {}
                    _ => return Err(args.unknown()),
                }
            }
            if out.is_some() && format == Format::Table {
                format = Format::Json;
            }
            Ok(Command::Sweep(SweepSpec {
                grid: grid.ok_or_else(|| err("--grid is required"))?,
                run,
                format,
                out,
            }))
        }
        "test" => {
            let mut suite = None;
            let (mut smoke, mut json, mut record) = (false, false, false);
            let mut only = None;
            let mut run = RunFlags::default();
            let mut out = None;
            while let Some(flag) = args.next() {
                match flag {
                    "--suite" => suite = Some(args.value()?),
                    "--smoke" => smoke = true,
                    "--only" => only = Some(args.list("scenario id", |id| Ok(id.to_string()))?),
                    "--record" => record = true,
                    "--json" => json = true,
                    "--out" => out = Some(args.value()?),
                    _ if run.read(&mut args)? => {}
                    _ => return Err(args.unknown()),
                }
            }
            if record && run.baseline.is_none() {
                return Err(err("--record needs --baseline (the file to regenerate)"));
            }
            Ok(Command::Test(TestSpec {
                suite: suite.ok_or_else(|| err("--suite is required"))?,
                smoke,
                only,
                run,
                json,
                out,
                record,
            }))
        }
        "compare" => {
            let mut files = Vec::new();
            let mut tolerance = 0.0;
            let mut json = false;
            let mut out = None;
            while let Some(arg) = args.next() {
                match arg {
                    "--tolerance" => tolerance = args.tolerance()?,
                    "--json" => json = true,
                    "--out" => out = Some(args.value()?),
                    _ if arg.starts_with('-') => return Err(args.unknown()),
                    _ => files.push(arg.to_string()),
                }
            }
            let [old, new] = <[String; 2]>::try_from(files).map_err(|files| {
                err(format!(
                    "compare takes exactly two files (OLD.json NEW.json), got {}",
                    files.len()
                ))
            })?;
            Ok(Command::Compare(CompareSpec {
                old,
                new,
                tolerance,
                json,
                out,
            }))
        }
        "contention" => {
            let (mut p, mut n, mut seed) = (None, None, 0);
            while let Some(flag) = args.next() {
                match flag {
                    "-p" => p = Some(args.num()?),
                    "-n" => n = Some(args.num()?),
                    "--seed" => seed = args.num()?,
                    _ => return Err(args.unknown()),
                }
            }
            Ok(Command::Contention {
                p: p.ok_or_else(|| err("-p is required"))?,
                n: n.ok_or_else(|| err("-n is required"))?,
                seed,
            })
        }
        "bounds" => {
            let (mut p, mut t, mut d) = (None, None, None);
            while let Some(flag) = args.next() {
                match flag {
                    "-p" => p = Some(args.num()?),
                    "-t" => t = Some(args.num()?),
                    "-d" => d = Some(args.num()?),
                    _ => return Err(args.unknown()),
                }
            }
            Ok(Command::Bounds {
                p: p.ok_or_else(|| err("-p is required"))?,
                t: t.ok_or_else(|| err("-t is required"))?,
                d: d.ok_or_else(|| err("-d is required"))?,
            })
        }
        other => Err(err(format!(
            "unknown subcommand `{other}`; try `doall help`"
        ))),
    }
}

/// Writes a command's rendered output to its `--out` file, or to stdout
/// when no file was given. A failed write is an error (exit 2), also when
/// the reader of stdout has gone.
fn write_out(rendered: &str, out: Option<&str>) -> Result<(), CliError> {
    match out {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| err(format!("cannot write {path}: {e}")))
        }
        None => {
            let mut stdout = io::stdout().lock();
            stdout
                .write_all(rendered.as_bytes())
                .and_then(|()| stdout.flush())
                .map_err(|e| err(format!("cannot write to stdout: {e}")))
        }
    }
}

/// Writes a human-only view to stderr. These views are not the command's
/// output, so a failed write is ignored.
fn note(text: &str) {
    let _ = io::stderr().write_all(text.as_bytes());
}

/// Diffs `results` against the result-set file at `path`: the baseline
/// check of `sweep --baseline` and `test --baseline`.
fn diff_baseline(results: &ResultSet, path: &str, tolerance: f64) -> Result<Comparison, CliError> {
    let baseline = load_result_set(path).map_err(|e| err(e.to_string()))?;
    Ok(compare(&baseline, &BaselineSet::of(results), tolerance))
}

/// Executes a parsed command, writing its output to stdout (or `--out`).
/// Human-only views go to stderr: the baseline diffs of `sweep` and
/// `test`, and the per-scenario tables of `test`.
///
/// # Errors
///
/// Returns a [`CliError`] for invalid parameters or non-completing runs.
/// Baseline drift is not an error: it is the [`Outcome::Drift`] success
/// value, so callers can map it to exit code 1 rather than 2.
pub fn execute(command: &Command) -> Result<Outcome, CliError> {
    match command {
        Command::Help => {
            write_out(&format!("{USAGE}\n"), None)?;
            Ok(Outcome::Clean)
        }
        Command::Simulate(spec) => {
            let instance =
                Instance::new(spec.p, spec.t).map_err(|e| err(format!("bad instance: {e}")))?;
            let algo = build_algorithm(&spec.algo, instance, spec.seed).map_err(key_err)?;
            let report = Simulation::builder(instance)
                .procs(algo.spawn(instance))
                .adversary(build_adversary(
                    &spec.adversary,
                    spec.p,
                    spec.t,
                    spec.d,
                    spec.seed,
                    CLI_MAX_TICKS,
                ))
                .max_ticks(CLI_MAX_TICKS)
                .build()
                .run();
            let text = format!(
                "{} | p={} t={} d={} adversary={}\n{report}\n\
                 work/(p·t) = {:.3}   messages/work = {:.2}\n",
                algo.name(),
                spec.p,
                spec.t,
                spec.d,
                spec.adversary,
                report.work_ratio_to_quadratic(spec.p, spec.t),
                report.messages_per_work()
            );
            write_out(&text, None)?;
            if !report.completed {
                return Err(err("run did not complete within the tick budget"));
            }
            Ok(Outcome::Clean)
        }
        Command::Sweep(spec) => {
            // A sweep is a one-grid scenario with no assertions.
            let scn = Scenario {
                id: "sweep".to_string(),
                grids: vec![spec.grid.clone()],
                derive: Some("ratio_quadratic".to_string()),
                max_ticks: Some(CLI_MAX_TICKS),
                ..Scenario::default()
            };
            let (_, records) = run_scenario(&scn, &spec.run.suite_config(false)).map_err(err)?;
            let results = ResultSet {
                mode: "custom".to_string(),
                records,
            };
            let rendered = match spec.format {
                Format::Table => format!("sweep | {}\n{}", spec.grid, results.render_tables()),
                Format::Json => results.to_json(),
                Format::Csv => results.to_csv(),
            };
            write_out(&rendered, spec.out.as_deref())?;
            if let Some(baseline_path) = &spec.run.baseline {
                let comparison = diff_baseline(&results, baseline_path, spec.run.tolerance)?;
                note(&comparison.render_text());
                if !comparison.is_clean() {
                    return Ok(Outcome::Drift);
                }
            }
            Ok(Outcome::Clean)
        }
        Command::Test(spec) => {
            let mut scenarios = load_dir(Path::new(&spec.suite)).map_err(err)?;
            if let Some(only) = &spec.only {
                for id in only {
                    if !scenarios.iter().any(|s| &s.id == id) {
                        return Err(err(format!(
                            "unknown scenario `{id}` (not in {})",
                            spec.suite
                        )));
                    }
                }
                scenarios.retain(|s| only.contains(&s.id));
            }
            let mut report =
                run_suite(&scenarios, &spec.run.suite_config(spec.smoke)).map_err(err)?;
            // The human tables go to stderr, so stdout / --out carries
            // only the report.
            note(&render_sections(&scenarios, &report.results));
            if let Some(baseline_path) = &spec.run.baseline {
                if spec.record {
                    // Regenerate the baseline from this run — but never
                    // from a failing suite.
                    if report.is_clean() {
                        std::fs::write(baseline_path, report.results.to_json())
                            .map_err(|e| err(format!("cannot write {baseline_path}: {e}")))?;
                        note(&format!(
                            "recorded {} ({} cells)\n",
                            baseline_path,
                            report.results.records.len()
                        ));
                    } else {
                        note(&format!(
                            "refusing to record {baseline_path}: the suite is failing\n"
                        ));
                    }
                } else {
                    let comparison =
                        diff_baseline(&report.results, baseline_path, spec.run.tolerance)?;
                    if !comparison.is_clean() {
                        note(&comparison.render_text());
                    }
                    report.comparison = Some(comparison);
                }
            }
            let rendered = if spec.json {
                report.render_json()
            } else {
                report.render_table()
            };
            write_out(&rendered, spec.out.as_deref())?;
            Ok(if report.is_clean() {
                Outcome::Clean
            } else {
                Outcome::Drift
            })
        }
        Command::Compare(spec) => {
            let comparison = compare_files(&spec.old, &spec.new, spec.tolerance)
                .map_err(|e| err(e.to_string()))?;
            let rendered = if spec.json {
                comparison.render_json()
            } else {
                comparison.render_text()
            };
            write_out(&rendered, spec.out.as_deref())?;
            Ok(if comparison.is_clean() {
                Outcome::Clean
            } else {
                Outcome::Drift
            })
        }
        Command::Contention { p, n, seed } => {
            if *p == 0 || *n == 0 {
                return Err(err("-p and -n must be positive"));
            }
            let sched = Schedules::random(*p, *n, *seed);
            // d = 1 is Anderson & Woll's Cont(Σ).
            let cont = crate::perms::d_contention_of_list(sched.as_slice(), 1);
            let mut text = format!(
                "random list: {p} schedules over [{n}] (seed {seed})\nCont(Σ) = {} ({})\n\
                 {:>6} {:>12} {:>14} {:>8}\n",
                cont.value,
                if cont.exact { "exact" } else { "estimate" },
                "d",
                "(d)-Cont",
                "Thm 4.4 bound",
                "ratio"
            );
            let mut d = 1usize;
            while d <= *n {
                let dc = crate::perms::d_contention_of_list(sched.as_slice(), d);
                let th = crate::perms::dcont_threshold(*n, *p, d);
                let _ = writeln!(
                    text,
                    "{d:>6} {:>12} {:>14.1} {:>8.3}",
                    dc.value,
                    th,
                    dc.value as f64 / th
                );
                d *= 2;
            }
            write_out(&text, None)?;
            Ok(Outcome::Clean)
        }
        Command::Bounds { p, t, d } => {
            if *p == 0 || *t == 0 || *d == 0 {
                return Err(err("-p, -t, -d must be positive"));
            }
            let mut text = format!("bounds for p={p}, t={t}, d={d}:\n");
            for (label, value) in [
                (
                    "lower bound (Thm 3.1/3.4):",
                    bounds::lower_bound_work(*p, *t, *d),
                ),
                (
                    "DA upper (Thm 5.5, ε=0.5):",
                    bounds::da_upper_bound(*p, *t, *d, 0.5),
                ),
                (
                    "PA upper (Cor 6.4/6.5):",
                    bounds::pa_upper_bound(*p, *t, *d),
                ),
                (
                    "PA messages (Cor 6.4/6.5):",
                    bounds::pa_message_bound(*p, *t, *d),
                ),
                ("oblivious ceiling p·t:", bounds::oblivious_work(*p, *t)),
            ] {
                let _ = writeln!(text, "  {label:<26}  {value:.0}");
            }
            write_out(&text, None)?;
            Ok(Outcome::Clean)
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests write scratch files under the system temp dir"
)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The one-cell grid the sweep tests run: soloall on 2×4 at d = 1.
    const ONE_CELL: &str = "algos=soloall advs=stage shapes=2x4 ds=1 seeds=1 seed=0";

    /// `sweep --grid <grid> <rest>`, keeping the grid spec one argument.
    fn sweep(grid: &str, rest: &str) -> Vec<String> {
        let mut argv = args(&format!("sweep {rest}"));
        argv.extend(["--grid".to_string(), grid.to_string()]);
        argv
    }

    #[test]
    fn parses_simulate() {
        let cmd = parse(&args("simulate --algo paran2 -p 8 -t 32 -d 4")).unwrap();
        match cmd {
            Command::Simulate(spec) => {
                assert_eq!(spec.algo, "paran2");
                assert_eq!((spec.p, spec.t, spec.d), (8, 32, 4));
                assert_eq!(spec.adversary, AdversarySpec::Stage);
                assert_eq!(spec.seed, 0);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_flags_in_any_order() {
        let cmd = parse(&args(
            "simulate -t 32 --seed 7 --adversary fixed -d 4 -p 8 --algo da:3",
        ))
        .unwrap();
        match cmd {
            Command::Simulate(spec) => {
                assert_eq!(spec.algo, "da:3");
                assert_eq!(spec.adversary, AdversarySpec::Fixed);
                assert_eq!(spec.seed, 7);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(
            parse(&args("simulate --algo paran1 -p 8 -t 32")).is_err(),
            "no -d"
        );
        assert!(
            parse(&args("simulate --algo paran1 -t 32 -d 2")).is_err(),
            "no -p"
        );
        assert!(parse(&args("simulate -p 1 -t 1 -d 1")).is_err(), "no algo");
    }

    #[test]
    fn unknown_keys_error_eagerly() {
        assert!(parse(&args("simulate --algo nope -p 2 -t 2 -d 1")).is_err());
        assert!(parse(&args(
            "simulate --algo paran1 -p 2 -t 2 -d 1 --adversary nope"
        ))
        .is_err());
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("simulate --algo da:99 -p 2 -t 2 -d 1")).is_err());
        assert!(parse(&args("simulate --algo gossip:0 -p 2 -t 2 -d 1")).is_err());
    }

    #[test]
    fn parses_other_subcommands() {
        assert_eq!(
            parse(&args("contention -p 4 -n 16")).unwrap(),
            Command::Contention {
                p: 4,
                n: 16,
                seed: 0
            }
        );
        assert_eq!(
            parse(&args("bounds -p 4 -t 16 -d 2")).unwrap(),
            Command::Bounds { p: 4, t: 16, d: 2 }
        );
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn spec_builds_all_algorithms_and_adversaries() {
        for algo in [
            "soloall", "oblido", "da:2", "da:3", "paran1", "paran2", "padet", "gossip:2",
        ] {
            for adv in [
                "unit",
                "fixed",
                "random",
                "stage",
                "bursty",
                "bursty:3",
                "lb",
                "lb:2",
                "lbrand",
                "lbrand:2",
                "crash:25@burst",
                "straggler:25:4",
            ] {
                let line =
                    format!("simulate --algo {algo} -p 4 -t 8 -d 2 --adversary {adv} --seed 1");
                match parse(&args(&line)).unwrap() {
                    Command::Simulate(spec) => {
                        let instance = Instance::new(spec.p, spec.t).unwrap();
                        assert!(
                            build_algorithm(&spec.algo, instance, spec.seed).is_ok(),
                            "{algo}"
                        );
                        assert_eq!(spec.adversary.to_string(), adv);
                    }
                    other => panic!("wrong command: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn execute_simulate_small() {
        let cmd = parse(&args("simulate --algo padet -p 4 -t 8 -d 2 --seed 3")).unwrap();
        execute(&cmd).unwrap();
    }

    #[test]
    fn execute_bounds_and_contention() {
        execute(&Command::Bounds { p: 8, t: 64, d: 4 }).unwrap();
        execute(&Command::Contention {
            p: 3,
            n: 6,
            seed: 0,
        })
        .unwrap();
        execute(&Command::Help).unwrap();
    }

    #[test]
    fn execute_sweep_small() {
        let cmd = parse(&sweep(ONE_CELL, "")).unwrap();
        execute(&cmd).unwrap();
    }

    #[test]
    fn execute_rejects_bad_bounds() {
        assert!(execute(&Command::Bounds { p: 0, t: 1, d: 1 }).is_err());
        assert!(execute(&Command::Contention {
            p: 0,
            n: 4,
            seed: 0
        })
        .is_err());
    }

    #[test]
    fn cli_error_displays_message() {
        let e = parse(&args("frobnicate")).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    /// Renders a [`RunSpec`] back into the argument vector that produces it.
    fn spec_args(sub: &str, spec: &RunSpec) -> Vec<String> {
        args(&format!(
            "{sub} --algo {} -p {} -t {} -d {} --adversary {} --seed {}",
            spec.algo, spec.p, spec.t, spec.d, spec.adversary, spec.seed
        ))
    }

    #[test]
    fn simulate_round_trips() {
        let spec = RunSpec {
            algo: "da:4".to_string(),
            p: 9,
            t: 81,
            d: 3,
            adversary: AdversarySpec::Bursty { period: None },
            seed: 1234,
        };
        assert_eq!(
            parse(&spec_args("simulate", &spec)).unwrap(),
            Command::Simulate(spec)
        );
    }

    #[test]
    fn sweep_grid_flag_parses_and_conflicts_with_shorthand() {
        let grid = "algos=da:3,paran1 advs=stage,unit shapes=4x8 ds=1,2 seeds=2 seed=5";
        match parse(&sweep(grid, "--threads 2 --json")).unwrap() {
            Command::Sweep(spec) => {
                assert_eq!(spec.grid.algos, vec!["da:3", "paran1"]);
                assert_eq!(spec.grid.seeds, 2);
                assert_eq!(spec.run.threads, Some(2));
                assert_eq!(spec.format, Format::Json);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // `--algo` belongs to `simulate`; a sweep's cells come from --grid.
        let e = parse(&sweep("algos=paran1 shapes=4x8", "--algo padet")).unwrap_err();
        assert!(e.to_string().contains("unknown flag --algo"), "{e}");
        assert!(
            parse(&args("sweep --threads 2")).is_err(),
            "--grid is required"
        );
        assert!(parse(&sweep("algos=frobnicate shapes=4x8", "")).is_err());
    }

    #[test]
    fn sweep_grid_refuses_the_backends_axis() {
        // Every cell runs on the simulator: the same grid without a
        // backends field parses to one untagged cell per (algo × adv).
        let grid = "algos=da:3 advs=unit,crash:25@burst shapes=8x32 ds=2 seeds=2 seed=0";
        match parse(&sweep(grid, "")).unwrap() {
            Command::Sweep(spec) => {
                let cells = spec.grid.cells();
                assert_eq!(cells.len(), 2);
                assert!(cells.iter().all(|c| c.backend.is_none()));
            }
            other => panic!("wrong command: {other:?}"),
        }
        for backends in ["backends=sim", "backends=sim,threads", "backends=gpu"] {
            let e = parse(&sweep(&format!("{grid} {backends}"), ""))
                .unwrap_err()
                .to_string();
            assert!(e.contains("unknown grid field `backends`"), "{e}");
        }
    }

    #[test]
    fn sweep_grid_accepts_parameterized_adversary_keys_verbatim() {
        use doall_bench::grid::CrashStagger;
        let grid = "algos=da:3 advs=bursty:4,crash:25@burst,straggler:25:4 shapes=16x64 ds=2,8 \
                    seeds=3 seed=0";
        match parse(&sweep(grid, "")).unwrap() {
            Command::Sweep(spec) => {
                assert_eq!(
                    spec.grid.adversaries,
                    vec![
                        AdversarySpec::Bursty { period: Some(4) },
                        AdversarySpec::Crash {
                            pct: 25,
                            stagger: CrashStagger::Burst,
                        },
                        AdversarySpec::Straggler {
                            pct: 25,
                            slowdown: 4,
                        },
                    ]
                );
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Legacy bare keys and zero-padded knobs still parse (the latter
        // canonicalized), and malformed knobs are CLI errors.
        assert!(parse(&args(
            "simulate --algo paran1 -p 2 -t 4 -d 2 --adversary bursty"
        ))
        .is_ok());
        assert!(parse(&args(
            "simulate --algo paran1 -p 2 -t 4 -d 2 --adversary crash:07"
        ))
        .is_ok());
        assert!(parse(&args(
            "simulate --algo paran1 -p 2 -t 4 -d 2 --adversary straggler:0:3"
        ))
        .is_err());
        assert!(parse(&args(
            "simulate --algo paran1 -p 2 -t 4 -d 2 --adversary bursty:0"
        ))
        .is_err());
    }

    #[test]
    fn parses_compare_subcommand() {
        assert_eq!(
            parse(&args("compare old.json new.json")).unwrap(),
            Command::Compare(CompareSpec {
                old: "old.json".to_string(),
                new: "new.json".to_string(),
                tolerance: 0.0,
                json: false,
                out: None,
            })
        );
        assert_eq!(
            parse(&args(
                "compare --tolerance 0.05 old.json --json new.json --out diff.txt"
            ))
            .unwrap(),
            Command::Compare(CompareSpec {
                old: "old.json".to_string(),
                new: "new.json".to_string(),
                tolerance: 0.05,
                json: true,
                out: Some("diff.txt".to_string()),
            })
        );
        assert!(parse(&args("compare one.json")).is_err(), "needs two files");
        assert!(parse(&args("compare a b c")).is_err(), "too many files");
        assert!(parse(&args("compare a b --tolerance -1")).is_err());
        assert!(parse(&args("compare a b --frob")).is_err());
    }

    #[test]
    fn sweep_parses_shard_size() {
        match parse(&sweep(ONE_CELL, "--shard-size 3")).unwrap() {
            Command::Sweep(spec) => assert_eq!(spec.run.shard_size, Some(3)),
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&sweep(ONE_CELL, "")).unwrap() {
            Command::Sweep(spec) => assert_eq!(spec.run.shard_size, None, "default is auto"),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&sweep(ONE_CELL, "--shard-size 0")).is_err());
        assert!(parse(&sweep(ONE_CELL, "--shard-size few")).is_err());
        assert!(parse(&args("sweep --shard-size")).is_err());
    }

    #[test]
    fn sweep_parses_baseline_and_tolerance() {
        match parse(&sweep(ONE_CELL, "--baseline base.json --tolerance 0.1")).unwrap() {
            Command::Sweep(spec) => {
                assert_eq!(spec.run.baseline.as_deref(), Some("base.json"));
                assert_eq!(spec.run.tolerance, 0.1);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&sweep(ONE_CELL, "--tolerance x")).is_err());
        let e = parse(&sweep(ONE_CELL, "--compare base.json")).unwrap_err();
        assert!(e.to_string().contains("unknown flag --compare"), "{e}");
    }

    #[test]
    fn execute_sweep_writes_the_selected_format_to_out() {
        let path = std::env::temp_dir().join(format!("doall_cli_sweep_out_{}", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let csv = sweep(ONE_CELL, &format!("--csv --out {path}"));
        assert_eq!(execute(&parse(&csv).unwrap()).unwrap(), Outcome::Clean);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with("experiment,algo,adversary,p,t,d,seeds,metric,value\n"),
            "{text}"
        );
        // --out alone means JSON, which reads back as a result set.
        let json = sweep(ONE_CELL, &format!("--out {path}"));
        assert_eq!(execute(&parse(&json).unwrap()).unwrap(), Outcome::Clean);
        let set = load_result_set(&path).unwrap();
        assert_eq!(set.mode, "custom");
        assert_eq!(set.cells.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn execute_compare_and_sweep_baseline_report_drift_via_outcome() {
        let dir = std::env::temp_dir();
        let base = dir.join(format!("doall_cli_compare_{}.json", std::process::id()));
        let base = base.to_str().unwrap().to_string();
        // A sweep writes its own baseline...
        let first = sweep(ONE_CELL, &format!("--out {base}"));
        assert_eq!(execute(&parse(&first).unwrap()).unwrap(), Outcome::Clean);
        // ...against which an identical rerun is clean, cell for cell.
        let rerun = sweep(ONE_CELL, &format!("--out {base}.2 --baseline {base}"));
        assert_eq!(execute(&parse(&rerun).unwrap()).unwrap(), Outcome::Clean);
        assert_eq!(
            execute(&parse(&args(&format!("compare {base} {base}.2"))).unwrap()).unwrap(),
            Outcome::Clean
        );
        // Doctoring one value turns both paths into drift.
        let doctored = std::fs::read_to_string(&base).unwrap().replacen(
            "\"mean_work\": ",
            "\"mean_work\": 9",
            1,
        );
        std::fs::write(&base, doctored).unwrap();
        assert_eq!(execute(&parse(&rerun).unwrap()).unwrap(), Outcome::Drift);
        let diff_out = format!("{base}.diff");
        assert_eq!(
            execute(&parse(&args(&format!("compare {base} {base}.2 --out {diff_out}"))).unwrap())
                .unwrap(),
            Outcome::Drift
        );
        let table = std::fs::read_to_string(&diff_out).unwrap();
        assert!(table.contains("drift"), "{table}");
        assert!(table.contains("mean_work"), "{table}");
        // A huge tolerance swallows the doctored delta.
        assert_eq!(
            execute(&parse(&args(&format!("compare {base} {base}.2 --tolerance 1000"))).unwrap())
                .unwrap(),
            Outcome::Clean
        );
        // Missing files are errors (exit 2), not drift (exit 1).
        assert!(
            execute(&parse(&args("compare /nonexistent/a.json /nonexistent/b.json")).unwrap())
                .is_err()
        );
        for f in [base.clone(), format!("{base}.2"), diff_out] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn parses_test_subcommand() {
        assert_eq!(
            parse(&args("test --suite scenarios/")).unwrap(),
            Command::Test(TestSpec {
                suite: "scenarios/".to_string(),
                smoke: false,
                only: None,
                run: RunFlags::default(),
                json: false,
                out: None,
                record: false,
            })
        );
        match parse(&args(
            "test --suite scenarios/ --smoke --only e01,e05 --threads 2 --shard-size 1 \
             --max-ticks 1000 --baseline base.json --tolerance 0.5 --json --out report.json",
        ))
        .unwrap()
        {
            Command::Test(spec) => {
                assert!(spec.smoke && spec.json);
                assert_eq!(
                    spec.only.as_deref(),
                    Some(&["e01".to_string(), "e05".to_string()][..])
                );
                assert_eq!(
                    spec.run,
                    RunFlags {
                        threads: Some(2),
                        shard_size: Some(1),
                        max_ticks: Some(1000),
                        baseline: Some("base.json".to_string()),
                        tolerance: 0.5,
                    }
                );
                assert_eq!(spec.out.as_deref(), Some("report.json"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("test")).is_err(), "--suite is required");
        assert!(parse(&args("test --suite")).is_err(), "needs a value");
        assert!(
            parse(&args("test --suite s --only ,")).is_err(),
            "empty ids"
        );
        assert!(parse(&args("test --suite s --threads 0")).is_err());
        assert!(parse(&args("test --suite s --frob")).is_err());
        // --record regenerates the --baseline file, so it needs one.
        match parse(&args("test --suite s --record --baseline b.json")).unwrap() {
            Command::Test(spec) => assert!(spec.record),
            other => panic!("wrong command: {other:?}"),
        }
        let e = parse(&args("test --suite s --record")).unwrap_err();
        assert!(e.to_string().contains("--baseline"), "{e}");
    }

    #[test]
    fn execute_test_runs_a_suite_and_reports_via_outcome() {
        let dir = std::env::temp_dir().join(format!("doall_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let passing = "id = pass\n\
                       grid = algos=soloall advs=unit shapes=2x4 ds=1 seeds=1 seed=0\n\
                       assert work >= t\n";
        std::fs::write(dir.join("pass.scn"), passing).unwrap();
        let suite = dir.to_str().unwrap().to_string();
        let report = dir.join("report.txt");
        let report_path = report.to_str().unwrap().to_string();

        // A clean suite run writes its table and exits 0.
        let base = dir.join("base.json");
        let base_path = base.to_str().unwrap().to_string();
        let cmd = parse(&args(&format!("test --suite {suite} --out {report_path}"))).unwrap();
        assert_eq!(execute(&cmd).unwrap(), Outcome::Clean);
        let table = std::fs::read_to_string(&report).unwrap();
        assert!(table.contains("pass"), "{table}");
        assert!(table.contains("total"), "{table}");

        // --record writes the baseline from the suite's own records...
        let record = parse(&args(&format!(
            "test --suite {suite} --record --baseline {base_path}"
        )))
        .unwrap();
        assert_eq!(execute(&record).unwrap(), Outcome::Clean);
        let scenarios = load_dir(Path::new(&suite)).unwrap();
        let rep = run_suite(&scenarios, &SuiteConfig::default()).unwrap();
        assert_eq!(
            load_result_set(&base_path).unwrap(),
            BaselineSet::of(&rep.results)
        );
        // ...and the baseline path is wired: identical rerun clean,
        // doctored drift.
        let cmd = parse(&args(&format!(
            "test --suite {suite} --baseline {base_path}"
        )))
        .unwrap();
        assert_eq!(execute(&cmd).unwrap(), Outcome::Clean);
        let doctored = std::fs::read_to_string(&base).unwrap().replacen(
            "\"mean_work\": ",
            "\"mean_work\": 9",
            1,
        );
        std::fs::write(&base, &doctored).unwrap();
        assert_eq!(execute(&cmd).unwrap(), Outcome::Drift);

        // A failing assertion is Drift (exit 1), with the cell named in
        // the JSON report on stdout.
        let failing = "id = fail\n\
                       grid = algos=soloall advs=unit shapes=2x4 ds=1 seeds=1 seed=0\n\
                       assert work <= 1\n";
        std::fs::write(dir.join("fail.scn"), failing).unwrap();
        let cmd = parse(&args(&format!("test --suite {suite} --json"))).unwrap();
        assert_eq!(execute(&cmd).unwrap(), Outcome::Drift);
        // --record refuses a failing suite: Drift, baseline untouched.
        assert_eq!(execute(&record).unwrap(), Outcome::Drift);
        assert_eq!(std::fs::read_to_string(&base).unwrap(), doctored);

        // --only filters; unknown ids are errors (exit 2).
        let cmd = parse(&args(&format!("test --suite {suite} --only pass"))).unwrap();
        assert_eq!(execute(&cmd).unwrap(), Outcome::Clean);
        let cmd = parse(&args(&format!("test --suite {suite} --only nope"))).unwrap();
        let e = execute(&cmd).unwrap_err();
        assert!(e.to_string().contains("unknown scenario `nope`"), "{e}");

        // Unreadable suites and malformed scenarios are errors, not drift.
        let cmd = parse(&args("test --suite /nonexistent-doall")).unwrap();
        assert!(execute(&cmd).is_err());
        std::fs::write(dir.join("bad.scn"), "id = bad\nbogus line\n").unwrap();
        let cmd = parse(&args(&format!("test --suite {suite}"))).unwrap();
        let e = execute(&cmd).unwrap_err();
        assert!(e.to_string().contains("bad.scn"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execute_rejects_input_nested_past_the_parser_limits() {
        use doall_bench::resultset::MAX_JSON_DEPTH;
        use doall_bench::scenario::MAX_EXPR_DEPTH;
        let dir = std::env::temp_dir().join(format!("doall_cli_nesting_{}", std::process::id()));
        let suite = dir.join("suite");
        std::fs::create_dir_all(&suite).unwrap();
        // Deep enough to overflow the stack of an unbounded parser.
        let n = 200_000;
        let json = dir.join("deep.json");
        std::fs::write(&json, format!("{}{}", "[".repeat(n), "]".repeat(n))).unwrap();
        let json = json.display();
        let cmd = parse(&args(&format!("compare {json} {json}"))).unwrap();
        let e = execute(&cmd).unwrap_err().to_string();
        assert!(e.contains(&format!("limit of {MAX_JSON_DEPTH}")), "{e}");
        let scn = format!(
            "id = deep\ngrid = algos=soloall advs=unit shapes=2x4 ds=1 seeds=1 seed=0\n\
             assert {}work{} >= t\n",
            "(".repeat(n),
            ")".repeat(n)
        );
        std::fs::write(suite.join("deep.scn"), scn).unwrap();
        let cmd = parse(&args(&format!("test --suite {}", suite.display()))).unwrap();
        let e = execute(&cmd).unwrap_err().to_string();
        assert!(e.contains(&format!("limit of {MAX_EXPR_DEPTH}")), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contention_and_bounds_round_trip() {
        let cont = Command::Contention {
            p: 7,
            n: 29,
            seed: 99,
        };
        assert_eq!(
            parse(&args("contention -p 7 -n 29 --seed 99")).unwrap(),
            cont
        );
        let bounds = Command::Bounds {
            p: 31,
            t: 977,
            d: 13,
        };
        assert_eq!(parse(&args("bounds -p 31 -t 977 -d 13")).unwrap(), bounds);
    }

    #[test]
    fn flags_without_values_error() {
        for line in [
            "simulate --algo",
            "simulate --algo paran1 -p",
            "sweep --grid",
            "contention -p 2 -n",
            "bounds -p 2 -t 4 -d",
        ] {
            let e = parse(&args(line)).unwrap_err();
            assert!(e.to_string().contains("needs a value"), "{line}: {e}");
        }
    }

    #[test]
    fn non_numeric_values_error() {
        for line in [
            "simulate --algo paran1 -p many -t 4 -d 1",
            "simulate --algo paran1 -p 4 -t 4 -d soon",
            "sweep --threads x",
            "contention -p 2 -n nope",
            "bounds -p 2 -t 4 -d -1",
        ] {
            let e = parse(&args(line)).unwrap_err();
            assert!(
                e.to_string().contains("not a positive integer"),
                "{line}: {e}"
            );
        }
    }

    #[test]
    fn unknown_flags_error_per_subcommand() {
        assert!(parse(&args("simulate --algo paran1 -p 2 -t 2 -d 1 --frob 3")).is_err());
        assert!(parse(&args("contention -p 2 -n 4 --algo paran1")).is_err());
        assert!(parse(&args("bounds -p 2 -t 4 -d 1 --seed 3")).is_err());
    }

    #[test]
    fn zero_values_are_rejected() {
        assert!(parse(&args("simulate --algo paran1 -p 0 -t 2 -d 1")).is_err());
        assert!(parse(&args("simulate --algo paran1 -p 2 -t 0 -d 1")).is_err());
        assert!(parse(&args("simulate --algo paran1 -p 2 -t 2 -d 0")).is_err());
    }

    #[test]
    fn contention_seed_defaults_to_zero() {
        assert_eq!(
            parse(&args("contention -p 2 -n 4")).unwrap(),
            Command::Contention {
                p: 2,
                n: 4,
                seed: 0
            }
        );
    }

    #[test]
    fn missing_contention_and_bounds_flags_error() {
        assert!(parse(&args("contention -n 4")).is_err());
        assert!(parse(&args("contention -p 4")).is_err());
        assert!(parse(&args("bounds -t 4 -d 1")).is_err());
        assert!(parse(&args("bounds -p 4 -d 1")).is_err());
        assert!(parse(&args("bounds -p 4 -t 4")).is_err());
    }
}
