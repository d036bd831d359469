//! Command-line interface for the `doall` binary.
//!
//! Subcommands:
//!
//! * `simulate` — run one execution and print the report;
//! * `sweep`    — run a scenario grid (algorithm × adversary × shape × d)
//!   through the parallel sweep harness, with table/JSON/CSV output and
//!   optional baseline comparison (`--compare`);
//! * `test`     — run a directory of declarative `*.scn` scenario files
//!   through the suite runner: grids execute on the sweep engine, each
//!   scenario's `assert` lines are evaluated, and an aggregated
//!   pass/fail table is rendered (optionally diffed against a baseline);
//! * `compare`  — diff two sweep-result JSON files cell by cell;
//! * `lint`     — run the determinism-preserving static analysis over
//!   the workspace sources (rules D001–D004, H001–H002; see
//!   `doall-lint`) and report `path:line`-anchored diagnostics;
//! * `contention` — contention report for a random schedule list;
//! * `bounds`   — print every closed-form bound for `(p, t, d)`.
//!
//! Exit codes follow `diff`: 0 clean, 1 baseline drift, 2 errors.
//!
//! The parser is hand-rolled (no CLI dependency) and exposed here so it
//! can be unit-tested; `src/bin/doall.rs` is a thin wrapper. Algorithm
//! and adversary construction is shared with the experiment harness
//! (`doall_bench::grid`), so both accept exactly the same keys.

use crate::algorithms::Algorithm;
use crate::bounds;
use crate::perms::Schedules;
use crate::sim::{Adversary, Simulation};
use crate::Instance;
use doall_bench::compare::{
    compare, compare_files, load_result_set, preserve_measured_values, BaselineSet,
};
use doall_bench::grid::{
    build_adversary, build_algorithm, validate_adversary_key, validate_algo_key, AdversarySpec,
    Grid,
};
use doall_bench::output::{emit, Flags, Format, Record, ResultSet};
use doall_bench::suite::{load_dir, run_suite, SuiteConfig};
use doall_bench::sweep::{run_cells, SweepConfig};
use std::fmt;
use std::path::Path;

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
    /// Run the static-analysis rules over the workspace sources.
    Lint(LintSpec),
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

/// Parameters of the `sweep` subcommand: a grid plus execution/output
/// options shared with `all_experiments`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The scenario grid to run.
    pub grid: Grid,
    /// Worker threads (default: available parallelism).
    pub threads: Option<usize>,
    /// Replicates per scheduled shard (default: auto — a grid with fewer
    /// cells than workers splits each cell's replicates across the pool).
    /// Wall-clock only; results are byte-identical for every value.
    pub shard_size: Option<u64>,
    /// Per-run tick cutoff (default: the simulator's).
    pub max_ticks: Option<u64>,
    /// Output format.
    pub format: Format,
    /// Write output here instead of stdout.
    pub out: Option<String>,
    /// Baseline file to diff the results against after the run (diff
    /// table on stderr; drift exits 1).
    pub compare: Option<String>,
    /// Drift tolerance for `--compare` (default 0 — results are
    /// deterministic, so any drift on an unchanged grid is a regression).
    pub tolerance: f64,
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
    /// Worker threads (default: available parallelism). Wall-clock only.
    pub threads: Option<usize>,
    /// Replicates per scheduled shard (default: auto). Wall-clock only.
    pub shard_size: Option<u64>,
    /// Tick-cutoff override (default: each scenario's own `max_ticks`).
    pub max_ticks: Option<u64>,
    /// Baseline result-set file to diff the merged records against.
    pub baseline: Option<String>,
    /// Drift tolerance for `--baseline` (default 0 = exact).
    pub tolerance: f64,
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

/// Parameters of the `lint` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintSpec {
    /// Emit the machine-readable report instead of the text table.
    pub json: bool,
    /// Write the rendered report here instead of stdout.
    pub out: Option<String>,
    /// Restrict the run to these rule ids (canonical `D001` spellings).
    pub only: Option<Vec<String>>,
    /// Workspace root to lint (default: ascend from the current
    /// directory to the nearest `[workspace]` manifest).
    pub root: Option<String>,
}

/// Common parameters of `simulate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Algorithm key (see [`RunSpec::algorithm`]).
    pub algo: String,
    /// Processors.
    pub p: usize,
    /// Tasks.
    pub t: usize,
    /// Delay bound handed to the adversary.
    pub d: u64,
    /// Adversary key (see [`RunSpec::adversary`]).
    pub adversary: String,
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

/// Usage text.
pub const USAGE: &str = "\
doall — message-delay-sensitive Do-All (Kowalski & Shvartsman, PODC'03)

USAGE:
  doall simulate   --algo A -p P -t T -d D [--adversary ADV] [--seed S]
  doall sweep      --grid 'algos=A,... advs=ADV,... [backends=B,...] shapes=PxT,...
                   ds=D,... seeds=K seed=S'
                   [--threads N] [--shard-size N] [--max-ticks N] [--json|--csv]
                   [--out PATH] [--compare BASELINE.json] [--tolerance X]
  doall sweep      --algo A -p P -t T [-d D] [--adversary ADV] [--seed S]
                   (single-algorithm shorthand; no -d sweeps d = 1,2,4,… up to t)
  doall test       --suite DIR [--smoke] [--only ID,...] [--baseline BASELINE.json]
                   [--record] [--tolerance X] [--threads N] [--shard-size N]
                   [--max-ticks N] [--json] [--out PATH]
  doall compare    OLD.json NEW.json [--tolerance X] [--json] [--out PATH]
  doall lint       [--json] [--out PATH] [--only RULE,...] [--root DIR]
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
(crash:07 ≡ crash:7), so one adversary has one cell identity.

BACKENDS (B): sim | threads
  The optional backends= axis runs every cell once per backend: `sim` is
  the deterministic tick simulator; `threads` executes the same state
  machines on real OS threads via doall-runtime (d becomes a random
  message-delay cap, crash plans become step budgets, stragglers a
  slower pace). Tagged records carry a \"backend\" field plus the
  measured-only metrics wall_clock_ms / crashed_drained /
  max_crashed_backlog (zero under sim). Omitting the axis keeps the
  legacy sim-only schema byte-for-byte.

Sweeps run on the doall-bench harness: work is scheduled as (cell,
replicate-chunk) shards across a thread pool with per-replicate
deterministic seeding, so --threads and --shard-size change wall-clock
only, never a number — a single huge cell spreads across every worker.
--json / --csv emit the machine-readable result-set schema (the format
of BENCH_smoke_baseline.json).

`test` discovers every *.scn file under --suite (recursively, sorted by
path), runs each scenario's grids through the same sweep harness, and
evaluates its `assert` lines against the summarized metrics. The report
is an aggregated pass/fail table (or --json); each violated assertion
names the exact offending cell (algo, adversary, backend, p, t, d,
seeds, seed) with observed vs expected values. --smoke substitutes each
scenario's smoke grids; --baseline diffs the merged records against a
committed result set, and --record regenerates that file from the run
instead (same deterministic renderer the baselines were committed
with, so an unchanged suite regenerates the committed bytes exactly;
refused while assertions fail). Assertion failures and baseline drift
exit 1; unreadable suites or malformed scenarios exit 2. The committed
scenarios/ directory is the paper's experiment suite (e01–e17).

`lint` runs the hand-rolled determinism-preserving static analysis
(doall-lint) over the workspace sources — skipping vendor/, target/,
and fixture corpora, with comments, string literals, and
#[cfg(test)]/mod tests regions masked away. Rules: D001 no
HashMap/HashSet in deterministic crates; D002 wall-clock reads only in
doall-runtime's scheduler/transport/fault; D003 no std::env /
thread::current in deterministic crates; D004 no float accumulation
(`+=`, `.sum()`) over non-deterministically-ordered iteration
(HashMap/HashSet iters, read_dir, channel drains) in deterministic
crates — collect and sort first; H001 no unwrap/expect/panic
in library-crate non-test code; H002 every crate root carries
#![forbid(unsafe_code)]. A finding is silenced by a
`// lint:allow(RULE) — justification` comment on the offending line or
the line above. Diagnostics are sorted and byte-identical across runs
and discovery orders. Exit codes follow compare: 0 clean,
1 diagnostics, 2 errors.

`compare` (and `sweep --compare`) matches cells of two result sets by
(experiment, algo, adversary, backend, p, t, d, seeds) — records
without a backend field key as `sim` — and classifies each as exact,
drift, added, or removed. Results are deterministic, so the default
--tolerance is 0: any value drift on an unchanged grid is a
regression. Measured-only metrics (wall_clock_ms, crashed_drained,
max_crashed_backlog) and the values of `threads`-backend cells are
exempt — real-thread counts follow OS scheduling, so only their
presence is gated. Exit codes follow diff: 0 clean, 1 drift, 2 errors.
";

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "simulate" => {
            let mut algo = None;
            let mut p = None;
            let mut t = None;
            let mut d = 1u64;
            let mut adversary = "stage".to_string();
            let mut seed = 0u64;
            let mut have_d = false;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| err(format!("flag {flag} needs a value")))
                };
                match flag.as_str() {
                    "--algo" => algo = Some(value()?.clone()),
                    "-p" => p = Some(parse_num(value()?, "-p")?),
                    "-t" => t = Some(parse_num(value()?, "-t")?),
                    "-d" => {
                        d = parse_num(value()?, "-d")? as u64;
                        have_d = true;
                    }
                    "--adversary" => adversary = value()?.clone(),
                    "--seed" => seed = parse_num(value()?, "--seed")? as u64,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            if !have_d {
                return Err(err("simulate requires -d"));
            }
            let spec = RunSpec {
                algo: algo.ok_or_else(|| err("--algo is required"))?,
                p: p.ok_or_else(|| err("-p is required"))?,
                t: t.ok_or_else(|| err("-t is required"))?,
                d,
                adversary,
                seed,
            };
            spec.validate()?;
            Ok(Command::Simulate(spec))
        }
        "sweep" => {
            let mut grid_spec: Option<String> = None;
            let mut algo = None;
            let mut p = None;
            let mut t = None;
            let mut ds: Option<Vec<u64>> = None;
            let mut adversary = "stage".to_string();
            let mut seed = 0u64;
            let mut threads = None;
            let mut shard_size = None;
            let mut max_ticks = None;
            let mut format = Format::Table;
            let mut out = None;
            let mut compare = None;
            let mut tolerance = 0.0f64;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| err(format!("flag {flag} needs a value")))
                };
                match flag.as_str() {
                    "--grid" => grid_spec = Some(value()?.clone()),
                    "--algo" => algo = Some(value()?.clone()),
                    "-p" => p = Some(parse_num(value()?, "-p")?),
                    "-t" => t = Some(parse_num(value()?, "-t")?),
                    "-d" => ds = Some(vec![parse_num(value()?, "-d")? as u64]),
                    "--adversary" => adversary = value()?.clone(),
                    "--seed" => seed = parse_num(value()?, "--seed")? as u64,
                    "--threads" => {
                        let n = parse_num(value()?, "--threads")?;
                        if n == 0 {
                            return Err(err("--threads must be at least 1"));
                        }
                        threads = Some(n);
                    }
                    "--shard-size" => {
                        let n = parse_num(value()?, "--shard-size")? as u64;
                        if n == 0 {
                            return Err(err("--shard-size must be at least 1"));
                        }
                        shard_size = Some(n);
                    }
                    "--max-ticks" => {
                        let n = parse_num(value()?, "--max-ticks")? as u64;
                        if n == 0 {
                            return Err(err("--max-ticks must be at least 1"));
                        }
                        max_ticks = Some(n);
                    }
                    // Same semantics as the all_experiments flag
                    // parser (doall_bench::output::parse_flags): the two
                    // formats conflict, and --out without a format means
                    // JSON (a file of Markdown tables is never the ask).
                    "--json" => {
                        if format == Format::Csv {
                            return Err(err("--json conflicts with --csv"));
                        }
                        format = Format::Json;
                    }
                    "--csv" => {
                        if format == Format::Json {
                            return Err(err("--json conflicts with --csv"));
                        }
                        format = Format::Csv;
                    }
                    "--out" => out = Some(value()?.clone()),
                    "--compare" => compare = Some(value()?.clone()),
                    "--tolerance" => tolerance = parse_tolerance(value()?)?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            if out.is_some() && format == Format::Table {
                format = Format::Json;
            }
            let grid = match grid_spec {
                Some(spec) => {
                    if algo.is_some() || p.is_some() || t.is_some() || ds.is_some() {
                        return Err(err("--grid conflicts with --algo/-p/-t/-d"));
                    }
                    Grid::parse(&spec).map_err(|e| err(format!("bad --grid: {e}")))?
                }
                None => {
                    // Single-algorithm shorthand: one shape, d = 1,2,4,…,t
                    // unless -d pins a single value.
                    let algo = algo.ok_or_else(|| err("--algo (or --grid) is required"))?;
                    let p = p.ok_or_else(|| err("-p is required"))?;
                    let t = t.ok_or_else(|| err("-t is required"))?;
                    if p == 0 || t == 0 {
                        return Err(err("-p and -t must be positive"));
                    }
                    let ds = ds.unwrap_or_else(|| {
                        let mut ds = Vec::new();
                        let mut d = 1u64;
                        while d <= t as u64 {
                            ds.push(d);
                            d *= 2;
                        }
                        ds
                    });
                    if ds.contains(&0) {
                        return Err(err("-d must be at least 1"));
                    }
                    let grid = Grid {
                        algos: vec![algo],
                        adversaries: vec![AdversarySpec::parse(&adversary)
                            .map_err(|e| err(format!("{e}; try `doall help`")))?],
                        shapes: vec![(p, t)],
                        ds,
                        backends: Vec::new(),
                        seeds: 1,
                        base_seed: seed,
                    };
                    grid.validate().map_err(|e| err(e.to_string()))?;
                    grid
                }
            };
            grid.validate().map_err(|e| err(e.to_string()))?;
            Ok(Command::Sweep(SweepSpec {
                grid,
                threads,
                shard_size,
                max_ticks,
                format,
                out,
                compare,
                tolerance,
            }))
        }
        "test" => {
            let mut suite = None;
            let mut smoke = false;
            let mut only = None;
            let mut threads = None;
            let mut shard_size = None;
            let mut max_ticks = None;
            let mut baseline = None;
            let mut tolerance = 0.0f64;
            let mut json = false;
            let mut out = None;
            let mut record = false;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| err(format!("flag {flag} needs a value")))
                };
                match flag.as_str() {
                    "--suite" => suite = Some(value()?.clone()),
                    "--smoke" => smoke = true,
                    "--only" => {
                        only = Some(
                            value()?
                                .split(',')
                                .map(str::trim)
                                .filter(|s| !s.is_empty())
                                .map(String::from)
                                .collect::<Vec<_>>(),
                        );
                    }
                    "--threads" => {
                        let n = parse_num(value()?, "--threads")?;
                        if n == 0 {
                            return Err(err("--threads must be at least 1"));
                        }
                        threads = Some(n);
                    }
                    "--shard-size" => {
                        let n = parse_num(value()?, "--shard-size")? as u64;
                        if n == 0 {
                            return Err(err("--shard-size must be at least 1"));
                        }
                        shard_size = Some(n);
                    }
                    "--max-ticks" => {
                        let n = parse_num(value()?, "--max-ticks")? as u64;
                        if n == 0 {
                            return Err(err("--max-ticks must be at least 1"));
                        }
                        max_ticks = Some(n);
                    }
                    "--baseline" => baseline = Some(value()?.clone()),
                    "--record" => record = true,
                    "--tolerance" => tolerance = parse_tolerance(value()?)?,
                    "--json" => json = true,
                    "--out" => out = Some(value()?.clone()),
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            let spec = TestSpec {
                suite: suite.ok_or_else(|| err("--suite is required"))?,
                smoke,
                only,
                threads,
                shard_size,
                max_ticks,
                baseline,
                tolerance,
                json,
                out,
                record,
            };
            if spec.record && spec.baseline.is_none() {
                return Err(err("--record needs --baseline (the file to regenerate)"));
            }
            if spec.only.as_ref().is_some_and(Vec::is_empty) {
                return Err(err("--only needs at least one scenario id"));
            }
            Ok(Command::Test(spec))
        }
        "compare" => {
            let mut files: Vec<String> = Vec::new();
            let mut tolerance = 0.0f64;
            let mut json = false;
            let mut out = None;
            while let Some(arg) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| err(format!("flag {arg} needs a value")))
                };
                match arg.as_str() {
                    "--tolerance" => tolerance = parse_tolerance(value()?)?,
                    "--json" => json = true,
                    "--out" => out = Some(value()?.clone()),
                    flag if flag.starts_with('-') => {
                        return Err(err(format!("unknown flag {flag}")));
                    }
                    _ => files.push(arg.clone()),
                }
            }
            if files.len() != 2 {
                return Err(err(format!(
                    "compare takes exactly two files (OLD.json NEW.json), got {}",
                    files.len()
                )));
            }
            let mut files = files.into_iter();
            Ok(Command::Compare(CompareSpec {
                old: files.next().expect("two files"),
                new: files.next().expect("two files"),
                tolerance,
                json,
                out,
            }))
        }
        "lint" => {
            let mut json = false;
            let mut out = None;
            let mut only = None;
            let mut root = None;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| err(format!("flag {flag} needs a value")))
                };
                match flag.as_str() {
                    "--json" => json = true,
                    "--out" => out = Some(value()?.clone()),
                    "--only" => {
                        only = Some(
                            value()?
                                .split(',')
                                .map(str::trim)
                                .filter(|s| !s.is_empty())
                                .map(String::from)
                                .collect::<Vec<_>>(),
                        );
                    }
                    "--root" => root = Some(value()?.clone()),
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            if only.as_ref().is_some_and(Vec::is_empty) {
                return Err(err("--only needs at least one rule id"));
            }
            // Validate rule ids eagerly so typos fail before any I/O.
            for id in only.iter().flatten() {
                doall_lint::RuleId::parse(id).map_err(err)?;
            }
            Ok(Command::Lint(LintSpec {
                json,
                out,
                only,
                root,
            }))
        }
        "contention" => {
            let (mut p, mut n, mut seed) = (None, None, 0u64);
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| err(format!("flag {flag} needs a value")))
                };
                match flag.as_str() {
                    "-p" => p = Some(parse_num(value()?, "-p")?),
                    "-n" => n = Some(parse_num(value()?, "-n")?),
                    "--seed" => seed = parse_num(value()?, "--seed")? as u64,
                    other => return Err(err(format!("unknown flag {other}"))),
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
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| err(format!("flag {flag} needs a value")))
                };
                match flag.as_str() {
                    "-p" => p = Some(parse_num(value()?, "-p")?),
                    "-t" => t = Some(parse_num(value()?, "-t")?),
                    "-d" => d = Some(parse_num(value()?, "-d")? as u64),
                    other => return Err(err(format!("unknown flag {other}"))),
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

fn parse_num(s: &str, flag: &str) -> Result<usize, CliError> {
    s.parse()
        .map_err(|_| err(format!("{flag}: `{s}` is not a positive integer")))
}

fn parse_tolerance(s: &str) -> Result<f64, CliError> {
    let x: f64 = s
        .parse()
        .map_err(|_| err(format!("--tolerance: `{s}` is not a number")))?;
    if !x.is_finite() || x < 0.0 {
        return Err(err("--tolerance must be a finite non-negative number"));
    }
    Ok(x)
}

impl RunSpec {
    fn validate(&self) -> Result<(), CliError> {
        if self.p == 0 || self.t == 0 {
            return Err(err("-p and -t must be positive"));
        }
        if self.d == 0 {
            return Err(err("-d must be at least 1"));
        }
        // Validate keys eagerly (syntax only — building searched-list
        // algorithms like `oblido-searched` here would run the certified
        // search twice per invocation) so errors surface before a long run.
        validate_algo_key(&self.algo).map_err(|e| err(format!("{e}; try `doall help`")))?;
        validate_adversary_key(&self.adversary)
            .map_err(|e| err(format!("{e}; try `doall help`")))?;
        Ok(())
    }

    /// Builds the algorithm named by `self.algo` via the shared
    /// harness constructor ([`doall_bench::grid::build_algorithm`]).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] for an unknown key.
    pub fn algorithm(&self) -> Result<Box<dyn Algorithm>, CliError> {
        let instance =
            Instance::new(self.p, self.t).map_err(|e| err(format!("bad instance: {e}")))?;
        build_algorithm(&self.algo, instance, self.seed)
            .map_err(|e| err(format!("{e}; try `doall help`")))
    }

    /// Builds the adversary named by `self.adversary` with bound `d` via
    /// the shared harness grammar and constructor
    /// ([`doall_bench::grid::AdversarySpec`] /
    /// [`doall_bench::grid::build_adversary`]).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] for an unknown key or bad knob.
    pub fn adversary(&self) -> Result<Box<dyn Adversary>, CliError> {
        let spec = AdversarySpec::parse(&self.adversary)
            .map_err(|e| err(format!("{e}; try `doall help`")))?;
        Ok(build_adversary(
            &spec,
            self.p,
            self.t,
            self.d,
            self.seed,
            CLI_MAX_TICKS,
        ))
    }
}

/// Executes a parsed command, writing human-readable output to stdout.
/// Baseline-comparison diffs from `sweep --compare` go to stderr (stdout
/// may already carry the results).
///
/// # Errors
///
/// Returns a [`CliError`] for invalid parameters or non-completing runs.
/// Baseline drift is not an error: it is the [`Outcome::Drift`] success
/// value, so callers can map it to exit code 1 rather than 2.
pub fn execute(command: &Command) -> Result<Outcome, CliError> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(Outcome::Clean)
        }
        Command::Simulate(spec) => {
            let instance =
                Instance::new(spec.p, spec.t).map_err(|e| err(format!("bad instance: {e}")))?;
            let algo = spec.algorithm()?;
            let report = Simulation::builder(instance)
                .procs(algo.spawn(instance))
                .adversary(spec.adversary()?)
                .max_ticks(50_000_000)
                .build()
                .run();
            println!(
                "{} | p={} t={} d={} adversary={}",
                algo.name(),
                spec.p,
                spec.t,
                spec.d,
                spec.adversary
            );
            println!("{report}");
            println!(
                "work/(p·t) = {:.3}   messages/work = {:.2}",
                report.work_ratio_to_quadratic(spec.p, spec.t),
                report.messages_per_work()
            );
            if !report.completed {
                return Err(err("run did not complete within the tick budget"));
            }
            Ok(Outcome::Clean)
        }
        Command::Sweep(spec) => {
            let cells = spec.grid.cells();
            let mut cfg = SweepConfig {
                max_ticks: spec.max_ticks.unwrap_or(CLI_MAX_TICKS),
                shard_size: spec.shard_size,
                ..SweepConfig::default()
            };
            if let Some(threads) = spec.threads {
                cfg.threads = threads;
            }
            let measurements = run_cells(&cells, &cfg).map_err(|e| err(e.to_string()))?;
            let records: Vec<Record> = measurements
                .into_iter()
                .map(|m| {
                    let mut metrics = m.metrics();
                    if let Some(s) = &m.summary {
                        metrics.insert(
                            "ratio_quadratic".to_string(),
                            s.mean_work / (m.cell.p * m.cell.t) as f64,
                        );
                    }
                    Record {
                        experiment: "sweep".to_string(),
                        cell: m.cell,
                        metrics,
                    }
                })
                .collect();
            let results = ResultSet {
                mode: "custom".to_string(),
                records,
            };
            let flags = Flags {
                format: spec.format,
                out: spec.out.clone(),
                ..Flags::default()
            };
            if spec.format == Format::Table {
                println!("sweep | {}", spec.grid);
            }
            emit(&results, &flags).map_err(err)?;
            if let Some(baseline_path) = &spec.compare {
                let baseline = load_result_set(baseline_path).map_err(|e| err(e.to_string()))?;
                let current = BaselineSet::of(&results);
                let comparison = compare(&baseline, &current, spec.tolerance);
                eprint!("{}", comparison.render_text());
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
            let cfg = SuiteConfig {
                smoke: spec.smoke,
                threads: spec.threads,
                shard_size: spec.shard_size,
                max_ticks: spec.max_ticks,
            };
            let mut report = run_suite(&scenarios, &cfg).map_err(err)?;
            if let Some(baseline_path) = &spec.baseline {
                if spec.record {
                    // Regenerate the baseline from this run — but never
                    // from a failing suite. Timing-exempt values carry
                    // over from the previous file, so an unchanged suite
                    // reproduces the committed bytes exactly.
                    if report.is_clean() {
                        if let Ok(old) = load_result_set(baseline_path) {
                            preserve_measured_values(&mut report.results, &old);
                        }
                        std::fs::write(baseline_path, report.results.to_json())
                            .map_err(|e| err(format!("cannot write {baseline_path}: {e}")))?;
                        eprintln!(
                            "recorded {} ({} cells)",
                            baseline_path,
                            report.results.records.len()
                        );
                    } else {
                        eprintln!("refusing to record {baseline_path}: the suite is failing");
                    }
                } else {
                    let baseline =
                        load_result_set(baseline_path).map_err(|e| err(e.to_string()))?;
                    let current = BaselineSet::of(&report.results);
                    report.comparison = Some(compare(&baseline, &current, spec.tolerance));
                }
            }
            let rendered = if spec.json {
                report.render_json()
            } else {
                report.render_table()
            };
            match &spec.out {
                Some(path) => std::fs::write(path, rendered)
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?,
                None => print!("{rendered}"),
            }
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
            match &spec.out {
                Some(path) => std::fs::write(path, rendered)
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?,
                None => print!("{rendered}"),
            }
            Ok(if comparison.is_clean() {
                Outcome::Clean
            } else {
                Outcome::Drift
            })
        }
        Command::Lint(spec) => {
            let root = match &spec.root {
                Some(r) => std::path::PathBuf::from(r),
                None => {
                    let cwd = std::env::current_dir()
                        .map_err(|e| err(format!("cannot read current dir: {e}")))?;
                    doall_lint::find_workspace_root(&cwd).ok_or_else(|| {
                        err("no workspace manifest above the current dir; pass --root")
                    })?
                }
            };
            let only = spec
                .only
                .iter()
                .flatten()
                .map(|s| doall_lint::RuleId::parse(s).map_err(err))
                .collect::<Result<Vec<_>, _>>()?;
            let report =
                doall_lint::lint_root(&root, &doall_lint::LintOptions { only }).map_err(err)?;
            let rendered = if spec.json {
                report.render_json()
            } else {
                report.render_text()
            };
            match &spec.out {
                Some(path) => std::fs::write(path, rendered)
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?,
                None => print!("{rendered}"),
            }
            Ok(if report.is_clean() {
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
            let cont = sched.contention();
            println!("random list: {p} schedules over [{n}] (seed {seed})");
            println!(
                "Cont(Σ) = {} ({})",
                cont.value,
                if cont.exact { "exact" } else { "estimate" }
            );
            println!(
                "{:>6} {:>12} {:>14} {:>8}",
                "d", "(d)-Cont", "Thm 4.4 bound", "ratio"
            );
            let mut d = 1usize;
            while d <= *n {
                let dc = crate::perms::d_contention_of_list(sched.as_slice(), d);
                let th = crate::perms::dcont_threshold(*n, *p, d);
                println!(
                    "{d:>6} {:>12} {:>14.1} {:>8.3}",
                    dc.value,
                    th,
                    dc.value as f64 / th
                );
                d *= 2;
            }
            Ok(Outcome::Clean)
        }
        Command::Bounds { p, t, d } => {
            if *p == 0 || *t == 0 || *d == 0 {
                return Err(err("-p, -t, -d must be positive"));
            }
            println!("bounds for p={p}, t={t}, d={d}:");
            println!(
                "  lower bound (Thm 3.1/3.4):  {:.0}",
                bounds::lower_bound_work(*p, *t, *d)
            );
            println!(
                "  DA upper (Thm 5.5, ε=0.5):  {:.0}",
                bounds::da_upper_bound(*p, *t, *d, 0.5)
            );
            println!(
                "  PA upper (Cor 6.4/6.5):     {:.0}",
                bounds::pa_upper_bound(*p, *t, *d)
            );
            println!(
                "  PA messages (Cor 6.4/6.5):  {:.0}",
                bounds::pa_message_bound(*p, *t, *d)
            );
            println!(
                "  oblivious ceiling p·t:      {:.0}",
                bounds::oblivious_work(*p, *t)
            );
            Ok(Outcome::Clean)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_simulate() {
        let cmd = parse(&args("simulate --algo paran2 -p 8 -t 32 -d 4")).unwrap();
        match cmd {
            Command::Simulate(spec) => {
                assert_eq!(spec.algo, "paran2");
                assert_eq!((spec.p, spec.t, spec.d), (8, 32, 4));
                assert_eq!(spec.adversary, "stage");
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
                assert_eq!(spec.adversary, "fixed");
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
    fn sweep_does_not_require_d() {
        assert!(matches!(
            parse(&args("sweep --algo padet -p 4 -t 8")).unwrap(),
            Command::Sweep(_)
        ));
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
                let spec = RunSpec {
                    algo: algo.to_string(),
                    p: 4,
                    t: 8,
                    d: 2,
                    adversary: adv.to_string(),
                    seed: 1,
                };
                assert!(spec.algorithm().is_ok(), "{algo}");
                assert!(spec.adversary().is_ok(), "{adv}");
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
        let cmd = parse(&args("sweep --algo soloall -p 2 -t 4")).unwrap();
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
            adversary: "bursty".to_string(),
            seed: 1234,
        };
        assert_eq!(
            parse(&spec_args("simulate", &spec)).unwrap(),
            Command::Simulate(spec)
        );
    }

    #[test]
    fn sweep_shorthand_builds_a_single_algorithm_grid() {
        let seed = u64::from(u32::MAX) + 1;
        let cmd = parse(&args(&format!(
            "sweep --algo gossip:3 -p 5 -t 40 -d 7 --adversary lbrand --seed {seed}"
        )))
        .unwrap();
        match cmd {
            Command::Sweep(spec) => {
                assert_eq!(spec.grid.algos, vec!["gossip:3"]);
                assert_eq!(
                    spec.grid.adversaries,
                    vec![AdversarySpec::Lbrand { stage: None }]
                );
                assert_eq!(spec.grid.shapes, vec![(5, 40)]);
                assert_eq!(spec.grid.ds, vec![7], "-d pins a single delay bound");
                assert_eq!(spec.grid.base_seed, seed);
                assert_eq!(spec.format, Format::Table);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn sweep_without_d_sweeps_powers_of_two() {
        let cmd = parse(&args("sweep --algo padet -p 4 -t 8")).unwrap();
        match cmd {
            Command::Sweep(spec) => assert_eq!(spec.grid.ds, vec![1, 2, 4, 8]),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn sweep_grid_flag_parses_and_conflicts_with_shorthand() {
        let argv = vec![
            "sweep".to_string(),
            "--grid".to_string(),
            "algos=da:3,paran1 advs=stage,unit shapes=4x8 ds=1,2 seeds=2 seed=5".to_string(),
            "--threads".to_string(),
            "2".to_string(),
            "--json".to_string(),
        ];
        match parse(&argv).unwrap() {
            Command::Sweep(spec) => {
                assert_eq!(spec.grid.algos, vec!["da:3", "paran1"]);
                assert_eq!(spec.grid.seeds, 2);
                assert_eq!(spec.threads, Some(2));
                assert_eq!(spec.format, Format::Json);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let conflicting = vec![
            "sweep".to_string(),
            "--grid".to_string(),
            "algos=paran1 shapes=4x8".to_string(),
            "--algo".to_string(),
            "padet".to_string(),
        ];
        assert!(parse(&conflicting).is_err());
        let bad_grid = vec![
            "sweep".to_string(),
            "--grid".to_string(),
            "algos=frobnicate shapes=4x8".to_string(),
        ];
        assert!(parse(&bad_grid).is_err());
    }

    #[test]
    fn sweep_grid_accepts_the_backends_axis() {
        use doall_bench::grid::Backend;
        let argv = vec![
            "sweep".to_string(),
            "--grid".to_string(),
            "algos=da:3 advs=unit,crash:25@burst backends=sim,threads shapes=8x32 ds=2 \
             seeds=2 seed=0"
                .to_string(),
        ];
        match parse(&argv).unwrap() {
            Command::Sweep(spec) => {
                assert_eq!(spec.grid.backends, vec![Backend::Sim, Backend::Threads]);
                // One cell per (algo × adv × shape × d × backend).
                assert_eq!(spec.grid.cells().len(), 4);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let bad = vec![
            "sweep".to_string(),
            "--grid".to_string(),
            "algos=da:3 backends=gpu shapes=8x32".to_string(),
        ];
        let e = parse(&bad).unwrap_err().to_string();
        assert!(e.contains("unknown backend"), "{e}");
    }

    #[test]
    fn sweep_grid_accepts_parameterized_adversary_keys_verbatim() {
        use doall_bench::grid::CrashStagger;
        let argv = vec![
            "sweep".to_string(),
            "--grid".to_string(),
            "algos=da:3 advs=bursty:4,crash:25@burst,straggler:25:4 shapes=16x64 ds=2,8 seeds=3 \
             seed=0"
                .to_string(),
        ];
        match parse(&argv).unwrap() {
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
    fn parses_lint_subcommand() {
        assert_eq!(
            parse(&args("lint")).unwrap(),
            Command::Lint(LintSpec {
                json: false,
                out: None,
                only: None,
                root: None,
            })
        );
        assert_eq!(
            parse(&args(
                "lint --json --out lint.json --only D001,H001 --root ."
            ))
            .unwrap(),
            Command::Lint(LintSpec {
                json: true,
                out: Some("lint.json".to_string()),
                only: Some(vec!["D001".to_string(), "H001".to_string()]),
                root: Some(".".to_string()),
            })
        );
        assert!(parse(&args("lint --only")).is_err(), "flag needs a value");
        assert!(parse(&args("lint --only ,")).is_err(), "empty rule list");
        assert!(parse(&args("lint --only D999")).is_err(), "unknown rule");
        assert!(parse(&args("lint --frob")).is_err(), "unknown flag");
    }

    #[test]
    fn execute_lint_scans_a_workspace_and_reports_via_outcome() {
        let dir = std::env::temp_dir().join(format!("doall_cli_lint_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = dir.join("crates/doall-sim/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        std::fs::write(src.join("probe.rs"), "use std::collections::HashMap;\n").unwrap();
        let out = dir.join("lint.txt");
        let dirty = Command::Lint(LintSpec {
            json: false,
            out: Some(out.display().to_string()),
            only: None,
            root: Some(dir.display().to_string()),
        });
        assert_eq!(execute(&dirty).unwrap(), Outcome::Drift);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(
            text.contains("crates/doall-sim/src/probe.rs:1: D001"),
            "{text}"
        );
        // Restricting to an unrelated rule makes the same tree clean.
        let clean = Command::Lint(LintSpec {
            json: true,
            out: Some(out.display().to_string()),
            only: Some(vec!["D002".to_string()]),
            root: Some(dir.display().to_string()),
        });
        assert_eq!(execute(&clean).unwrap(), Outcome::Clean);
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"clean\": true"), "{json}");
        let bad_root = Command::Lint(LintSpec {
            json: false,
            out: None,
            only: None,
            root: Some(dir.join("nope").display().to_string()),
        });
        assert!(execute(&bad_root).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_parses_shard_size() {
        let cmd = parse(&args("sweep --algo soloall -p 2 -t 4 --shard-size 3")).unwrap();
        match cmd {
            Command::Sweep(spec) => assert_eq!(spec.shard_size, Some(3)),
            other => panic!("wrong command: {other:?}"),
        }
        match parse(&args("sweep --algo soloall -p 2 -t 4")).unwrap() {
            Command::Sweep(spec) => assert_eq!(spec.shard_size, None, "default is auto"),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("sweep --algo soloall -p 2 -t 4 --shard-size 0")).is_err());
        assert!(parse(&args("sweep --algo soloall -p 2 -t 4 --shard-size few")).is_err());
        assert!(parse(&args("sweep --algo soloall -p 2 -t 4 --shard-size")).is_err());
    }

    #[test]
    fn sweep_parses_compare_and_tolerance() {
        let cmd = parse(&args(
            "sweep --algo soloall -p 2 -t 4 --compare base.json --tolerance 0.1",
        ))
        .unwrap();
        match cmd {
            Command::Sweep(spec) => {
                assert_eq!(spec.compare.as_deref(), Some("base.json"));
                assert_eq!(spec.tolerance, 0.1);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse(&args("sweep --algo soloall -p 2 -t 4 --tolerance x")).is_err());
    }

    #[test]
    fn execute_compare_and_sweep_compare_report_drift_via_outcome() {
        let dir = std::env::temp_dir();
        let base = dir.join(format!("doall_cli_compare_{}.json", std::process::id()));
        let base = base.to_str().unwrap().to_string();
        // A sweep writes its own baseline...
        let sweep = format!("sweep --algo soloall -p 2 -t 4 -d 1 --out {base}");
        assert_eq!(
            execute(&parse(&args(&sweep)).unwrap()).unwrap(),
            Outcome::Clean
        );
        // ...against which an identical rerun is clean, cell for cell.
        let rerun = format!("sweep --algo soloall -p 2 -t 4 -d 1 --out {base}.2 --compare {base}");
        assert_eq!(
            execute(&parse(&args(&rerun)).unwrap()).unwrap(),
            Outcome::Clean
        );
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
        assert_eq!(
            execute(&parse(&args(&rerun)).unwrap()).unwrap(),
            Outcome::Drift
        );
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
                threads: None,
                shard_size: None,
                max_ticks: None,
                baseline: None,
                tolerance: 0.0,
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
                assert_eq!(spec.threads, Some(2));
                assert_eq!(spec.shard_size, Some(1));
                assert_eq!(spec.max_ticks, Some(1000));
                assert_eq!(spec.baseline.as_deref(), Some("base.json"));
                assert_eq!(spec.tolerance, 0.5);
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
            "sweep --algo paran1 -p 2 -t",
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
            "sweep --algo paran1 -p 4 -t x",
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
