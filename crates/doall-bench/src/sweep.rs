//! The parallel sweep engine: executes the cells of one or more grids
//! across a scoped thread pool, with results put back in shard order so
//! the output is bit-identical regardless of thread count **and** shard
//! size.
//!
//! The unit of scheduled work is a *(cell, replicate-chunk)* shard, not a
//! whole cell: a shared atomic cursor walks a flattened shard list, each
//! worker runs its chunk of a cell's seeds via [`Simulation::run_batch`]
//! and returns the shards it ran, tagged with their index, from its
//! scoped thread. After the join the per-shard [`RunReport`]s are merged
//! back **in replicate order** before [`summarize`] / execution-count
//! averaging.
//! Because every replicate's seed derives from the cell's own parameters
//! and the replicate's absolute index (see [`crate::grid::Cell::run_seed`]),
//! neither the claim order, the worker count, nor the shard boundaries can
//! influence a single number in the results — a single huge cell (e.g.
//! `p = 4096, seeds = 32`) now spreads across every worker instead of
//! pinning one thread.
//!
//! [`RunReport`]: doall_core::RunReport

use crate::grid::{
    build_adversary, build_algorithm, AdversarySpec, Backend, Cell, GridError, ALGO_NONE,
};
use crate::suite::cell_label;
use doall_core::Instance;
use doall_runtime::RuntimeConfig;
use doall_sim::analysis::{summarize, BatchSummary};
use doall_sim::{Simulation, DEFAULT_MAX_TICKS};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Pace of a full-speed processor on the `threads` backend. Real threads
/// need *some* pacing so runs genuinely interleave (a free-running worker
/// can sweep every task before its peers are even scheduled), but the
/// quantum is small enough that a smoke cell completes in milliseconds.
const THREADS_STEP_INTERVAL: Duration = Duration::from_micros(20);

/// Wall-clock value of one delay unit `d` on the `threads` backend: a
/// cell's `d` becomes a `d × quantum` cap on the random message delays
/// the runtime's senders draw — the same knob the simulator's
/// d-adversary turns, expressed in microseconds instead of ticks.
const THREADS_DELAY_QUANTUM: Duration = Duration::from_micros(20);

/// Wall-clock budget per `threads` replicate — the analogue of the tick
/// cutoff. Generous: hitting it is an error, not a data point.
const THREADS_TIMEOUT: Duration = Duration::from_secs(30);

/// Most processors a `threads` cell may have. That backend spawns one OS
/// thread per processor, so a larger cell is refused before any run
/// rather than aborting the sweep when the spawn fails. The committed
/// threads cells use `p ≤ 16`.
const THREADS_MAX_P: usize = 1024;

/// How to execute a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Worker threads (≥ 1). Affects wall-clock only, never results.
    pub threads: usize,
    /// Tick cutoff per run (see [`doall_sim::DEFAULT_MAX_TICKS`]).
    pub max_ticks: u64,
    /// Report every cell's mean primary and secondary executions
    /// (Section 4; [`doall_core::RunReport::primary_executions`]). Every
    /// run counts them; this only adds them to the measurements, on
    /// either backend.
    pub trace: bool,
    /// Replicates per shard (`None` = auto). Affects wall-clock only,
    /// never results: shard boundaries are invisible in the output.
    ///
    /// Auto picks `ceil(seeds / threads)` when there are fewer cells than
    /// workers (so one big cell spreads over every thread) and whole-cell
    /// shards otherwise (cross-cell parallelism already saturates the
    /// pool, and coarser shards mean less claim traffic).
    pub shard_size: Option<u64>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            threads: default_threads(),
            max_ticks: DEFAULT_MAX_TICKS,
            trace: false,
            shard_size: None,
        }
    }
}

/// The default worker count: the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// An error from executing a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// A cell referenced an unknown or unbuildable key.
    Bad(GridError),
    /// A run hit the tick cutoff without completing.
    Incomplete {
        /// The offending cell, rendered for the error message.
        cell: String,
        /// The replicate index (`0..seeds`) that failed.
        replicate: u64,
        /// The actual derived seed of that replicate
        /// ([`Cell::run_seed`]`(replicate)`) — what `--seed`-style
        /// reproduction needs, as opposed to the position above.
        seed: u64,
    },
    /// The instance shape was invalid, or too large for the `threads`
    /// backend.
    Instance(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Bad(e) => write!(f, "{e}"),
            SweepError::Incomplete {
                cell,
                replicate,
                seed,
            } => write!(
                f,
                "run did not complete within the tick budget (cell {cell}, replicate \
                 {replicate}, seed {seed}); raise --max-ticks"
            ),
            SweepError::Instance(msg) => write!(f, "bad instance: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<GridError> for SweepError {
    fn from(e: GridError) -> Self {
        SweepError::Bad(e)
    }
}

/// The measured side of one cell: batch aggregates plus (optionally)
/// the mean primary and secondary executions. `summary` is `None` for
/// derive-only cells (`algo == "none"`).
#[derive(Debug, Clone, PartialEq)]
pub struct CellMeasurement {
    /// The cell that was run.
    pub cell: Cell,
    /// Work/message aggregates over the cell's replicates.
    pub summary: Option<BatchSummary>,
    /// Mean primary executions per run ([`SweepConfig::trace`] only).
    pub mean_primary: Option<f64>,
    /// Mean secondary (redundant) executions per run
    /// ([`SweepConfig::trace`] only).
    pub mean_secondary: Option<f64>,
    /// Scheduled crash count (`crash:<pct>` adversaries only) — the
    /// *actual* count after rounding and the `p − 1` survivor cap, so
    /// baselines capture how many crashes a cell really exercised.
    pub crash_count: Option<f64>,
    /// Mean number of scheduled crashes that fired before σ, per
    /// replicate (`crash:<pct>` adversaries only).
    pub mean_crashes_fired: Option<f64>,
    /// Number of persistently slow processors (`straggler:<pct>:<slowdown>`
    /// adversaries only) — the actual count after rounding and the
    /// `p − 1` full-speed cap, mirroring `crash_count`.
    pub straggler_count: Option<f64>,
    /// Mean wall-clock per replicate, in milliseconds. Backend-tagged
    /// cells only: measured on `threads`, always `0` under `sim` (the
    /// simulator's time is ticks, not wall-clock). `None` on legacy
    /// (axis-omitted) cells, so their schema is untouched.
    pub wall_clock_ms: Option<f64>,
    /// Mean messages drained-and-dropped from crashed processors' inboxes
    /// per replicate ([`doall_runtime::RuntimeStats::crashed_drained`]).
    /// Backend-tagged cells only; always `0` under `sim`.
    pub crashed_drained: Option<f64>,
    /// Largest single crashed-inbox drain batch observed across the
    /// cell's replicates
    /// ([`doall_runtime::RuntimeStats::max_crashed_backlog`]).
    /// Backend-tagged cells only; always `0` under `sim`.
    pub max_crashed_backlog: Option<f64>,
}

impl CellMeasurement {
    /// Renders the measured aggregates as the canonical metric map — the
    /// single definition of the measured half of the output schema
    /// (`mean/median/max work` & `messages`, `completed`, and the mean
    /// primary/secondary executions where present). Every producer of
    /// [`crate::resultset::Record`]s starts from this map so CLI sweeps,
    /// experiment runs, and tests cannot drift apart.
    #[must_use]
    pub fn metrics(&self) -> std::collections::BTreeMap<String, f64> {
        let mut metrics = std::collections::BTreeMap::new();
        if let Some(s) = &self.summary {
            metrics.insert("mean_work".to_string(), s.mean_work);
            metrics.insert("median_work".to_string(), s.median_work);
            metrics.insert("max_work".to_string(), s.max_work as f64);
            metrics.insert("mean_messages".to_string(), s.mean_messages);
            metrics.insert("median_messages".to_string(), s.median_messages);
            metrics.insert("max_messages".to_string(), s.max_messages as f64);
            metrics.insert("completed".to_string(), s.completed as f64);
        }
        if let Some(primary) = self.mean_primary {
            metrics.insert("mean_primary".to_string(), primary);
        }
        if let Some(secondary) = self.mean_secondary {
            metrics.insert("mean_secondary".to_string(), secondary);
        }
        if let Some(count) = self.crash_count {
            metrics.insert("crash_count".to_string(), count);
        }
        if let Some(fired) = self.mean_crashes_fired {
            metrics.insert("mean_crashes_fired".to_string(), fired);
        }
        if let Some(count) = self.straggler_count {
            metrics.insert("straggler_count".to_string(), count);
        }
        if let Some(ms) = self.wall_clock_ms {
            metrics.insert("wall_clock_ms".to_string(), ms);
        }
        if let Some(drained) = self.crashed_drained {
            metrics.insert("crashed_drained".to_string(), drained);
        }
        if let Some(backlog) = self.max_crashed_backlog {
            metrics.insert("max_crashed_backlog".to_string(), backlog);
        }
        metrics
    }
}

/// What the engine did to run a sweep — shard and worker accounting for
/// tests and perfbench. None of it ever reaches the output schema
/// (results must stay byte-identical across `--threads` and
/// `--shard-size`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Shards scheduled (simulated cells only; `none` cells run nothing).
    pub shards: usize,
    /// Workers spawned: `min(threads, shards)`, at least 1.
    pub workers: usize,
    /// Workers that claimed at least one shard.
    pub workers_engaged: usize,
}

/// One unit of scheduled work: replicates `start .. start + len` of cell
/// `cells[cell]`.
#[derive(Debug, Clone, Copy)]
struct Shard {
    cell: usize,
    start: u64,
    len: u64,
}

/// What a shard produced: its chunk's reports (in replicate order) and,
/// on the `threads` backend, the per-replicate measured-side probes.
/// Concatenated in shard order, a cell's outputs are its replicates in
/// order.
#[derive(Default)]
struct ShardOutput {
    reports: Vec<doall_core::RunReport>,
    probes: Vec<ThreadsProbe>,
}

/// The measured-side numbers one `threads` replicate carries back out of
/// its shard — everything the simulator cannot produce (wall-clock,
/// engine accounting) plus the observed crash firings.
#[derive(Debug, Clone, Copy)]
struct ThreadsProbe {
    /// Elapsed wall-clock of the completed run, milliseconds.
    wall_clock_ms: f64,
    /// Messages drained-and-dropped from crashed inboxes.
    crashed_drained: u64,
    /// Largest single crashed-inbox drain batch.
    max_crashed_backlog: u64,
    /// Scheduled crashes whose step budget actually fired (a run can
    /// complete before a late budget is reached).
    crashes_fired: u64,
}

/// The shard size the engine actually uses for a sweep of `cell_count`
/// *simulated* cells (derive-only `none` cells schedule no work and must
/// not be counted) with `seeds` replicates each: the explicit
/// `shard_size` clamped to `[1, seeds]`, or the auto rule (see
/// [`SweepConfig::shard_size`]).
#[must_use]
pub fn effective_shard_size(cell_count: usize, seeds: u64, cfg: &SweepConfig) -> u64 {
    let threads = cfg.threads.max(1);
    match cfg.shard_size {
        Some(size) => size.clamp(1, seeds.max(1)),
        None if cell_count < threads => seeds.div_ceil(threads as u64).max(1),
        None => seeds,
    }
}

/// Splits every simulated cell into replicate-chunk shards.
fn plan_shards(cells: &[Cell], cfg: &SweepConfig) -> Vec<Shard> {
    // The auto rule sizes shards by the cells that actually schedule
    // work: derive-only `none` cells run nothing, so counting them would
    // keep whole-cell shards (and one pinned thread) on grids that mix
    // combinatorial baseline rows with a few big simulated cells.
    let simulated = cells.iter().filter(|c| c.algo != ALGO_NONE).count();
    let mut shards = Vec::new();
    for (cell_idx, cell) in cells.iter().enumerate() {
        if cell.algo == ALGO_NONE {
            continue;
        }
        let size = effective_shard_size(simulated, cell.seeds, cfg);
        let mut start = 0u64;
        while start < cell.seeds {
            let len = size.min(cell.seeds - start);
            shards.push(Shard {
                cell: cell_idx,
                start,
                len,
            });
            start += len;
        }
    }
    shards
}

/// Runs every cell, in parallel across `cfg.threads` workers.
///
/// Results come back in cell order, with each cell's replicates merged in
/// replicate order — output is byte-identical across any `threads` ×
/// `shard_size` combination.
///
/// # Errors
///
/// Returns the [`SweepError`] of the lowest-indexed failing cell (bad
/// key, invalid instance, or a run that hit the tick cutoff) — *which*
/// error surfaces does not depend on thread scheduling.
pub fn run_cells(cells: &[Cell], cfg: &SweepConfig) -> Result<Vec<CellMeasurement>, SweepError> {
    run_cells_with_stats(cells, cfg).map(|(measurements, _)| measurements)
}

/// [`run_cells`] plus the engine's shard/worker accounting — the probe
/// the determinism tests use to assert that a single huge cell really
/// engages more than one worker, and the source of perfbench's `sweep.*` layers.
///
/// Each worker claims shards from a shared cursor and returns the list of
/// `(shard index, result)` pairs it ran. After the join the results go
/// back in shard-index order, which is (cell, replicate) order, so each
/// cell's outputs are concatenated in replicate order; the first error in
/// that order is returned.
///
/// # Errors
///
/// Same contract as [`run_cells`].
pub fn run_cells_with_stats(
    cells: &[Cell],
    cfg: &SweepConfig,
) -> Result<(Vec<CellMeasurement>, SweepStats), SweepError> {
    // Validate everything up front so workers only see well-formed cells.
    // `padet-affine` is the only key whose build can fail after key
    // validation (composite job count); probe it eagerly here so the
    // failure is a deterministic pre-spawn error rather than a worker
    // race. Other keys are infallible post-validation, and an
    // unconditional eager build would double the cost of searched
    // schedule lists.
    for cell in cells {
        crate::grid::validate_algo_key(&cell.algo)?;
        // Adversaries are structured specs — valid by construction.
        let instance =
            Instance::new(cell.p, cell.t).map_err(|e| SweepError::Instance(e.to_string()))?;
        if cell.algo == "padet-affine" {
            build_algorithm(&cell.algo, instance, cell.run_seed(0))
                .map_err(|e| SweepError::Instance(format!("cell {}: {e}", cell_label(cell))))?;
        }
        if cell.algo != ALGO_NONE
            && cell.effective_backend() == Backend::Threads
            && cell.p > THREADS_MAX_P
        {
            return Err(SweepError::Instance(format!(
                "cell {} needs one OS thread per processor on the threads backend, \
                 above the cap of {THREADS_MAX_P}; use the sim backend",
                cell_label(cell)
            )));
        }
    }

    let shards = plan_shards(cells, cfg);
    let next = AtomicUsize::new(0);
    // Each worker returns every shard it ran, tagged with its index. A
    // failure drains the cursor so every worker exits fast; shards in
    // flight still finish and keep their own results.
    let worker = || {
        let mut ran = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(shard) = shards.get(i) else {
                return ran;
            };
            let result = run_shard(&cells[shard.cell], shard, cfg);
            if result.is_err() {
                next.fetch_add(shards.len(), Ordering::Relaxed);
            }
            ran.push((i, result));
        }
    };
    let workers = cfg.threads.max(1).min(shards.len().max(1));
    let lists = if workers == 1 {
        // A lone worker needs no pool: run the identical claim loop on
        // the caller thread (same shard walk, same results) and skip the
        // spawn/join round trip, which on grids of tiny cells is a
        // measurable slice of the wall-clock.
        vec![worker()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect::<Vec<_>>()
        })
    };
    let stats = SweepStats {
        shards: shards.len(),
        workers,
        workers_engaged: lists.iter().filter(|ran| !ran.is_empty()).count(),
    };
    // The cursor claims shards in order, so the shards that ran are a
    // prefix of the list, and every shard below a failing one ran to
    // completion: the first error in shard order does not depend on
    // scheduling.
    let mut ran: Vec<_> = lists.into_iter().flatten().collect();
    ran.sort_unstable_by_key(|&(i, _)| i);
    let mut merged: Vec<ShardOutput> = cells.iter().map(|_| ShardOutput::default()).collect();
    for (i, result) in ran {
        let output = result?;
        let cell = &mut merged[shards[i].cell];
        cell.reports.extend(output.reports);
        cell.probes.extend(output.probes);
    }
    let measurements = cells
        .iter()
        .zip(merged)
        .map(|(cell, output)| merge_cell(cell, cfg, output))
        .collect();
    Ok((measurements, stats))
}

/// Runs one shard — replicates `start .. start + len` of `cell`,
/// sequentially.
fn run_shard(cell: &Cell, shard: &Shard, cfg: &SweepConfig) -> Result<ShardOutput, SweepError> {
    if cell.effective_backend() == Backend::Threads {
        return run_threads_shard(cell, shard, cfg);
    }
    let instance =
        Instance::new(cell.p, cell.t).map_err(|e| SweepError::Instance(e.to_string()))?;
    let reports = Simulation::run_batch(
        instance,
        shard.len,
        cfg.max_ticks,
        |k, procs| {
            procs.extend(
                build_algorithm(&cell.algo, instance, cell.run_seed(shard.start + k))
                    .expect("validated above")
                    .spawn(instance),
            );
        },
        |k| {
            build_adversary(
                &cell.adversary,
                cell.p,
                cell.t,
                cell.d,
                cell.run_seed(shard.start + k),
                cfg.max_ticks,
            )
        },
    );
    if let Some(pos) = reports.iter().position(|r| !r.completed) {
        let replicate = shard.start + pos as u64;
        return Err(SweepError::Incomplete {
            cell: cell_label(cell),
            replicate,
            seed: cell.run_seed(replicate),
        });
    }
    Ok(ShardOutput {
        reports,
        probes: Vec::new(),
    })
}

/// Runs one shard of a `threads`-backend cell: each replicate executes
/// the *same* algorithm state machines the simulator drives (same
/// derived seed, so the algorithm's randomness is identical across
/// backends) on real OS threads via [`doall_runtime::run`]. The
/// cell's adversary maps onto the runtime's wall-clock knobs:
///
/// - `d` → random message delays capped at `d ×`
///   [`THREADS_DELAY_QUANTUM`] (every delay-only adversary measures as
///   this uniform-delay analogue);
/// - `crash:<pct>[@stagger]` → the simulator's own deterministic
///   [`crate::grid::crash_plan`] ticks, reused as per-processor step
///   budgets;
/// - `straggler:<pct>:<slowdown>` → a `slowdown ×` longer step pace for
///   the flagged processors.
fn run_threads_shard(
    cell: &Cell,
    shard: &Shard,
    cfg: &SweepConfig,
) -> Result<ShardOutput, SweepError> {
    let instance =
        Instance::new(cell.p, cell.t).map_err(|e| SweepError::Instance(e.to_string()))?;
    let mut config = RuntimeConfig {
        max_delay: THREADS_DELAY_QUANTUM.saturating_mul(u32::try_from(cell.d).unwrap_or(u32::MAX)),
        seed: 0, // each replicate sets its own below
        timeout: THREADS_TIMEOUT,
        crash_after_steps: match cell.adversary {
            AdversarySpec::Crash { pct, stagger } => {
                crate::grid::crash_plan(pct, stagger, cell.p, cell.t, cfg.max_ticks)
            }
            _ => Vec::new(),
        },
        step_interval: THREADS_STEP_INTERVAL,
        pace_overrides: match cell.adversary {
            AdversarySpec::Straggler { pct, slowdown } => crate::grid::straggler_flags(pct, cell.p)
                .iter()
                .map(|&slow| {
                    slow.then(|| {
                        THREADS_STEP_INTERVAL
                            .saturating_mul(u32::try_from(slowdown).unwrap_or(u32::MAX))
                    })
                })
                .collect(),
            _ => Vec::new(),
        },
    };
    let mut reports = Vec::with_capacity(shard.len as usize);
    let mut probes = Vec::with_capacity(shard.len as usize);
    for k in shard.start..shard.start + shard.len {
        let seed = cell.run_seed(k);
        let algo = build_algorithm(&cell.algo, instance, seed).expect("validated above");
        config.seed = seed;
        let outcome = doall_runtime::run(instance, algo.spawn(instance), &config, &|_| {})
            .expect("cell-derived runtime setup is valid");
        if !outcome.report.completed {
            return Err(SweepError::Incomplete {
                cell: cell_label(cell),
                replicate: k,
                seed,
            });
        }
        let sigma_us = outcome.report.sigma.expect("completed runs carry sigma");
        let crashes_fired = config
            .crash_after_steps
            .iter()
            .enumerate()
            .filter(|&(pid, budget)| {
                budget.is_some_and(|b| outcome.report.work_per_processor[pid] >= b)
            })
            .count() as u64;
        probes.push(ThreadsProbe {
            wall_clock_ms: sigma_us as f64 / 1_000.0,
            crashed_drained: outcome.stats.crashed_drained,
            max_crashed_backlog: outcome.stats.max_crashed_backlog,
            crashes_fired,
        });
        reports.push(outcome.report);
    }
    Ok(ShardOutput { reports, probes })
}

/// Turns a cell's shard outputs, concatenated in replicate order, into
/// the measurement a sequential run would have produced.
fn merge_cell(cell: &Cell, cfg: &SweepConfig, output: ShardOutput) -> CellMeasurement {
    if cell.algo == ALGO_NONE {
        return CellMeasurement {
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
    }
    let ShardOutput { reports, probes } = output;
    assert_eq!(reports.len(), cell.seeds as usize, "all replicates merged");
    let (crash_count, mean_crashes_fired) = crash_stats(cell, cfg, &reports, &probes);
    let straggler_count = match cell.adversary {
        AdversarySpec::Straggler { pct, .. } => Some(
            crate::grid::straggler_flags(pct, cell.p)
                .iter()
                .filter(|&&slow| slow)
                .count() as f64,
        ),
        _ => None,
    };
    // The measured-only trio exists exactly on backend-tagged cells —
    // zeros under `sim` keep the schema identical across a tagged grid's
    // backends, while legacy (axis-omitted) cells stay byte-identical to
    // their pre-backend output.
    let (wall_clock_ms, crashed_drained, max_crashed_backlog) = match cell.backend {
        None => (None, None, None),
        Some(Backend::Sim) => (Some(0.0), Some(0.0), Some(0.0)),
        Some(Backend::Threads) => {
            let n = probes.len().max(1) as f64;
            (
                Some(probes.iter().map(|pr| pr.wall_clock_ms).sum::<f64>() / n),
                Some(
                    probes
                        .iter()
                        .map(|pr| pr.crashed_drained as f64)
                        .sum::<f64>()
                        / n,
                ),
                Some(
                    probes
                        .iter()
                        .map(|pr| pr.max_crashed_backlog)
                        .max()
                        .unwrap_or(0) as f64,
                ),
            )
        }
    };
    // Integer sums divided once: the same means whatever the shards.
    let mean_of = |count: fn(&doall_core::RunReport) -> u64| {
        cfg.trace
            .then(|| reports.iter().map(count).sum::<u64>() as f64 / reports.len() as f64)
    };
    CellMeasurement {
        cell: cell.clone(),
        summary: Some(summarize(&reports)),
        mean_primary: mean_of(|r| r.primary_executions),
        mean_secondary: mean_of(|r| r.secondary_executions),
        crash_count,
        mean_crashes_fired,
        straggler_count,
        wall_clock_ms,
        crashed_drained,
        max_crashed_backlog,
    }
}

/// For `crash:<pct>` cells: the scheduled crash count and the mean
/// number of crashes that fired per replicate; `(None, None)` for every
/// other adversary.
///
/// Both backends schedule the deterministic [`crate::grid::crash_plan`]
/// (ticks on the simulator, step budgets on threads), so the scheduled
/// count is recomputed here. What fired differs: on the simulator a
/// crash fired iff its tick is at most σ, recomputed from the completed
/// reports; on threads each replicate's probe carries what its run
/// observed, since a fast run can complete before a late budget is
/// reached.
///
/// # Panics
///
/// Panics if crashes were scheduled but none fired in some simulated
/// replicate (for `t ≥ 2`, where at least the first crash provably
/// lands before σ) — a "crash" cell that exercises no crashes would
/// quietly measure the wrong scenario, which is exactly the bug this
/// guards against.
fn crash_stats(
    cell: &Cell,
    cfg: &SweepConfig,
    reports: &[doall_core::RunReport],
    probes: &[ThreadsProbe],
) -> (Option<f64>, Option<f64>) {
    let AdversarySpec::Crash { pct, stagger } = cell.adversary else {
        return (None, None);
    };
    let plan = crate::grid::crash_plan(pct, stagger, cell.p, cell.t, cfg.max_ticks);
    let scheduled = plan.iter().flatten().count();
    let fired: Vec<u64> = if cell.effective_backend() == Backend::Threads {
        probes.iter().map(|pr| pr.crashes_fired).collect()
    } else {
        reports
            .iter()
            .map(|report| {
                let sigma = report.sigma.expect("incomplete runs error out above");
                let fired = plan.iter().flatten().filter(|&&at| at <= sigma).count();
                assert!(
                    scheduled == 0 || cell.t < 2 || fired >= 1,
                    "crash cell exercised no crashes: {} p={} t={} scheduled={scheduled} σ={sigma}",
                    cell.adversary,
                    cell.p,
                    cell.t,
                );
                fired as u64
            })
            .collect()
    };
    (
        Some(scheduled as f64),
        Some(fired.iter().sum::<u64>() as f64 / fired.len().max(1) as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    fn small_grid() -> Grid {
        Grid::parse("algos=paran1,soloall advs=stage,unit shapes=4x8 ds=1,2 seeds=2 seed=3")
            .unwrap()
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        let cells = small_grid().cells();
        let seq = run_cells(
            &cells,
            &SweepConfig {
                threads: 1,
                ..SweepConfig::default()
            },
        )
        .unwrap();
        let par = run_cells(
            &cells,
            &SweepConfig {
                threads: 8,
                ..SweepConfig::default()
            },
        )
        .unwrap();
        assert_eq!(seq, par, "thread count must not influence results");
        assert_eq!(seq.len(), cells.len());
    }

    #[test]
    fn shard_size_never_influences_results() {
        let cells = small_grid().cells();
        let baseline = run_cells(
            &cells,
            &SweepConfig {
                threads: 1,
                shard_size: Some(u64::MAX), // clamped to whole-cell shards
                ..SweepConfig::default()
            },
        )
        .unwrap();
        for threads in [1, 4] {
            for shard_size in [None, Some(1), Some(2), Some(3)] {
                let out = run_cells(
                    &cells,
                    &SweepConfig {
                        threads,
                        shard_size,
                        ..SweepConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    out, baseline,
                    "threads={threads} shard_size={shard_size:?} must match"
                );
            }
        }
    }

    #[test]
    fn effective_shard_size_auto_and_clamps() {
        let cfg = |threads: usize, shard_size: Option<u64>| SweepConfig {
            threads,
            shard_size,
            ..SweepConfig::default()
        };
        // Auto, fewer cells than workers: spread one cell's seeds evenly.
        assert_eq!(effective_shard_size(1, 32, &cfg(8, None)), 4);
        assert_eq!(effective_shard_size(1, 30, &cfg(8, None)), 4, "ceil");
        assert_eq!(effective_shard_size(1, 4, &cfg(8, None)), 1);
        // Auto, cells already saturate the pool: whole-cell shards.
        assert_eq!(effective_shard_size(8, 32, &cfg(8, None)), 32);
        assert_eq!(effective_shard_size(100, 5, &cfg(8, None)), 5);
        // Explicit values clamp to [1, seeds].
        assert_eq!(effective_shard_size(1, 8, &cfg(4, Some(3))), 3);
        assert_eq!(effective_shard_size(1, 8, &cfg(4, Some(0))), 1);
        assert_eq!(effective_shard_size(1, 8, &cfg(4, Some(1_000))), 8);
    }

    #[test]
    fn one_cell_grid_spreads_across_workers() {
        // The acceptance probe: a single cell with seeds ≥ 8 must engage
        // more than one worker. The shape is heavy enough (debug-mode
        // simulation ≫ thread-spawn latency) that late workers always
        // find unclaimed shards.
        let cells = Grid::parse("algos=paran1 advs=stage shapes=16x256 ds=4 seeds=8 seed=1")
            .unwrap()
            .cells();
        let cfg = SweepConfig {
            threads: 4,
            shard_size: Some(1),
            ..SweepConfig::default()
        };
        let (out, stats) = run_cells_with_stats(&cells, &cfg).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(stats.shards, 8, "seeds=8 at shard size 1");
        assert_eq!(stats.workers, 4, "one cell no longer caps the pool at 1");
        // Engagement (unlike the results) depends on OS scheduling: under
        // a loaded test runner the late workers can miss the window. Give
        // the measurement a few tries; one multi-worker observation is
        // the proof.
        let mut best = stats.workers_engaged;
        for _ in 0..20 {
            if best > 1 {
                break;
            }
            let (_, retry) = run_cells_with_stats(&cells, &cfg).unwrap();
            best = best.max(retry.workers_engaged);
        }
        assert!(
            best > 1,
            "a single huge cell must engage more than one worker: {stats:?}"
        );
        // Auto sharding on the same grid also splits the cell.
        let (_, auto_stats) = run_cells_with_stats(
            &cells,
            &SweepConfig {
                threads: 4,
                ..SweepConfig::default()
            },
        )
        .unwrap();
        assert_eq!(auto_stats.shards, 4, "auto = ceil(8/4) = 2 seeds per shard");
        assert!(auto_stats.workers > 1);
    }

    #[test]
    fn none_cells_skip_simulation() {
        let cells = Grid::parse("algos=none shapes=4x8").unwrap().cells();
        let (out, stats) = run_cells_with_stats(&cells, &SweepConfig::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].summary.is_none());
        assert_eq!(stats.shards, 0, "derive-only cells schedule no work");
    }

    #[test]
    fn trace_mode_reports_primary_executions() {
        let cells = Grid::parse("algos=soloall shapes=2x4 advs=unit seeds=1")
            .unwrap()
            .cells();
        let out = run_cells(
            &cells,
            &SweepConfig {
                trace: true,
                ..SweepConfig::default()
            },
        )
        .unwrap();
        // SoloAll: each processor sweeps all 4 tasks from its own offset,
        // so every task has exactly one primary execution.
        assert_eq!(out[0].mean_primary, Some(4.0));
        let secondary = out[0].mean_secondary.expect("trace mode");
        assert!(secondary >= 0.0);
    }

    #[test]
    fn trace_mode_is_shard_invariant() {
        let cells = Grid::parse("algos=paran1,oblido advs=stage shapes=4x8 ds=2 seeds=4 seed=5")
            .unwrap()
            .cells();
        let cfg = |threads: usize, shard_size: Option<u64>| SweepConfig {
            threads,
            shard_size,
            trace: true,
            ..SweepConfig::default()
        };
        let baseline = run_cells(&cells, &cfg(1, Some(4))).unwrap();
        assert!(baseline[0].mean_primary.is_some());
        for threads in [1, 4] {
            for shard_size in [None, Some(1), Some(3)] {
                let out = run_cells(&cells, &cfg(threads, shard_size)).unwrap();
                assert_eq!(
                    out, baseline,
                    "traced threads={threads} shard_size={shard_size:?}"
                );
            }
        }
    }

    #[test]
    fn trace_buffer_reuse_survives_growing_cell_shapes() {
        // With threads=1 the same worker runs a tiny cell and then a much
        // bigger one under a small tick budget; both report their
        // execution counts.
        let cells = Grid::parse("algos=paran1 advs=fixed shapes=2x4,32x256 ds=2 seeds=1 seed=1")
            .unwrap()
            .cells();
        let cfg = SweepConfig {
            trace: true,
            threads: 1,
            max_ticks: 10_000,
            ..SweepConfig::default()
        };
        let out = run_cells(&cells, &cfg).unwrap();
        assert!(out.iter().all(|m| m.mean_primary.is_some()));
        // Every task needs at least one primary execution (concurrent
        // firsts can push the count above t).
        let primary = out[1].mean_primary.expect("trace mode");
        assert!(primary >= 256.0, "t=256 tasks all executed: {primary}");
    }

    #[test]
    fn auto_sharding_ignores_derive_only_cells() {
        // Regression: `none` cells schedule no shards, so they must not
        // count toward the auto rule's cell total — a grid of mostly
        // derive-only rows plus one big simulated cell used to keep
        // whole-cell shards and pin one thread.
        let mut cells = Grid::parse("algos=none advs=unit shapes=2x2,3x3,4x4,5x5,6x6,7x7,8x8")
            .unwrap()
            .cells();
        cells.extend(
            Grid::parse("algos=paran1 advs=stage shapes=8x16 ds=1 seeds=8 seed=2")
                .unwrap()
                .cells(),
        );
        assert_eq!(cells.len(), 8, "7 derive-only + 1 simulated");
        let (out, stats) = run_cells_with_stats(
            &cells,
            &SweepConfig {
                threads: 8,
                ..SweepConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(
            stats.shards, 8,
            "auto = ceil(8 seeds / 8 threads) = 1 per shard; counting the \
             none cells would have produced a single whole-cell shard"
        );
        assert_eq!(stats.workers, 8);
    }

    #[test]
    fn tick_cutoff_is_an_error_not_a_silent_average() {
        // d=8 delays with a 4-tick budget: paran1 cannot finish.
        let cells = Grid::parse("algos=paran1 advs=fixed shapes=2x16 ds=8")
            .unwrap()
            .cells();
        let err = run_cells(
            &cells,
            &SweepConfig {
                max_ticks: 4,
                ..SweepConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SweepError::Incomplete { .. }), "{err}");
        let msg = err.to_string();
        for needle in ["max-ticks", "backend=sim", "seed=0x"] {
            assert!(msg.contains(needle), "`{msg}` lacks `{needle}`");
        }
    }

    #[test]
    fn trace_on_a_threads_cell_reports_primary_executions() {
        let cells = Grid::parse("algos=paran1 advs=unit backends=threads shapes=2x4 ds=1 seeds=2")
            .unwrap()
            .cells();
        let out = run_cells(
            &cells,
            &SweepConfig {
                trace: true,
                ..SweepConfig::default()
            },
        )
        .unwrap();
        // Each step on real threads is its own instant, so exactly one
        // performance of each task is primary.
        assert_eq!(out[0].mean_primary, Some(4.0));
        assert!(out[0].mean_secondary.is_some());
    }

    #[test]
    fn threads_cells_above_the_cap_fail_before_any_run() {
        // The sim cell first would stop at the one-tick cutoff; the cap
        // error wins because validation runs before any shard.
        let mut cells = Grid::parse("algos=paran1 advs=unit shapes=2x4 ds=1")
            .unwrap()
            .cells();
        cells.extend(
            Grid::parse("algos=paran1 advs=unit backends=threads shapes=1025x1025 ds=1")
                .unwrap()
                .cells(),
        );
        let cfg = SweepConfig {
            max_ticks: 1,
            ..SweepConfig::default()
        };
        let sim_err = run_cells(&cells[..1], &cfg).unwrap_err();
        assert!(
            matches!(sim_err, SweepError::Incomplete { .. }),
            "{sim_err}"
        );
        let err = run_cells(&cells, &cfg).unwrap_err();
        assert!(matches!(err, SweepError::Instance(_)), "{err}");
        let msg = err.to_string();
        for needle in ["backend=threads", "p=1025", "cap of 1024"] {
            assert!(msg.contains(needle), "`{msg}` lacks `{needle}`");
        }
    }

    #[test]
    fn incomplete_reports_the_derived_seed_not_the_position() {
        let cells = Grid::parse("algos=paran1 advs=fixed shapes=2x16 ds=8 seeds=3 seed=7")
            .unwrap()
            .cells();
        let cell = cells[0].clone();
        let err = run_cells(
            &cells,
            &SweepConfig {
                max_ticks: 4,
                threads: 1,
                ..SweepConfig::default()
            },
        )
        .unwrap_err();
        match err {
            SweepError::Incomplete {
                replicate, seed, ..
            } => {
                assert_eq!(replicate, 0, "first replicate fails first");
                assert_eq!(
                    seed,
                    cell.run_seed(replicate),
                    "seed must be the derived run seed, not the replicate index"
                );
                assert_ne!(seed, replicate, "the old bug conflated the two");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn error_selection_is_deterministic_across_threads_and_shards() {
        // Two bad cells (tick cutoff) surrounded by good ones: every
        // thread/shard combination must surface the *lowest-indexed* bad
        // cell, not whichever worker errored first.
        let mut cells = Grid::parse("algos=soloall advs=unit shapes=2x4 seeds=2")
            .unwrap()
            .cells();
        let bad = Grid::parse("algos=paran1 advs=fixed shapes=2x16,2x32 ds=8 seeds=2")
            .unwrap()
            .cells();
        cells.extend(bad); // cells[1] and cells[2] both hit the cutoff
        let baseline = run_cells(
            &cells,
            &SweepConfig {
                max_ticks: 4,
                threads: 1,
                shard_size: Some(u64::MAX),
                ..SweepConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            baseline.to_string().contains("t=16"),
            "lowest-index bad cell wins: {baseline}"
        );
        for threads in [1, 2, 8] {
            for shard_size in [None, Some(1)] {
                let err = run_cells(
                    &cells,
                    &SweepConfig {
                        max_ticks: 4,
                        threads,
                        shard_size,
                        ..SweepConfig::default()
                    },
                )
                .unwrap_err();
                assert_eq!(
                    err, baseline,
                    "threads={threads} shard_size={shard_size:?} must report the same error"
                );
            }
        }
    }

    #[test]
    fn crash_cells_record_and_exercise_crashes() {
        let cells = Grid::parse("algos=paran1 advs=crash:50,crash:0 shapes=4x16 ds=2 seeds=2")
            .unwrap()
            .cells();
        let out = run_cells(&cells, &SweepConfig::default()).unwrap();
        let m50 = out[0].metrics();
        assert_eq!(m50["crash_count"], 2.0, "crash:50 of p=4, rounded");
        assert!(
            m50["mean_crashes_fired"] >= 1.0,
            "every replicate must exercise at least one crash: {m50:?}"
        );
        assert!(m50["mean_crashes_fired"] <= m50["crash_count"]);
        let m0 = out[1].metrics();
        assert_eq!(m0["crash_count"], 0.0);
        assert_eq!(m0["mean_crashes_fired"], 0.0);
        // Non-crash adversaries carry no crash metrics at all.
        let plain = run_cells(
            &Grid::parse("algos=paran1 shapes=4x8").unwrap().cells(),
            &SweepConfig::default(),
        )
        .unwrap();
        assert!(!plain[0].metrics().contains_key("crash_count"));
        assert!(!plain[0].metrics().contains_key("mean_crashes_fired"));
    }

    #[test]
    fn threads_crash_cells_count_what_their_runs_observed() {
        let cells =
            Grid::parse("algos=paran1 advs=crash:50 backends=threads shapes=4x16 ds=2 seeds=2")
                .unwrap()
                .cells();
        let m = run_cells(&cells, &SweepConfig::default()).unwrap()[0].metrics();
        assert_eq!(
            m["crash_count"], 2.0,
            "crash:50 of p=4, from the crash plan"
        );
        // A fast run may complete before a late budget is reached, so
        // anything from none to every scheduled crash can fire.
        let fired = m["mean_crashes_fired"];
        assert!((0.0..=2.0).contains(&fired), "{m:?}");
    }

    #[test]
    fn bursty_differs_from_unit_for_d_at_least_2() {
        // Run the *identically seeded* algorithm under both adversaries,
        // so the only difference between the two executions is the
        // adversary's behaviour — cell seeding cannot confound this the
        // way a two-cell grid comparison would.
        //
        // Regression guard for the degenerate case: at d = 1 bursty's
        // congested delay equals its calm delay, so it silently equals
        // `unit`; from d ≥ 2 the square wave must actually bite.
        let instance = Instance::new(16, 64).unwrap();
        let run = |key: &str, d: u64| {
            let spec = AdversarySpec::parse(key).unwrap();
            let algo = build_algorithm("paran1", instance, 7).unwrap();
            Simulation::builder(instance)
                .procs(algo.spawn(instance))
                .adversary(build_adversary(&spec, 16, 64, d, 7, 1_000_000))
                .max_ticks(1_000_000)
                .build()
                .run()
        };
        for bursty_key in ["bursty", "bursty:2"] {
            let unit = run("unit", 8);
            let bursty = run(bursty_key, 8);
            assert!(unit.completed && bursty.completed);
            assert!(
                (unit.work, unit.messages) != (bursty.work, bursty.messages),
                "{bursty_key}: bursty at d ≥ 2 must not match the unit profile \
                 (work {}, messages {})",
                bursty.work,
                bursty.messages,
            );
        }
        // At d = 1 the degenerate collapse is real — and documented.
        let unit = run("unit", 1);
        let bursty = run("bursty:4", 1);
        assert_eq!(
            (unit.work, unit.messages),
            (bursty.work, bursty.messages),
            "d = 1 bursty degenerates to unit (congested delay = calm delay)"
        );
    }

    #[test]
    fn crash_stagger_cells_are_distinct_and_all_fire() {
        let cells = Grid::parse(
            "algos=paran1 advs=crash:50@even,crash:50@burst,crash:50@front shapes=8x64 ds=2 \
             seeds=2",
        )
        .unwrap()
        .cells();
        let out = run_cells(&cells, &SweepConfig::default()).unwrap();
        for m in &out {
            let metrics = m.metrics();
            assert_eq!(metrics["crash_count"], 4.0, "{}", m.cell.adversary);
            assert!(metrics["mean_crashes_fired"] >= 1.0, "{}", m.cell.adversary);
        }
        // The stagger is a real knob: front-loaded crashes leave the
        // survivors short-handed for the whole run, so the three patterns
        // cannot all produce the same profile.
        let works: Vec<f64> = out
            .iter()
            .map(|m| m.summary.clone().unwrap().mean_work)
            .collect();
        assert!(
            works.windows(2).any(|w| w[0] != w[1]),
            "staggers even/burst/front all measured identically: {works:?}"
        );
    }

    #[test]
    fn straggler_cells_record_their_count() {
        let cells = Grid::parse(
            "algos=paran1 advs=straggler:25:4,straggler:100:2 shapes=8x32 \
                                 ds=2 seeds=2",
        )
        .unwrap()
        .cells();
        let out = run_cells(&cells, &SweepConfig::default()).unwrap();
        assert_eq!(out[0].metrics()["straggler_count"], 2.0, "25% of p=8");
        assert_eq!(out[1].metrics()["straggler_count"], 7.0, "capped at p − 1");
        // Non-straggler adversaries carry no straggler metrics.
        let plain = run_cells(
            &Grid::parse("algos=paran1 shapes=4x8").unwrap().cells(),
            &SweepConfig::default(),
        )
        .unwrap();
        assert!(!plain[0].metrics().contains_key("straggler_count"));
    }

    #[test]
    fn bad_keys_fail_before_any_run() {
        let mut cells = small_grid().cells();
        cells[0].algo = "frobnicate".to_string();
        assert!(matches!(
            run_cells(&cells, &SweepConfig::default()),
            Err(SweepError::Bad(_))
        ));
    }
}
