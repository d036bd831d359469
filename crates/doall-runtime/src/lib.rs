//! Real-concurrency runner: executes the same Do-All state machines that
//! the discrete-event simulator drives, but on OS threads connected by
//! `crossbeam` channels, with a router thread injecting per-message
//! delays.
//!
//! Purpose: the algorithms are pure state machines, so they must behave
//! correctly on *any* substrate that provides reliable, possibly-delayed
//! message delivery. This crate validates that claim under genuine
//! parallelism — preemption, cache effects, real race timings — none of
//! which the algorithms may rely on or be broken by.
//!
//! Complexity *measurement* stays in the simulator (wall-clock
//! nondeterminism makes exact step accounting meaningless here); this
//! runner reports the same [`RunReport`] shape with best-effort counts, and
//! its `completed` flag is checked against ground truth collected from the
//! actual task executions.
//!
//! # Module map
//!
//! - `scheduler` *(private)* — the per-processor worker loop and run
//!   orchestration: stepping state machines, executing task bodies,
//!   joining counts into a [`RunReport`].
//! - [`transport`] — message delivery between workers. Today an
//!   in-process channel router ([`transport::ChannelTransport`]); the
//!   narrow surface is the seam for a future socket transport.
//! - [`fault`] — the crash-failure model: validated step budgets
//!   ([`fault::CrashSchedule`]) and engine-side accounting
//!   ([`RuntimeStats`]).
//!
//! The entry point is the builder-style [`Runtime`] facade:
//!
//! ```
//! use doall_runtime::{Runtime, RuntimeConfig};
//! use doall_core::Instance;
//! # use doall_core::{DoAllProcess, Message, ProcId, StepOutcome, TaskId};
//! # #[derive(Clone)]
//! # struct Solo(usize, usize);
//! # impl DoAllProcess for Solo {
//! #     fn pid(&self) -> ProcId { ProcId::new(0) }
//! #     fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
//! #         if self.0 < self.1 { self.0 += 1; StepOutcome::perform(TaskId::new(self.0 - 1)) }
//! #         else { StepOutcome::internal() }
//! #     }
//! #     fn knows_all_done(&self) -> bool { self.0 >= self.1 }
//! #     fn clone_box(&self) -> Box<dyn DoAllProcess> { Box::new(self.clone()) }
//! # }
//! let instance = Instance::new(1, 8).unwrap();
//! let procs = vec![Box::new(Solo(0, 8)) as Box<dyn DoAllProcess>];
//! let outcome = Runtime::builder(RuntimeConfig::default())
//!     .run(instance, procs)
//!     .expect("valid setup");
//! assert!(outcome.report.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
mod scheduler;
pub mod transport;

pub use fault::{CrashSchedule, RuntimeError, RuntimeStats};

use doall_core::{DoAllProcess, Instance, RunReport, TaskId};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a threaded run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Maximum injected message delay. Each point-to-point message is held
    /// by the router for a uniformly random duration up to this bound —
    /// the wall-clock analogue of the d-adversary.
    pub max_delay: Duration,
    /// RNG seed for the delay draws.
    pub seed: u64,
    /// Wall-clock cutoff after which the run is abandoned
    /// (`completed == false`).
    pub timeout: Duration,
    /// Optional per-processor step budgets: processor `i` stops stepping
    /// after `crash_after_steps[i]` steps (`None` = never). At least one
    /// processor must be uncrashed; this is the crash-failure model.
    pub crash_after_steps: Vec<Option<u64>>,
    /// Pause between consecutive local steps of each worker. Zero (the
    /// default) lets threads run at full speed — a fast worker may then
    /// finish before its peers are even scheduled, which is legal
    /// asynchrony but makes demonstrations one-sided; a small pace (tens
    /// of microseconds) produces genuinely interleaved executions.
    pub step_interval: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            max_delay: Duration::from_micros(500),
            seed: 0,
            timeout: Duration::from_secs(10),
            crash_after_steps: Vec::new(),
            step_interval: Duration::ZERO,
        }
    }
}

/// The body of an idempotent task: executed by whichever worker thread
/// performs it (possibly several times, possibly concurrently — the
/// Do-All contract). Must be idempotent and thread-safe.
pub type TaskBody = dyn Fn(TaskId) + Send + Sync;

/// What a threaded run produced: the algorithm-level [`RunReport`] plus
/// the harness's own accounting ([`RuntimeStats`]).
#[derive(Debug)]
pub struct RunOutcome {
    /// Work / message counts, completion, and elapsed time (µs in
    /// `sigma`) — the same shape the simulator reports.
    pub report: RunReport,
    /// Engine-side accounting (crashed-inbox draining), never part of
    /// the report.
    pub stats: RuntimeStats,
}

/// A fully validated threaded run, ready to execute. Build one with
/// [`Runtime::builder`]; every invalid configuration is rejected with a
/// [`RuntimeError`] before any thread is spawned.
pub struct Runtime {
    instance: Instance,
    procs: Vec<Box<dyn DoAllProcess>>,
    config: RuntimeConfig,
    body: Arc<TaskBody>,
    schedule: CrashSchedule,
    pace_overrides: Vec<Option<Duration>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("instance", &self.instance)
            .field("config", &self.config)
            .field("schedule", &self.schedule)
            .field("pace_overrides", &self.pace_overrides)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Starts building a run from `config`. Chain [`RuntimeBuilder`]
    /// methods, then call [`RuntimeBuilder::run`] (or
    /// [`RuntimeBuilder::build`] + [`Runtime::run`]).
    #[must_use]
    pub fn builder(config: RuntimeConfig) -> RuntimeBuilder {
        RuntimeBuilder {
            config,
            body: Arc::new(|_| {}),
            pace_overrides: Vec::new(),
        }
    }

    /// Executes the validated run to completion (or timeout).
    #[must_use]
    pub fn run(self) -> RunOutcome {
        let (report, stats) = scheduler::execute(
            self.instance,
            self.procs,
            &self.config,
            &self.body,
            &self.schedule,
            &self.pace_overrides,
        );
        RunOutcome { report, stats }
    }
}

/// Builder for [`Runtime`]: optional task body and per-processor pacing
/// on top of a [`RuntimeConfig`].
#[derive(Clone)]
pub struct RuntimeBuilder {
    config: RuntimeConfig,
    body: Arc<TaskBody>,
    pace_overrides: Vec<Option<Duration>>,
}

impl std::fmt::Debug for RuntimeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeBuilder")
            .field("config", &self.config)
            .field("pace_overrides", &self.pace_overrides)
            .finish_non_exhaustive()
    }
}

impl RuntimeBuilder {
    /// Sets the task body executed each time a state machine performs a
    /// task — the actual (idempotent) work unit, the paper's abstraction
    /// made concrete. Defaults to a no-op (bookkeeping only).
    #[must_use]
    pub fn tasks(mut self, body: Arc<TaskBody>) -> Self {
        self.body = body;
        self
    }

    /// Per-processor overrides of the config's `step_interval` (`None`
    /// entries keep the default). This is how stragglers run at real
    /// concurrency: a slowed processor gets a proportionally longer pace.
    #[must_use]
    pub fn pace_overrides(mut self, overrides: Vec<Option<Duration>>) -> Self {
        self.pace_overrides = overrides;
        self
    }

    /// Validates the whole setup against `instance` and `procs`.
    ///
    /// # Errors
    ///
    /// - [`RuntimeError::NoProcessors`] if `procs` is empty (`p = 0`);
    /// - [`RuntimeError::ProcessCount`] if `procs.len()` ≠ `p`;
    /// - [`RuntimeError::CrashBudgetLength`] / [`RuntimeError::AllCrashed`]
    ///   for an ill-formed crash budget list;
    /// - [`RuntimeError::PaceLength`] if a nonempty pace-override list
    ///   does not cover every processor.
    pub fn build(
        self,
        instance: Instance,
        procs: Vec<Box<dyn DoAllProcess>>,
    ) -> Result<Runtime, RuntimeError> {
        let p = instance.processors();
        if procs.is_empty() {
            return Err(RuntimeError::NoProcessors);
        }
        if procs.len() != p {
            return Err(RuntimeError::ProcessCount {
                expected: p,
                got: procs.len(),
            });
        }
        let schedule = CrashSchedule::from_budgets(self.config.crash_after_steps.clone(), p)?;
        if !self.pace_overrides.is_empty() && self.pace_overrides.len() != p {
            return Err(RuntimeError::PaceLength {
                expected: p,
                got: self.pace_overrides.len(),
            });
        }
        Ok(Runtime {
            instance,
            procs,
            config: self.config,
            body: self.body,
            schedule,
            pace_overrides: self.pace_overrides,
        })
    }

    /// [`Self::build`] + [`Runtime::run`] in one call.
    ///
    /// # Errors
    ///
    /// Same as [`Self::build`].
    pub fn run(
        self,
        instance: Instance,
        procs: Vec<Box<dyn DoAllProcess>>,
    ) -> Result<RunOutcome, RuntimeError> {
        Ok(self.build(instance, procs)?.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doall_core::{BitSet, Message, ProcId, StepOutcome, TaskId};
    use std::sync::atomic::Ordering;

    /// Deterministic sweep used to smoke-test the plumbing without
    /// depending on the algorithms crate (those tests live in /tests).
    #[derive(Clone)]
    struct Sweep {
        pid: ProcId,
        next: usize,
        t: usize,
    }

    impl DoAllProcess for Sweep {
        fn pid(&self) -> ProcId {
            self.pid
        }
        fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
            if self.next < self.t {
                self.next += 1;
                StepOutcome::perform(TaskId::new(self.next - 1))
            } else {
                StepOutcome::internal()
            }
        }
        fn knows_all_done(&self) -> bool {
            self.next >= self.t
        }
        fn clone_box(&self) -> Box<dyn DoAllProcess> {
            Box::new(self.clone())
        }
    }

    fn sweeps(p: usize, t: usize) -> Vec<Box<dyn DoAllProcess>> {
        (0..p)
            .map(|i| {
                Box::new(Sweep {
                    pid: ProcId::new(i),
                    next: 0,
                    t,
                }) as Box<dyn DoAllProcess>
            })
            .collect()
    }

    #[test]
    fn solo_sweep_completes() {
        let instance = Instance::new(1, 50).unwrap();
        let outcome = Runtime::builder(RuntimeConfig::default())
            .run(instance, sweeps(1, 50))
            .unwrap();
        assert!(outcome.report.completed);
        assert!(outcome.report.work >= 50);
        assert_eq!(outcome.report.messages, 0);
    }

    #[test]
    fn parallel_sweeps_complete() {
        let instance = Instance::new(4, 30).unwrap();
        let outcome = Runtime::builder(RuntimeConfig::default())
            .run(instance, sweeps(4, 30))
            .unwrap();
        assert!(outcome.report.completed);
        assert!(outcome.report.work >= 30);
        assert_eq!(outcome.report.work_per_processor.len(), 4);
    }

    #[test]
    fn task_body_runs_for_every_performance() {
        use std::sync::atomic::AtomicU64;
        let instance = Instance::new(2, 20).unwrap();
        let counter = Arc::new(AtomicU64::new(0));
        let body = {
            let counter = Arc::clone(&counter);
            Arc::new(move |_task: TaskId| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
        };
        let outcome = Runtime::builder(RuntimeConfig::default())
            .tasks(body)
            .run(instance, sweeps(2, 20))
            .unwrap();
        assert!(outcome.report.completed);
        // Every performing step ran the body; sweeps perform once per step
        // until their own completion.
        assert!(counter.load(Ordering::Relaxed) >= 20);
        assert!(counter.load(Ordering::Relaxed) <= outcome.report.work);
    }

    #[test]
    fn timeout_reports_incomplete() {
        /// Never finishes.
        #[derive(Clone)]
        struct Idler;
        impl DoAllProcess for Idler {
            fn pid(&self) -> ProcId {
                ProcId::new(0)
            }
            fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
                std::thread::sleep(Duration::from_millis(1));
                StepOutcome::internal()
            }
            fn knows_all_done(&self) -> bool {
                false
            }
            fn clone_box(&self) -> Box<dyn DoAllProcess> {
                Box::new(Idler)
            }
        }
        let instance = Instance::new(1, 1).unwrap();
        let config = RuntimeConfig {
            timeout: Duration::from_millis(50),
            ..Default::default()
        };
        let outcome = Runtime::builder(config)
            .run(instance, vec![Box::new(Idler)])
            .unwrap();
        assert!(!outcome.report.completed);
        assert_eq!(outcome.report.sigma, None);
    }

    /// Performs its tasks one per step and broadcasts every performance —
    /// the worst case for a crashed peer's inbox.
    #[derive(Clone)]
    struct ChattySweep {
        pid: ProcId,
        next: usize,
        t: usize,
    }

    impl DoAllProcess for ChattySweep {
        fn pid(&self) -> ProcId {
            self.pid
        }
        fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
            if self.next < self.t {
                self.next += 1;
                let mut bits = BitSet::new(self.t);
                for z in 0..self.next {
                    bits.insert(z);
                }
                StepOutcome::perform_and_broadcast(TaskId::new(self.next - 1), bits)
            } else {
                StepOutcome::internal()
            }
        }
        fn knows_all_done(&self) -> bool {
            self.next >= self.t
        }
        fn clone_box(&self) -> Box<dyn DoAllProcess> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn crashed_worker_drains_its_inbox() {
        // Regression: a crashed worker used to sleep without ever reading
        // its receiver, so the router kept filling the unbounded channel
        // for the rest of the run. Post-fix the crashed branch drains and
        // drops each wake, keeping the backlog bounded by one wake's
        // arrivals instead of the whole run's traffic.
        let t = 300;
        let instance = Instance::new(2, t).unwrap();
        let procs: Vec<Box<dyn DoAllProcess>> = vec![
            Box::new(ChattySweep {
                pid: ProcId::new(0),
                next: 0,
                t,
            }),
            Box::new(ChattySweep {
                pid: ProcId::new(1),
                next: 0,
                t,
            }),
        ];
        let config = RuntimeConfig {
            max_delay: Duration::ZERO,
            // Processor 1 crashes before its first step; processor 0 does
            // everything, broadcasting ~t messages at its crashed peer.
            crash_after_steps: vec![None, Some(0)],
            // Pace the survivor so the run spans many of the crashed
            // worker's 1 ms wake-ups.
            step_interval: Duration::from_micros(100),
            ..Default::default()
        };
        let RunOutcome { report, stats } = Runtime::builder(config).run(instance, procs).unwrap();
        assert!(report.completed, "{report}");
        assert!(
            stats.crashed_drained > 0,
            "the crashed worker must drain its inbox: {stats:?}"
        );
        assert!(
            stats.crashed_drained <= report.messages,
            "cannot drain more than was ever sent: {stats:?} vs {report}"
        );
        assert!(stats.max_crashed_backlog <= stats.crashed_drained);
        // A run without crashes drains nothing.
        let instance = Instance::new(2, 10).unwrap();
        let clean = Runtime::builder(RuntimeConfig::default())
            .run(instance, sweeps(2, 10))
            .unwrap();
        assert_eq!(clean.stats, RuntimeStats::default());
    }

    #[test]
    fn crashing_everyone_is_rejected() {
        let instance = Instance::new(2, 2).unwrap();
        let config = RuntimeConfig {
            crash_after_steps: vec![Some(1), Some(1)],
            ..Default::default()
        };
        let err = Runtime::builder(config)
            .run(instance, sweeps(2, 2))
            .unwrap_err();
        assert_eq!(err, RuntimeError::AllCrashed);
        assert_eq!(err.to_string(), "at least one processor must survive");
    }

    #[test]
    fn empty_proc_list_is_rejected_not_a_panic() {
        // The `p = 0` edge of the validation bugfix: an empty state-machine
        // list used to die on an internal assert; now it is a typed error.
        let instance = Instance::new(2, 2).unwrap();
        let err = Runtime::builder(RuntimeConfig::default())
            .run(instance, Vec::new())
            .unwrap_err();
        assert_eq!(err, RuntimeError::NoProcessors);
    }

    #[test]
    fn wrong_proc_count_is_rejected() {
        let instance = Instance::new(3, 2).unwrap();
        let err = Runtime::builder(RuntimeConfig::default())
            .run(instance, sweeps(2, 2))
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::ProcessCount {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn pace_overrides_must_cover_every_processor() {
        let instance = Instance::new(3, 3).unwrap();
        let err = Runtime::builder(RuntimeConfig::default())
            .pace_overrides(vec![Some(Duration::from_micros(10))])
            .run(instance, sweeps(3, 3))
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::PaceLength {
                expected: 3,
                got: 1
            }
        );
    }
}
