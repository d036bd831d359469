//! Real-concurrency runner: executes the same Do-All state machines that
//! the discrete-event simulator drives, but on OS threads connected by
//! `std::sync::mpsc` channels. A sender stamps each message with a random
//! due time; the recipient holds it until then, the paper's "process it
//! later, according to its own local clock".
//!
//! Purpose: the algorithms are pure state machines, so they must behave
//! correctly on *any* substrate that provides reliable, possibly-delayed
//! message delivery. This crate validates that claim under genuine
//! parallelism — preemption, cache effects, real race timings — none of
//! which the algorithms may rely on or be broken by.
//!
//! Every run also records a *linearization*: each step takes a number
//! from one shared counter right after it drains its inbox, and every
//! message carries its sender's number ([`RunOutcome::steps`],
//! [`RunOutcome::drained`], [`RunOutcome::sigma_step`]). Stepping one
//! processor per tick in that order, with each message delayed by its
//! drained step minus its sent step, is an execution of the simulator's
//! model: the repository's `tests/replay.rs` replays hundreds of runs in
//! `doall-sim` and checks that they charge the same per-processor work,
//! messages and σ step. The report's `completed` flag is checked against
//! ground truth collected from the actual task executions.
//!
//! # Module map
//!
//! - `scheduler` *(private)* — the worker loop: one scoped OS thread per
//!   processor stepping its state machine, holding delayed messages until
//!   they are due, executing task bodies, joining counts into a
//!   [`RunReport`] and the numbered steps into the linearization.
//! - [`fault`] — rejected setups ([`RuntimeError`]) and the engine-side
//!   accounting of crashed workers ([`RuntimeStats`]).
//!
//! The entry point is [`run`]:
//!
//! ```
//! use doall_runtime::RuntimeConfig;
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
//! let outcome = doall_runtime::run(instance, procs, &RuntimeConfig::default(), &|_| {})
//!     .expect("valid setup");
//! assert!(outcome.report.completed);
//! ```

#![forbid(unsafe_code)]
// H001: library code outside tests returns errors instead of panicking;
// a justified exception carries `#[expect(clippy::…, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
#[allow(
    clippy::disallowed_methods,
    reason = "D002/D004: due times, deadlines, pacing and inbox drains are wall-clock and arrival-order by design; no result record reads this crate"
)]
mod scheduler;

pub use fault::{RuntimeError, RuntimeStats};

use doall_core::{DoAllProcess, Instance, ProcId, RunReport, TaskId};
use std::time::Duration;

/// Configuration of a threaded run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Maximum injected message delay. The sender of each point-to-point
    /// message stamps it due a uniformly random duration up to this bound
    /// from now, and the recipient holds it until then — the wall-clock
    /// analogue of the d-adversary. A due time too far out for `Instant`
    /// is never reached.
    pub max_delay: Duration,
    /// RNG seed for the delay draws (worker `i` draws from `seed + i`).
    pub seed: u64,
    /// Wall-clock cutoff after which the run is abandoned
    /// (`completed == false`). A cutoff too far out for `Instant` means
    /// none.
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
    /// Optional per-processor overrides of `step_interval` (`None` entries
    /// keep it; an empty list overrides nothing). This is how stragglers
    /// run at real concurrency: a slowed processor gets a proportionally
    /// longer pace.
    pub pace_overrides: Vec<Option<Duration>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            max_delay: Duration::from_micros(500),
            seed: 0,
            timeout: Duration::from_secs(10),
            crash_after_steps: Vec::new(),
            step_interval: Duration::ZERO,
            pace_overrides: Vec::new(),
        }
    }
}

/// What a threaded run produced: the algorithm-level [`RunReport`], the
/// harness's own accounting ([`RuntimeStats`]) and the run's
/// linearization.
#[derive(Debug)]
pub struct RunOutcome {
    /// Work / message counts, completion, and elapsed time (µs in
    /// `sigma`) — the same shape the simulator reports. It counts every
    /// step, including those other workers took after σ.
    pub report: RunReport,
    /// Engine-side accounting (crashed-inbox draining), never part of
    /// the report.
    pub stats: RuntimeStats,
    /// Every step of the run, by number: step `k` is `steps[k]`. A step
    /// takes its number right after its inbox is drained, so every
    /// message it read was sent by a lower-numbered step.
    pub steps: Vec<LoggedStep>,
    /// Every message a step read, ordered by the step that read it. A
    /// message that no step read (its recipient crashed, the run ended,
    /// or its due time was never reached) is not listed.
    pub drained: Vec<Drain>,
    /// The first step after which its processor knew every task was
    /// done: σ as a step number. `None` when no processor ever did.
    pub sigma_step: Option<u64>,
}

/// One step of a threaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedStep {
    /// The processor that stepped.
    pub pid: ProcId,
    /// The messages it sent: one per recipient other than itself,
    /// charged per Definition 2.2 whether or not one is ever read.
    pub sent: u64,
}

/// One message a step read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drain {
    /// Its sender.
    pub from: ProcId,
    /// Its recipient.
    pub to: ProcId,
    /// The number of the step that sent it.
    pub sent: u64,
    /// The number of the recipient's step whose inbox held it; always
    /// above `sent`.
    pub drained: u64,
}

/// Runs `procs` on `p` OS threads until some processor knows all tasks
/// are done or `config.timeout` fires. `body` is the idempotent task
/// itself: whichever worker performs a task calls it (possibly several
/// times, possibly concurrently — the Do-All contract); pass `&|_| {}`
/// for bookkeeping only.
///
/// # Errors
///
/// Every invalid setup is rejected before any thread is spawned:
///
/// - [`RuntimeError::NoProcessors`] if `procs` is empty (`p = 0`);
/// - [`RuntimeError::ProcessCount`] if `procs.len()` ≠ `p`;
/// - [`RuntimeError::CrashBudgetLength`] / [`RuntimeError::AllCrashed`]
///   if a nonempty crash budget list does not cover every processor or
///   leaves no survivor;
/// - [`RuntimeError::PaceLength`] if a nonempty pace-override list
///   does not cover every processor.
pub fn run(
    instance: Instance,
    procs: Vec<Box<dyn DoAllProcess>>,
    config: &RuntimeConfig,
    body: &(dyn Fn(TaskId) + Sync),
) -> Result<RunOutcome, RuntimeError> {
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
    let budgets = &config.crash_after_steps;
    if !budgets.is_empty() && budgets.len() != p {
        return Err(RuntimeError::CrashBudgetLength {
            expected: p,
            got: budgets.len(),
        });
    }
    if !budgets.is_empty() && budgets.iter().all(Option::is_some) {
        return Err(RuntimeError::AllCrashed);
    }
    if !config.pace_overrides.is_empty() && config.pace_overrides.len() != p {
        return Err(RuntimeError::PaceLength {
            expected: p,
            got: config.pace_overrides.len(),
        });
    }
    Ok(scheduler::execute(instance, procs, config, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doall_core::{BitSet, Message, ProcId, StepOutcome, TaskId};
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// [`run`] with the default config and a no-op task body.
    fn run_default(
        instance: Instance,
        procs: Vec<Box<dyn DoAllProcess>>,
    ) -> Result<RunOutcome, RuntimeError> {
        run(instance, procs, &RuntimeConfig::default(), &|_| {})
    }

    #[test]
    fn solo_sweep_completes() {
        let instance = Instance::new(1, 50).unwrap();
        let outcome = run_default(instance, sweeps(1, 50)).unwrap();
        assert!(outcome.report.completed);
        assert!(outcome.report.work >= 50);
        assert_eq!(outcome.report.messages, 0);
    }

    #[test]
    fn parallel_sweeps_complete() {
        let instance = Instance::new(4, 30).unwrap();
        let outcome = run_default(instance, sweeps(4, 30)).unwrap();
        assert!(outcome.report.completed);
        assert!(outcome.report.work >= 30);
        assert_eq!(outcome.report.work_per_processor.len(), 4);
    }

    #[test]
    fn task_body_runs_for_every_performance() {
        let instance = Instance::new(2, 20).unwrap();
        let counter = AtomicU64::new(0);
        let body = |_task: TaskId| {
            counter.fetch_add(1, Ordering::Relaxed);
        };
        let outcome = run(instance, sweeps(2, 20), &RuntimeConfig::default(), &body).unwrap();
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
        let outcome = run(instance, vec![Box::new(Idler)], &config, &|_| {}).unwrap();
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
        // its receiver, so its unbounded channel kept filling for the
        // rest of the run. The crashed branch drains and drops each
        // wake, keeping the backlog bounded by one wake's arrivals
        // instead of the whole run's traffic.
        let t = 300;
        let instance = Instance::new(2, t).unwrap();
        let procs: Vec<Box<dyn DoAllProcess>> = (0..2)
            .map(|i| {
                Box::new(ChattySweep {
                    pid: ProcId::new(i),
                    next: 0,
                    t,
                }) as Box<dyn DoAllProcess>
            })
            .collect();
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
        let RunOutcome { report, stats, .. } = run(instance, procs, &config, &|_| {}).unwrap();
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
        let clean = run_default(Instance::new(2, 10).unwrap(), sweeps(2, 10)).unwrap();
        assert_eq!(clean.stats, RuntimeStats::default());
    }

    #[test]
    fn linearization_numbers_every_step_and_message() {
        let t = 40;
        let procs: Vec<Box<dyn DoAllProcess>> = (0..3)
            .map(|i| {
                Box::new(ChattySweep {
                    pid: ProcId::new(i),
                    next: 0,
                    t,
                }) as Box<dyn DoAllProcess>
            })
            .collect();
        let config = RuntimeConfig {
            step_interval: Duration::from_micros(20),
            ..Default::default()
        };
        let outcome = run(Instance::new(3, t).unwrap(), procs, &config, &|_| {}).unwrap();
        let report = &outcome.report;
        assert!(report.completed, "{report}");
        // One numbered step per unit of work, charged to its processor.
        assert_eq!(outcome.steps.len() as u64, report.work);
        for (pid, &work) in report.work_per_processor.iter().enumerate() {
            let logged = outcome.steps.iter().filter(|s| s.pid.index() == pid);
            assert_eq!(logged.count() as u64, work, "processor {pid}");
        }
        let sent: u64 = outcome.steps.iter().map(|s| s.sent).sum();
        assert_eq!(sent, report.messages);
        // Every read message names a step of its sender before a step of
        // its recipient.
        for m in &outcome.drained {
            assert!(m.sent < m.drained, "{m:?}");
            assert_eq!(outcome.steps[m.sent as usize].pid, m.from, "{m:?}");
            assert_eq!(outcome.steps[m.drained as usize].pid, m.to, "{m:?}");
        }
        // A sweep knows it is done after its t-th step.
        let sigma = outcome.sigma_step.expect("some processor finished") as usize;
        let finisher = outcome.steps[sigma].pid;
        let before = outcome.steps[..=sigma].iter().filter(|s| s.pid == finisher);
        assert_eq!(before.count(), t);
    }

    #[test]
    fn unbounded_timeout_means_no_deadline() {
        let config = RuntimeConfig {
            timeout: Duration::MAX,
            ..Default::default()
        };
        let instance = Instance::new(1, 4).unwrap();
        let outcome = run(instance, sweeps(1, 4), &config, &|_| {}).unwrap();
        assert!(outcome.report.completed);
    }

    #[test]
    fn unrepresentable_due_times_are_never_due() {
        let t = 64;
        let procs: Vec<Box<dyn DoAllProcess>> = (0..2)
            .map(|i| {
                Box::new(ChattySweep {
                    pid: ProcId::new(i),
                    next: 0,
                    t,
                }) as Box<dyn DoAllProcess>
            })
            .collect();
        let config = RuntimeConfig {
            max_delay: Duration::MAX,
            ..Default::default()
        };
        let outcome = run(Instance::new(2, t).unwrap(), procs, &config, &|_| {}).unwrap();
        assert!(outcome.report.completed, "{}", outcome.report);
        assert!(
            outcome.report.messages > 0,
            "every broadcast is still charged"
        );
    }

    #[test]
    fn crashing_everyone_is_rejected() {
        let instance = Instance::new(2, 2).unwrap();
        let config = RuntimeConfig {
            crash_after_steps: vec![Some(1), Some(1)],
            ..Default::default()
        };
        let err = run(instance, sweeps(2, 2), &config, &|_| {}).unwrap_err();
        assert_eq!(err, RuntimeError::AllCrashed);
        assert_eq!(err.to_string(), "at least one processor must survive");
    }

    #[test]
    fn crash_budgets_must_cover_every_processor() {
        let instance = Instance::new(3, 2).unwrap();
        let config = RuntimeConfig {
            crash_after_steps: vec![None, Some(1)],
            ..Default::default()
        };
        let err = run(instance, sweeps(3, 2), &config, &|_| {}).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::CrashBudgetLength {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn empty_proc_list_is_rejected_not_a_panic() {
        // The `p = 0` edge of the validation bugfix: an empty state-machine
        // list used to die on an internal assert; now it is a typed error.
        let instance = Instance::new(2, 2).unwrap();
        let err = run_default(instance, Vec::new()).unwrap_err();
        assert_eq!(err, RuntimeError::NoProcessors);
    }

    #[test]
    fn wrong_proc_count_is_rejected() {
        let instance = Instance::new(3, 2).unwrap();
        let err = run_default(instance, sweeps(2, 2)).unwrap_err();
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
        let config = RuntimeConfig {
            pace_overrides: vec![Some(Duration::from_micros(10))],
            ..Default::default()
        };
        let err = run(instance, sweeps(3, 3), &config, &|_| {}).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::PaceLength {
                expected: 3,
                got: 1
            }
        );
    }
}
