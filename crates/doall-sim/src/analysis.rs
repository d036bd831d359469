//! Post-hoc analysis of execution traces: primary/secondary executions,
//! redundancy, and per-processor activity.
//!
//! Section 4 of the paper distinguishes *primary* job executions — the
//! performances of a job not yet performed by anyone at the time the
//! performing step began — from *secondary* (redundant) ones. Executions
//! within the same global time unit are concurrent, so several processors
//! performing the same job at the same tick are all primary ("several
//! processors may be executing the same job concurrently for the first
//! time"); this is exactly why `Cont(Σ)` can exceed `n`. Lemma 4.2 bounds
//! the primary executions of ObliDo by `Cont(Σ)`. The simulator counts
//! them in every [`RunReport`], which the experiment harness checks
//! against that bound; [`execution_profile`] recomputes them from a trace,
//! the reference the counters are tested against.

use crate::{Trace, TraceEvent};
use doall_core::RunReport;

/// Aggregate of a batch of runs (one grid cell of a sweep): mean, median,
/// and max of work and messages, plus completion accounting.
///
/// Produced by [`summarize`] from the reports of
/// [`crate::Simulation::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Number of runs aggregated.
    pub runs: usize,
    /// How many of them completed (reached σ before the tick cutoff).
    pub completed: usize,
    /// Mean work across the runs.
    pub mean_work: f64,
    /// Median work across the runs (midpoint average for even counts).
    pub median_work: f64,
    /// Maximum work across the runs.
    pub max_work: u64,
    /// Mean message count across the runs.
    pub mean_messages: f64,
    /// Median message count across the runs.
    pub median_messages: f64,
    /// Maximum message count across the runs.
    pub max_messages: u64,
}

impl BatchSummary {
    /// `true` iff every run in the batch completed.
    #[must_use]
    pub fn all_completed(&self) -> bool {
        self.completed == self.runs
    }
}

fn median(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    }
}

/// Aggregates a batch of [`RunReport`]s into mean/median/max work and
/// message statistics.
///
/// # Panics
///
/// Panics on an empty batch (an average over zero runs is a bug in the
/// caller, not a value to propagate).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "invariant: callers are asserted to pass ≥ 1 report"
)]
pub fn summarize(reports: &[RunReport]) -> BatchSummary {
    assert!(!reports.is_empty(), "cannot summarize an empty batch");
    let mut works: Vec<u64> = reports.iter().map(|r| r.work).collect();
    let mut msgs: Vec<u64> = reports.iter().map(|r| r.messages).collect();
    works.sort_unstable();
    msgs.sort_unstable();
    let n = reports.len() as f64;
    BatchSummary {
        runs: reports.len(),
        completed: reports.iter().filter(|r| r.completed).count(),
        mean_work: works.iter().sum::<u64>() as f64 / n,
        median_work: median(&works),
        max_work: *works.last().expect("non-empty"),
        mean_messages: msgs.iter().sum::<u64>() as f64 / n,
        median_messages: median(&msgs),
        max_messages: *msgs.last().expect("non-empty"),
    }
}

/// A mergeable partial aggregate of execution profiles: it lets a caller
/// that replays traces shard a cell's replicates across workers and
/// still produce the exact totals a sequential pass would.
///
/// Each worker folds the [`ExecutionProfile`]s of its replicate chunk
/// into one of these via [`ProfilePartial::record`]; the chunks are then
/// combined with [`ProfilePartial::merge`]. All fields are integer sums,
/// so the merged result is independent of chunk boundaries and merge
/// order — no floating-point reassociation can creep in before the final
/// division in [`ProfilePartial::mean_primary`] /
/// [`ProfilePartial::mean_secondary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfilePartial {
    /// Number of profiles folded in.
    pub runs: usize,
    /// Sum of primary executions over the folded profiles.
    pub primary_executions: usize,
    /// Sum of secondary (redundant) executions over the folded profiles.
    pub secondary_executions: usize,
}

impl ProfilePartial {
    /// Folds one run's profile into the partial.
    pub fn record(&mut self, profile: &ExecutionProfile) {
        self.runs += 1;
        self.primary_executions += profile.primary_executions;
        self.secondary_executions += profile.secondary_executions;
    }

    /// Combines another partial into this one (associative and
    /// commutative: any merge tree over the same runs yields the same
    /// sums).
    pub fn merge(&mut self, other: &ProfilePartial) {
        self.runs += other.runs;
        self.primary_executions += other.primary_executions;
        self.secondary_executions += other.secondary_executions;
    }

    /// Mean primary executions per run.
    ///
    /// # Panics
    ///
    /// Panics if no profiles were recorded (a mean over zero runs is a
    /// caller bug, mirroring [`summarize`]).
    #[must_use]
    pub fn mean_primary(&self) -> f64 {
        assert!(self.runs > 0, "no profiles recorded");
        self.primary_executions as f64 / self.runs as f64
    }

    /// Mean secondary executions per run.
    ///
    /// # Panics
    ///
    /// Panics if no profiles were recorded.
    #[must_use]
    pub fn mean_secondary(&self) -> f64 {
        assert!(self.runs > 0, "no profiles recorded");
        self.secondary_executions as f64 / self.runs as f64
    }
}

/// Aggregate statistics extracted from an execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionProfile {
    /// Performances of a task nobody had completed before the tick began
    /// (concurrent firsts all count).
    pub primary_executions: usize,
    /// All remaining performances (redundant work).
    pub secondary_executions: usize,
    /// Number of times each task was performed, indexed by task.
    pub multiplicity: Vec<usize>,
    /// Total steps observed (including non-performing steps).
    pub steps: usize,
    /// Total broadcasts observed.
    pub broadcasts: usize,
}

impl ExecutionProfile {
    /// Total task performances (primary + secondary).
    #[must_use]
    pub fn total_executions(&self) -> usize {
        self.primary_executions + self.secondary_executions
    }

    /// Fraction of performances that were redundant.
    #[must_use]
    pub fn redundancy(&self) -> f64 {
        let total = self.total_executions();
        if total == 0 {
            0.0
        } else {
            self.secondary_executions as f64 / total as f64
        }
    }
}

/// Replays `trace` (from [`crate::Simulation::run_traced`]) and computes
/// the execution profile over `tasks` tasks.
///
/// Tick-batched semantics: a performance is primary iff the task had not
/// been performed before the step's tick began. The trace must be
/// complete (not capacity-truncated) for the counts to be exact; pass a
/// generous capacity.
///
/// # Panics
///
/// Panics if the trace dropped events (the profile would silently
/// undercount).
#[must_use]
pub fn execution_profile(trace: &Trace, tasks: usize) -> ExecutionProfile {
    assert_eq!(
        trace.dropped(),
        0,
        "trace was capacity-truncated; profile would be wrong"
    );
    let mut done_before_tick = vec![false; tasks];
    let mut done_this_tick: Vec<usize> = Vec::new();
    let mut current_tick = u64::MAX;
    let mut profile = ExecutionProfile {
        primary_executions: 0,
        secondary_executions: 0,
        multiplicity: vec![0; tasks],
        steps: 0,
        broadcasts: 0,
    };
    for ev in trace.events() {
        match ev {
            TraceEvent::Step { now, performed, .. } => {
                if *now != current_tick {
                    current_tick = *now;
                    for z in done_this_tick.drain(..) {
                        done_before_tick[z] = true;
                    }
                }
                profile.steps += 1;
                if let Some(task) = performed {
                    let z = task.index();
                    profile.multiplicity[z] += 1;
                    if done_before_tick[z] {
                        profile.secondary_executions += 1;
                    } else {
                        profile.primary_executions += 1;
                        done_this_tick.push(z);
                    }
                }
            }
            TraceEvent::Send { .. } => profile.broadcasts += 1,
            TraceEvent::Completed { .. } => {}
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use doall_core::{ProcId, TaskId};

    fn step(now: u64, pid: usize, task: Option<usize>) -> TraceEvent {
        TraceEvent::Step {
            now,
            pid: ProcId::new(pid),
            performed: task.map(TaskId::new),
            broadcast: false,
        }
    }

    #[test]
    fn concurrent_firsts_are_all_primary() {
        let mut trace = Trace::with_capacity(16);
        // Tick 0: both processors perform task 0 — both primary.
        trace.record(step(0, 0, Some(0)));
        trace.record(step(0, 1, Some(0)));
        // Tick 1: task 0 again — secondary; task 1 — primary.
        trace.record(step(1, 0, Some(0)));
        trace.record(step(1, 1, Some(1)));
        let p = execution_profile(&trace, 2);
        assert_eq!(p.primary_executions, 3);
        assert_eq!(p.secondary_executions, 1);
        assert_eq!(p.multiplicity, vec![3, 1]);
        assert_eq!(p.total_executions(), 4);
        assert!((p.redundancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn non_performing_steps_count_as_steps_only() {
        let mut trace = Trace::with_capacity(8);
        trace.record(step(0, 0, None));
        trace.record(step(1, 0, Some(0)));
        let p = execution_profile(&trace, 1);
        assert_eq!(p.steps, 2);
        assert_eq!(p.primary_executions, 1);
        assert_eq!(p.secondary_executions, 0);
    }

    #[test]
    fn broadcasts_counted() {
        let mut trace = Trace::with_capacity(8);
        trace.record(TraceEvent::Send {
            now: 0,
            from: ProcId::new(0),
            recipients: 3,
        });
        let p = execution_profile(&trace, 1);
        assert_eq!(p.broadcasts, 1);
        assert_eq!(p.redundancy(), 0.0);
    }

    fn report(work: u64, messages: u64, completed: bool) -> doall_core::RunReport {
        doall_core::RunReport {
            work,
            messages,
            sigma: completed.then_some(work),
            completed,
            work_per_processor: vec![work],
            primary_executions: 0,
            secondary_executions: 0,
        }
    }

    #[test]
    fn summarize_mean_median_max() {
        let s = summarize(&[
            report(10, 1, true),
            report(20, 3, true),
            report(90, 2, false),
        ]);
        assert_eq!(s.runs, 3);
        assert_eq!(s.completed, 2);
        assert!(!s.all_completed());
        assert!((s.mean_work - 40.0).abs() < 1e-12);
        assert!((s.median_work - 20.0).abs() < 1e-12);
        assert_eq!(s.max_work, 90);
        assert!((s.mean_messages - 2.0).abs() < 1e-12);
        assert!((s.median_messages - 2.0).abs() < 1e-12);
        assert_eq!(s.max_messages, 3);
    }

    #[test]
    fn summarize_even_count_median_is_midpoint() {
        let s = summarize(&[report(10, 0, true), report(30, 0, true)]);
        assert!((s.median_work - 20.0).abs() < 1e-12);
        assert!(s.all_completed());
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn summarize_rejects_empty() {
        let _ = summarize(&[]);
    }

    #[test]
    fn profile_partial_merge_is_chunk_invariant() {
        let profiles: Vec<ExecutionProfile> = (0..6)
            .map(|i| ExecutionProfile {
                primary_executions: 3 * i + 1,
                secondary_executions: i,
                multiplicity: vec![],
                steps: 0,
                broadcasts: 0,
            })
            .collect();
        // One sequential fold...
        let mut whole = ProfilePartial::default();
        for p in &profiles {
            whole.record(p);
        }
        // ...vs chunked folds merged in order, for every chunk size.
        for chunk in 1..=profiles.len() {
            let mut merged = ProfilePartial::default();
            for slice in profiles.chunks(chunk) {
                let mut part = ProfilePartial::default();
                for p in slice {
                    part.record(p);
                }
                merged.merge(&part);
            }
            assert_eq!(merged, whole, "chunk size {chunk}");
        }
        assert_eq!(whole.runs, 6);
        assert!((whole.mean_primary() - (1 + 4 + 7 + 10 + 13 + 16) as f64 / 6.0).abs() < 1e-12);
        assert!((whole.mean_secondary() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no profiles recorded")]
    fn profile_partial_rejects_empty_mean() {
        let _ = ProfilePartial::default().mean_primary();
    }

    #[test]
    #[should_panic(expected = "capacity-truncated")]
    fn truncated_trace_rejected() {
        let mut trace = Trace::with_capacity(1);
        trace.record(step(0, 0, Some(0)));
        trace.record(step(1, 0, Some(0)));
        let _ = execution_profile(&trace, 1);
    }
}
