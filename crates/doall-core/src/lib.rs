//! Model vocabulary for the **Do-All** problem of Kowalski & Shvartsman,
//! *Performing work with asynchronous processors: message-delay-sensitive
//! bounds* (PODC 2003; Information and Computation 203 (2005) 181–210).
//!
//! The Do-All problem: given `t` similar, idempotent tasks, perform them all
//! using `p` asynchronous message-passing processors, where an omniscient
//! adversary controls processor speeds, crashes (at least one processor
//! survives), and message delays of at most `d` time units (`d` unknown to
//! the processors).
//!
//! This crate defines the shared vocabulary used by the simulator
//! (`doall-sim`), the algorithms (`doall-algorithms`), and the threaded
//! runtime (`doall-runtime`):
//!
//! * [`ProcId`], [`TaskId`], [`JobId`] — strongly-typed identifiers;
//! * [`BitSet`] — the monotone bitset that is the only thing processors ever
//!   communicate (progress information only grows, so replicas merge by OR
//!   and no consistency issues arise — Section 5.1.2 of the paper);
//! * [`DoneSet`] — task-indexed knowledge of completed tasks;
//! * [`JobMap`] — the clustering of `t` tasks into at most `p` jobs used when
//!   `t > p` (Sections 5.1.3 and 6 of the paper);
//! * [`Message`] — the envelope carried by the network;
//! * [`DoAllProcess`] — the object-safe state-machine trait every algorithm
//!   implements: one call to [`DoAllProcess::step`] is one *local step* and
//!   is charged one unit of work (Definition 2.1);
//! * [`StepOutcome`] — what a step did (task performed / broadcast
//!   submitted);
//! * [`RunReport`] and the tallies implementing Definitions 2.1/2.2.
//!
//! # Work accounting contract
//!
//! One call to `step` is one local step and therefore one unit of work. A
//! step may perform at most one task **and** submit at most one broadcast;
//! folding the broadcast submission into the performing step keeps measured
//! work directly comparable to the `(d)`-contention bound of Lemma 6.1,
//! which counts task executions only; a separate sending step would be work
//! outside that bound. Processing the inbox is free within the step,
//! matching the paper's "unit of work to process multiple received
//! messages".

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod error;
mod ids;
mod jobs;
mod knowledge;
mod message;
mod process;
mod report;

pub use bitset::BitSet;
pub use error::CoreError;
pub use ids::{JobId, ProcId, TaskId};
pub use jobs::{JobCursor, JobMap};
pub use knowledge::DoneSet;
pub use message::Message;
pub use process::{DoAllProcess, StepOutcome};
pub use report::{MessageTally, RunReport, WorkTally};

/// Instance parameters of a Do-All run: `p` processors, `t` tasks.
///
/// Validated at construction: both must be nonzero. The paper assumes `p`
/// and `t` are known to all processors, and the algorithms in this workspace
/// receive an `Instance` when instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instance {
    processors: usize,
    tasks: usize,
}

impl Instance {
    /// Creates an instance with `p` processors and `t` tasks.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroProcessors`] or [`CoreError::ZeroTasks`] if
    /// either parameter is zero.
    pub fn new(processors: usize, tasks: usize) -> Result<Self, CoreError> {
        if processors == 0 {
            return Err(CoreError::ZeroProcessors);
        }
        if tasks == 0 {
            return Err(CoreError::ZeroTasks);
        }
        Ok(Self { processors, tasks })
    }

    /// Number of processors `p`.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Number of tasks `t`.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// The number of *scheduling units* the algorithms operate on:
    /// `n = min{t, p}` (Section 6.1). When `t ≤ p` the unit is a task; when
    /// `t > p` tasks are clustered into `p` jobs of size at most `⌈t/p⌉`.
    #[must_use]
    pub fn units(&self) -> usize {
        self.processors.min(self.tasks)
    }

    /// The job map clustering this instance's tasks into [`Self::units`]
    /// jobs.
    #[must_use]
    pub fn job_map(&self) -> JobMap {
        JobMap::new(self.tasks, self.units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_validates_zero() {
        assert_eq!(Instance::new(0, 5).unwrap_err(), CoreError::ZeroProcessors);
        assert_eq!(Instance::new(5, 0).unwrap_err(), CoreError::ZeroTasks);
    }

    #[test]
    fn instance_accessors() {
        let inst = Instance::new(4, 9).unwrap();
        assert_eq!(inst.processors(), 4);
        assert_eq!(inst.tasks(), 9);
        assert_eq!(inst.units(), 4);
    }

    #[test]
    fn units_is_min_of_p_and_t() {
        assert_eq!(Instance::new(10, 3).unwrap().units(), 3);
        assert_eq!(Instance::new(3, 10).unwrap().units(), 3);
        assert_eq!(Instance::new(7, 7).unwrap().units(), 7);
    }

    #[test]
    fn job_map_covers_all_tasks() {
        let inst = Instance::new(4, 10).unwrap();
        let jm = inst.job_map();
        assert_eq!(jm.job_count(), 4);
        let total: usize = (0..jm.job_count())
            .map(|j| jm.tasks_of(JobId::new(j)).len())
            .sum();
        assert_eq!(total, 10);
    }
}
