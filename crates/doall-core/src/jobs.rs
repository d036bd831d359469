//! Clustering of tasks into jobs for the `t > p` regime.
//!
//! "When the number of tasks `t′` exceeds the number of processors `p`, we
//! divide the tasks into jobs, where each job consists of at most `⌈t′/p⌉`
//! tasks" (Section 5.1.3; the same device is used for the PA family in
//! Section 6). A job is the scheduling unit; performing a job means
//! performing each of its constituent tasks, which takes one local step per
//! task.

use crate::{JobId, TaskId};
use core::ops::Range;

/// A partition of `t` tasks into `n` contiguous jobs of near-equal size
/// (sizes differ by at most one, every job nonempty, `n ≤ t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMap {
    tasks: usize,
    jobs: usize,
}

impl JobMap {
    /// Partitions `tasks` tasks into `min(max_jobs, tasks)` jobs.
    ///
    /// # Panics
    ///
    /// Panics if `tasks == 0` or `max_jobs == 0`; instances are validated
    /// upstream so this indicates a logic error.
    #[must_use]
    pub fn new(tasks: usize, max_jobs: usize) -> Self {
        assert!(tasks > 0, "JobMap requires at least one task");
        assert!(max_jobs > 0, "JobMap requires at least one job");
        Self {
            tasks,
            jobs: max_jobs.min(tasks),
        }
    }

    /// Number of jobs `n`.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs
    }

    /// Number of underlying tasks `t`.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks
    }

    /// The largest job size, `⌈t/n⌉`.
    #[must_use]
    pub fn max_job_size(&self) -> usize {
        self.tasks.div_ceil(self.jobs)
    }

    /// The range of task indices belonging to job `job`.
    ///
    /// Jobs are contiguous: job `j` covers tasks
    /// `[j·⌊t/n⌋ + min(j, t mod n), …)`, with the first `t mod n` jobs one
    /// task larger. An algorithm performing a job takes the range's tasks
    /// one per local step, so a job of `k` tasks costs `k` work units, as
    /// the "a single job takes `O(t/p)` units of work" accounting of
    /// Theorem 5.5 requires.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    #[must_use]
    pub fn tasks_of(&self, job: JobId) -> Range<usize> {
        let j = job.index();
        assert!(j < self.jobs, "job {j} out of range (n = {})", self.jobs);
        let base = self.tasks / self.jobs;
        let extra = self.tasks % self.jobs;
        let lo = j * base + j.min(extra);
        let hi = lo + base + usize::from(j < extra);
        lo..hi
    }

    /// The job containing task `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[must_use]
    pub fn job_of(&self, task: TaskId) -> JobId {
        let i = task.index();
        assert!(i < self.tasks, "task {i} out of range (t = {})", self.tasks);
        let base = self.tasks / self.jobs;
        let extra = self.tasks % self.jobs;
        let wide = extra * (base + 1);
        let j = if i < wide {
            i / (base + 1)
        } else {
            extra + (i - wide) / base
        };
        JobId::new(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition() {
        let jm = JobMap::new(12, 4);
        assert_eq!(jm.job_count(), 4);
        assert_eq!(jm.max_job_size(), 3);
        for j in 0..4 {
            assert_eq!(jm.tasks_of(JobId::new(j)).len(), 3);
        }
        assert_eq!(jm.tasks_of(JobId::new(0)), 0..3);
        assert_eq!(jm.tasks_of(JobId::new(3)), 9..12);
    }

    #[test]
    fn uneven_partition_sizes_differ_by_at_most_one() {
        let jm = JobMap::new(10, 4);
        let sizes: Vec<usize> = (0..4).map(|j| jm.tasks_of(JobId::new(j)).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert_eq!(*sizes.iter().max().unwrap(), 3);
        assert_eq!(*sizes.iter().min().unwrap(), 2);
        assert_eq!(jm.max_job_size(), 3);
    }

    #[test]
    fn fewer_tasks_than_jobs_caps_job_count() {
        let jm = JobMap::new(3, 10);
        assert_eq!(jm.job_count(), 3);
        for j in 0..3 {
            assert_eq!(jm.tasks_of(JobId::new(j)).len(), 1);
        }
    }

    #[test]
    fn job_of_inverts_tasks_of() {
        for (t, n) in [(10, 4), (12, 4), (7, 7), (100, 9), (5, 1)] {
            let jm = JobMap::new(t, n);
            for j in 0..jm.job_count() {
                for task in jm.tasks_of(JobId::new(j)) {
                    assert_eq!(
                        jm.job_of(TaskId::new(task)),
                        JobId::new(j),
                        "t={t} n={n} task={task}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranges_are_contiguous_and_cover() {
        let jm = JobMap::new(23, 5);
        let mut next = 0;
        for j in 0..jm.job_count() {
            let r = jm.tasks_of(JobId::new(j));
            assert_eq!(r.start, next);
            assert!(!r.is_empty());
            next = r.end;
        }
        assert_eq!(next, 23);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tasks_of_out_of_range_panics() {
        let jm = JobMap::new(4, 2);
        let _ = jm.tasks_of(JobId::new(2));
    }
}
