//! Algorithm **ObliDo** (Fig. 2 of the paper): oblivious scheduling by a
//! list of permutations.
//!
//! `n` processors perform `n` jobs; processor `u` performs the jobs in the
//! order given by schedule `π_u ∈ Σ`, never communicating and never
//! checking ground truth. The total number of job executions is exactly
//! `n²`, but the number of *primary* executions — performances of a job not
//! yet performed by anyone — is at most `Cont(Σ)` (Lemma 4.2). The
//! experiment harness replays simulation traces to count primary
//! executions and verify the lemma.
//!
//! ObliDo is an analysis device (the recursion of Lemma 5.3 reduces DA's
//! behaviour at each tree level to ObliDo over q subtree-jobs), but it runs
//! fine as an algorithm; with `p ≠ n` processors, processor `pid` uses
//! schedule `π_{pid mod n}` — the paper's "each 'processor' may be modeling
//! a group of processors following the same sequence of activities".

use crate::Algorithm;
use doall_core::{DoAllProcess, Instance, JobId, JobMap, Message, ProcId, StepOutcome, TaskId};
use doall_perms::Schedules;
use std::ops::Range;
use std::sync::Arc;

/// Factory for ObliDo parameterized by a schedule list `Σ`.
#[derive(Debug, Clone)]
pub struct ObliDo {
    schedules: Arc<Schedules>,
}

impl ObliDo {
    /// Creates the factory. The schedule list's size must equal the number
    /// of *jobs* of any instance it is spawned for (`n = min(p, t)`);
    /// spawn panics otherwise.
    #[must_use]
    pub fn new(schedules: Schedules) -> Self {
        Self {
            schedules: Arc::new(schedules),
        }
    }
}

impl Algorithm for ObliDo {
    fn name(&self) -> String {
        format!("ObliDo(n={})", self.schedules.n())
    }

    fn spawn(&self, instance: Instance) -> Vec<Box<dyn DoAllProcess>> {
        let n = instance.units();
        assert_eq!(
            self.schedules.n(),
            n,
            "schedule list is over [{}] but the instance has {} jobs",
            self.schedules.n(),
            n
        );
        let job_map = instance.job_map();
        (0..instance.processors())
            .map(|i| {
                Box::new(ObliDoProcess {
                    pid: ProcId::new(i),
                    schedules: Arc::clone(&self.schedules),
                    schedule_index: i % self.schedules.len(),
                    job_map,
                    position: 0,
                    job: 0..0,
                }) as Box<dyn DoAllProcess>
            })
            .collect()
    }
}

/// Per-processor state machine of [`ObliDo`].
#[derive(Debug, Clone)]
pub struct ObliDoProcess {
    pid: ProcId,
    schedules: Arc<Schedules>,
    schedule_index: usize,
    job_map: JobMap,
    /// Next position in the schedule.
    position: usize,
    /// The tasks of the job in progress not yet performed (empty between
    /// jobs).
    job: Range<usize>,
}

impl DoAllProcess for ObliDoProcess {
    fn pid(&self) -> ProcId {
        self.pid
    }

    fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
        // Obliviousness: the inbox is ignored (nothing is ever sent).
        if self.job.is_empty() && self.position < self.job_map.job_count() {
            let job = self.schedules.get(self.schedule_index).apply(self.position);
            self.position += 1;
            self.job = self.job_map.tasks_of(JobId::new(job));
        }
        match self.job.next() {
            Some(task) => StepOutcome::perform(TaskId::new(task)),
            None => StepOutcome::internal(),
        }
    }

    fn knows_all_done(&self) -> bool {
        self.position >= self.job_map.job_count() && self.job.is_empty()
    }

    fn clone_box(&self) -> Box<dyn DoAllProcess> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doall_perms::Permutation;

    fn schedules_n(n: usize, seed: u64) -> Schedules {
        Schedules::random(n, n, seed)
    }

    #[test]
    fn performs_jobs_in_schedule_order() {
        let sched = Schedules::from_perms(vec![
            Permutation::from_image(vec![2, 0, 1]).unwrap(),
            Permutation::identity(3),
            Permutation::reversal(3),
        ])
        .unwrap();
        let inst = Instance::new(3, 3).unwrap();
        let mut procs = ObliDo::new(sched).spawn(inst);
        let order: Vec<usize> = (0..3)
            .map(|_| procs[0].step(&[]).performed.unwrap().index())
            .collect();
        assert_eq!(order, vec![2, 0, 1]);
        assert!(procs[0].knows_all_done());
    }

    #[test]
    fn total_executions_are_n_squared() {
        let n = 5;
        let inst = Instance::new(n, n).unwrap();
        let mut procs = ObliDo::new(schedules_n(n, 3)).spawn(inst);
        let mut executions = 0;
        for proc_ in &mut procs {
            while !proc_.knows_all_done() {
                if proc_.step(&[]).performed.is_some() {
                    executions += 1;
                }
            }
        }
        assert_eq!(executions, n * n);
    }

    #[test]
    fn job_clustering_expands_to_tasks() {
        // 2 processors, 6 tasks → 2 jobs of 3 tasks.
        let inst = Instance::new(2, 6).unwrap();
        let mut procs = ObliDo::new(schedules_n(2, 0)).spawn(inst);
        let mut performed = Vec::new();
        while !procs[0].knows_all_done() {
            if let Some(z) = procs[0].step(&[]).performed {
                performed.push(z.index());
            }
        }
        performed.sort_unstable();
        assert_eq!(performed, vec![0, 1, 2, 3, 4, 5], "all tasks, each once");
    }

    #[test]
    fn more_processors_than_schedules_reuse() {
        let inst = Instance::new(4, 2).unwrap(); // n = 2 jobs
        let procs = ObliDo::new(schedules_n(2, 1)).spawn(inst);
        assert_eq!(procs.len(), 4);
    }

    #[test]
    #[should_panic(expected = "schedule list is over")]
    fn wrong_schedule_size_panics() {
        let inst = Instance::new(3, 3).unwrap();
        let _ = ObliDo::new(schedules_n(2, 0)).spawn(inst);
    }
}
