//! The DA(q) per-processor state machine: post-order traversal of the
//! replicated progress tree (Fig. 3, lines 10–14 and 40–54), restructured
//! as an explicit-stack machine taking one unit of work per step.
//!
//! Step granularity (one work unit each, per the paper's accounting —
//! "constant overhead … per each call to Dowork" plus one unit per task):
//!
//! * *descend*: at an interior node, scan the remaining children in
//!   schedule order (pruning marked ones is free — those are reads of the
//!   local replica) and enter the first unmarked child;
//! * *perform*: at an unmarked leaf, perform the next constituent task of
//!   its job; performing the job's last task also marks the leaf and
//!   multicasts the replica (the paper's lines 45 + 51–52);
//! * *retire*: at a node whose children are all marked, mark it, multicast
//!   the replica, and return to the parent (lines 50–52).
//!
//! The message-processing "thread" (lines 20–26) is folded into the start
//! of every step: the inbox is merged into the replica by bitwise OR,
//! which is free within the step, matching the paper's simplifying
//! assumption that the two threads run at the same speed.

use super::tree::TreeShape;
use doall_core::{
    BitSet, DoAllProcess, Instance, JobId, JobMap, Message, ProcId, StepOutcome, TaskId,
};
use doall_perms::Schedules;
use std::ops::Range;
use std::sync::Arc;

/// Configuration shared (immutably) by all DA processors of one run.
#[derive(Debug)]
pub(super) struct DaShared {
    pub(super) shape: TreeShape,
    pub(super) schedules: Arc<Schedules>,
    pub(super) job_map: JobMap,
    pub(super) initial_bits: BitSet,
}

impl DaShared {
    pub(super) fn new(instance: Instance, q: usize, schedules: Arc<Schedules>) -> Self {
        let n = instance.units();
        let shape = TreeShape::new(q, n);
        Self {
            shape,
            schedules,
            job_map: instance.job_map(),
            initial_bits: shape.initial_bits(),
        }
    }
}

/// A traversal frame: the machine is inside `node` (at `depth`) and has
/// already issued visits to the children at schedule positions
/// `< child_pos`.
#[derive(Debug, Clone)]
struct Frame {
    node: usize,
    depth: usize,
    child_pos: usize,
}

/// Per-processor state machine of [`super::Da`].
#[derive(Debug, Clone)]
pub struct DaProcess {
    pid: ProcId,
    shared: Arc<DaShared>,
    /// This processor's replica of the progress tree.
    tree: BitSet,
    /// q-ary digits of the pid, least significant first; digit `m` selects
    /// the schedule at depth `m`.
    digits: Vec<usize>,
    stack: Vec<Frame>,
    /// The tasks of the leaf job in progress not yet performed (empty
    /// between jobs).
    job: Range<usize>,
}

impl DaProcess {
    pub(super) fn new(pid: usize, shared: Arc<DaShared>) -> Self {
        let q = shared.shape.q();
        let h = shared.shape.height();
        let mut digits = Vec::with_capacity(h);
        let mut rest = pid;
        for _ in 0..h {
            digits.push(rest % q);
            rest /= q;
        }
        let tree = shared.initial_bits.clone();
        Self {
            pid: ProcId::new(pid),
            shared,
            tree,
            digits,
            stack: vec![Frame {
                node: 0,
                depth: 0,
                child_pos: 0,
            }],
            job: 0..0,
        }
    }

    /// Marks `node`, pops the current frame, and produces the multicast of
    /// the updated replica.
    fn retire(&mut self, node: usize) -> BitSet {
        self.tree.insert(node);
        self.stack.pop();
        self.tree.clone()
    }

    /// The outcome of performing `task` of the leaf job in progress: its
    /// last task also marks the leaf and multicasts the replica.
    fn performed(&mut self, task: usize) -> StepOutcome {
        let task = TaskId::new(task);
        if !self.job.is_empty() {
            return StepOutcome::perform(task);
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: a job in progress implies a leaf frame on the stack"
        )]
        let leaf = self.stack.last().expect("leaf frame present").node;
        let bits = self.retire(leaf);
        StepOutcome::perform_and_broadcast(task, bits)
    }
}

impl DoAllProcess for DaProcess {
    fn pid(&self) -> ProcId {
        self.pid
    }

    fn step(&mut self, inbox: &[Message]) -> StepOutcome {
        // Message-processing thread: merge replicas (free within the step).
        for msg in inbox {
            self.tree.union_with(msg.bits());
        }

        // A job in progress continues regardless of merges: the job is the
        // atomic scheduling unit (its remaining cost is ≤ ⌈t/p⌉ steps,
        // absorbed in the analysis constants).
        if let Some(task) = self.job.next() {
            return self.performed(task);
        }

        let Some(frame) = self.stack.last_mut() else {
            // Traversal finished (root marked): idle no-op steps.
            return StepOutcome::internal();
        };
        let node = frame.node;
        let depth = frame.depth;

        // Pruned meanwhile by a merged replica? Return to the parent.
        if self.tree.contains(node) {
            self.stack.pop();
            return StepOutcome::internal();
        }

        let shape = self.shared.shape;
        if shape.is_leaf(node) {
            // Real leaf (dummies are pre-marked, handled above).
            #[expect(
                clippy::expect_used,
                reason = "invariant: dummy leaves are pre-marked, so this leaf has a job"
            )]
            let job = shape
                .job_of_leaf(node)
                .expect("unmarked leaves correspond to real jobs");
            self.job = self.shared.job_map.tasks_of(JobId::new(job));
            #[expect(
                clippy::expect_used,
                reason = "invariant: JobMap never creates empty jobs"
            )]
            let task = self.job.next().expect("jobs are nonempty");
            return self.performed(task);
        }

        // Interior node: scan remaining children in schedule order; the
        // schedule is chosen by the pid digit at this depth (processors
        // whose pids exceed q^h reuse digit 0, i.e. only the h least
        // significant digits matter, as in the paper).
        let digit = self.digits.get(depth).copied().unwrap_or(0);
        let schedule = self.shared.schedules.get(digit);
        let q = shape.q();
        let mut pos = frame.child_pos;
        while pos < q {
            let child = shape.child(node, schedule.apply(pos));
            pos += 1;
            if !self.tree.contains(child) {
                frame.child_pos = pos;
                self.stack.push(Frame {
                    node: child,
                    depth: depth + 1,
                    child_pos: 0,
                });
                return StepOutcome::internal();
            }
        }
        // All children marked: retire this node and multicast.
        let bits = self.retire(node);
        StepOutcome::broadcast(bits)
    }

    fn knows_all_done(&self) -> bool {
        self.tree.contains(0)
    }

    fn clone_box(&self) -> Box<dyn DoAllProcess> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Da};

    fn solo_run(q: usize, p: usize, t: usize) -> (u64, Vec<usize>) {
        // Drive processor 0 alone (no messages) to completion; return
        // (steps, tasks performed in order).
        let da = Da::with_default_schedules(q, 0);
        let mut procs = da.spawn(Instance::new(p, t).unwrap());
        let mut steps = 0u64;
        let mut performed = Vec::new();
        while !procs[0].knows_all_done() {
            let o = procs[0].step(&[]);
            steps += 1;
            if let Some(z) = o.performed {
                performed.push(z.index());
            }
            assert!(steps < 100_000, "diverged");
        }
        (steps, performed)
    }

    #[test]
    fn solo_processor_performs_all_tasks_exactly_once() {
        for (q, t) in [(2, 8), (2, 5), (3, 9), (3, 10), (4, 16), (5, 7)] {
            let (_, mut performed) = solo_run(q, 1, t);
            performed.sort_unstable();
            let expect: Vec<usize> = (0..t).collect();
            assert_eq!(performed, expect, "q={q} t={t}");
        }
    }

    #[test]
    fn solo_work_is_linear_in_tree_size() {
        // One processor: ≤ 2 steps per node + 1 per task.
        let (steps, _) = solo_run(3, 1, 27);
        let shape = TreeShape::new(3, 27);
        assert!(steps <= 2 * shape.node_count() as u64 + 27);
    }

    #[test]
    fn job_clustering_when_t_exceeds_p() {
        // p = 2, t = 10 → 2 jobs of 5 tasks.
        let (_, performed) = solo_run(2, 2, 10);
        assert_eq!(performed.len(), 10);
        let mut sorted = performed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        // Tasks within a job are consecutive.
        assert!(performed
            .chunks(5)
            .all(|c| c.windows(2).all(|w| w[1] == w[0] + 1)));
    }

    #[test]
    fn merging_replica_prunes_subtrees() {
        let da = Da::with_default_schedules(2, 0);
        let inst = Instance::new(2, 4).unwrap();
        let mut procs = da.spawn(inst);
        // Run proc 1 to completion, capture its final replica.
        let mut final_bits = None;
        while !procs[1].knows_all_done() {
            if let Some(b) = procs[1].step(&[]).broadcast {
                final_bits = Some(b);
            }
        }
        let final_bits = final_bits.expect("completion broadcasts the full tree");
        assert!(final_bits.contains(0), "root marked in final broadcast");
        // Deliver to proc 0: one step merges it and prunes everything.
        let msg = Message::new(ProcId::new(1), final_bits);
        let o = procs[0].step(std::slice::from_ref(&msg));
        assert!(procs[0].knows_all_done(), "merge alone conveys completion");
        assert_eq!(o.performed, None, "no redundant work after full merge");
    }

    #[test]
    fn distinct_pids_traverse_in_distinct_orders() {
        // q = 3, t = 9, three processors with distinct digit-0 values
        // should start on different subtrees.
        let da = Da::with_default_schedules(3, 0);
        let inst = Instance::new(3, 9).unwrap();
        let mut procs = da.spawn(inst);
        let mut firsts = Vec::new();
        for proc_ in &mut procs {
            loop {
                let o = proc_.step(&[]);
                if let Some(z) = o.performed {
                    firsts.push(z.index() / 3); // subtree index
                    break;
                }
            }
        }
        let mut uniq = firsts.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(
            uniq.len() >= 2,
            "low-contention schedules spread processors across subtrees: {firsts:?}"
        );
    }

    #[test]
    fn broadcasts_accompany_every_node_retirement() {
        let da = Da::with_default_schedules(2, 0);
        let inst = Instance::new(4, 4).unwrap();
        let mut procs = da.spawn(inst);
        let mut broadcasts = 0;
        while !procs[0].knows_all_done() {
            if procs[0].step(&[]).broadcast.is_some() {
                broadcasts += 1;
            }
        }
        // 7 nodes (4 leaves + 2 interior + root) each retire exactly once.
        assert_eq!(broadcasts, 7);
    }

    #[test]
    fn large_branching_factors_and_deep_trees() {
        // Deep trees with certified schedules (cheap q)…
        for (q, t) in [(2, 64), (2, 100), (3, 100)] {
            let (_, mut performed) = solo_run(q, 1, t);
            performed.sort_unstable();
            assert_eq!(performed, (0..t).collect::<Vec<_>>(), "q={q} t={t}");
        }
        // …and large branching factors with uncertified random schedules
        // (correctness needs no certificate; it only lowers contention).
        for (q, t) in [(7usize, 49usize), (8, 64)] {
            let da = Da::new(q, doall_perms::Schedules::random(q, q, 0)).unwrap();
            let mut procs = da.spawn(Instance::new(1, t).unwrap());
            let mut performed = Vec::new();
            let mut steps = 0u64;
            while !procs[0].knows_all_done() {
                if let Some(z) = procs[0].step(&[]).performed {
                    performed.push(z.index());
                }
                steps += 1;
                assert!(steps < 100_000, "diverged");
            }
            performed.sort_unstable();
            assert_eq!(performed, (0..t).collect::<Vec<_>>(), "q={q} t={t}");
        }
    }

    #[test]
    fn pids_beyond_tree_capacity_reuse_low_digits() {
        // p = 32 processors on a q = 2, t = 8 tree (h = 3): pids ≥ 8 share
        // digit patterns with pid mod 8 and must behave identically solo.
        let da = Da::with_default_schedules(2, 0);
        let inst = Instance::new(32, 8).unwrap();
        let run_one = |pid: usize| {
            let mut procs = da.spawn(inst);
            let proc_ = &mut procs[pid];
            let mut order = Vec::new();
            while !proc_.knows_all_done() {
                if let Some(z) = proc_.step(&[]).performed {
                    order.push(z.index());
                }
            }
            order
        };
        assert_eq!(run_one(3), run_one(3 + 8));
        assert_eq!(run_one(5), run_one(5 + 16));
    }

    #[test]
    fn idle_after_completion() {
        let da = Da::with_default_schedules(2, 0);
        let mut procs = da.spawn(Instance::new(1, 2).unwrap());
        while !procs[0].knows_all_done() {
            procs[0].step(&[]);
        }
        assert_eq!(procs[0].step(&[]), StepOutcome::internal());
        assert!(procs[0].knows_all_done());
    }

    #[test]
    fn clone_box_forks_state() {
        let da = Da::with_default_schedules(2, 0);
        let mut procs = da.spawn(Instance::new(1, 4).unwrap());
        let mut clone = procs[0].clone_box();
        procs[0].step(&[]);
        procs[0].step(&[]);
        // The clone is behind, not aliased.
        assert!(!clone.knows_all_done());
        let o = clone.step(&[]);
        let _ = o;
    }
}
