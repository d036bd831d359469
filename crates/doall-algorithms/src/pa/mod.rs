//! The permutation algorithms **PaRan1**, **PaRan2**, **PaDet** (Fig. 4,
//! Section 6).
//!
//! All three share one skeleton: while a processor has not ascertained
//! that every job is complete, it selects a job from its local list of
//! known-incomplete jobs, performs it (one local step per constituent
//! task), and broadcasts its knowledge; received knowledge prunes the
//! local list. They differ only in `Order`/`Select`:
//!
//! * **PaRan1** — each processor draws a uniformly random local
//!   permutation up front and follows it (`p·min{t,p}` random selections of
//!   `O(log min{t,p})` bits each);
//! * **PaRan2** — no up-front order: each selection is uniform over the
//!   jobs still unknown-complete (at most `E[W]·log t` expected random
//!   bits — the cheaper construction the paper highlights);
//! * **PaDet** — processor `pid` follows the fixed schedule `π_pid` from a
//!   list `Σ`; with a list per Corollary 4.5 the work bound is
//!   deterministic.
//!
//! Work against any d-adversary is at most `(d)-Cont(Σ)` (Lemma 6.1),
//! which with Theorem 4.4's bound gives
//! `E[W] = O(t log p + p·d·log(2 + t/d))` for the randomized versions
//! (Cor 6.4) and the same deterministically for PaDet (Cor 6.5).

use crate::Algorithm;
use doall_core::{
    BitSet, DoAllProcess, Instance, JobId, JobMap, Message, ProcId, StepOutcome, TaskId,
};
use doall_perms::{Permutation, Schedules};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// Mixes a run seed with a pid into a per-processor RNG seed.
fn per_proc_seed(seed: u64, pid: usize) -> u64 {
    // SplitMix64-style mix; cheap and adequate for experiment seeding.
    let mut z = seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the next job is selected — the `Order`/`Select` plug of Fig. 4.
#[derive(Debug, Clone)]
#[allow(
    clippy::large_enum_variant,
    reason = "StdRng is big but Selector lives once per processor"
)]
enum Selector {
    /// Follow a fixed permutation of the jobs (PaRan1 and PaDet).
    Schedule {
        order: Arc<Permutation>,
        position: usize,
    },
    /// Pick uniformly at random among jobs not known complete (PaRan2).
    Uniform { rng: StdRng },
}

/// Gossip throttling: on each job completion, send knowledge to `fanout`
/// random peers instead of broadcasting to everyone (the §7 direction of
/// "simultaneously controlling work and message complexity", cf. the
/// gossip-based Do-All of Georgiou–Kowalski–Shvartsman the paper cites).
#[derive(Debug, Clone)]
struct Gossip {
    fanout: usize,
    processors: usize,
    rng: StdRng,
}

impl Gossip {
    /// Picks `fanout` distinct random peers other than `me`.
    fn targets(&mut self, me: ProcId) -> Vec<ProcId> {
        let others = self.processors - 1;
        let k = self.fanout.min(others);
        if k == 0 {
            return Vec::new();
        }
        // Sample k distinct indices from the p−1 peers.
        let picks = rand::seq::index::sample(&mut self.rng, others, k);
        picks
            .into_iter()
            .map(|i| {
                // Skip over our own pid in the 0..p−1 peer numbering.
                ProcId::new(if i >= me.index() { i + 1 } else { i })
            })
            .collect()
    }
}

/// Per-processor state machine shared by the PA algorithms.
#[derive(Debug, Clone)]
pub struct PaProcess {
    pid: ProcId,
    job_map: JobMap,
    /// Knowledge: jobs known complete (self-performed or learned).
    done: BitSet,
    selector: Selector,
    /// The job in progress (the last one selected).
    job: JobId,
    /// The tasks of `job` not yet performed (empty between jobs).
    tasks: Range<usize>,
    /// `Some` = gossip to a random subset instead of broadcasting.
    gossip: Option<Gossip>,
}

impl PaProcess {
    fn new(pid: usize, instance: Instance, selector: Selector) -> Self {
        let job_map = instance.job_map();
        Self {
            pid: ProcId::new(pid),
            done: BitSet::new(job_map.job_count()),
            job_map,
            selector,
            job: JobId::new(0),
            tasks: 0..0,
            gossip: None,
        }
    }

    fn with_gossip(mut self, fanout: usize, processors: usize, seed: u64) -> Self {
        self.gossip = Some(Gossip {
            fanout,
            processors,
            rng: StdRng::seed_from_u64(seed),
        });
        self
    }

    /// Selects the next job not known complete, or `None` if the local
    /// list is exhausted.
    fn select(&mut self) -> Option<JobId> {
        match &mut self.selector {
            Selector::Schedule { order, position } => {
                let n = self.job_map.job_count();
                while *position < n {
                    let job = order.apply(*position);
                    *position += 1;
                    if !self.done.contains(job) {
                        return Some(JobId::new(job));
                    }
                }
                None
            }
            Selector::Uniform { rng } => {
                let remaining = self.job_map.job_count() - self.done.count();
                if remaining == 0 {
                    return None;
                }
                let k = rng.random_range(0..remaining);
                self.done.iter_zeros().nth(k).map(JobId::new)
            }
        }
    }
}

impl DoAllProcess for PaProcess {
    fn pid(&self) -> ProcId {
        self.pid
    }

    fn step(&mut self, inbox: &[Message]) -> StepOutcome {
        // Merge received knowledge (free within the step) straight from
        // the shared payloads — no copies.
        for msg in inbox {
            self.done.union_with(msg.bits());
        }

        // A job in progress is the atomic scheduling unit: finish it even
        // if we meanwhile learn it is done elsewhere (the analysis charges
        // its full O(t/p) cost to the selection).
        if self.tasks.is_empty() {
            let Some(job) = self.select() else {
                return StepOutcome::internal();
            };
            self.job = job;
            self.tasks = self.job_map.tasks_of(job);
        }

        #[expect(
            clippy::expect_used,
            reason = "invariant: JobMap never creates empty jobs"
        )]
        let task = TaskId::new(self.tasks.next().expect("jobs are nonempty"));
        if !self.tasks.is_empty() {
            return StepOutcome::perform(task);
        }
        self.done.insert(self.job.index());
        // Share the updated knowledge (Fig. 4: perform, then
        // broadcast(done)); one send per completed job — to everyone, or
        // to a random gossip subset when throttled.
        let bits = self.done.clone();
        let me = self.pid;
        if let Some(g) = self.gossip.as_mut() {
            let targets = g.targets(me);
            return StepOutcome::perform_and_multicast(task, bits, targets);
        }
        StepOutcome::perform_and_broadcast(task, bits)
    }

    fn knows_all_done(&self) -> bool {
        self.done.is_full() && self.tasks.is_empty()
    }

    fn clone_box(&self) -> Box<dyn DoAllProcess> {
        Box::new(self.clone())
    }
}

/// Factory for **PaRan1**: a uniformly random local schedule per
/// processor, drawn up front (Fig. 4 lines 40–44).
#[derive(Debug, Clone, Copy)]
pub struct PaRan1 {
    seed: u64,
}

impl PaRan1 {
    /// Creates the factory; `seed` determines every processor's schedule.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Algorithm for PaRan1 {
    fn name(&self) -> String {
        "PaRan1".to_string()
    }

    fn spawn(&self, instance: Instance) -> Vec<Box<dyn DoAllProcess>> {
        let n = instance.units();
        (0..instance.processors())
            .map(|pid| {
                let mut rng = StdRng::seed_from_u64(per_proc_seed(self.seed, pid));
                let order = Arc::new(Permutation::random(n, &mut rng));
                Box::new(PaProcess::new(
                    pid,
                    instance,
                    Selector::Schedule { order, position: 0 },
                )) as Box<dyn DoAllProcess>
            })
            .collect()
    }
}

/// Factory for **PaRan2**: tasks left unordered; every selection is
/// uniform over the jobs not yet known complete (Fig. 4 lines 50–52).
///
/// Same expected work as PaRan1, far fewer random bits.
#[derive(Debug, Clone, Copy)]
pub struct PaRan2 {
    seed: u64,
}

impl PaRan2 {
    /// Creates the factory; `seed` drives every processor's draws.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Algorithm for PaRan2 {
    fn name(&self) -> String {
        "PaRan2".to_string()
    }

    fn spawn(&self, instance: Instance) -> Vec<Box<dyn DoAllProcess>> {
        (0..instance.processors())
            .map(|pid| {
                let rng = StdRng::seed_from_u64(per_proc_seed(self.seed, pid));
                Box::new(PaProcess::new(pid, instance, Selector::Uniform { rng }))
                    as Box<dyn DoAllProcess>
            })
            .collect()
    }
}

/// Factory for **PaDet**: processor `pid` follows the fixed schedule
/// `π_{pid}` from a list `Σ` of permutations of the job set (Fig. 4 lines
/// 60–64).
///
/// With a list satisfying Corollary 4.5 the Cor 6.5 work bound holds
/// deterministically. Construct such lists with
/// [`Schedules::random`] (Theorem 4.4 makes random lists good with
/// overwhelming probability) or pass a hand-built list.
#[derive(Debug, Clone)]
pub struct PaDet {
    schedules: Arc<Schedules>,
}

impl PaDet {
    /// Creates the factory from an explicit schedule list. If the list has
    /// fewer entries than processors, processor `pid` uses
    /// `π_{pid mod |Σ|}` (the paper's grouping device).
    #[must_use]
    pub fn new(schedules: Schedules) -> Self {
        Self {
            schedules: Arc::new(schedules),
        }
    }

    /// Convenience: a random list of `p` schedules over the job set of
    /// `instance` — the Corollary 4.5 construction.
    #[must_use]
    pub fn random_for(instance: Instance, seed: u64) -> Self {
        Self::new(Schedules::random(
            instance.processors(),
            instance.units(),
            seed,
        ))
    }

    /// The schedule list `Σ`.
    #[must_use]
    pub fn schedules(&self) -> &Schedules {
        &self.schedules
    }
}

/// Factory for **PaGossip**: PaRan1's random local schedules, but each
/// job-completion message goes to only `fanout` random peers instead of
/// all `p − 1`.
///
/// This is an *extension* beyond the paper (its §7 lists controlling work
/// and message complexity simultaneously as future work, citing the
/// gossip approach of Georgiou–Kowalski–Shvartsman): message complexity
/// drops from `(p−1)` to `fanout` per completion, at the price of slower
/// knowledge dissemination and hence more redundant work. Experiment E14
/// maps the trade-off.
#[derive(Debug, Clone, Copy)]
pub struct PaGossip {
    seed: u64,
    fanout: usize,
}

impl PaGossip {
    /// Creates the factory with the given gossip fanout (`≥ 1`; values
    /// `≥ p − 1` degenerate to PaRan1's broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `fanout == 0` (a silent processor cannot help anyone;
    /// use [`crate::SoloAll`] to study the no-communication extreme).
    #[must_use]
    pub fn new(seed: u64, fanout: usize) -> Self {
        assert!(fanout >= 1, "gossip fanout must be at least 1");
        Self { seed, fanout }
    }

    /// The configured fanout.
    #[must_use]
    pub fn fanout(&self) -> usize {
        self.fanout
    }
}

impl Algorithm for PaGossip {
    fn name(&self) -> String {
        format!("PaGossip(f={})", self.fanout)
    }

    fn spawn(&self, instance: Instance) -> Vec<Box<dyn DoAllProcess>> {
        let n = instance.units();
        let p = instance.processors();
        (0..p)
            .map(|pid| {
                let mut rng = StdRng::seed_from_u64(per_proc_seed(self.seed, pid));
                let order = Arc::new(Permutation::random(n, &mut rng));
                Box::new(
                    PaProcess::new(pid, instance, Selector::Schedule { order, position: 0 })
                        .with_gossip(self.fanout, p, per_proc_seed(self.seed ^ 0xA5A5_A5A5, pid)),
                ) as Box<dyn DoAllProcess>
            })
            .collect()
    }
}

impl Algorithm for PaDet {
    fn name(&self) -> String {
        "PaDet".to_string()
    }

    fn spawn(&self, instance: Instance) -> Vec<Box<dyn DoAllProcess>> {
        assert_eq!(
            self.schedules.n(),
            instance.units(),
            "schedule list is over [{}] but the instance has {} jobs",
            self.schedules.n(),
            instance.units()
        );
        (0..instance.processors())
            .map(|pid| {
                let order = Arc::new(self.schedules.get(pid % self.schedules.len()).clone());
                Box::new(PaProcess::new(
                    pid,
                    instance,
                    Selector::Schedule { order, position: 0 },
                )) as Box<dyn DoAllProcess>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_solo(mut proc_: Box<dyn DoAllProcess>, limit: u64) -> Vec<usize> {
        let mut performed = Vec::new();
        let mut steps = 0;
        while !proc_.knows_all_done() {
            if let Some(z) = proc_.step(&[]).performed {
                performed.push(z.index());
            }
            steps += 1;
            assert!(steps < limit, "diverged");
        }
        performed
    }

    #[test]
    fn pa_det_follows_its_schedule() {
        let sched = Schedules::from_perms(vec![Permutation::from_image(vec![3, 1, 0, 2]).unwrap()])
            .unwrap();
        let inst = Instance::new(4, 4).unwrap();
        let mut procs = PaDet::new(sched).spawn(inst);
        let order: Vec<usize> = (0..4)
            .map(|_| procs[0].step(&[]).performed.unwrap().index())
            .collect();
        assert_eq!(order, vec![3, 1, 0, 2]);
        assert!(procs[0].knows_all_done());
    }

    #[test]
    fn every_variant_completes_solo() {
        let inst = Instance::new(1, 12).unwrap();
        for algo in [
            Box::new(PaRan1::new(1)) as Box<dyn Algorithm>,
            Box::new(PaRan2::new(1)),
            Box::new(PaDet::random_for(inst, 1)),
        ] {
            let procs = algo.spawn(inst);
            let mut performed = run_solo(procs.into_iter().next().unwrap(), 1000);
            performed.sort_unstable();
            assert_eq!(performed, (0..12).collect::<Vec<_>>(), "{}", algo.name());
        }
    }

    #[test]
    fn job_clustering_performs_all_tasks() {
        // p = 3, t = 10 → 3 jobs; a solo processor still performs all 10
        // tasks.
        let inst = Instance::new(3, 10).unwrap();
        let procs = PaRan1::new(7).spawn(inst);
        let mut performed = run_solo(procs.into_iter().next().unwrap(), 1000);
        performed.sort_unstable();
        assert_eq!(performed, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn merging_knowledge_prunes_jobs() {
        let inst = Instance::new(2, 4).unwrap();
        let mut procs = PaDet::random_for(inst, 3).spawn(inst);
        // Run proc 1 to completion; keep its final knowledge broadcast.
        let mut last_bits = None;
        while !procs[1].knows_all_done() {
            if let Some(b) = procs[1].step(&[]).broadcast {
                last_bits = Some(b);
            }
        }
        let msg = Message::new(ProcId::new(1), last_bits.unwrap());
        let o = procs[0].step(std::slice::from_ref(&msg));
        assert!(procs[0].knows_all_done());
        assert_eq!(o.performed, None, "no work after learning everything");
    }

    #[test]
    fn broadcast_accompanies_each_job_completion() {
        let inst = Instance::new(5, 5).unwrap(); // 5 single-task jobs
        let mut procs = PaRan2::new(9).spawn(inst);
        let mut broadcasts = 0;
        while !procs[0].knows_all_done() {
            if procs[0].step(&[]).broadcast.is_some() {
                broadcasts += 1;
            }
        }
        assert_eq!(broadcasts, 5, "one broadcast per completed job");
    }

    #[test]
    fn ran1_differs_across_processors_ran2_reproducible() {
        let inst = Instance::new(4, 16).unwrap();
        let mut a = PaRan1::new(5).spawn(inst);
        let firsts: Vec<usize> = a
            .iter_mut()
            .map(|p| p.step(&[]).performed.unwrap().index())
            .collect();
        let mut uniq = firsts.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 1, "random schedules diverge: {firsts:?}");

        let run = |seed| {
            let procs = PaRan2::new(seed).spawn(inst);
            procs
                .into_iter()
                .map(|p| run_solo(p, 10_000))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(8), run(8), "seeded reproducibility");
    }

    #[test]
    fn mid_job_completion_is_atomic() {
        // 2 processors, 2 jobs of 3 tasks; learning mid-job must not abort
        // the job in progress.
        let inst = Instance::new(2, 6).unwrap();
        let mut procs = PaDet::random_for(inst, 0).spawn(inst);
        let proc_ = &mut procs[0];
        // Step once (first task of first job).
        let first = proc_.step(&[]).performed.unwrap();
        // Tell it both jobs are done.
        let mut all = BitSet::new(2);
        all.insert(0);
        all.insert(1);
        let msg = Message::new(ProcId::new(1), all);
        // The in-progress job finishes (2 more tasks of the same job).
        let second = proc_.step(std::slice::from_ref(&msg)).performed.unwrap();
        let third = proc_.step(&[]).performed.unwrap();
        let job = inst.job_map().job_of(first);
        assert_eq!(inst.job_map().job_of(second), job);
        assert_eq!(inst.job_map().job_of(third), job);
        // After the atomic job, knowledge says everything is done.
        assert!(proc_.knows_all_done());
    }

    #[test]
    fn gossip_targets_are_distinct_valid_peers() {
        let mut g = Gossip {
            fanout: 3,
            processors: 8,
            rng: StdRng::seed_from_u64(5),
        };
        for me in [0usize, 3, 7] {
            for _ in 0..50 {
                let ts = g.targets(ProcId::new(me));
                assert_eq!(ts.len(), 3);
                let mut uniq: Vec<usize> = ts.iter().map(|p| p.index()).collect();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), 3, "distinct");
                assert!(uniq.iter().all(|&p| p < 8 && p != me), "valid peers");
            }
        }
    }

    #[test]
    fn gossip_fanout_caps_at_p_minus_one() {
        let mut g = Gossip {
            fanout: 100,
            processors: 4,
            rng: StdRng::seed_from_u64(1),
        };
        let ts = g.targets(ProcId::new(2));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn pagossip_completes_and_sends_fanout_messages() {
        let inst = Instance::new(6, 6).unwrap();
        let algo = PaGossip::new(3, 2);
        assert_eq!(algo.fanout(), 2);
        assert_eq!(algo.name(), "PaGossip(f=2)");
        let mut procs = algo.spawn(inst);
        // Solo processor: every completion multicasts to exactly 2 peers.
        let mut performed = Vec::new();
        while !procs[0].knows_all_done() {
            let o = procs[0].step(&[]);
            if let Some(z) = o.performed {
                performed.push(z.index());
                let targets = o.targets.expect("gossip always targets explicitly");
                assert_eq!(targets.len(), 2);
            }
        }
        performed.sort_unstable();
        assert_eq!(performed, (0..6).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "fanout must be at least 1")]
    fn pagossip_zero_fanout_rejected() {
        let _ = PaGossip::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "schedule list is over")]
    fn padet_wrong_size_panics() {
        let sched = Schedules::random(2, 3, 0);
        let _ = PaDet::new(sched).spawn(Instance::new(2, 2).unwrap());
    }
}
