//! End-to-end: every algorithm completes against every adversary, with
//! sane work accounting.

use doall_algorithms::{Algorithm, Da, PaDet, PaGossip, PaRan1, PaRan2, SoloAll};
use doall_core::{DoAllProcess, Instance, Message, ProcId, StepOutcome};
use doall_sim::adversary::{
    CrashSchedule, FixedDelay, LowerBoundAdversary, RandomDelay, RandomSubset,
    RandomizedLbAdversary, RoundRobin, StageAligned, UnitDelay,
};
use doall_sim::{Adversary, Simulation};

fn algorithms(instance: Instance, seed: u64) -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(SoloAll::new()),
        Box::new(Da::with_default_schedules(2, seed)),
        Box::new(Da::with_default_schedules(3, seed)),
        Box::new(PaRan1::new(seed)),
        Box::new(PaRan2::new(seed)),
        Box::new(PaDet::random_for(instance, seed)),
    ]
}

fn adversaries(d: u64, t: usize, seed: u64) -> Vec<Box<dyn Adversary>> {
    vec![
        Box::new(UnitDelay),
        Box::new(FixedDelay::new(d)),
        Box::new(RandomDelay::new(d, seed)),
        Box::new(StageAligned::new(d)),
        Box::new(RoundRobin::new(Box::new(FixedDelay::new(d)), 2)),
        Box::new(RandomSubset::new(Box::new(FixedDelay::new(d)), 0.6, seed)),
        Box::new(LowerBoundAdversary::new(d, t)),
        Box::new(RandomizedLbAdversary::new(d, t, seed)),
    ]
}

#[test]
fn completion_matrix() {
    // Every algorithm × every adversary, two instance shapes (p = t and
    // t > p), completes with all tasks performed.
    for (p, t) in [(6, 6), (4, 19)] {
        let instance = Instance::new(p, t).unwrap();
        for algo in algorithms(instance, 11) {
            let n_adv = adversaries(5, t, 7).len();
            for k in 0..n_adv {
                let adversary = adversaries(5, t, 7).remove(k);
                let name = format!("{} vs {} (p={p}, t={t})", algo.name(), adversary.name());
                let report = Simulation::builder(instance)
                    .procs(algo.spawn(instance))
                    .adversary(adversary)
                    .max_ticks(500_000)
                    .build()
                    .run();
                assert!(report.completed, "{name}: did not complete: {report}");
                assert!(report.work >= t as u64, "{name}: work below t");
                assert!(report.sigma.is_some(), "{name}: no σ");
            }
        }
    }
}

#[test]
fn pa_payloads_are_job_bitmaps() {
    /// Checks every payload its processor sends against the job count.
    struct JobBits {
        inner: Box<dyn DoAllProcess>,
        jobs: usize,
    }
    impl DoAllProcess for JobBits {
        fn pid(&self) -> ProcId {
            self.inner.pid()
        }
        fn step(&mut self, inbox: &[Message]) -> StepOutcome {
            let outcome = self.inner.step(inbox);
            if let Some(bits) = &outcome.broadcast {
                assert_eq!(bits.len(), self.jobs, "a PA payload holds one bit per job");
            }
            outcome
        }
        fn knows_all_done(&self) -> bool {
            self.inner.knows_all_done()
        }
        fn clone_box(&self) -> Box<dyn DoAllProcess> {
            Box::new(JobBits {
                inner: self.inner.clone_box(),
                jobs: self.jobs,
            })
        }
    }
    // t > p: ten tasks in four jobs of two or three tasks.
    let instance = Instance::new(4, 10).unwrap();
    let jobs = instance.units();
    assert_eq!(jobs, 4);
    let variants: Vec<Box<dyn Algorithm>> = vec![
        Box::new(PaRan1::new(1)),
        Box::new(PaRan2::new(1)),
        Box::new(PaDet::random_for(instance, 1)),
        Box::new(PaGossip::new(1, 2)),
    ];
    for algo in variants {
        let procs = algo
            .spawn(instance)
            .into_iter()
            .map(|inner| Box::new(JobBits { inner, jobs }) as Box<dyn DoAllProcess>)
            .collect();
        let report = Simulation::builder(instance)
            .procs(procs)
            .adversary(Box::new(FixedDelay::new(2)))
            .build()
            .run();
        assert!(report.completed, "{}: {report}", algo.name());
        assert!(report.messages > 0, "{}: sent no payload", algo.name());
    }
}

#[test]
fn solo_all_work_is_exactly_pt() {
    for (p, t) in [(1, 10), (4, 10), (8, 64)] {
        let instance = Instance::new(p, t).unwrap();
        let report = Simulation::builder(instance)
            .procs(SoloAll::new().spawn(instance))
            .adversary(Box::new(UnitDelay))
            .build()
            .run();
        assert!(report.completed);
        assert_eq!(
            report.work,
            (p * t) as u64,
            "oblivious work is the quadratic ceiling"
        );
        assert_eq!(report.messages, 0);
    }
}

#[test]
fn cooperation_beats_oblivious_at_small_d() {
    // p = t = 32, d = 1: every cooperative algorithm must beat p·t work.
    let p = 32;
    let t = 32;
    let instance = Instance::new(p, t).unwrap();
    let quadratic = (p * t) as u64;
    for algo in algorithms(instance, 3) {
        if algo.name() == "SoloAll" {
            continue;
        }
        let report = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(UnitDelay))
            .build()
            .run();
        assert!(report.completed);
        assert!(
            report.work < quadratic,
            "{}: W = {} not subquadratic (p·t = {quadratic})",
            algo.name(),
            report.work
        );
    }
}

#[test]
fn work_grows_with_delay() {
    // For each cooperative algorithm, work under d = 64 is at least work
    // under d = 1 (they may tie on tiny instances, hence ≥).
    let p = 16;
    let t = 16;
    let instance = Instance::new(p, t).unwrap();
    for algo in algorithms(instance, 5) {
        if algo.name() == "SoloAll" {
            continue;
        }
        let fast = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(FixedDelay::new(1)))
            .build()
            .run();
        let slow = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(FixedDelay::new(64)))
            .build()
            .run();
        assert!(fast.completed && slow.completed);
        assert!(
            slow.work >= fast.work,
            "{}: delay should not reduce work ({} vs {})",
            algo.name(),
            slow.work,
            fast.work
        );
    }
}

#[test]
fn crash_tolerant_with_single_survivor() {
    // Crash all but one processor at t/4 ticks; the survivor must finish
    // alone.
    let p = 8;
    let t = 40;
    let instance = Instance::new(p, t).unwrap();
    for algo in algorithms(instance, 13) {
        let adversary = CrashSchedule::all_but_one(Box::new(FixedDelay::new(3)), p, 2, 10);
        let report = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(adversary))
            .max_ticks(500_000)
            .build()
            .run();
        assert!(
            report.completed,
            "{}: survivor failed to finish: {report}",
            algo.name()
        );
    }
}

#[test]
fn deterministic_reports_are_reproducible() {
    let p = 8;
    let t = 24;
    let instance = Instance::new(p, t).unwrap();
    for algo in algorithms(instance, 21) {
        let a = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(StageAligned::new(4)))
            .build()
            .run();
        let b = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(StageAligned::new(4)))
            .build()
            .run();
        assert_eq!(a, b, "{}: simulation must be deterministic", algo.name());
    }
}

#[test]
fn da_message_complexity_at_most_p_per_step() {
    let p = 9;
    let t = 27;
    let instance = Instance::new(p, t).unwrap();
    let da = Da::with_default_schedules(3, 0);
    let report = Simulation::builder(instance)
        .procs(da.spawn(instance))
        .adversary(Box::new(FixedDelay::new(4)))
        .build()
        .run();
    assert!(report.completed);
    assert!(
        report.messages <= report.work * (p as u64 - 1),
        "Theorem 5.6: M ≤ (p−1)·W"
    );
}

#[test]
fn lower_bound_adversary_inflates_deterministic_work() {
    // DA under the Thm 3.1 adversary with large d performs substantially
    // more work than under the benign unit-delay adversary.
    let p = 9;
    let t = 81;
    let instance = Instance::new(p, t).unwrap();
    let da = Da::with_default_schedules(3, 0);
    let benign = Simulation::builder(instance)
        .procs(da.spawn(instance))
        .adversary(Box::new(UnitDelay))
        .build()
        .run();
    let attacked = Simulation::builder(instance)
        .procs(da.spawn(instance))
        .adversary(Box::new(LowerBoundAdversary::new(16, t)))
        .max_ticks(500_000)
        .build()
        .run();
    assert!(benign.completed && attacked.completed);
    assert!(
        attacked.work > benign.work,
        "adversary must hurt: {} vs {}",
        attacked.work,
        benign.work
    );
}
