//! Workspace integration tests: the facade API, cross-crate invariants,
//! and the theorem-shaped properties the library promises.

use doall::bounds;
use doall::perms::{d_contention_of_list, Schedules};
use doall::prelude::*;

fn all_algorithms(instance: Instance, seed: u64) -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(SoloAll::new()),
        Box::new(doall::algorithms::Da::with_default_schedules(2, seed)),
        Box::new(doall::algorithms::Da::with_default_schedules(3, seed)),
        Box::new(PaRan1::new(seed)),
        Box::new(PaRan2::new(seed)),
        Box::new(PaDet::random_for(instance, seed)),
    ]
}

#[test]
fn prelude_exposes_a_working_pipeline() {
    let instance = Instance::new(4, 20).unwrap();
    let report = Simulation::builder(instance)
        .procs(PaDet::random_for(instance, 0).spawn(instance))
        .adversary(Box::new(RandomDelay::new(3, 1)))
        .build()
        .run();
    assert!(report.completed);
    assert!(report.work >= 20);
}

#[test]
fn sigma_cutoff_stops_charging() {
    // With d large, σ for SoloAll is still t−1 ticks (no communication
    // involved), so work is exactly p·t whatever the adversary's delays.
    let instance = Instance::new(3, 15).unwrap();
    let report = Simulation::builder(instance)
        .procs(SoloAll::new().spawn(instance))
        .adversary(Box::new(FixedDelay::new(1000)))
        .build()
        .run();
    assert_eq!(report.work, 45);
    assert_eq!(report.sigma, Some(14));
}

#[test]
fn work_respects_lower_bound_formula() {
    // Measured work of every algorithm is at least t (each task costs a
    // step) and at least the per-execution trivial bounds.
    let instance = Instance::new(8, 32).unwrap();
    for algo in all_algorithms(instance, 2) {
        let report = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(StageAligned::new(4)))
            .build()
            .run();
        assert!(report.completed, "{}", algo.name());
        assert!(report.work >= 32, "{}: W ≥ t", algo.name());
    }
}

#[test]
fn pa_work_within_paper_bound_shape() {
    // PaDet measured work stays within a small constant of the Cor 6.5
    // bound across a d-sweep (the ratio must not blow up with d).
    let p = 16;
    let t = 16;
    let instance = Instance::new(p, t).unwrap();
    for d in [1u64, 2, 4, 8, 16] {
        let algo = PaDet::random_for(instance, 9);
        let report = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(StageAligned::new(d)))
            .build()
            .run();
        assert!(report.completed);
        let bound = bounds::pa_upper_bound(p, t, d);
        assert!(
            (report.work as f64) < 6.0 * bound,
            "d={d}: W={} vs bound {bound}",
            report.work
        );
    }
}

#[test]
fn lemma_6_1_work_at_most_d_contention() {
    // For PaDet with schedule list Σ (p = t, so jobs are single tasks),
    // measured *task performances* (= work while tasks remain) under any
    // d-adversary are at most (d)-Cont(Σ). We use the exact d-contention
    // on a small instance.
    let p = 6;
    let t = 6;
    let instance = Instance::new(p, t).unwrap();
    let schedules = Schedules::random(p, t, 4);
    for d in [1u64, 2, 3, 6] {
        let algo = PaDet::new(schedules.clone());
        let report = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(StageAligned::new(d)))
            .build()
            .run();
        assert!(report.completed);
        let dcont = d_contention_of_list(schedules.as_slice(), d as usize);
        assert!(dcont.exact, "n = 6 permits exact evaluation");
        assert!(
            report.work <= dcont.value as u64 + p as u64,
            "d={d}: measured {} exceeds (d)-Cont(Σ) = {} (+p slack for the final tick)",
            report.work,
            dcont.value
        );
    }
}

#[test]
fn quadratic_wall_at_large_d() {
    // Proposition 2.2: with d ≥ t every algorithm is Ω(p·t). Our
    // implementations must also stay O(p·t) up to small constants — the
    // oblivious fallback is never beaten by more than constants there.
    let p = 12;
    let t = 12;
    let instance = Instance::new(p, t).unwrap();
    let quadratic = (p * t) as u64;
    for algo in all_algorithms(instance, 6) {
        let report = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(FixedDelay::new(2 * t as u64)))
            .build()
            .run();
        assert!(report.completed, "{}", algo.name());
        assert!(
            report.work >= quadratic / 4,
            "{}: with d ≥ t, work {} must be Ω(p·t) = {}",
            algo.name(),
            report.work,
            quadratic
        );
        assert!(
            report.work <= 4 * quadratic,
            "{}: work {} should stay O(p·t) = {}",
            algo.name(),
            report.work,
            quadratic
        );
    }
}

#[test]
fn messages_within_p_times_work() {
    // Both families bound M by p·W (Theorems 5.6 and 6.2/6.3).
    let instance = Instance::new(8, 24).unwrap();
    for algo in all_algorithms(instance, 8) {
        let report = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(RandomDelay::new(5, 3)))
            .build()
            .run();
        assert!(report.completed);
        assert!(
            report.messages <= report.work * 8,
            "{}: M = {} > p·W = {}",
            algo.name(),
            report.messages,
            report.work * 8
        );
    }
}

#[test]
fn randomized_lb_adversary_hurts_paran() {
    let p = 16;
    let t = 64;
    let instance = Instance::new(p, t).unwrap();
    let mut benign_total = 0u64;
    let mut attacked_total = 0u64;
    for seed in 0..5 {
        let pa = PaRan2::new(seed);
        benign_total += Simulation::builder(instance)
            .procs(pa.spawn(instance))
            .adversary(Box::new(UnitDelay))
            .build()
            .run()
            .work;
        attacked_total += Simulation::builder(instance)
            .procs(pa.spawn(instance))
            .adversary(Box::new(RandomizedLbAdversary::new(8, t, seed)))
            .max_ticks(2_000_000)
            .build()
            .run()
            .work;
    }
    assert!(
        attacked_total > benign_total,
        "the Thm 3.4 adversary must inflate expected work: {attacked_total} vs {benign_total}"
    );
}

#[test]
fn oblido_primary_executions_bounded_by_contention() {
    // Lemma 4.2 end-to-end: ObliDo's primary executions, concurrent
    // firsts included, against the exact Cont(Σ) of its list.
    let n = 6;
    let instance = Instance::new(n, n).unwrap();
    let schedules = Schedules::random(n, n, 2);
    let cont = d_contention_of_list(schedules.as_slice(), 1);
    assert!(cont.exact);
    let algo = ObliDo::new(schedules);
    let report = Simulation::builder(instance)
        .procs(algo.spawn(instance))
        .adversary(Box::new(StageAligned::new(3)))
        .build()
        .run();
    assert!(report.completed);
    let primary = report.primary_executions as usize;
    assert!(primary >= n, "every job has a first execution");
    assert!(
        primary <= cont.value,
        "primary executions {primary} exceed Cont(Σ) = {}",
        cont.value
    );
}

#[test]
fn crash_storms_never_prevent_completion() {
    // Staggered crash schedule leaving one survivor; every algorithm
    // finishes.
    let p = 10;
    let t = 30;
    let instance = Instance::new(p, t).unwrap();
    let crash_times: Vec<Option<u64>> = (0..p)
        .map(|i| if i == 7 { None } else { Some(3 + 2 * i as u64) })
        .collect();
    for algo in all_algorithms(instance, 12) {
        let adversary = CrashSchedule::new(Box::new(RandomDelay::new(4, 2)), crash_times.clone());
        let report = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(adversary))
            .max_ticks(1_000_000)
            .build()
            .run();
        assert!(report.completed, "{}: {report}", algo.name());
    }
}
