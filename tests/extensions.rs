//! Integration tests for the extension features: gossip throttling,
//! structured schedules, bursty/straggler adversaries, and trace
//! analysis.

use doall::perms::structured::{affine_schedules, next_prime, rotation_schedules};
use doall::perms::Schedules;
use doall::prelude::*;
use doall::sim::analysis::execution_profile;
use doall::sim::Simulation;

#[test]
fn gossip_completes_under_all_adversaries() {
    let p = 8;
    let t = 32;
    let instance = Instance::new(p, t).unwrap();
    for fanout in [1usize, 2, 4] {
        let algo = PaGossip::new(3, fanout);
        let adversaries: Vec<Box<dyn Adversary>> = vec![
            Box::new(UnitDelay),
            Box::new(FixedDelay::new(5)),
            Box::new(StageAligned::new(5)),
            Box::new(BurstyDelay::new(6, 4)),
            Box::new(RandomizedLbAdversary::new(4, t, 1)),
        ];
        for adversary in adversaries {
            let name = format!("{} vs {}", algo.name(), adversary.name());
            let report = Simulation::builder(instance)
                .procs(algo.spawn(instance))
                .adversary(adversary)
                .max_ticks(1_000_000)
                .build()
                .run();
            assert!(report.completed, "{name}: {report}");
        }
    }
}

#[test]
fn gossip_message_count_scales_with_fanout() {
    let p = 16;
    let t = 64;
    let instance = Instance::new(p, t).unwrap();
    let run = |fanout: usize| {
        let algo = PaGossip::new(5, fanout);
        Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(StageAligned::new(4)))
            .max_ticks(1_000_000)
            .build()
            .run()
    };
    let low = run(1);
    let high = run(8);
    assert!(low.completed && high.completed);
    // Messages per performing step are exactly the fanout, so the ratio
    // of message rates must be about 8:1 (runs differ in length).
    let low_rate = low.messages as f64 / low.work as f64;
    let high_rate = high.messages as f64 / high.work as f64;
    assert!(
        low_rate <= 1.0 + 1e-9,
        "fanout 1 sends ≤ 1 message per step"
    );
    assert!(
        high_rate > 4.0 * low_rate,
        "fanout 8 must send much more per step ({high_rate} vs {low_rate})"
    );
    // And the extra communication must not hurt work.
    assert!(high.work <= low.work, "more gossip, less redundant work");
}

#[test]
fn structured_schedules_run_padet() {
    // Affine and rotation lists are valid PaDet parameters and complete.
    let n = next_prime(20); // 23
    let instance = Instance::new(n, n).unwrap();
    for (label, sched) in [
        ("rotation", rotation_schedules(n, n)),
        ("affine", affine_schedules(n, n, 1).unwrap()),
        ("random", Schedules::random(n, n, 1)),
    ] {
        let algo = PaDet::new(sched);
        let report = Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(FixedDelay::new(3)))
            .max_ticks(1_000_000)
            .build()
            .run();
        assert!(report.completed, "{label}: {report}");
        assert!(report.work >= n as u64);
    }
}

#[test]
fn bursty_delay_is_between_unit_and_fixed() {
    // Bursty delays (half calm, half congested) should cost at least the
    // all-calm execution and at most the all-congested one, for the
    // deterministic PaDet.
    let p = 16;
    let t = 16;
    let instance = Instance::new(p, t).unwrap();
    let algo = PaDet::random_for(instance, 2);
    let calm = Simulation::builder(instance)
        .procs(algo.spawn(instance))
        .adversary(Box::new(FixedDelay::new(1)))
        .build()
        .run();
    let bursty = Simulation::builder(instance)
        .procs(algo.spawn(instance))
        .adversary(Box::new(BurstyDelay::new(8, 4)))
        .build()
        .run();
    let congested = Simulation::builder(instance)
        .procs(algo.spawn(instance))
        .adversary(Box::new(FixedDelay::new(8)))
        .build()
        .run();
    assert!(calm.completed && bursty.completed && congested.completed);
    assert!(bursty.work >= calm.work);
    assert!(
        bursty.work <= congested.work * 2,
        "square wave ≲ worst case"
    );
}

#[test]
fn stragglers_slow_time_not_work_ceiling() {
    let p = 8;
    let t = 24;
    let instance = Instance::new(p, t).unwrap();
    let algo = doall::algorithms::Da::with_default_schedules(2, 0);
    // Half the processors advance once every 4 ticks.
    let slow: Vec<bool> = (0..p).map(|i| i % 2 == 0).collect();
    let adversary = Stragglers::new(Box::new(FixedDelay::new(2)), slow, 4);
    let report = Simulation::builder(instance)
        .procs(algo.spawn(instance))
        .adversary(Box::new(adversary))
        .max_ticks(1_000_000)
        .build()
        .run();
    assert!(report.completed);
    // Stragglers stretch σ but work stays bounded by a small multiple of
    // the all-fast execution (fewer charged steps for slow processors).
    assert!(report.work <= (4 * p * t) as u64);
}

#[test]
fn execution_profile_quantifies_redundancy() {
    // SoloAll: every task performed p times — p−1 of them redundant.
    let p = 4;
    let t = 10;
    let instance = Instance::new(p, t).unwrap();
    let (report, trace) = Simulation::builder(instance)
        .procs(SoloAll::new().spawn(instance))
        .adversary(Box::new(UnitDelay))
        .trace(TraceMode::Buffered(1_000_000))
        .build()
        .run_traced();
    assert!(report.completed);
    let profile = execution_profile(&trace.unwrap(), t);
    assert_eq!(profile.total_executions(), p * t);
    assert_eq!(profile.multiplicity, vec![p; t]);
    // With the rotated start offsets, the four sweeps begin on distinct
    // tasks, so exactly t executions are primary (one per task) except
    // where offsets collide within a tick.
    assert!(profile.primary_executions >= t);
    assert!(profile.secondary_executions <= p * t - t);
    assert!(
        profile.redundancy() > 0.5,
        "oblivious work is mostly redundant"
    );

    // A cooperative algorithm on the same instance wastes far less.
    let (report, trace) = Simulation::builder(instance)
        .procs(PaDet::random_for(instance, 1).spawn(instance))
        .adversary(Box::new(UnitDelay))
        .trace(TraceMode::Buffered(1_000_000))
        .build()
        .run_traced();
    assert!(report.completed);
    let coop = execution_profile(&trace.unwrap(), t);
    assert!(
        coop.redundancy() < profile.redundancy(),
        "cooperation reduces redundancy ({} vs {})",
        coop.redundancy(),
        profile.redundancy()
    );
}

#[test]
fn gossip_on_real_threads() {
    use doall::runtime::{run, RuntimeConfig};
    use std::time::Duration;
    let instance = Instance::new(6, 30).unwrap();
    let config = RuntimeConfig {
        max_delay: Duration::from_micros(200),
        seed: 9,
        timeout: Duration::from_secs(20),
        crash_after_steps: Vec::new(),
        step_interval: Duration::from_micros(20),
        pace_overrides: Vec::new(),
    };
    let algo = PaGossip::new(4, 2);
    let outcome = run(instance, algo.spawn(instance), &config, &|_| {}).expect("valid setup");
    assert!(outcome.report.completed, "{}", outcome.report);
}
