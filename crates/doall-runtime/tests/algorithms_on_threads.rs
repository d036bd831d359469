//! The paper's algorithms running on genuine OS threads with delayed
//! channels — substrate-independence validation.

use doall_algorithms::{Algorithm, Da, PaDet, PaRan1, PaRan2, SoloAll};
use doall_core::Instance;
use doall_runtime::{run, RuntimeConfig};
use std::time::Duration;

fn config() -> RuntimeConfig {
    RuntimeConfig {
        max_delay: Duration::from_micros(200),
        seed: 42,
        timeout: Duration::from_secs(20),
        crash_after_steps: Vec::new(),
        step_interval: Duration::from_micros(20),
        pace_overrides: Vec::new(),
    }
}

#[test]
fn all_algorithms_complete_on_threads() {
    let instance = Instance::new(4, 32).unwrap();
    let algos: Vec<Box<dyn Algorithm>> = vec![
        Box::new(SoloAll::new()),
        Box::new(Da::with_default_schedules(2, 0)),
        Box::new(PaRan1::new(0)),
        Box::new(PaRan2::new(0)),
        Box::new(PaDet::random_for(instance, 0)),
    ];
    for algo in algos {
        let outcome = run(instance, algo.spawn(instance), &config(), &|_| {}).expect("valid setup");
        assert!(
            outcome.report.completed,
            "{} did not complete on threads: {}",
            algo.name(),
            outcome.report
        );
        assert!(outcome.report.work >= 32, "{}", algo.name());
    }
}

#[test]
fn threads_with_crashes_still_complete() {
    let instance = Instance::new(4, 24).unwrap();
    let mut cfg = config();
    // Processors 1..3 crash after a handful of steps; processor 0 survives.
    cfg.crash_after_steps = vec![None, Some(3), Some(5), Some(2)];
    let algo = Da::with_default_schedules(2, 7);
    let outcome = run(instance, algo.spawn(instance), &cfg, &|_| {}).expect("valid setup");
    assert!(
        outcome.report.completed,
        "survivor must finish alone: {}",
        outcome.report
    );
}

#[test]
fn cooperation_reduces_per_processor_load() {
    // With communication, total work on threads should be well below the
    // oblivious p·t on a comfortably parallel instance. This is a
    // statistical property of real schedules; keep generous margins.
    let instance = Instance::new(8, 200).unwrap();
    let algo = PaRan2::new(5);
    let outcome = run(instance, algo.spawn(instance), &config(), &|_| {}).expect("valid setup");
    assert!(outcome.report.completed);
    let quadratic = 8 * 200;
    assert!(
        outcome.report.work < quadratic,
        "cooperative work {} should beat oblivious {quadratic}",
        outcome.report.work
    );
}
