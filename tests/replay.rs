//! Real threads are model executions: every `doall_runtime::run` records
//! a linearization (each step's number, processor and sends, and each
//! read message's sending and reading step), and replaying it in the
//! simulator must charge exactly what the threads charged up to σ.
//!
//! The replay steps the processor logged for step `k` alone at tick `k`
//! and delays each message by its reading step minus its sending step;
//! a message no step read gets `u64::MAX`, an instant that never comes.
//! Per-processor work, messages and the σ step must then agree with the
//! runtime's own counts of the steps numbered up to σ. The algorithms
//! merge their inboxes by union or ignore them, so the order in which a
//! step's messages arrive should not matter; a run where it did would
//! fail here.
//!
//! `cargo test --test replay -- --nocapture` prints, per algorithm, the
//! runs replayed, the steps they took and the largest effective delay
//! (reading step minus sending step) any message saw.

use doall::runtime::{run, RunOutcome, RuntimeConfig};
use doall::sim::{Adversary, Mailboxes, SimView, Simulation};
use doall::{DoAllProcess, Instance, ProcId, RunReport};
use doall_bench::grid::{build_algorithm, crash_plan, straggler_flags, CrashStagger};
use std::collections::BTreeMap;
use std::time::Duration;

/// The pace of a full-speed processor: enough for the workers to
/// interleave instead of one sweeping every task alone.
const PACE: Duration = Duration::from_micros(20);

/// Replays one logged run: the processor of step `k` steps alone at
/// tick `k`, and a message sent at step `s` and read at step `r` takes
/// `r − s` ticks.
struct Replay {
    order: Vec<ProcId>,
    /// `(sending step, recipient)` → reading step.
    read_at: BTreeMap<(u64, ProcId), u64>,
}

impl Replay {
    fn of(outcome: &RunOutcome) -> Self {
        Self {
            order: outcome.steps.iter().map(|s| s.pid).collect(),
            read_at: outcome
                .drained
                .iter()
                .map(|m| ((m.sent, m.to), m.drained))
                .collect(),
        }
    }
}

impl Adversary for Replay {
    fn name(&self) -> &str {
        "replay"
    }

    fn schedule(
        &mut self,
        view: &SimView<'_>,
        _procs: &[Box<dyn DoAllProcess>],
        _mailboxes: &Mailboxes,
    ) -> Vec<bool> {
        let mut plan = vec![false; view.processors];
        plan[self.order[view.now as usize].index()] = true;
        plan
    }

    fn message_delay(&mut self, view: &SimView<'_>, _from: ProcId, to: ProcId) -> u64 {
        self.read_at
            .get(&(view.now, to))
            .map_or(u64::MAX, |&read| read - view.now)
    }
}

/// What makes some processors fail or lag in a run.
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    /// `crash_plan(50, stagger, …)`, its ticks taken as step budgets.
    Crash(CrashStagger),
    /// `straggler_flags(25, p)`, the flagged processors paced 4× slower.
    Straggler,
}

/// One threaded run to replay.
#[derive(Debug, Clone, Copy)]
struct RunSpec {
    algo: &'static str,
    p: usize,
    t: usize,
    fault: Fault,
    /// The runtime's cap on a message's random delay.
    max_delay: Duration,
    seed: u64,
}

/// What one run's threads and its replay charged up to σ.
#[derive(Debug, PartialEq)]
struct Charged {
    sigma: Option<u64>,
    work_per_processor: Vec<u64>,
    messages: u64,
}

impl Charged {
    fn of_replay(report: &RunReport) -> Self {
        Self {
            sigma: report.sigma,
            work_per_processor: report.work_per_processor.clone(),
            messages: report.messages,
        }
    }

    /// The runtime's counts over the steps numbered up to its σ step.
    fn of_threads(outcome: &RunOutcome, p: usize) -> Self {
        let sigma = outcome.sigma_step.expect("a completed run has a σ step");
        let mut work_per_processor = vec![0; p];
        let mut messages = 0;
        for step in &outcome.steps[..=sigma as usize] {
            work_per_processor[step.pid.index()] += 1;
            messages += step.sent;
        }
        Self {
            sigma: Some(sigma),
            work_per_processor,
            messages,
        }
    }
}

/// A run whose replay charged something else than its threads.
#[derive(Debug)]
struct Disagreement {
    spec: RunSpec,
    steps: usize,
    threads: Charged,
    replay: Charged,
}

/// Runs `spec` on threads and replays it. Returns the steps it took, the
/// largest effective delay it saw, and the disagreement if any.
fn run_and_replay(spec: RunSpec) -> (usize, u64, Option<Disagreement>) {
    let RunSpec { p, t, .. } = spec;
    let instance = Instance::new(p, t).expect("valid shape");
    let algo = build_algorithm(spec.algo, instance, spec.seed).expect("known key");
    let config = RuntimeConfig {
        max_delay: spec.max_delay,
        seed: spec.seed,
        timeout: Duration::from_secs(60),
        crash_after_steps: match spec.fault {
            Fault::Crash(stagger) => crash_plan(50, stagger, p, t, u64::MAX),
            _ => Vec::new(),
        },
        step_interval: PACE,
        pace_overrides: match spec.fault {
            Fault::Straggler => straggler_flags(25, p)
                .into_iter()
                .map(|slow| slow.then_some(4 * PACE))
                .collect(),
            _ => Vec::new(),
        },
    };
    let outcome = run(instance, algo.spawn(instance), &config, &|_| {}).expect("valid setup");
    assert!(
        outcome.report.completed,
        "{spec:?} did not complete on threads: {}",
        outcome.report
    );
    let steps = outcome.steps.len();
    let largest_delay = outcome
        .drained
        .iter()
        .map(|m| m.drained - m.sent)
        .max()
        .unwrap_or(0);
    let replayed = Simulation::builder(instance)
        .procs(algo.spawn(instance))
        .adversary(Box::new(Replay::of(&outcome)))
        .max_ticks(steps as u64)
        .build()
        .run();
    let threads = Charged::of_threads(&outcome, p);
    let replay = Charged::of_replay(&replayed);
    let disagreement = (threads != replay).then_some(Disagreement {
        spec,
        steps,
        threads,
        replay,
    });
    (steps, largest_delay, disagreement)
}

/// Replays 90 threaded runs of `algo`: two shapes, no fault, crashes at
/// each stagger and stragglers, delay caps of 0, 100 µs and 1 ms, and
/// three seeds. Fails on the disagreeing run with the fewest steps.
fn replay_runs(algo: &'static str) {
    let faults = [
        Fault::None,
        Fault::Crash(CrashStagger::Even),
        Fault::Crash(CrashStagger::Burst),
        Fault::Crash(CrashStagger::Front),
        Fault::Straggler,
    ];
    let (mut runs, mut steps, mut largest_delay) = (0, 0, 0);
    let mut disagreements = Vec::new();
    for (p, t) in [(4, 16), (8, 32)] {
        for fault in faults {
            for max_delay in [0, 100, 1000].map(Duration::from_micros) {
                for seed in 0..3 {
                    let spec = RunSpec {
                        algo,
                        p,
                        t,
                        fault,
                        max_delay,
                        seed,
                    };
                    let (taken, delay, disagreement) = run_and_replay(spec);
                    runs += 1;
                    steps += taken;
                    largest_delay = largest_delay.max(delay);
                    disagreements.extend(disagreement);
                }
            }
        }
    }
    println!("replay {algo}: {runs} runs, {steps} steps, largest effective delay {largest_delay}");
    if let Some(d) = disagreements.iter().min_by_key(|d| d.steps) {
        panic!(
            "{} of {runs} {algo} runs disagree with their replay; the smallest, {:?} \
             ({} steps): threads charged {:?}, the replay {:?}",
            disagreements.len(),
            d.spec,
            d.steps,
            d.threads,
            d.replay
        );
    }
}

#[test]
fn da_runs_replay_exactly() {
    replay_runs("da:3");
}

#[test]
fn paran1_runs_replay_exactly() {
    replay_runs("paran1");
}

#[test]
fn paran2_runs_replay_exactly() {
    replay_runs("paran2");
}

#[test]
fn padet_runs_replay_exactly() {
    replay_runs("padet");
}

#[test]
fn gossip_runs_replay_exactly() {
    replay_runs("gossip:2");
}

#[test]
fn soloall_runs_replay_exactly() {
    replay_runs("soloall");
}
