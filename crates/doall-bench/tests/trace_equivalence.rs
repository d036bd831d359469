//! Property tests for three "must not perturb results" claims:
//!
//! 1. **Tracing is an observer.** A run built with `TraceMode::Off`
//!    (the monomorphized trace-free loop) and the same run built with
//!    `TraceMode::Buffered` produce identical [`RunReport`]s, for random
//!    algorithm × adversary × shape draws across both delivery engines
//!    (bus and per-recipient).
//! 2. **Arena recycling is invisible.** `Simulation::run_batch` (one
//!    recycled proc vector + mailbox/bus arena across replicates) is
//!    byte-identical to constructing a fresh `Simulation` per replicate —
//!    and the sweep engine built on it is byte-identical across
//!    `--threads {1, 8}` × `--shard-size {1, auto}`.
//! 3. **`Delivery::UniformBroadcast` is recipient-oblivious.** Every
//!    adversary that declares it (and so runs on the broadcast bus) gives
//!    the same [`RunReport`] when a wrapper forces the per-recipient
//!    mailbox engine.

use doall_bench::grid::{build_adversary, build_algorithm, AdversarySpec, Grid};
use doall_bench::sweep::{run_cells, SweepConfig};
use doall_core::{DoAllProcess, Instance, ProcId, RunReport};
use doall_sim::{Adversary, Delivery, Mailboxes, SimView, Simulation, TraceMode};
use proptest::prelude::*;

/// Algorithm keys that exercise every messaging pattern: broadcast-free,
/// full broadcast, and partial multicast (gossip).
const ALGOS: &[&str] = &[
    "soloall", "oblido", "da:3", "paran1", "paran2", "padet", "gossip:2",
];

/// Adversaries covering both delivery engines: the first four declare
/// `UniformBroadcast` (bus), the rest stay per-recipient (stateful RNG,
/// mailbox-peeking lower-bound constructions, crash/straggler wrappers).
const ADVS: &[&str] = &[
    "unit",
    "fixed",
    "stage",
    "bursty:3",
    "random",
    "lbrand:4",
    "crash:25@burst",
    "straggler:50:2",
];

/// How many keys at the head of [`ADVS`] declare `UniformBroadcast`.
const UNIFORM: usize = 4;

const MAX_TICKS: u64 = 200_000;

/// Delegates every power of the wrapped adversary but keeps the default
/// `Delivery::PerRecipient`, so the simulator takes the mailbox engine.
struct ForcePerRecipient(Box<dyn Adversary>);

impl Adversary for ForcePerRecipient {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn schedule(
        &mut self,
        view: &SimView<'_>,
        procs: &[Box<dyn DoAllProcess>],
        mailboxes: &Mailboxes,
    ) -> Vec<bool> {
        self.0.schedule(view, procs, mailboxes)
    }

    fn message_delay(&mut self, view: &SimView<'_>, from: ProcId, to: ProcId) -> u64 {
        self.0.message_delay(view, from, to)
    }
}

fn run_with(
    algo: &str,
    adv: &str,
    p: usize,
    t: usize,
    d: u64,
    seed: u64,
    trace: TraceMode,
) -> (RunReport, bool) {
    let instance = Instance::new(p, t).expect("valid shape");
    let algorithm = build_algorithm(algo, instance, seed).expect("valid algo key");
    let spec = AdversarySpec::parse(adv).expect("valid adversary key");
    let adversary = build_adversary(&spec, p, t, d, seed, MAX_TICKS);
    let (report, trace_out) = Simulation::builder(instance)
        .procs(algorithm.spawn(instance))
        .adversary(adversary)
        .max_ticks(MAX_TICKS)
        .trace(trace)
        .build()
        .run_traced();
    (report, trace_out.is_some())
}

/// The property below compares the bus with the mailbox engine only if
/// the keys it draws really run on the bus.
#[test]
fn uniform_adversaries_declare_uniform_broadcast() {
    for (i, adv) in ADVS.iter().enumerate() {
        let spec = AdversarySpec::parse(adv).expect("valid adversary key");
        let delivery = build_adversary(&spec, 8, 32, 4, 0, MAX_TICKS).delivery();
        assert_eq!(
            delivery == Delivery::UniformBroadcast,
            i < UNIFORM,
            "{adv} declares {delivery:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 1: `TraceMode::Off` and `TraceMode::Buffered` agree on every
    /// field of the report, whatever the algorithm, adversary, shape, and
    /// seed.
    #[test]
    fn trace_off_and_buffered_reports_identical(
        algo_idx in 0..ALGOS.len(),
        adv_idx in 0..ADVS.len(),
        p in 2usize..=12,
        t_mult in 1usize..=6,
        d in 1u64..=6,
        seed in 0u64..1_000,
    ) {
        let algo = ALGOS[algo_idx];
        let adv = ADVS[adv_idx];
        let t = p * t_mult;
        let (off, had_trace_off) = run_with(algo, adv, p, t, d, seed, TraceMode::Off);
        let (buffered, had_trace_buf) =
            run_with(algo, adv, p, t, d, seed, TraceMode::Buffered(1 << 20));
        prop_assert!(!had_trace_off);
        prop_assert!(had_trace_buf);
        prop_assert_eq!(off, buffered, "tracing perturbed {}/{}", algo, adv);
    }

    /// Claim 3: an adversary declaring `UniformBroadcast` yields the same
    /// report on the bus as on the forced per-recipient engine.
    #[test]
    fn uniform_broadcast_equals_forced_per_recipient(
        algo_idx in 0..ALGOS.len(),
        adv_idx in 0..UNIFORM,
        p in 2usize..=12,
        t_mult in 1usize..=6,
        d in 1u64..=6,
        seed in 0u64..1_000,
    ) {
        let (algo, adv) = (ALGOS[algo_idx], ADVS[adv_idx]);
        let t = p * t_mult;
        let instance = Instance::new(p, t).expect("valid shape");
        let spec = AdversarySpec::parse(adv).expect("valid adversary key");
        let adversary = || build_adversary(&spec, p, t, d, seed, MAX_TICKS);
        let run = |adversary: Box<dyn Adversary>| {
            Simulation::builder(instance)
                .procs(
                    build_algorithm(algo, instance, seed)
                        .expect("valid algo key")
                        .spawn(instance),
                )
                .adversary(adversary)
                .max_ticks(MAX_TICKS)
                .build()
                .run()
        };
        let bus = run(adversary());
        let per_recipient = run(Box::new(ForcePerRecipient(adversary())));
        prop_assert_eq!(bus, per_recipient, "the bus perturbed {}/{}", algo, adv);
    }

    /// Claim 2a: the recycled-arena `run_batch` equals per-replicate
    /// construction, report for report.
    #[test]
    fn run_batch_equals_fresh_simulations(
        algo_idx in 0..ALGOS.len(),
        adv_idx in 0..ADVS.len(),
        p in 2usize..=10,
        d in 1u64..=4,
        runs in 1u64..=5,
        seed_base in 0u64..1_000,
    ) {
        let algo = ALGOS[algo_idx];
        let adv = ADVS[adv_idx];
        let t = p * 4;
        let instance = Instance::new(p, t).expect("valid shape");
        let spec = AdversarySpec::parse(adv).expect("valid adversary key");

        let batched = Simulation::run_batch(
            instance,
            runs,
            MAX_TICKS,
            |k, procs| {
                procs.extend(
                    build_algorithm(algo, instance, seed_base + k)
                        .expect("valid algo key")
                        .spawn(instance),
                );
            },
            |k| build_adversary(&spec, p, t, d, seed_base + k, MAX_TICKS),
        );
        let fresh: Vec<RunReport> = (0..runs)
            .map(|k| {
                Simulation::builder(instance)
                    .procs(
                        build_algorithm(algo, instance, seed_base + k)
                            .expect("valid algo key")
                            .spawn(instance),
                    )
                    .adversary(build_adversary(&spec, p, t, d, seed_base + k, MAX_TICKS))
                    .max_ticks(MAX_TICKS)
                    .build()
                    .run()
            })
            .collect();
        prop_assert_eq!(batched, fresh, "arena leaked state in {}/{}", algo, adv);
    }

    /// Claim 2b: the sweep engine on top of `run_batch` is byte-identical
    /// across `--threads {1, 8}` × `--shard-size {1, auto}`.
    #[test]
    fn sweep_identical_across_threads_and_shards(
        algo_idx in 0..ALGOS.len(),
        adv_idx in 0..ADVS.len(),
        d in 1u64..=4,
        seed in 0u64..1_000,
    ) {
        let algo = ALGOS[algo_idx];
        let adv = ADVS[adv_idx];
        let grid = Grid::parse(&format!(
            "algos={algo} advs={adv} shapes=6x24 ds={d} seeds=6 seed={seed}"
        ))
        .expect("valid grid");
        let cells = grid.cells();
        let mut results = Vec::new();
        for threads in [1usize, 8] {
            for shard_size in [Some(1), None] {
                let cfg = SweepConfig {
                    threads,
                    shard_size,
                    max_ticks: MAX_TICKS,
                    ..SweepConfig::default()
                };
                results.push(run_cells(&cells, &cfg).expect("sweep runs"));
            }
        }
        for other in &results[1..] {
            prop_assert_eq!(&results[0], other, "thread/shard config changed results");
        }
    }
}
