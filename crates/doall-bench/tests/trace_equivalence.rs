//! Property tests for four "must not perturb results" claims:
//!
//! 1. **Tracing is an observer.** A run built with `TraceMode::Off`
//!    (the monomorphized trace-free loop) and the same run built with
//!    `TraceMode::Buffered` produce identical [`RunReport`]s, for random
//!    algorithm × adversary × shape draws across both fan-out paths
//!    (uniform and per-recipient).
//! 2. **Arena recycling is invisible.** `Simulation::run_batch` (one
//!    recycled proc vector + mailbox arena across replicates) is
//!    byte-identical to constructing a fresh `Simulation` per replicate —
//!    and the sweep engine built on it is byte-identical across
//!    `--threads {1, 8}` × `--shard-size {1, auto}`.
//! 3. **`Delivery::UniformBroadcast` is recipient-oblivious.** Every
//!    adversary that declares it (and so has its broadcasts merged into
//!    one union per instant) gives the same [`RunReport`] when a wrapper
//!    forces per-recipient delays.
//! 4. **The broadcast calendar is exact.** Every run gives the same
//!    [`RunReport`] when each full broadcast is sent instead as a
//!    multicast to every other processor, which the simulator keeps as
//!    per-recipient envelopes.

use doall_bench::grid::{build_adversary, build_algorithm, AdversarySpec, Grid};
use doall_bench::sweep::{run_cells, SweepConfig};
use doall_core::{DoAllProcess, Instance, Message, ProcId, RunReport, StepOutcome};
use doall_sim::{Adversary, Delivery, Mailboxes, SimView, Simulation, TraceMode};
use proptest::prelude::*;

/// Algorithm keys that exercise every messaging pattern: broadcast-free,
/// full broadcast, and partial multicast (gossip).
const ALGOS: &[&str] = &[
    "soloall", "oblido", "da:3", "paran1", "paran2", "padet", "gossip:2",
];

/// Adversaries covering both fan-out paths: the first six declare
/// `UniformBroadcast` (one union per instant; the lower-bound
/// constructions peek at it), the rest stay per-recipient (stateful RNG,
/// crash/straggler wrappers).
const ADVS: &[&str] = &[
    "unit",
    "fixed",
    "stage",
    "bursty:3",
    "lbrand:4",
    "lb",
    "random",
    "crash:25@burst",
    "straggler:50:2",
];

/// How many keys at the head of [`ADVS`] declare `UniformBroadcast`.
const UNIFORM: usize = 6;

const MAX_TICKS: u64 = 200_000;

/// Delegates every power of the wrapped adversary but keeps the default
/// `Delivery::PerRecipient`, so the simulator asks for one delay per
/// recipient and keeps one group per distinct delay.
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

/// Sends each full broadcast of the wrapped process as a multicast to
/// every other processor: the same `p − 1` messages, kept as
/// per-recipient envelopes. A per-recipient adversary is asked the same
/// delays in the same order; a uniform one is asked once per recipient
/// instead of once per broadcast, which its promise makes equivalent.
struct AsMulticast {
    inner: Box<dyn DoAllProcess>,
    processors: usize,
}

impl DoAllProcess for AsMulticast {
    fn pid(&self) -> ProcId {
        self.inner.pid()
    }

    fn step(&mut self, inbox: &[Message]) -> StepOutcome {
        let mut outcome = self.inner.step(inbox);
        if outcome.broadcast.is_some() && outcome.targets.is_none() {
            let me = self.pid().index();
            outcome.targets = Some(
                (0..self.processors)
                    .filter(|&to| to != me)
                    .map(ProcId::new)
                    .collect(),
            );
        }
        outcome
    }

    fn knows_all_done(&self) -> bool {
        self.inner.knows_all_done()
    }

    fn clone_box(&self) -> Box<dyn DoAllProcess> {
        Box::new(AsMulticast {
            inner: self.inner.clone_box(),
            processors: self.processors,
        })
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

/// The property below compares the union with per-recipient delays only
/// if the keys it draws really declare `UniformBroadcast`.
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
    /// report with its broadcasts merged into unions as with forced
    /// per-recipient delays.
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
        let union = run(adversary());
        let per_recipient = run(Box::new(ForcePerRecipient(adversary())));
        prop_assert_eq!(union, per_recipient, "the union perturbed {}/{}", algo, adv);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Claim 4: every algorithm × adversary pair yields the same report
    /// from the calendar as from per-recipient envelopes. `p` reaches
    /// 140, so a slot can hold more than 128 groups: three blocks of
    /// recipient masks.
    #[test]
    fn calendar_equals_envelopes(
        p in 2usize..=140,
        t_mult in 1usize..=4,
        d in 1u64..=6,
        seed in 0u64..1_000,
    ) {
        let t = p * t_mult;
        let instance = Instance::new(p, t).expect("valid shape");
        for algo in ALGOS {
            for adv in ADVS {
                let spec = AdversarySpec::parse(adv).expect("valid adversary key");
                let run = |multicast: bool| {
                    let procs = build_algorithm(algo, instance, seed)
                        .expect("valid algo key")
                        .spawn(instance)
                        .into_iter()
                        .map(|inner| {
                            if multicast {
                                Box::new(AsMulticast { inner, processors: p })
                            } else {
                                inner
                            }
                        })
                        .collect();
                    Simulation::builder(instance)
                        .procs(procs)
                        .adversary(build_adversary(&spec, p, t, d, seed, MAX_TICKS))
                        .max_ticks(MAX_TICKS)
                        .build()
                        .run()
                };
                prop_assert_eq!(
                    run(false),
                    run(true),
                    "the calendar perturbed {}/{} at p={} t={} d={} seed={}",
                    algo, adv, p, t, d, seed
                );
            }
        }
    }
}
