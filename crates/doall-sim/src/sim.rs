//! The simulation driver: executes a Do-All algorithm against an adversary
//! and produces a [`RunReport`].

use crate::adversary::Delivery;
use crate::trace::{NoTrace, Recorder};
use crate::{Adversary, Mailboxes, SimView, Trace, TraceEvent, TraceMode};
use doall_core::{
    BitSet, DoAllProcess, Instance, Message, MessageTally, ProcId, RunReport, WorkTally,
};
use std::sync::Arc;

/// Default safety cutoff: ticks after which a run is abandoned as
/// non-terminating (the adversary can always prevent termination by
/// freezing everyone; a report with `completed == false` is returned).
/// Override per run with [`SimulationBuilder::max_ticks`] — lower-bound
/// experiments shorten it, long sweeps raise it.
pub const DEFAULT_MAX_TICKS: u64 = 2_000_000;

/// A single execution of a Do-All algorithm under an adversary.
///
/// The driver advances global time one unit at a time. Each unit it asks
/// the adversary which processors complete a local step, delivers due
/// messages to exactly the stepping processors, executes their steps
/// (charging one work unit each), fans out any submitted broadcasts with
/// adversary-assigned delays (charging `p − 1` messages each), and checks
/// for σ: the first time at which all tasks have been performed *and* some
/// processor knows it. Work and messages are counted up to and including
/// time σ, matching Definitions 2.1 and 2.2.
///
/// Construct via [`Simulation::builder`]; tracing is opt-in through
/// [`TraceMode`], and the trace-free instantiation of the inner loop
/// contains no recording code at all.
///
/// # Example
///
/// ```
/// use doall_core::{DoAllProcess, Instance, Message, ProcId, StepOutcome, TaskId};
/// use doall_sim::{adversary::UnitDelay, Simulation};
///
/// // A one-processor "algorithm" that sweeps its tasks in order.
/// #[derive(Clone)]
/// struct Sweep { t: usize, next: usize }
/// impl DoAllProcess for Sweep {
///     fn pid(&self) -> ProcId { ProcId::new(0) }
///     fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
///         if self.next < self.t {
///             self.next += 1;
///             StepOutcome::perform(TaskId::new(self.next - 1))
///         } else {
///             StepOutcome::internal()
///         }
///     }
///     fn knows_all_done(&self) -> bool { self.next >= self.t }
///     fn clone_box(&self) -> Box<dyn DoAllProcess> { Box::new(self.clone()) }
/// }
///
/// let instance = Instance::new(1, 10).unwrap();
/// let report = Simulation::builder(instance)
///     .procs(vec![Box::new(Sweep { t: 10, next: 0 })])
///     .adversary(Box::new(UnitDelay))
///     .build()
///     .run();
/// assert!(report.completed);
/// assert_eq!(report.work, 10);
/// ```
pub struct Simulation {
    instance: Instance,
    procs: Vec<Box<dyn DoAllProcess>>,
    adversary: Box<dyn Adversary>,
    max_ticks: u64,
    trace: TraceMode,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("instance", &self.instance)
            .field("adversary", &self.adversary.name())
            .field("max_ticks", &self.max_ticks)
            .finish_non_exhaustive()
    }
}

/// Configures and constructs a [`Simulation`].
///
/// Obtained from [`Simulation::builder`]. `procs` and `adversary` are
/// mandatory; `max_ticks` defaults to [`DEFAULT_MAX_TICKS`] and `trace`
/// to [`TraceMode::Off`].
#[must_use = "call .build() to obtain a Simulation"]
pub struct SimulationBuilder {
    instance: Instance,
    procs: Option<Vec<Box<dyn DoAllProcess>>>,
    adversary: Option<Box<dyn Adversary>>,
    max_ticks: u64,
    trace: TraceMode,
}

impl std::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("instance", &self.instance)
            .field("max_ticks", &self.max_ticks)
            .finish_non_exhaustive()
    }
}

impl SimulationBuilder {
    /// The processor state machines, one per processor of the instance.
    pub fn procs(mut self, procs: Vec<Box<dyn DoAllProcess>>) -> Self {
        self.procs = Some(procs);
        self
    }

    /// The adversary driving schedules and message delays.
    pub fn adversary(mut self, adversary: Box<dyn Adversary>) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Tick cutoff after which the run is abandoned (returning
    /// `completed == false`). Defaults to [`DEFAULT_MAX_TICKS`].
    pub fn max_ticks(mut self, ticks: u64) -> Self {
        self.max_ticks = ticks;
        self
    }

    /// Event-trace mode. Defaults to [`TraceMode::Off`], which compiles
    /// to a trace-free inner loop.
    pub fn trace(mut self, mode: TraceMode) -> Self {
        self.trace = mode;
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `procs` or `adversary` was not provided, or if the
    /// number of processor state machines does not match the instance.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract of build()"
    )]
    pub fn build(self) -> Simulation {
        let procs = self.procs.expect("SimulationBuilder needs .procs(…)");
        let adversary = self
            .adversary
            .expect("SimulationBuilder needs .adversary(…)");
        assert_eq!(
            procs.len(),
            self.instance.processors(),
            "need exactly one state machine per processor"
        );
        Simulation {
            instance: self.instance,
            procs,
            adversary,
            max_ticks: self.max_ticks,
            trace: self.trace,
        }
    }
}

/// The recycled per-run scratch state: the mailboxes, the ground-truth
/// task set, each task's first-performed tick, the work tally, and the
/// inbox buffer. A batch resets one arena per replicate instead of
/// reallocating any of it.
struct SimArena {
    mailboxes: Mailboxes,
    tasks_done: BitSet,
    /// The tick at which each task was first performed (`u64::MAX`:
    /// not yet), which tells primary executions from secondary ones.
    first_performed: Vec<u64>,
    work: WorkTally,
    inbox: Vec<Message>,
}

impl SimArena {
    fn new() -> Self {
        Self {
            mailboxes: Mailboxes::new(0),
            tasks_done: BitSet::new(0),
            first_performed: Vec::new(),
            work: WorkTally::new(0),
            inbox: Vec::new(),
        }
    }

    fn reset(&mut self, processors: usize, tasks: usize) {
        self.mailboxes.reset(processors);
        if self.tasks_done.len() == tasks {
            self.tasks_done.clear();
        } else {
            self.tasks_done = BitSet::new(tasks);
        }
        self.first_performed.clear();
        self.first_performed.resize(tasks, u64::MAX);
        self.work.reset(processors);
        self.inbox.clear();
    }
}

impl Simulation {
    /// Starts building a simulation of `instance`. Provide the processor
    /// state machines and the adversary, then call
    /// [`build`](SimulationBuilder::build).
    pub fn builder(instance: Instance) -> SimulationBuilder {
        SimulationBuilder {
            instance,
            procs: None,
            adversary: None,
            max_ticks: DEFAULT_MAX_TICKS,
            trace: TraceMode::Off,
        }
    }

    /// Batch entry point: runs `runs` independent executions of the same
    /// instance, one per seed `0..runs`, each with its own processor set
    /// and adversary, and returns the reports in seed order.
    ///
    /// This is the building block of the sweep harness: a grid cell maps
    /// to one `run_batch` call whose reports are then aggregated (see
    /// [`crate::analysis::summarize`]). The factories receive the seed so
    /// randomized algorithms/adversaries derive their state from it —
    /// which is what makes batches reproducible and independent of any
    /// outer parallelism.
    ///
    /// `procs_for` *fills* a recycled vector rather than returning a
    /// fresh one, and every run reuses one arena (mailboxes, tallies,
    /// inbox scratch), so a batch's per-replicate
    /// allocations are only what the algorithms themselves allocate.
    /// Runs are untraced; reports are byte-identical to per-replicate
    /// construction via [`Simulation::builder`].
    ///
    /// # Panics
    ///
    /// Panics if a factory fills in the wrong number of processors (same
    /// contract as [`SimulationBuilder::build`]).
    #[must_use]
    pub fn run_batch(
        instance: Instance,
        runs: u64,
        max_ticks: u64,
        mut procs_for: impl FnMut(u64, &mut Vec<Box<dyn DoAllProcess>>),
        mut adversary_for: impl FnMut(u64) -> Box<dyn Adversary>,
    ) -> Vec<RunReport> {
        let mut arena = SimArena::new();
        let mut procs: Vec<Box<dyn DoAllProcess>> = Vec::new();
        (0..runs)
            .map(|seed| {
                procs.clear();
                procs_for(seed, &mut procs);
                let mut adversary = adversary_for(seed);
                execute(
                    instance,
                    &mut procs,
                    adversary.as_mut(),
                    max_ticks,
                    &mut arena,
                    &mut NoTrace,
                )
            })
            .collect()
    }

    /// Runs the execution to σ (or the tick cutoff) and returns the
    /// report. Use [`run_traced`](Self::run_traced) to also retrieve the
    /// trace.
    #[must_use]
    pub fn run(self) -> RunReport {
        self.run_traced().0
    }

    /// Runs the execution, returning the report and the trace (when a
    /// recording [`TraceMode`] was selected at build time).
    #[must_use]
    pub fn run_traced(mut self) -> (RunReport, Option<Trace>) {
        let mut arena = SimArena::new();
        let max_ticks = self.max_ticks;
        match self.trace {
            TraceMode::Off => {
                let report = execute(
                    self.instance,
                    &mut self.procs,
                    self.adversary.as_mut(),
                    max_ticks,
                    &mut arena,
                    &mut NoTrace,
                );
                (report, None)
            }
            TraceMode::Buffered(capacity) => {
                let mut trace = Trace::with_capacity(capacity);
                let report = execute(
                    self.instance,
                    &mut self.procs,
                    self.adversary.as_mut(),
                    max_ticks,
                    &mut arena,
                    &mut trace,
                );
                (report, Some(trace))
            }
            TraceMode::Recycled(ref mut buffer) => {
                let mut trace = std::mem::replace(buffer, Trace::with_capacity(0));
                trace.clear();
                let report = execute(
                    self.instance,
                    &mut self.procs,
                    self.adversary.as_mut(),
                    max_ticks,
                    &mut arena,
                    &mut trace,
                );
                (report, Some(trace))
            }
        }
    }
}

/// The inner loop, monomorphized over the recorder: the
/// [`TraceMode::Off`] instantiation (`R = NoTrace`) contains no event
/// construction or recording branches at all.
fn execute<R: Recorder>(
    instance: Instance,
    procs: &mut [Box<dyn DoAllProcess>],
    adversary: &mut dyn Adversary,
    max_ticks: u64,
    arena: &mut SimArena,
    rec: &mut R,
) -> RunReport {
    let p = instance.processors();
    let t = instance.tasks();
    assert_eq!(
        procs.len(),
        p,
        "need exactly one state machine per processor"
    );
    arena.reset(p, t);
    let delivery = adversary.delivery();
    let mut msgs = MessageTally::new();
    let (mut primary, mut secondary) = (0u64, 0u64);
    let mut sigma: Option<u64> = None;
    let mut now: u64 = 0;

    while now < max_ticks {
        let plan = {
            let view = SimView {
                now,
                processors: p,
                tasks: t,
                tasks_done: &arena.tasks_done,
            };
            adversary.schedule(&view, procs, &arena.mailboxes)
        };
        assert_eq!(plan.len(), p, "adversary must plan every processor");

        let mut informed: Option<ProcId> = None;
        #[allow(
            clippy::needless_range_loop,
            reason = "plan and procs are indexed in lockstep"
        )]
        for pid in 0..p {
            if !plan[pid] {
                continue;
            }
            arena.inbox.clear();
            arena.mailboxes.drain_due_into(pid, now, &mut arena.inbox);
            let outcome = procs[pid].step(&arena.inbox);
            arena.work.charge(pid);

            if let Some(task) = outcome.performed {
                arena.tasks_done.insert(task.index());
                // Primary iff nobody performed the task before this tick.
                let first = &mut arena.first_performed[task.index()];
                if *first >= now {
                    *first = now;
                    primary += 1;
                } else {
                    secondary += 1;
                }
            }
            if R::ENABLED {
                rec.record(TraceEvent::Step {
                    now,
                    pid: ProcId::new(pid),
                    performed: outcome.performed,
                    broadcast: outcome.broadcast.is_some(),
                });
            }
            if let Some(bits) = outcome.broadcast {
                let from = ProcId::new(pid);
                match outcome.targets {
                    None => {
                        // Full broadcast: `p − 1` messages charged, and
                        // the payload stored in the broadcast calendar.
                        let recipients = p - 1;
                        msgs.charge(recipients as u64);
                        if R::ENABLED {
                            rec.record(TraceEvent::Send {
                                now,
                                from,
                                recipients,
                            });
                        }
                        if recipients > 0 {
                            match delivery {
                                Delivery::UniformBroadcast => {
                                    // One delay per broadcast (the
                                    // adversary promised it is
                                    // recipient-oblivious), merged into
                                    // its instant's union.
                                    let view = SimView {
                                        now,
                                        processors: p,
                                        tasks: t,
                                        tasks_done: &arena.tasks_done,
                                    };
                                    let delay = adversary.message_delay(
                                        &view,
                                        from,
                                        ProcId::new((pid + 1) % p),
                                    );
                                    assert!(
                                        delay >= 1,
                                        "message delays are at least one time unit"
                                    );
                                    arena.mailboxes.broadcast_uniform(from, now + delay, &bits);
                                }
                                Delivery::PerRecipient => {
                                    let view = SimView {
                                        now,
                                        processors: p,
                                        tasks: t,
                                        tasks_done: &arena.tasks_done,
                                    };
                                    arena.mailboxes.broadcast_per_recipient(from, &bits, |to| {
                                        let delay =
                                            adversary.message_delay(&view, from, ProcId::new(to));
                                        assert!(
                                            delay >= 1,
                                            "message delays are at least one time unit"
                                        );
                                        now + delay
                                    });
                                }
                            }
                        }
                    }
                    Some(targets) => {
                        // Multicast (gossip): recipient sets are partial,
                        // so delivery is always materialized exactly.
                        let recipients = targets
                            .iter()
                            .filter(|to| to.index() != pid && to.index() < p)
                            .count();
                        msgs.charge(recipients as u64);
                        if R::ENABLED {
                            rec.record(TraceEvent::Send {
                                now,
                                from,
                                recipients,
                            });
                        }
                        for to in targets
                            .into_iter()
                            .map(ProcId::index)
                            .filter(|&to| to != pid && to < p)
                        {
                            let view = SimView {
                                now,
                                processors: p,
                                tasks: t,
                                tasks_done: &arena.tasks_done,
                            };
                            let delay = adversary.message_delay(&view, from, ProcId::new(to));
                            assert!(delay >= 1, "message delays are at least one time unit");
                            arena.mailboxes.push(
                                to,
                                now + delay,
                                Message::new(from, Arc::clone(&bits)),
                            );
                        }
                    }
                }
            }
            if informed.is_none() && procs[pid].knows_all_done() {
                informed = Some(ProcId::new(pid));
            }
        }
        arena.mailboxes.end_instant(now);

        if let Some(pid) = informed {
            // σ per Definition 2.1: every step completed at time σ is
            // still charged (the loop above ran the whole tick).
            assert!(
                arena.tasks_done.is_full(),
                "processor {pid} claims completion but tasks remain — algorithm bug"
            );
            sigma = Some(now);
            if R::ENABLED {
                rec.record(TraceEvent::Completed { now, informed: pid });
            }
            break;
        }
        now += 1;
    }

    RunReport {
        work: arena.work.total(),
        messages: msgs.total(),
        sigma,
        completed: arena.tasks_done.is_full() && sigma.is_some(),
        work_per_processor: arena.work.per_processor().to_vec(),
        primary_executions: primary,
        secondary_executions: secondary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FixedDelay, UnitDelay};
    use doall_core::{StepOutcome, TaskId};

    /// Performs tasks `start..t` then nothing; knows completion only of its
    /// own share — used to test σ semantics with communication-free procs.
    #[derive(Clone)]
    struct Sweep {
        pid: ProcId,
        next: usize,
        t: usize,
    }

    impl DoAllProcess for Sweep {
        fn pid(&self) -> ProcId {
            self.pid
        }
        fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
            if self.next < self.t {
                let z = TaskId::new(self.next);
                self.next += 1;
                StepOutcome::perform(z)
            } else {
                StepOutcome::internal()
            }
        }
        fn knows_all_done(&self) -> bool {
            self.next >= self.t
        }
        fn clone_box(&self) -> Box<dyn DoAllProcess> {
            Box::new(self.clone())
        }
    }

    fn sweep_procs(p: usize, t: usize) -> Vec<Box<dyn DoAllProcess>> {
        (0..p)
            .map(|i| {
                Box::new(Sweep {
                    pid: ProcId::new(i),
                    next: 0,
                    t,
                }) as Box<dyn DoAllProcess>
            })
            .collect()
    }

    fn sim(
        instance: Instance,
        procs: Vec<Box<dyn DoAllProcess>>,
        adversary: Box<dyn Adversary>,
    ) -> Simulation {
        Simulation::builder(instance)
            .procs(procs)
            .adversary(adversary)
            .build()
    }

    #[test]
    fn solo_sweep_work_equals_t() {
        let instance = Instance::new(1, 25).unwrap();
        let report = sim(instance, sweep_procs(1, 25), Box::new(UnitDelay)).run();
        assert!(report.completed);
        assert_eq!(report.work, 25);
        assert_eq!(report.sigma, Some(24), "σ is the tick of the last task");
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn parallel_sweeps_charge_everyone_until_sigma() {
        // Two identical sweeps: both finish at tick t−1, work = 2t.
        let instance = Instance::new(2, 10).unwrap();
        let report = sim(instance, sweep_procs(2, 10), Box::new(UnitDelay)).run();
        assert!(report.completed);
        assert_eq!(report.work, 20);
        assert_eq!(report.work_per_processor, vec![10, 10]);
    }

    #[test]
    fn incomplete_run_reports_honestly() {
        /// Never performs anything.
        #[derive(Clone)]
        struct Idler;
        impl DoAllProcess for Idler {
            fn pid(&self) -> ProcId {
                ProcId::new(0)
            }
            fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
                StepOutcome::internal()
            }
            fn knows_all_done(&self) -> bool {
                false
            }
            fn clone_box(&self) -> Box<dyn DoAllProcess> {
                Box::new(Idler)
            }
        }
        let instance = Instance::new(1, 3).unwrap();
        let report = Simulation::builder(instance)
            .procs(vec![Box::new(Idler)])
            .adversary(Box::new(UnitDelay))
            .max_ticks(50)
            .build()
            .run();
        assert!(!report.completed);
        assert_eq!(report.sigma, None);
        assert_eq!(report.work, 50, "idle steps are still charged");
    }

    #[test]
    fn broadcast_counts_p_minus_one_and_delivers() {
        /// Proc 0 performs the single task and broadcasts; proc 1 waits to
        /// learn of it.
        #[derive(Clone)]
        struct Teller {
            pid: ProcId,
            sent: bool,
        }
        impl DoAllProcess for Teller {
            fn pid(&self) -> ProcId {
                self.pid
            }
            fn step(&mut self, inbox: &[Message]) -> StepOutcome {
                if self.pid.index() == 0 {
                    if !self.sent {
                        self.sent = true;
                        let mut bits = BitSet::new(1);
                        bits.insert(0);
                        return StepOutcome::perform_and_broadcast(TaskId::new(0), bits);
                    }
                } else if inbox.iter().any(|m| m.bits().contains(0)) {
                    self.sent = true; // "learned"
                }
                StepOutcome::internal()
            }
            fn knows_all_done(&self) -> bool {
                self.sent
            }
            fn clone_box(&self) -> Box<dyn DoAllProcess> {
                Box::new(self.clone())
            }
        }
        let instance = Instance::new(3, 1).unwrap();
        let procs: Vec<Box<dyn DoAllProcess>> = (0..3)
            .map(|i| {
                Box::new(Teller {
                    pid: ProcId::new(i),
                    sent: false,
                }) as Box<dyn DoAllProcess>
            })
            .collect();
        let report = sim(instance, procs, Box::new(FixedDelay::new(4))).run();
        assert!(report.completed);
        assert_eq!(report.messages, 2, "one broadcast to p−1 = 2 recipients");
        // Proc 0 knows at tick 0 → σ = 0 and only tick 0 is charged.
        assert_eq!(report.sigma, Some(0));
        assert_eq!(report.work, 3);
    }

    #[test]
    fn fixed_delay_defers_knowledge() {
        /// Only proc 0 performs; procs learn via broadcast; completion
        /// requires a non-performing proc to know (proc 0 never "knows").
        #[derive(Clone)]
        struct OneWay {
            pid: ProcId,
            done_seen: bool,
            performed: bool,
        }
        impl DoAllProcess for OneWay {
            fn pid(&self) -> ProcId {
                self.pid
            }
            fn step(&mut self, inbox: &[Message]) -> StepOutcome {
                if self.pid.index() == 0 {
                    if !self.performed {
                        self.performed = true;
                        let mut bits = BitSet::new(1);
                        bits.insert(0);
                        return StepOutcome::perform_and_broadcast(TaskId::new(0), bits);
                    }
                } else if inbox.iter().any(|m| m.bits().contains(0)) {
                    self.done_seen = true;
                }
                StepOutcome::internal()
            }
            fn knows_all_done(&self) -> bool {
                self.done_seen
            }
            fn clone_box(&self) -> Box<dyn DoAllProcess> {
                Box::new(self.clone())
            }
        }
        let mk = || {
            (0..2)
                .map(|i| {
                    Box::new(OneWay {
                        pid: ProcId::new(i),
                        done_seen: false,
                        performed: false,
                    }) as Box<dyn DoAllProcess>
                })
                .collect::<Vec<_>>()
        };
        let instance = Instance::new(2, 1).unwrap();
        let fast = sim(instance, mk(), Box::new(FixedDelay::new(1))).run();
        let slow = sim(instance, mk(), Box::new(FixedDelay::new(10))).run();
        // Broadcast at tick 0; delivered at tick d; receiver knows at d.
        assert_eq!(fast.sigma, Some(1));
        assert_eq!(slow.sigma, Some(10));
        assert!(slow.work > fast.work, "delay inflates charged work");
    }

    #[test]
    fn trace_records_key_events() {
        let instance = Instance::new(1, 2).unwrap();
        let (report, trace) = Simulation::builder(instance)
            .procs(sweep_procs(1, 2))
            .adversary(Box::new(UnitDelay))
            .trace(TraceMode::Buffered(64))
            .build()
            .run_traced();
        assert!(report.completed);
        let trace = trace.unwrap();
        let steps = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Step { .. }))
            .count();
        assert_eq!(steps, 2);
        assert!(matches!(
            trace.events().last(),
            Some(TraceEvent::Completed { now: 1, .. })
        ));
    }

    #[test]
    fn recycled_trace_keeps_capacity_and_is_reused() {
        let instance = Instance::new(1, 2).unwrap();
        let buffer = Trace::with_capacity(64);
        let (_, trace) = Simulation::builder(instance)
            .procs(sweep_procs(1, 2))
            .adversary(Box::new(UnitDelay))
            .trace(TraceMode::Recycled(buffer))
            .build()
            .run_traced();
        let trace = trace.unwrap();
        assert_eq!(trace.capacity(), 64);
        assert!(!trace.events().is_empty());
        // Hand it straight back in: cleared on entry, same capacity out.
        let (_, trace2) = Simulation::builder(instance)
            .procs(sweep_procs(1, 2))
            .adversary(Box::new(UnitDelay))
            .trace(TraceMode::Recycled(trace))
            .build()
            .run_traced();
        let trace2 = trace2.unwrap();
        assert_eq!(trace2.capacity(), 64);
        assert_eq!(trace2.dropped(), 0);
    }

    #[test]
    fn off_and_buffered_produce_identical_reports() {
        let instance = Instance::new(4, 16).unwrap();
        let off = Simulation::builder(instance)
            .procs(sweep_procs(4, 16))
            .adversary(Box::new(FixedDelay::new(3)))
            .build()
            .run();
        let (buffered, trace) = Simulation::builder(instance)
            .procs(sweep_procs(4, 16))
            .adversary(Box::new(FixedDelay::new(3)))
            .trace(TraceMode::Buffered(1 << 16))
            .build()
            .run_traced();
        assert_eq!(off, buffered, "tracing must never perturb a run");
        assert!(trace.is_some());
    }

    #[test]
    fn run_batch_returns_reports_in_seed_order() {
        let instance = Instance::new(1, 5).unwrap();
        let reports = Simulation::run_batch(
            instance,
            3,
            1_000,
            |_, procs| procs.extend(sweep_procs(1, 5)),
            |seed| Box::new(FixedDelay::new(seed + 1)),
        );
        assert_eq!(reports.len(), 3);
        // Communication-free sweeps: every seed yields the same report.
        assert!(reports.iter().all(|r| r.completed && r.work == 5));
    }

    #[test]
    fn run_batch_matches_per_replicate_construction() {
        let instance = Instance::new(2, 8).unwrap();
        let batched = Simulation::run_batch(
            instance,
            4,
            1_000,
            |_, procs| procs.extend(sweep_procs(2, 8)),
            |seed| Box::new(FixedDelay::new(seed + 1)),
        );
        let individual: Vec<RunReport> = (0..4)
            .map(|seed| {
                Simulation::builder(instance)
                    .procs(sweep_procs(2, 8))
                    .adversary(Box::new(FixedDelay::new(seed + 1)))
                    .max_ticks(1_000)
                    .build()
                    .run()
            })
            .collect();
        assert_eq!(batched, individual, "arena recycling must not leak state");
    }

    #[test]
    fn determinism_same_procs_same_adversary() {
        let instance = Instance::new(2, 8).unwrap();
        let a = sim(instance, sweep_procs(2, 8), Box::new(FixedDelay::new(3))).run();
        let b = sim(instance, sweep_procs(2, 8), Box::new(FixedDelay::new(3))).run();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one state machine per processor")]
    fn proc_count_mismatch_panics() {
        let instance = Instance::new(2, 1).unwrap();
        let _ = sim(instance, sweep_procs(1, 1), Box::new(UnitDelay));
    }

    #[test]
    #[should_panic(expected = "needs .adversary(")]
    fn missing_adversary_panics() {
        let instance = Instance::new(1, 1).unwrap();
        let _ = Simulation::builder(instance)
            .procs(sweep_procs(1, 1))
            .build();
    }
}
