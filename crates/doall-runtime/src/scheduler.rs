//! Worker scheduling: one OS thread per processor stepping its state
//! machine against the transport, plus the run orchestration that joins
//! everything back into a `RunReport`.
//!
//! The scheduler assumes its inputs were validated by the [`crate::Runtime`]
//! builder (one state machine per processor, a legal crash schedule), so
//! it contains no policy — only mechanism.

use crate::fault::{CrashSchedule, RuntimeStats};
use crate::transport::{ChannelTransport, Outgoing};
use crate::{RuntimeConfig, TaskBody};
use doall_core::{BitSet, DoAllProcess, Instance, Message, ProcId, RunReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Runs `procs` on OS threads until some processor knows all tasks are
/// done, the crash schedule stops everyone who could finish, or the
/// timeout fires. Inputs are assumed validated.
pub(crate) fn execute(
    instance: Instance,
    procs: Vec<Box<dyn DoAllProcess>>,
    config: &RuntimeConfig,
    body: &Arc<TaskBody>,
    schedule: &CrashSchedule,
    pace_overrides: &[Option<Duration>],
) -> (RunReport, RuntimeStats) {
    let p = instance.processors();
    let t = instance.tasks();

    let done = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + config.timeout;
    let start = Instant::now();
    // Every update is one `insert`, so the set stays valid if a worker
    // panics holding the lock: both lock sites recover a poisoned guard.
    let ground_truth = Arc::new(Mutex::new(BitSet::new(t)));

    let mut transport =
        ChannelTransport::start(p, config.max_delay, config.seed, Arc::clone(&done));

    // Worker threads.
    let mut workers = Vec::with_capacity(p);
    for (pid, mut proc_) in procs.into_iter().enumerate() {
        let rx = transport.take_inbox(pid);
        let done = Arc::clone(&done);
        let truth = Arc::clone(&ground_truth);
        let to_router = transport.outgoing();
        let budget = schedule.budget(pid);
        let pace = pace_overrides
            .get(pid)
            .copied()
            .flatten()
            .unwrap_or(config.step_interval);
        let body = Arc::clone(body);
        workers.push(std::thread::spawn(move || {
            let mut steps: u64 = 0;
            let mut sent: u64 = 0;
            let mut drained: u64 = 0;
            let mut max_backlog: u64 = 0;
            let mut inbox: Vec<Message> = Vec::new();
            while !done.load(Ordering::Acquire) && Instant::now() < deadline {
                if budget.is_some_and(|b| steps >= b) {
                    // Crashed: stop stepping, but drain-and-drop the inbox
                    // each wake — the router keeps sending into this
                    // unbounded channel for the rest of the run, and
                    // before this drain a long run with a chatty peer
                    // grew the crashed processor's queue without bound.
                    // (A crashed processor never *reads* its messages;
                    // dropping them is exactly the infinite-delay model.)
                    let mut batch: u64 = 0;
                    while rx.try_recv().is_ok() {
                        batch += 1;
                    }
                    drained += batch;
                    max_backlog = max_backlog.max(batch);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                inbox.clear();
                while let Ok(m) = rx.try_recv() {
                    inbox.push(m);
                }
                let outcome = proc_.step(&inbox);
                steps += 1;
                if let Some(task) = outcome.performed {
                    body(task);
                    truth
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(task.index());
                }
                if let Some(bits) = outcome.broadcast {
                    let recipients: Vec<usize> = match outcome.targets {
                        Some(targets) => targets
                            .into_iter()
                            .map(ProcId::index)
                            .filter(|&to| to != pid && to < p)
                            .collect(),
                        None => (0..p).filter(|&to| to != pid).collect(),
                    };
                    for to in recipients {
                        sent += 1;
                        let _ = to_router.send(Outgoing {
                            to,
                            msg: Message::new(ProcId::new(pid), Arc::clone(&bits)),
                        });
                    }
                }
                if proc_.knows_all_done() {
                    done.store(true, Ordering::Release);
                    break;
                }
                if !pace.is_zero() {
                    std::thread::sleep(pace);
                }
            }
            (steps, sent, drained, max_backlog)
        }));
    }

    let mut work = 0u64;
    let mut messages = 0u64;
    let mut per_proc = Vec::with_capacity(p);
    let mut stats = RuntimeStats::default();
    for w in workers {
        #[expect(
            clippy::expect_used,
            reason = "propagating a worker panic is the designed failure mode"
        )]
        let (steps, sent, drained, max_backlog) = w.join().expect("worker panicked");
        work += steps;
        messages += sent;
        per_proc.push(steps);
        stats.crashed_drained += drained;
        stats.max_crashed_backlog = stats.max_crashed_backlog.max(max_backlog);
    }
    transport.shutdown();

    let all_done = ground_truth
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .is_full();
    let informed = done.load(Ordering::Acquire);
    let report = RunReport {
        work,
        messages,
        sigma: (informed && all_done)
            .then(|| u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)),
        completed: informed && all_done,
        work_per_processor: per_proc,
    };
    (report, stats)
}
