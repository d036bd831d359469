//! Worker scheduling: one scoped OS thread per processor stepping its
//! state machine, plus the run orchestration that joins everything back
//! into a `RunReport`.
//!
//! Delivery is the simulator's rule on wall-clock time. A sender stamps
//! each envelope with its due time (now plus a seeded random share of
//! `max_delay`) and puts it on the recipient's channel at once; the
//! recipient keeps arrivals in a local `held` list and passes only the
//! due ones to `step` ([`take_due`]).
//!
//! [`crate::run`] validates the inputs (one state machine per processor,
//! legal crash budgets and pace overrides), so this module contains no
//! policy — only mechanism.

use crate::{RunOutcome, RuntimeConfig, RuntimeStats};
use doall_core::{BitSet, DoAllProcess, Instance, Message, ProcId, RunReport, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A message stamped with the instant its recipient may first read it.
type Envelope = (Instant, Message);

/// What every worker of one run reads, borrowed by its scoped thread.
struct Shared<'a> {
    config: &'a RuntimeConfig,
    body: &'a (dyn Fn(TaskId) + Sync),
    /// Processor `i`'s channel is `senders[i]`.
    senders: Vec<Sender<Envelope>>,
    /// Set once some worker knows every task is done; all then stop.
    done: AtomicBool,
    /// The tasks some body actually ran. Every update is one `insert`, so
    /// the set stays valid if a worker panics holding the lock: both lock
    /// sites recover a poisoned guard.
    ground_truth: Mutex<BitSet>,
    /// `None` when `start + timeout` is past what `Instant` can
    /// represent: the run then has no deadline.
    deadline: Option<Instant>,
}

/// Runs `procs` on `p` scoped OS threads until some processor knows all
/// tasks are done, the crash budgets stop everyone who could finish, or
/// the timeout fires. Inputs are assumed validated.
pub(crate) fn execute(
    instance: Instance,
    procs: Vec<Box<dyn DoAllProcess>>,
    config: &RuntimeConfig,
    body: &(dyn Fn(TaskId) + Sync),
) -> RunOutcome {
    let start = Instant::now();
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..instance.processors()).map(|_| channel()).unzip();
    let shared = Shared {
        config,
        body,
        senders,
        done: AtomicBool::new(false),
        ground_truth: Mutex::new(BitSet::new(instance.tasks())),
        deadline: start.checked_add(config.timeout),
    };
    let counts: Vec<(u64, u64, RuntimeStats)> = std::thread::scope(|scope| {
        let shared = &shared;
        let workers: Vec<_> = procs
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(pid, (proc_, rx))| scope.spawn(move || shared.worker(pid, proc_, &rx)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut stats = RuntimeStats::default();
    for (_, _, worker) in &counts {
        stats.crashed_drained += worker.crashed_drained;
        stats.max_crashed_backlog = stats.max_crashed_backlog.max(worker.max_crashed_backlog);
    }
    let all_done = shared
        .ground_truth
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .is_full();
    let completed = shared.done.load(Ordering::Acquire) && all_done;
    let sigma = completed.then(|| u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    let report = RunReport {
        work: counts.iter().map(|c| c.0).sum(),
        messages: counts.iter().map(|c| c.1).sum(),
        sigma,
        completed,
        work_per_processor: counts.iter().map(|c| c.0).collect(),
    };
    RunOutcome { report, stats }
}

impl Shared<'_> {
    /// Processor `pid`'s loop. Returns its steps, the messages it sent,
    /// and what it drained while crashed.
    fn worker(
        &self,
        pid: usize,
        mut proc_: Box<dyn DoAllProcess>,
        rx: &Receiver<Envelope>,
    ) -> (u64, u64, RuntimeStats) {
        let config = self.config;
        let p = self.senders.len();
        let budget = config.crash_after_steps.get(pid).copied().flatten();
        let pace = config
            .pace_overrides
            .get(pid)
            .copied()
            .flatten()
            .unwrap_or(config.step_interval);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(pid as u64));
        let (mut steps, mut sent, mut stats) = (0, 0, RuntimeStats::default());
        let mut held: Vec<Envelope> = Vec::new();
        let mut inbox: Vec<Message> = Vec::new();
        loop {
            let now = Instant::now();
            if self.done.load(Ordering::Acquire) || self.deadline.is_some_and(|d| now >= d) {
                break;
            }
            if budget.is_some_and(|b| steps >= b) {
                // Crashed: stop stepping, but drain and drop the channel
                // each wake, since peers keep sending into it. Never
                // reading a message is exactly the infinite-delay model.
                let batch = rx.try_iter().count() as u64;
                stats.crashed_drained += batch;
                stats.max_crashed_backlog = stats.max_crashed_backlog.max(batch);
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            held.extend(rx.try_iter());
            inbox.clear();
            take_due(&mut held, now, &mut inbox);
            let outcome = proc_.step(&inbox);
            steps += 1;
            if let Some(task) = outcome.performed {
                (self.body)(task);
                self.ground_truth
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(task.index());
            }
            if let Some(bits) = outcome.broadcast {
                let recipients: Vec<usize> = match outcome.targets {
                    Some(targets) => targets.into_iter().map(ProcId::index).collect(),
                    None => (0..p).collect(),
                };
                let sent_at = Instant::now();
                for to in recipients.into_iter().filter(|&to| to != pid && to < p) {
                    sent += 1;
                    let delay = config.max_delay.as_secs_f64() * rng.random::<f64>();
                    // A due time past what `Instant` can represent is
                    // never reached: the message stays in flight for
                    // good, so it is not sent.
                    let Some(due) = Duration::try_from_secs_f64(delay)
                        .ok()
                        .and_then(|delay| sent_at.checked_add(delay))
                    else {
                        continue;
                    };
                    let msg = Message::new(ProcId::new(pid), Arc::clone(&bits));
                    // A recipient that has left its loop has dropped its
                    // receiver; the send is moot.
                    let _ = self.senders[to].send((due, msg));
                }
            }
            if proc_.knows_all_done() {
                self.done.store(true, Ordering::Release);
                break;
            }
            if !pace.is_zero() {
                std::thread::sleep(pace);
            }
        }
        (steps, sent, stats)
    }
}

/// Moves every held envelope that is due at `now` into `inbox`, in the
/// order held, and keeps the later ones: the simulator's delivery rule on
/// wall-clock time.
fn take_due(held: &mut Vec<Envelope>, now: Instant, inbox: &mut Vec<Message>) {
    // Cloning a message bumps a reference count; `retain` drops the original.
    held.retain(|(due, msg)| {
        if *due <= now {
            inbox.push(msg.clone());
        }
        *due > now
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_due_moves_due_envelopes_and_holds_later_ones() {
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let from = |pid: usize| Message::new(ProcId::new(pid), BitSet::new(1));
        let senders =
            |msgs: Vec<&Message>| msgs.iter().map(|m| m.from().index()).collect::<Vec<_>>();
        let mut held = vec![
            (at(15), from(0)),
            (at(10), from(1)),
            (at(7), from(2)),
            (at(11), from(3)),
        ];
        let mut inbox = Vec::new();
        // Due exactly now (1) and overdue (2) move, in held order; the
        // later ones stay.
        take_due(&mut held, at(10), &mut inbox);
        assert_eq!(senders(inbox.iter().collect()), [1, 2]);
        assert_eq!(senders(held.iter().map(|e| &e.1).collect()), [0, 3]);
        // Nothing new is due yet.
        take_due(&mut held, at(10), &mut inbox);
        assert_eq!(senders(inbox.iter().collect()), [1, 2]);
        take_due(&mut held, at(11), &mut inbox);
        take_due(&mut held, at(20), &mut inbox);
        // Every envelope arrived exactly once.
        assert_eq!(senders(inbox.iter().collect()), [1, 2, 3, 0]);
        assert!(held.is_empty());
    }
}
