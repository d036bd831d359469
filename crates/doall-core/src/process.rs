//! The state-machine trait implemented by every Do-All algorithm.

use crate::{BitSet, Message, ProcId, TaskId};
use std::sync::Arc;

/// What a single local step did.
///
/// Per the work-accounting contract (crate docs), one step may perform at
/// most one task and submit at most one broadcast. The simulator uses
/// `performed` to maintain the *ground truth* of completed tasks (for σ
/// detection and correctness checking) and `broadcast` to hand the payload
/// to the network, where the adversary assigns delays.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepOutcome {
    /// Task performed during this step, if any.
    pub performed: Option<TaskId>,
    /// Progress bitmap submitted for sending, if any. With `targets ==
    /// None` this is a broadcast to all other processors (`p − 1`
    /// point-to-point messages); with `targets == Some(v)` it is a
    /// multicast to exactly `v` (|v| messages) — used by the
    /// message-throttled gossip variants (the paper's §7 asks for
    /// algorithms that also control message complexity). The payload is
    /// shared, never copied, by the network fan-out — see the
    /// shared-payload ownership rule in [`Message`]'s module docs.
    pub broadcast: Option<Arc<BitSet>>,
    /// Explicit recipients for `broadcast`; `None` means everyone else.
    /// Ignored when `broadcast` is `None`.
    pub targets: Option<Vec<ProcId>>,
}

impl StepOutcome {
    /// A step that only did internal computation (still one work unit).
    #[must_use]
    pub fn internal() -> Self {
        Self::default()
    }

    /// A step that performed `task` and broadcast nothing.
    #[must_use]
    pub fn perform(task: TaskId) -> Self {
        Self {
            performed: Some(task),
            ..Self::default()
        }
    }

    /// A step that performed `task` and submitted broadcast `bits`.
    #[must_use]
    pub fn perform_and_broadcast(task: TaskId, bits: impl Into<Arc<BitSet>>) -> Self {
        Self {
            performed: Some(task),
            broadcast: Some(bits.into()),
            targets: None,
        }
    }

    /// A step that only submitted broadcast `bits`.
    #[must_use]
    pub fn broadcast(bits: impl Into<Arc<BitSet>>) -> Self {
        Self {
            performed: None,
            broadcast: Some(bits.into()),
            targets: None,
        }
    }

    /// A step that performed `task` and multicast `bits` to exactly
    /// `targets` (the gossip primitive).
    #[must_use]
    pub fn perform_and_multicast(
        task: TaskId,
        bits: impl Into<Arc<BitSet>>,
        targets: Vec<ProcId>,
    ) -> Self {
        Self {
            performed: Some(task),
            broadcast: Some(bits.into()),
            targets: Some(targets),
        }
    }
}

/// A Do-All algorithm instance running on one processor, driven as a state
/// machine: each call to [`step`](Self::step) is one local step (one unit of
/// work).
///
/// # Contract
///
/// * `step` first incorporates `inbox` (messages delivered since the last
///   step; processing the inbox is free within the step, per the paper's
///   cost model), then takes one action.
/// * After [`knows_all_done`](Self::knows_all_done) returns `true` the
///   processor may halt; calling `step` again must be harmless (idempotent
///   no-op steps). Per Proposition 2.1, algorithms never halt *before*
///   knowing all tasks are complete.
/// * Implementations must be deterministic functions of their state and the
///   inbox. Randomized algorithms own a seeded RNG inside their state, so
///   cloning forks the random stream — the lower-bound adversary exploits
///   this to *peek* one step ahead, mirroring the omniscient adversary of
///   Theorem 3.4.
/// * The inbox is a *set of monotone payloads*, not a sequence: payloads
///   are knowledge sets merged by union (Section 5.1.2), so behaviour must
///   not depend on message order, multiplicity, or grouping. The delivery
///   engine relies on this — it may split one broadcast into `p − 1`
///   envelopes or coalesce several same-instant broadcasts into one
///   message whose payload is their union (see `doall-sim`'s
///   `Mailboxes`), and a processor may receive its own payload
///   reflected back within such a union. Either way the union of received
///   bits is identical.
///
/// The trait is object-safe; the simulator stores `Box<dyn DoAllProcess>`,
/// and [`clone_box`](Self::clone_box) supports the dry-run cloning used by
/// the Theorem 3.1 adversary.
pub trait DoAllProcess: Send {
    /// The processor this state machine runs on.
    fn pid(&self) -> ProcId;

    /// Executes one local step: merge `inbox`, then act.
    fn step(&mut self, inbox: &[Message]) -> StepOutcome;

    /// Whether this processor locally knows that every task is complete.
    fn knows_all_done(&self) -> bool;

    /// Clones the state machine behind the trait object.
    fn clone_box(&self) -> Box<dyn DoAllProcess>;
}

impl Clone for Box<dyn DoAllProcess> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal process used to exercise the trait-object machinery.
    #[derive(Clone)]
    struct OneShot {
        pid: ProcId,
        done: bool,
    }

    impl DoAllProcess for OneShot {
        fn pid(&self) -> ProcId {
            self.pid
        }

        fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
            if self.done {
                StepOutcome::internal()
            } else {
                self.done = true;
                StepOutcome::perform(TaskId::new(0))
            }
        }

        fn knows_all_done(&self) -> bool {
            self.done
        }

        fn clone_box(&self) -> Box<dyn DoAllProcess> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn boxed_clone_is_independent() {
        let mut a: Box<dyn DoAllProcess> = Box::new(OneShot {
            pid: ProcId::new(0),
            done: false,
        });
        let mut b = a.clone();
        assert_eq!(a.step(&[]).performed, Some(TaskId::new(0)));
        assert!(a.knows_all_done());
        assert!(!b.knows_all_done(), "clone did not advance");
        assert_eq!(b.step(&[]).performed, Some(TaskId::new(0)));
    }

    #[test]
    fn outcome_constructors() {
        let bits = BitSet::new(3);
        assert_eq!(StepOutcome::internal(), StepOutcome::default());
        assert_eq!(
            StepOutcome::perform(TaskId::new(1)).performed,
            Some(TaskId::new(1))
        );
        let o = StepOutcome::perform_and_broadcast(TaskId::new(2), bits.clone());
        assert!(o.performed.is_some() && o.broadcast.is_some());
        let o = StepOutcome::broadcast(bits);
        assert!(o.performed.is_none() && o.broadcast.is_some());
    }
}
