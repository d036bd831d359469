//! The adversary interface and the adversary suite.
//!
//! The paper's adversary (Section 2.2) is omniscient and adaptive: during
//! the execution it chooses, per time unit, which processors complete a
//! local step (arbitrary step delays; crash = infinite delay, with at least
//! one survivor) and assigns each message a delay of at most `d` units. The
//! [`Adversary`] trait mirrors those two powers exactly; implementations
//! receive read access to processor states (and may clone/dry-run them —
//! this is how the Theorem 3.1 and 3.4 lower-bound adversaries are built)
//! and to pending mailboxes.

mod basic;
mod bursty;
mod crash;
mod lb_random;
mod lower_bound;
mod slow;

pub use basic::{FixedDelay, RandomDelay, StageAligned, UnitDelay};
pub use bursty::{BurstyDelay, Stragglers};
pub use crash::CrashSchedule;
pub use lb_random::RandomizedLbAdversary;
pub use lower_bound::LowerBoundAdversary;
pub use slow::{RandomSubset, RoundRobin};

use crate::{Mailboxes, SimView};
use doall_core::{DoAllProcess, ProcId};

/// How an adversary exercises its delay power — which delivery engine
/// the simulator may use.
///
/// This is a *promise made by the adversary*: declaring
/// [`UniformBroadcast`](Self::UniformBroadcast) without honouring its
/// contract silently changes executions. The simulator does not check it
/// at run time; the property test
/// `uniform_broadcast_equals_forced_per_recipient` in
/// `crates/doall-bench/tests/trace_equivalence.rs` checks it for every
/// uniform adversary key against the forced per-recipient engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Delivery {
    /// The general case (and the default): delays may differ per
    /// recipient, or depend on adversary state advanced per
    /// [`message_delay`](Adversary::message_delay) call (seeded RNGs), or
    /// the adversary inspects pending mailboxes when scheduling. The
    /// simulator materializes one in-flight message per recipient and
    /// calls `message_delay` once per `(from, to)` pair, in recipient
    /// order.
    #[default]
    PerRecipient,
    /// The adversary promises that (1) `message_delay` is a pure
    /// function of the view and the sender — the same value for every
    /// recipient of a broadcast, with no per-call state advanced — and
    /// (2) its scheduling never reads the mailboxes. The simulator may
    /// then call `message_delay` once per broadcast and deliver full
    /// broadcasts through the shared [`crate::BroadcastBus`], which
    /// stores each payload once and coalesces same-instant broadcasts by
    /// union instead of materializing `p − 1` envelopes. Work, message,
    /// and σ accounting are unchanged — only the delivery engine is.
    UniformBroadcast,
}

/// An omniscient, adaptive d-adversary.
///
/// Both powers default to the benign choice (everyone steps, minimal
/// delay 1), so simple adversaries override only one method.
pub trait Adversary: Send {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &str {
        "adversary"
    }

    /// Which processors complete a local step at time `view.now`.
    ///
    /// `procs` are the live processor states (the adversary may clone and
    /// dry-run them — the simulator will execute the *real* step on the
    /// originals afterwards); `mailboxes` hold the in-flight messages, so
    /// the adversary can see what each processor is about to receive.
    ///
    /// Returning `false` for a processor models a delay between its local
    /// clock ticks; returning `false` forever models a crash. The simulator
    /// never delivers messages to or charges work for non-stepping
    /// processors at that tick.
    fn schedule(
        &mut self,
        view: &SimView<'_>,
        procs: &[Box<dyn DoAllProcess>],
        mailboxes: &Mailboxes,
    ) -> Vec<bool> {
        let _ = (procs, mailboxes);
        vec![true; view.processors]
    }

    /// The delay, in global time units (`≥ 1`), of a message submitted at
    /// `view.now` from `from` to `to`. The simulator asserts `≥ 1`. A
    /// *d-adversary* must also return values `≤ d`; that half is the
    /// adversary's contract and is checked nowhere, and no report records
    /// the largest delay returned (adding `max_delay` to `RunReport` is an
    /// open item in ROADMAP.md, "Model contracts checked, not promised").
    fn message_delay(&mut self, view: &SimView<'_>, from: ProcId, to: ProcId) -> u64 {
        let _ = (view, from, to);
        1
    }

    /// Which delivery engine this adversary's promises allow (see
    /// [`Delivery`]). Defaults to the fully general
    /// [`Delivery::PerRecipient`]; adversaries whose delays are
    /// recipient-oblivious and stateless, and whose scheduling ignores
    /// the mailboxes, should return
    /// [`Delivery::UniformBroadcast`] to unlock the zero-copy broadcast
    /// bus. Wrappers that delegate `message_delay` to an inner adversary
    /// must delegate this too.
    fn delivery(&self) -> Delivery {
        Delivery::PerRecipient
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doall_core::BitSet;

    struct Defaulted;
    impl Adversary for Defaulted {}

    #[test]
    fn default_schedule_steps_everyone() {
        let done = BitSet::new(3);
        let view = SimView {
            now: 0,
            processors: 4,
            tasks: 3,
            tasks_done: &done,
        };
        let mut a = Defaulted;
        let plan = a.schedule(&view, &[], &Mailboxes::new(4));
        assert_eq!(plan, vec![true; 4]);
        assert_eq!(a.message_delay(&view, ProcId::new(0), ProcId::new(1)), 1);
        assert_eq!(a.name(), "adversary");
    }
}
