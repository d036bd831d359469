//! Property-based tests for the simulator's building blocks.

use doall_core::{BitSet, Message, ProcId};
use doall_sim::adversary::{BurstyDelay, FixedDelay, RandomDelay, StageAligned};
use doall_sim::{Adversary, Mailboxes, SimView};
use proptest::prelude::*;

fn msg(from: usize) -> Message {
    Message::new(ProcId::new(from), BitSet::new(1))
}

proptest! {
    /// Mailboxes: peek is a non-destructive preview of drain, and
    /// messages are delivered exactly once, never early.
    #[test]
    fn mailbox_peek_drain_laws(
        deliveries in prop::collection::vec((0usize..4, 0u64..50), 0..40),
        probe in 0u64..60,
    ) {
        let mut boxes = Mailboxes::new(4);
        for &(to, at) in &deliveries {
            boxes.push(to, at, msg(0));
        }
        prop_assert_eq!(boxes.in_flight(), deliveries.len());
        for pid in 0..4 {
            let due_expected = deliveries
                .iter()
                .filter(|&&(to, at)| to == pid && at <= probe)
                .count();
            prop_assert_eq!(boxes.peek_due(pid, probe).len(), due_expected);
            let drained = boxes.drain_due(pid, probe);
            prop_assert_eq!(drained.len(), due_expected);
            prop_assert!(boxes.drain_due(pid, probe).is_empty(), "exactly once");
        }
        // What remains is exactly the not-yet-due messages.
        let later = deliveries.iter().filter(|&&(_, at)| at > probe).count();
        prop_assert_eq!(boxes.in_flight(), later);
    }

    /// Every delay-only adversary returns delays in [1, d], for any time.
    #[test]
    fn delay_adversaries_respect_bounds(
        d in 1u64..100,
        seed in any::<u64>(),
        times in prop::collection::vec(0u64..10_000, 1..50),
    ) {
        let done = BitSet::new(1);
        let mut advs: Vec<Box<dyn Adversary>> = vec![
            Box::new(FixedDelay::new(d)),
            Box::new(RandomDelay::new(d, seed)),
            Box::new(StageAligned::new(d)),
            Box::new(BurstyDelay::new(d, (d / 2).max(1))),
        ];
        for adv in &mut advs {
            for &now in &times {
                let view = SimView {
                    now,
                    processors: 2,
                    tasks: 1,
                    tasks_done: &done,
                };
                let delay = adv.message_delay(&view, ProcId::new(0), ProcId::new(1));
                prop_assert!(
                    (1..=d).contains(&delay),
                    "{}: delay {delay} outside [1, {d}] at now={now}",
                    adv.name()
                );
            }
        }
    }

    /// Stage-aligned deliveries always land exactly on stage boundaries.
    #[test]
    fn stage_aligned_lands_on_boundaries(d in 1u64..64, now in 0u64..10_000) {
        let done = BitSet::new(1);
        let mut adv = StageAligned::new(d);
        let view = SimView {
            now,
            processors: 2,
            tasks: 1,
            tasks_done: &done,
        };
        let delay = adv.message_delay(&view, ProcId::new(0), ProcId::new(1));
        prop_assert_eq!((now + delay) % d, 0);
        prop_assert!(delay >= 1 && delay <= d);
    }
}
