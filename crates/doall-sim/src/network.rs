//! In-flight message storage with adversary-assigned delivery times.
//!
//! [`Mailboxes`] keeps two structures. Multicasts (and broadcasts a
//! processor missed, see below) sit in per-recipient lists keyed by
//! delivery instant — the exact model. Full broadcasts go to a
//! *calendar* of per-instant slots and are stored once, never as `p − 1`
//! envelopes:
//!
//! - a broadcast whose delay is the same for every recipient
//!   ([`Delivery::UniformBroadcast`](crate::adversary::Delivery)) joins
//!   its instant's union, so broadcasts due at one instant are delivered
//!   as one message;
//! - a broadcast whose delays differ per recipient is stored once per
//!   distinct delay, with a bitmap of the recipients that delay reaches:
//!   at most `min(d, p − 1)` groups per broadcast.
//!
//! Coalescing is sound because payloads are monotone bitmaps merged by
//! union (the paper's Section 5.1.2 observation; see the
//! [`doall_core::DoAllProcess`] inbox contract). The calendar holds only
//! the instants from the current one to the furthest delay: when an
//! instant ends, each processor that did not receive it gets its share
//! copied into its list, and the slot is reused.

use doall_core::{BitSet, Message, ProcId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How many instants past the current one the calendar holds. A
/// broadcast due later than that (a delay far above any `d` a grid
/// runs) is stored as per-recipient envelopes instead, so an extreme
/// delay costs envelopes, never a calendar that long.
const HORIZON: u64 = 1 << 16;

/// Per-processor mailboxes of in-flight messages, keyed by delivery time.
///
/// A message sent at global time `τ` with adversary-assigned delay `δ ≥ 1`
/// is *deliverable* from time `τ + δ` on: it enters the recipient's inbox at
/// the recipient's first completed step at a time `≥ τ + δ` (the paper:
/// "the receiver can process any such message later, according to its own
/// local clock"). Channels are reliable — nothing is lost or corrupted.
///
/// A processor receives its list entries, oldest instant first, and then
/// the calendar's broadcasts for it: the union, then the groups holding
/// it. Each kind keeps its submission order (the simulator submits in
/// pid order).
#[derive(Debug, Default)]
pub struct Mailboxes {
    boxes: Vec<BTreeMap<u64, Vec<Message>>>,
    /// Emptied per-instant vectors recycled between `drain_due_into` and
    /// `push`, so a steady message flow stops allocating once warm.
    spare: Vec<Vec<Message>>,
    /// The broadcast calendar: `calendar[i]` holds the full broadcasts
    /// due at instant `base + i`.
    calendar: VecDeque<Slot>,
    /// The earliest instant not yet ended by
    /// [`end_instant`](Self::end_instant).
    base: u64,
    /// Per processor: the first calendar instant it has not received.
    received: Vec<u64>,
    /// One past the latest instant any processor has received. A
    /// broadcast due earlier would be missed by that processor, so it
    /// is stored as envelopes instead.
    open_from: u64,
    /// Ended slots, emptied and kept for reuse.
    spare_slots: Vec<Slot>,
    /// Per calendar offset: the last fan-out that opened a group in
    /// that slot, and the group's index there — the current fan-out's
    /// groups, looked up by delivery offset.
    open_groups: Vec<(u64, usize)>,
    /// Counts the per-recipient-delay fan-outs.
    fanouts: u64,
}

/// The full broadcasts due at one instant.
#[derive(Debug, Default)]
struct Slot {
    /// The union of the uniform-delay broadcasts due at this instant.
    /// The first one is stored as-is; each later one is merged through
    /// [`Arc::make_mut`], which copies only while someone else (a
    /// sender that kept its `Arc`) still holds the payload, so a held
    /// payload never changes.
    union: Option<Arc<BitSet>>,
    /// The senders merged into `union`, in submission order. The first
    /// stamps the delivered message.
    senders: Vec<ProcId>,
    /// Broadcasts with per-recipient delays, one group per broadcast
    /// and distinct delay, in submission order.
    groups: Vec<Message>,
    /// The groups' recipient sets, in blocks of 64 groups with one word
    /// per processor: bit `g % 64` of `masks[(g / 64) · p + r]` is set if
    /// group `g` is for processor `r`. A recipient reads one word per
    /// 64 groups, and only the groups it receives cost more.
    masks: Vec<u64>,
}

impl Slot {
    fn is_empty(&self) -> bool {
        self.union.is_none() && self.groups.is_empty()
    }

    /// Calls `hit` with each group whose recipient set holds `pid`, in
    /// order; `processors` is the block width.
    fn for_groups_of(&self, pid: usize, processors: usize, mut hit: impl FnMut(&Message)) {
        for (block, groups) in self.groups.chunks(64).enumerate() {
            let mut hits = self.masks[block * processors + pid];
            while hits != 0 {
                hit(&groups[hits.trailing_zeros() as usize]);
                hits &= hits - 1;
            }
        }
    }

    /// Appends this slot's messages for `pid` to `out`: the union, then
    /// each group whose recipient set holds `pid`. Every message shares
    /// the stored payload.
    fn deliver_into(&self, pid: usize, processors: usize, out: &mut Vec<Message>) {
        if let (Some(union), Some(&first)) = (&self.union, self.senders.first()) {
            out.push(Message::new(first, Arc::clone(union)));
        }
        self.for_groups_of(pid, processors, |group| out.push(group.clone()));
    }

    /// Adds a group with no recipients yet and returns its index.
    fn open_group(&mut self, group: Message, processors: usize) -> usize {
        let g = self.groups.len();
        if g % 64 == 0 {
            self.masks.resize(self.masks.len() + processors, 0);
        }
        self.groups.push(group);
        g
    }

    /// Drops every payload, keeping the allocations.
    fn clear(&mut self) {
        self.union = None;
        self.senders.clear();
        self.groups.clear();
        self.masks.clear();
    }
}

/// The slot at `offset`, growing `calendar` with reused slots up to it.
fn slot_at<'a>(
    calendar: &'a mut VecDeque<Slot>,
    spare: &mut Vec<Slot>,
    offset: usize,
) -> &'a mut Slot {
    if calendar.len() <= offset {
        calendar.resize_with(offset + 1, || spare.pop().unwrap_or_default());
    }
    &mut calendar[offset]
}

impl Mailboxes {
    /// Creates empty mailboxes for `p` processors.
    #[must_use]
    pub fn new(processors: usize) -> Self {
        let mut boxes = Self::default();
        boxes.reset(processors);
        boxes
    }

    /// Empties every mailbox for `processors` processors, recycling the
    /// existing allocations — the arena-reset primitive for batched runs.
    pub fn reset(&mut self, processors: usize) {
        for mbox in &mut self.boxes {
            for (_, mut v) in std::mem::take(mbox) {
                v.clear();
                self.spare.push(v);
            }
        }
        self.boxes.resize_with(processors, BTreeMap::new);
        self.boxes.truncate(processors);
        for mut slot in self.calendar.drain(..) {
            slot.clear();
            self.spare_slots.push(slot);
        }
        self.base = 0;
        self.open_from = 0;
        self.received.clear();
        self.received.resize(processors, 0);
    }

    /// Number of processors.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.boxes.len()
    }

    /// Enqueues `msg` for processor `to`, deliverable at `deliver_at`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn push(&mut self, to: usize, deliver_at: u64, msg: Message) {
        self.boxes[to]
            .entry(deliver_at)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push(msg);
    }

    /// Submits a full broadcast from `from` to every other processor,
    /// deliverable to all of them at `deliver_at`. It joins that
    /// instant's union: the first broadcast of an instant is stored
    /// as-is (one refcount bump), later ones are merged into it.
    ///
    /// # Panics
    ///
    /// Panics if payload capacities differ within one instant (all
    /// payloads of a run share one bit universe by construction).
    pub fn broadcast_uniform(&mut self, from: ProcId, deliver_at: u64, bits: &Arc<BitSet>) {
        let Some(offset) = self.calendar_offset(deliver_at) else {
            for to in (0..self.processors()).filter(|&to| to != from.index()) {
                self.push(to, deliver_at, Message::new(from, Arc::clone(bits)));
            }
            return;
        };
        let slot = slot_at(&mut self.calendar, &mut self.spare_slots, offset);
        match &mut slot.union {
            None => slot.union = Some(Arc::clone(bits)),
            Some(union) => {
                Arc::make_mut(union).union_with(bits);
            }
        }
        slot.senders.push(from);
    }

    /// Submits a full broadcast from `from` whose delays differ per
    /// recipient: `deliver_at(to)` is called once per other processor,
    /// in recipient order. The payload is stored once per distinct
    /// delivery instant, with the set of recipients due then.
    pub fn broadcast_per_recipient(
        &mut self,
        from: ProcId,
        bits: &Arc<BitSet>,
        mut deliver_at: impl FnMut(usize) -> u64,
    ) {
        let p = self.processors();
        self.fanouts += 1;
        for to in (0..p).filter(|&to| to != from.index()) {
            let at = deliver_at(to);
            let Some(offset) = self.calendar_offset(at) else {
                self.push(to, at, Message::new(from, Arc::clone(bits)));
                continue;
            };
            if offset >= self.open_groups.len() {
                self.open_groups.resize(offset + 1, (0, 0));
            }
            let slot = slot_at(&mut self.calendar, &mut self.spare_slots, offset);
            let (fanout, g) = &mut self.open_groups[offset];
            if *fanout != self.fanouts {
                *fanout = self.fanouts;
                *g = slot.open_group(Message::new(from, Arc::clone(bits)), p);
            }
            slot.masks[*g / 64 * p + to] |= 1u64 << (*g % 64);
        }
    }

    /// The calendar offset of instant `at`, or `None` if `at` lies
    /// outside the calendar's window.
    fn calendar_offset(&self, at: u64) -> Option<usize> {
        if at < self.open_from {
            return None;
        }
        let offset = at.checked_sub(self.base).filter(|&ahead| ahead < HORIZON)?;
        usize::try_from(offset).ok()
    }

    /// The calendar slots `pid` has not received, for instants up to
    /// `now`, oldest first.
    fn due_slots(&self, pid: usize, now: u64) -> impl Iterator<Item = &Slot> {
        let first = self.received[pid];
        self.calendar
            .iter()
            .zip(self.base..)
            .skip_while(move |&(_, at)| at < first)
            .take_while(move |&(_, at)| at <= now)
            .map(|(slot, _)| slot)
    }

    /// Removes and returns every message deliverable to `pid` at time
    /// `now` (delivery time `≤ now`), oldest delivery time first.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn drain_due(&mut self, pid: usize, now: u64) -> Vec<Message> {
        let mut out = Vec::new();
        self.drain_due_into(pid, now, &mut out);
        out
    }

    /// Appends every message deliverable to `pid` at time `now` (delivery
    /// time `≤ now`) to `out` and removes them from the mailbox: first
    /// `pid`'s list entries, oldest first, then the calendar's
    /// broadcasts for `pid`. The allocation-free variant of
    /// [`drain_due`](Self::drain_due): the hot loop hands in one recycled
    /// scratch vector, and the emptied per-instant vectors are kept for
    /// reuse by [`push`](Self::push).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn drain_due_into(&mut self, pid: usize, now: u64, out: &mut Vec<Message>) {
        let mbox = &mut self.boxes[pid];
        while let Some(entry) = mbox.first_entry() {
            if *entry.key() > now {
                break;
            }
            let mut v = entry.remove();
            out.append(&mut v);
            self.spare.push(v);
        }
        let p = self.processors();
        for slot in self.due_slots(pid, now) {
            slot.deliver_into(pid, p, out);
        }
        let next = now.saturating_add(1);
        self.received[pid] = self.received[pid].max(next);
        self.open_from = self.open_from.max(next);
    }

    /// Ends every calendar instant up to `now`. Each processor that has
    /// not received such an instant gets its share of it copied into its
    /// list, keyed by the instant, and the slot is reused. The
    /// simulator calls this at the end of every tick, so the calendar
    /// holds only the instants from the current one to the furthest
    /// delay.
    pub fn end_instant(&mut self, now: u64) {
        while self.base <= now {
            let Some(mut slot) = self.calendar.pop_front() else {
                self.base = now.saturating_add(1);
                break;
            };
            let at = self.base;
            let p = self.processors();
            if !slot.is_empty() {
                for (pid, mbox) in self.boxes.iter_mut().enumerate() {
                    if self.received[pid] > at {
                        continue;
                    }
                    let mut copy = self.spare.pop().unwrap_or_default();
                    slot.deliver_into(pid, p, &mut copy);
                    if copy.is_empty() {
                        self.spare.push(copy);
                        continue;
                    }
                    match mbox.entry(at) {
                        Entry::Vacant(e) => {
                            e.insert(copy);
                        }
                        Entry::Occupied(mut e) => {
                            e.get_mut().append(&mut copy);
                            self.spare.push(copy);
                        }
                    }
                }
            }
            slot.clear();
            self.spare_slots.push(slot);
            self.base += 1;
        }
    }

    /// Copies (without removing) every message deliverable to `pid` at
    /// `now`, in the order [`drain_due`](Self::drain_due) would return
    /// them — used by adversaries that peek at what a processor is about
    /// to receive.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn peek_due(&self, pid: usize, now: u64) -> Vec<Message> {
        let p = self.processors();
        let mut out: Vec<Message> = self.boxes[pid]
            .range(..=now)
            .flat_map(|(_, v)| v.iter().cloned())
            .collect();
        for slot in self.due_slots(pid, now) {
            slot.deliver_into(pid, p, &mut out);
        }
        out
    }

    /// Total number of in-flight messages (any delivery time): one per
    /// list entry, and, for the calendar, one per recipient still owed
    /// each broadcast — `p − 1` for a broadcast no one has received yet,
    /// whether it sits in a union or in groups.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        let p = self.processors();
        let listed: usize = self
            .boxes
            .iter()
            .map(|b| b.values().map(Vec::len).sum::<usize>())
            .sum();
        let calendar: usize = self
            .calendar
            .iter()
            .zip(self.base..)
            .map(|(slot, at)| {
                let owed = |pid: usize| self.received[pid] <= at;
                let waiting = (0..p).filter(|&pid| owed(pid)).count();
                let own = slot.senders.iter().filter(|s| owed(s.index())).count();
                let union = slot.senders.len() * waiting - own;
                // Mask word `i` holds processor `i % p`'s group bits.
                let groups: usize = slot
                    .masks
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| owed(i % p))
                    .map(|(_, word)| word.count_ones() as usize)
                    .sum();
                union + groups
            })
            .sum();
        listed + calendar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(from: usize) -> Message {
        Message::new(ProcId::new(from), BitSet::new(4))
    }

    #[test]
    fn drain_respects_delivery_time() {
        let mut m = Mailboxes::new(2);
        m.push(0, 5, msg(1));
        m.push(0, 7, msg(1));
        assert!(m.drain_due(0, 4).is_empty());
        assert_eq!(m.drain_due(0, 5).len(), 1);
        assert!(m.drain_due(0, 6).is_empty(), "already drained");
        assert_eq!(m.drain_due(0, 10).len(), 1);
    }

    #[test]
    fn drain_is_per_processor() {
        let mut m = Mailboxes::new(3);
        m.push(1, 1, msg(0));
        m.push(2, 1, msg(0));
        assert!(m.drain_due(0, 5).is_empty());
        assert_eq!(m.drain_due(1, 5).len(), 1);
        assert_eq!(m.drain_due(2, 5).len(), 1);
    }

    #[test]
    fn drain_returns_oldest_first() {
        let mut m = Mailboxes::new(1);
        m.push(0, 9, msg(2));
        m.push(0, 3, msg(1));
        m.push(0, 3, msg(3));
        let got = m.drain_due(0, 10);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].from(), ProcId::new(1));
        assert_eq!(got[1].from(), ProcId::new(3));
        assert_eq!(got[2].from(), ProcId::new(2));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut m = Mailboxes::new(1);
        m.push(0, 2, msg(0));
        assert_eq!(m.peek_due(0, 3).len(), 1);
        assert_eq!(m.peek_due(0, 1).len(), 0);
        assert_eq!(m.drain_due(0, 3).len(), 1, "peek left it in place");
    }

    #[test]
    fn in_flight_counts_everything() {
        let mut m = Mailboxes::new(2);
        m.push(0, 1, msg(1));
        m.push(1, 100, msg(0));
        assert_eq!(m.in_flight(), 2);
        m.drain_due(0, 1);
        assert_eq!(m.in_flight(), 1);
    }

    #[test]
    fn reset_empties_and_resizes() {
        let mut m = Mailboxes::new(2);
        m.push(0, 1, msg(1));
        m.push(1, 2, msg(0));
        m.reset(3);
        assert_eq!(m.processors(), 3);
        assert_eq!(m.in_flight(), 0);
        m.push(2, 1, msg(0));
        assert_eq!(m.drain_due(2, 1).len(), 1);
    }

    fn payload(bit: usize) -> Arc<BitSet> {
        let mut b = BitSet::new(8);
        b.insert(bit);
        Arc::new(b)
    }

    fn senders(msgs: &[Message]) -> Vec<usize> {
        msgs.iter().map(|m| m.from().index()).collect()
    }

    #[test]
    fn lone_uniform_broadcast_shares_payload() {
        let mut m = Mailboxes::new(3);
        let p = payload(1);
        m.broadcast_uniform(ProcId::new(0), 5, &p);
        assert!(m.drain_due(1, 4).is_empty(), "not due yet");
        let out = m.drain_due(1, 5);
        assert_eq!(senders(&out), [0]);
        assert!(
            Arc::ptr_eq(out[0].shared_bits(), &p),
            "a lone broadcast is delivered without any copy"
        );
    }

    #[test]
    fn uniform_broadcasts_merge_by_union() {
        let mut m = Mailboxes::new(3);
        let first = payload(0);
        m.broadcast_uniform(ProcId::new(0), 4, &first);
        m.broadcast_uniform(ProcId::new(2), 4, &payload(7));
        assert!(
            !first.contains(7) && first.count() == 1,
            "the merge copied the payload its sender still holds"
        );
        let out = m.drain_due(1, 4);
        assert_eq!(senders(&out), [0], "one message per instant, first sender");
        assert!(out[0].bits().contains(0) && out[0].bits().contains(7));
    }

    #[test]
    fn groups_reach_exactly_their_recipients() {
        // 130 processors: three mask words, the last one partial.
        let p = 130;
        let mut m = Mailboxes::new(p);
        let bits = payload(3);
        // Recipients divisible by 3 are due at 2, the rest at 5.
        let at = |to: usize| if to % 3 == 0 { 2 } else { 5 };
        let mut calls = Vec::new();
        m.broadcast_per_recipient(ProcId::new(64), &bits, |to| {
            calls.push(to);
            at(to)
        });
        assert_eq!(calls, (0..p).filter(|&to| to != 64).collect::<Vec<_>>());
        assert_eq!(m.in_flight(), p - 1);
        for pid in 0..p {
            let early = m.drain_due(pid, 2);
            let late = m.drain_due(pid, 5);
            let expect = |when: u64| usize::from(pid != 64 && at(pid) == when);
            assert_eq!((early.len(), late.len()), (expect(2), expect(5)), "{pid}");
            for got in early.iter().chain(&late) {
                assert_eq!(got.from(), ProcId::new(64));
                assert!(Arc::ptr_eq(got.shared_bits(), &bits));
            }
        }
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn skipped_instants_arrive_once_oldest_first() {
        let mut m = Mailboxes::new(3);
        m.broadcast_uniform(ProcId::new(0), 1, &payload(0));
        m.broadcast_per_recipient(ProcId::new(2), &payload(1), |_| 2);
        m.broadcast_uniform(ProcId::new(1), 3, &payload(2));
        // Processor 2 steps at 1; processor 1 skips instants 1 and 2.
        for now in 0..3 {
            if now == 1 {
                assert_eq!(senders(&m.drain_due(2, now)), [0]);
            }
            m.end_instant(now);
        }
        assert_eq!(senders(&m.drain_due(1, 3)), [0, 2, 1]);
        assert!(m.drain_due(1, 3).is_empty(), "exactly once");
        m.end_instant(3);
        // Processor 2 missed only instant 3 (instant 2 had nothing for it).
        assert_eq!(senders(&m.drain_due(2, 9)), [1]);
    }

    #[test]
    fn peek_and_count_leave_the_calendar_in_place() {
        let mut m = Mailboxes::new(3);
        m.push(1, 2, msg(2));
        m.broadcast_uniform(ProcId::new(0), 2, &payload(0));
        m.broadcast_per_recipient(ProcId::new(2), &payload(1), |_| 2);
        assert!(m.peek_due(1, 1).is_empty());
        assert_eq!(senders(&m.peek_due(1, 2)), [2, 0, 2]);
        assert_eq!(
            senders(&m.drain_due(1, 2)),
            [2, 0, 2],
            "peek consumed nothing"
        );
        assert!(m.peek_due(1, 2).is_empty());
        assert_eq!(m.peek_due(0, 2).len(), 2, "others still see the slot");
    }

    #[test]
    fn in_flight_counts_what_was_sent() {
        let mut m = Mailboxes::new(4);
        m.push(3, 1, msg(0));
        m.broadcast_uniform(ProcId::new(0), 2, &payload(0));
        m.broadcast_uniform(ProcId::new(1), 2, &payload(1));
        m.broadcast_per_recipient(ProcId::new(2), &payload(2), |to| 1 + to as u64);
        assert_eq!(m.in_flight(), 1 + 2 * 3 + 3);
        // Processor 0 receives instant 2: one broadcast of the union
        // (the other was its own) and its group, due at 1.
        m.drain_due(0, 2);
        assert_eq!(m.in_flight(), 1 + 2 * 3 - 1 + 3 - 1);
        m.end_instant(2);
        // The others hold one copy of the union each, and processor 1
        // its group; processor 3's group is due at 4.
        assert_eq!(m.in_flight(), 1 + 3 + 1 + 1);
    }

    #[test]
    fn delays_past_the_horizon_become_envelopes() {
        let mut m = Mailboxes::new(3);
        let far = HORIZON + 5;
        m.broadcast_uniform(ProcId::new(0), far, &payload(0));
        m.broadcast_per_recipient(ProcId::new(1), &payload(1), |to| far + to as u64);
        assert!(m.calendar.is_empty(), "no slot that far out");
        assert_eq!(m.in_flight(), 4);
        assert_eq!(senders(&m.drain_due(2, far + 2)), [0, 1]);
        assert_eq!(senders(&m.drain_due(0, far)), [1]);
    }

    #[test]
    fn reset_clears_the_calendar() {
        let mut m = Mailboxes::new(2);
        m.broadcast_uniform(ProcId::new(0), 1, &payload(0));
        m.broadcast_per_recipient(ProcId::new(1), &payload(1), |_| 3);
        assert_eq!(m.drain_due(1, 5).len(), 1);
        m.end_instant(5);
        m.reset(70);
        assert_eq!(m.in_flight(), 0);
        assert!(m.peek_due(0, 10).is_empty());
        // Instants restart at 0, and masks fit the new processor count.
        m.broadcast_per_recipient(ProcId::new(0), &payload(2), |_| 1);
        assert_eq!(m.drain_due(69, 1).len(), 1);
        assert_eq!(m.in_flight(), 68);
    }
}
