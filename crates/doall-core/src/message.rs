//! The message envelope carried by the network.
//!
//! Every algorithm in the paper communicates exactly one kind of payload: a
//! monotone bitmap of progress information. For the PA family the bits index
//! jobs (the sender's knowledge of complete jobs); for DA they index the
//! nodes of the replicated q-ary progress tree. Receivers merge payloads
//! into local state by bitwise OR.
//!
//! # Shared-payload ownership rule
//!
//! A payload is **immutable once submitted**. The sender builds its bitmap,
//! hands it to the network, and never writes to that copy again — the
//! paper's Section 5.1.2 observation that the messages are monotone
//! snapshots, so "no issues of consistency arise". The envelope therefore
//! stores the payload behind an [`Arc`]: a p-way broadcast is `p − 1`
//! envelopes sharing **one** allocation (each fan-out copy is a reference
//! count bump, not a `BitSet` clone), and receivers merge through
//! [`bits`](Message::bits) as a plain `&BitSet`. The `Arc` is an ownership
//! statement, not a concurrency device: there is no way to obtain a mutable
//! reference to a payload from an envelope, so a received bitmap can never
//! be edited in place — merge it into your own state and drop the message.
//!
//! Building the payload is cheap too: a [`BitSet`] clone shares its
//! storage copy-on-write, so a payload cloned from the sender's replica
//! shares that replica's words (or chunks) until either side writes. The
//! sender's next write then copies only the block it touches, and the
//! payload never changes.
//!
//! Constructors take `impl Into<Arc<BitSet>>`, so call sites may pass an
//! owned `BitSet` (converted for them) or an `Arc<BitSet>` they already
//! share; algorithm code that built payloads by value keeps compiling
//! unchanged.

use crate::{BitSet, ProcId};
use std::sync::Arc;

/// A point-to-point message. Broadcasts are modelled as `p − 1`
/// point-to-point messages, exactly as in the paper's message-complexity
/// accounting (Definition 2.2) — but all `p − 1` envelopes share one
/// payload allocation (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    from: ProcId,
    bits: Arc<BitSet>,
}

impl Message {
    /// Creates a message from `from` carrying progress bitmap `bits`.
    ///
    /// Accepts an owned [`BitSet`] (moved into a fresh `Arc`) or an
    /// already-shared `Arc<BitSet>` (no allocation, no copy).
    #[must_use]
    pub fn new(from: ProcId, bits: impl Into<Arc<BitSet>>) -> Self {
        Self {
            from,
            bits: bits.into(),
        }
    }

    /// The sender.
    #[must_use]
    pub fn from(&self) -> ProcId {
        self.from
    }

    /// The progress bitmap carried by the message (read-only — payloads
    /// are immutable once sent; see the module docs).
    #[must_use]
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }

    /// The shared payload handle — lets a receiver forward or store the
    /// payload without copying it.
    #[must_use]
    pub fn shared_bits(&self) -> &Arc<BitSet> {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let mut b = BitSet::new(4);
        b.insert(1);
        let m = Message::new(ProcId::new(2), b.clone());
        assert_eq!(m.from(), ProcId::new(2));
        assert_eq!(m.bits(), &b);
    }

    #[test]
    fn fan_out_shares_one_payload() {
        let mut b = BitSet::new(8);
        b.insert(3);
        let payload: Arc<BitSet> = Arc::new(b);
        let copies: Vec<Message> = (1..4)
            .map(|_| Message::new(ProcId::new(0), Arc::clone(&payload)))
            .collect();
        for m in &copies {
            assert!(Arc::ptr_eq(m.shared_bits(), &payload), "no deep copy");
        }
    }
}
