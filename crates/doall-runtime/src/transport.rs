//! Message transport: the substrate that carries broadcasts between
//! worker threads, with a router thread injecting per-message delays.
//!
//! The only transport today is in-process `std::sync::mpsc` channels
//! ([`ChannelTransport`]). The surface is deliberately narrow — start,
//! one inbox per processor, a sender for outgoing envelopes, shutdown —
//! so a future socket transport can slot in behind the same seam
//! without touching the scheduler.

use doall_core::Message;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Routed envelope: a broadcast fanned out into point-to-point messages.
#[derive(Debug)]
pub struct Outgoing {
    /// Destination processor index.
    pub to: usize,
    /// The message to deliver once its injected delay elapses.
    pub msg: Message,
}

/// Delayed message held by the router.
struct Held {
    due: Instant,
    to: usize,
    msg: Message,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on due time.
        other.due.cmp(&self.due)
    }
}

/// In-process channel transport: one unbounded inbox per processor and a
/// router thread holding each envelope for a uniformly random duration up
/// to `max_delay` — the wall-clock analogue of the d-adversary.
#[derive(Debug)]
pub struct ChannelTransport {
    outgoing: Sender<Outgoing>,
    inboxes: Vec<Option<Receiver<Message>>>,
    router: JoinHandle<()>,
}

impl ChannelTransport {
    /// Starts the router thread for `p` processors. `done` is the run's
    /// completion flag: once it is set the router flushes its backlog
    /// immediately (so laggards can still learn completion) and exits.
    #[must_use]
    pub fn start(p: usize, max_delay: Duration, seed: u64, done: Arc<AtomicBool>) -> Self {
        let (to_router, router_rx) = channel::<Outgoing>();
        let mut inbox_tx: Vec<Sender<Message>> = Vec::with_capacity(p);
        let mut inboxes: Vec<Option<Receiver<Message>>> = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel::<Message>();
            inbox_tx.push(tx);
            inboxes.push(Some(rx));
        }
        let router = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut held: BinaryHeap<Held> = BinaryHeap::new();
            loop {
                // Forward everything due.
                let now = Instant::now();
                while held.peek().is_some_and(|h| h.due <= now) {
                    #[expect(clippy::expect_used, reason = "invariant: peek() just returned Some")]
                    let h = held.pop().expect("peeked");
                    let _ = inbox_tx[h.to].send(h.msg);
                }
                if done.load(Ordering::Acquire) {
                    // Drain: deliver the backlog immediately so laggards
                    // can still learn completion, then exit.
                    while let Some(h) = held.pop() {
                        let _ = inbox_tx[h.to].send(h.msg);
                    }
                    while let Ok(out) = router_rx.try_recv() {
                        let _ = inbox_tx[out.to].send(out.msg);
                    }
                    break;
                }
                let wait = held
                    .peek()
                    .map_or(Duration::from_millis(1), |h| {
                        h.due.saturating_duration_since(Instant::now())
                    })
                    .min(Duration::from_millis(1));
                match router_rx.recv_timeout(wait) {
                    Ok(out) => {
                        let delay = if max_delay.is_zero() {
                            Duration::ZERO
                        } else {
                            max_delay.mul_f64(rng.random::<f64>())
                        };
                        held.push(Held {
                            due: Instant::now() + delay,
                            to: out.to,
                            msg: out.msg,
                        });
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        });
        Self {
            outgoing: to_router,
            inboxes,
            router,
        }
    }

    /// A sender for outgoing envelopes; clone one per worker.
    #[must_use]
    pub fn outgoing(&self) -> Sender<Outgoing> {
        self.outgoing.clone()
    }

    /// Takes processor `pid`'s inbox receiver. Each inbox can be taken
    /// exactly once — the receiver moves into that processor's worker.
    ///
    /// # Panics
    ///
    /// Panics if the inbox was already taken or `pid` is out of range.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract: one take per processor"
    )]
    pub fn take_inbox(&mut self, pid: usize) -> Receiver<Message> {
        self.inboxes[pid]
            .take()
            .expect("one inbox receiver per processor")
    }

    /// Drops the transport's own sender and joins the router thread.
    /// Call after every worker has exited (their sender clones are gone),
    /// so the router observes either the completion flag or disconnection.
    ///
    /// # Panics
    ///
    /// Panics if the router thread panicked.
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract: router panics propagate"
    )]
    pub fn shutdown(self) {
        drop(self.outgoing);
        self.router.join().expect("router panicked");
    }
}
