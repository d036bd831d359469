//! Discrete-event simulator of the paper's execution model: `p`
//! asynchronous message-passing processors driven by an omniscient
//! *d-adversary* (Section 2 of Kowalski & Shvartsman).
//!
//! # The model
//!
//! Time is measured in *global time units* — the smallest possible gap
//! between consecutive clock ticks of any processor — so every processor
//! completes **at most one local step per unit**, and at most `d` local
//! steps during any window of `d` units. The adversary:
//!
//! * decides, each time unit, which processors complete a step (arbitrary
//!   delays between local clock ticks; a crash is an infinite delay — at
//!   least one processor must survive);
//! * assigns every point-to-point message a delay of at most `d` units
//!   (`d` is *unknown* to the processors and no upper bound on it may be
//!   assumed by the algorithms).
//!
//! Work is charged per Definition 2.1 (one unit per completed local step,
//! summed until σ — the first time all tasks are performed *and* some
//! processor knows it); messages per Definition 2.2 (a broadcast to `m`
//! destinations counts `m`), charged at submission time.
//!
//! # Adversaries
//!
//! The [`Adversary`] trait exposes exactly the powers the paper grants:
//! step scheduling (with full knowledge of processor states — it may clone
//! and dry-run them, as the lower-bound constructions of Theorems 3.1/3.4
//! do) and per-message delays. The suite in [`adversary`] contains the
//! benign patterns used for upper-bound experiments and the two
//! lower-bound adversaries.

#![forbid(unsafe_code)]
// H001: library code outside tests returns errors instead of panicking;
// a justified exception carries `#[expect(clippy::…, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod analysis;
mod network;
mod sim;
mod trace;
mod view;

pub use adversary::{Adversary, Delivery};
pub use network::Mailboxes;
pub use sim::{Simulation, SimulationBuilder, DEFAULT_MAX_TICKS};
pub use trace::{Trace, TraceEvent, TraceMode};
pub use view::SimView;
