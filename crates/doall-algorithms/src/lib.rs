//! The Do-All algorithms of Kowalski & Shvartsman, plus baselines.
//!
//! | Algorithm | Paper | Work against a d-adversary |
//! |-----------|-------|-----------------------------|
//! | [`SoloAll`] | §1 (oblivious baseline) | `Θ(p·t)` — no communication |
//! | [`ObliDo`]  | Fig. 2, §4.1 | `n²` job executions; ≤ `Cont(Σ)` *primary* (Lemma 4.2) |
//! | [`Da`] — DA(q) | Fig. 3, §5 | `O(t·p^ε + p·min{t,d}·⌈t/d⌉^ε)` (Thms 5.4/5.5) |
//! | [`PaRan1`] | Fig. 4, §6 | `E[W] = O(t log p + p·d·log(2 + t/d))` (Cor 6.4) |
//! | [`PaRan2`] | Fig. 4, §6 | same expected work, far fewer random bits |
//! | [`PaDet`]  | Fig. 4, §6 | same bound deterministically with a low `(d)`-contention list (Cor 6.5) |
//! | [`PaGossip`] | §7 extension | per-completion multicast to `fanout` random peers — trades work for messages |
//!
//! All algorithms are implemented as cloneable state machines
//! ([`doall_core::DoAllProcess`]) so they run unchanged on the
//! discrete-event simulator (`doall-sim`) and on real threads
//! (`doall-runtime`). Every algorithm tolerates arbitrary crashes with at
//! least one survivor and assumes nothing about the delay bound `d`.
//!
//! The [`Algorithm`] trait is the factory interface used by the experiment
//! harness to spawn one state machine per processor.

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
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod da;
mod factory;
mod oblido;
mod pa;
mod trivial;

pub use da::{Da, DaProcess, TreeShape};
pub use factory::Algorithm;
pub use oblido::{ObliDo, ObliDoProcess};
pub use pa::{PaDet, PaGossip, PaProcess, PaRan1, PaRan2};
pub use trivial::{SoloAll, SoloAllProcess};
