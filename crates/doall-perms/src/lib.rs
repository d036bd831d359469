//! Permutations and their *contention*, the combinatorial engine of
//! Kowalski & Shvartsman's message-delay-sensitive Do-All algorithms
//! (Section 4 of the paper).
//!
//! # Background
//!
//! When asynchronous processors perform tasks following fixed schedules
//! (permutations of the task identifiers), the number of tasks performed
//! *redundantly* is governed by left-to-right maxima: if processor `p₂`
//! follows schedule `π₂ = π₁ ∘ ϱ` while `p₁` follows `π₁` and performs
//! everything first, the tasks `p₂` performs redundantly are exactly the
//! left-to-right maxima of `ϱ` (Section 4 intro; Knuth vol. 3).
//!
//! * [`lrm`] — left-to-right maxima of a schedule.
//! * [`d_lrm`] — the paper's generalization: `π(j)` is a
//!   *d-left-to-right maximum* if fewer than `d` earlier elements exceed it.
//! * [`d_contention_of_list`] — `(d)-Cont(Σ, ϱ) = Σ_u (d)-lrm(ϱ⁻¹ ∘ π_u)`
//!   and `(d)-Cont(Σ) = max_ϱ (d)-Cont(Σ, ϱ)`, which bounds the work of the
//!   schedule algorithms PaDet/PaRan1 against any `d`-adversary
//!   (Lemma 6.1). Its `d = 1` case is Anderson & Woll's `Cont(Σ)`, which
//!   drives the work bound of the tree algorithm DA (Theorem 5.4).
//! * [`search`] — certified low-contention schedule lists: exhaustive for
//!   tiny `q`, hill-climbing with exact certification up to `q = 8`
//!   (Lemma 4.1 guarantees lists with `Cont(Σ) ≤ 3qH_q` exist), and random
//!   lists for the large-`n` regime of Corollary 4.5.
//!
//! All permutations are **zero-based** internally; "larger element" in the
//! lrm definitions refers to the natural order on `0..n`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod contention;
mod harmonic;
mod lrm;
mod permutation;
pub mod search;
pub mod structured;

pub use contention::{
    d_contention_estimate, d_contention_exact, d_contention_of_list, d_contention_wrt,
    dcont_threshold, DContentionEstimate,
};
pub use harmonic::harmonic;
pub use lrm::{d_lrm, lrm};
pub use permutation::{PermError, Permutation, Permutations};
pub use search::Schedules;
