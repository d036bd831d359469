//! **doall** — message-delay-sensitive Do-All algorithms for asynchronous
//! message-passing processors.
//!
//! A faithful, executable reproduction of Kowalski & Shvartsman,
//! *Performing work with asynchronous processors: message-delay-sensitive
//! bounds* (PODC 2003; Information and Computation 203 (2005) 181–210).
//!
//! # The problem
//!
//! **Do-All**: given `t` similar, idempotent tasks, perform them all with
//! `p` asynchronous message-passing processors, under an omniscient
//! adversary that controls processor speeds, crashes (≥ 1 survivor), and
//! message delays bounded by an integer `d` that the algorithms never
//! learn. The trivial solution (everyone does everything) costs
//! `W = p·t` work; the paper's algorithms are *subquadratic whenever
//! `d = o(t)`*, trading communication for work.
//!
//! # What's in the box
//!
//! * [`algorithms`] — the paper's algorithm families as cloneable state
//!   machines: the tree-based deterministic [`algorithms::Da`] (Thm 5.4/5.5:
//!   `O(t·p^ε + p·min{t,d}·⌈t/d⌉^ε)` work), the schedule-based
//!   [`algorithms::PaRan1`] / [`algorithms::PaRan2`] / [`algorithms::PaDet`]
//!   (Cor 6.4/6.5: `O(t log p + p·d·log(2 + t/d))` work), and the
//!   [`algorithms::SoloAll`] / [`algorithms::ObliDo`] baselines.
//! * [`sim`] — a discrete-event simulator of the paper's execution model
//!   with a full adversary suite, including the Theorem 3.1/3.4
//!   lower-bound adversaries.
//! * [`perms`] — permutations, left-to-right maxima, contention and the
//!   delay-sensitive `d`-contention (Section 4), with certified
//!   low-contention schedule search.
//! * [`bounds`] — the closed-form work and message bounds, for
//!   measured-vs-bound experiment tables (Section 4's contention bounds
//!   are in [`perms`]).
//! * [`runtime`] — the same algorithms on real OS threads with delayed
//!   channels.
//!
//! # Quickstart
//!
//! ```
//! use doall::prelude::*;
//!
//! // 8 processors, 64 tasks.
//! let instance = Instance::new(8, 64)?;
//!
//! // The deterministic schedule algorithm with a random low-d-contention
//! // schedule list (Corollary 4.5 construction).
//! let algorithm = PaDet::random_for(instance, 42);
//!
//! // A 4-adversary that delays every message the full 4 time units.
//! let report = Simulation::builder(instance)
//!     .procs(algorithm.spawn(instance))
//!     .adversary(Box::new(FixedDelay::new(4)))
//!     .build()
//!     .run();
//!
//! assert!(report.completed);
//! // Subquadratic: far below the oblivious p·t = 512.
//! assert!(report.work < 512);
//! # Ok::<(), doall::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Output goes through `cli`'s writers, which turn a closed stdout into an
// error (exit 2) instead of the panic of `print!`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod cli;

pub use doall_core::{
    BitSet, CoreError, DoAllProcess, Instance, JobId, JobMap, Message, ProcId, RunReport,
    StepOutcome, TaskId,
};

/// The paper's algorithms and baselines (re-export of `doall-algorithms`).
pub mod algorithms {
    pub use doall_algorithms::*;
}

/// The discrete-event simulator and adversary suite (re-export of
/// `doall-sim`).
pub mod sim {
    pub use doall_sim::*;
}

/// Permutations and contention (re-export of `doall-perms`).
pub mod perms {
    pub use doall_perms::*;
}

/// Closed-form complexity bounds (re-export of `doall-bounds`).
pub mod bounds {
    pub use doall_bounds::*;
}

/// Threaded runner (re-export of `doall-runtime`).
pub mod runtime {
    pub use doall_runtime::*;
}

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::algorithms::{Algorithm, Da, ObliDo, PaDet, PaGossip, PaRan1, PaRan2, SoloAll};
    pub use crate::sim::adversary::{
        BurstyDelay, CrashSchedule, FixedDelay, LowerBoundAdversary, RandomDelay, RandomSubset,
        RandomizedLbAdversary, RoundRobin, StageAligned, Stragglers, UnitDelay,
    };
    pub use crate::sim::{Adversary, Simulation};
    pub use crate::{Instance, RunReport};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_round_trip() {
        let instance = Instance::new(4, 16).unwrap();
        let report = Simulation::builder(instance)
            .procs(PaRan2::new(1).spawn(instance))
            .adversary(Box::new(UnitDelay))
            .build()
            .run();
        assert!(report.completed);
    }
}
