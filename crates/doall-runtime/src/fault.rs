//! Rejected setups and the engine-side accounting of what crashed
//! processors cost a run.

use std::fmt;

/// Rejection of an invalid runtime setup: [`crate::run`] refuses these
/// before any thread is spawned.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// No processors: a run needs `p ≥ 1` state machines.
    NoProcessors,
    /// The state-machine list does not match the instance's `p`.
    ProcessCount {
        /// Processors in the instance.
        expected: usize,
        /// State machines supplied.
        got: usize,
    },
    /// A nonempty crash-budget list whose length is not `p`.
    CrashBudgetLength {
        /// Processors in the instance.
        expected: usize,
        /// Budget entries supplied.
        got: usize,
    },
    /// Every processor was scheduled to crash.
    AllCrashed,
    /// A nonempty pace-override list whose length is not `p`.
    PaceLength {
        /// Processors in the instance.
        expected: usize,
        /// Override entries supplied.
        got: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoProcessors => write!(f, "runtime needs at least one processor (p = 0)"),
            Self::ProcessCount { expected, got } => write!(
                f,
                "need exactly one state machine per processor (instance has {expected}, got {got})"
            ),
            Self::CrashBudgetLength { expected, got } => write!(
                f,
                "crash budget list must cover every processor (instance has {expected}, got {got})"
            ),
            Self::AllCrashed => write!(f, "at least one processor must survive"),
            Self::PaceLength { expected, got } => write!(
                f,
                "pace override list must cover every processor (instance has {expected}, got {got})"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Engine-side accounting of a threaded run — never part of the
/// `RunReport` (which must describe the algorithm, not the harness).
/// Exposed for tests and diagnostics, mirroring the sweep engine's
/// `run_cells_with_stats` pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Messages drained (and dropped) by crashed workers, due or not yet
    /// due. A crashed processor is an infinitely delayed one, so peers
    /// keep sending into its channel; draining it bounds the channel's
    /// memory instead of letting it grow for the rest of the run.
    pub crashed_drained: u64,
    /// Largest batch a crashed worker drained in one wake — an upper
    /// bound on how big its inbox ever got after the crash.
    pub max_crashed_backlog: u64,
}
