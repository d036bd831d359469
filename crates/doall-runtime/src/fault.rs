//! Crash-failure model: validated per-processor step budgets and the
//! engine-side accounting of what crashed processors cost a run.

use std::fmt;

/// Construction-time rejection of an invalid runtime setup: the builder
/// refuses these before any thread is spawned.
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

/// A validated per-processor crash schedule: processor `i` stops stepping
/// after `budget(i)` steps (`None` = never). The crash-failure model
/// requires at least one survivor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashSchedule(Vec<Option<u64>>);

impl CrashSchedule {
    /// The empty schedule: nobody crashes.
    #[must_use]
    pub fn none() -> Self {
        Self(Vec::new())
    }

    /// Validates an explicit budget list against `p`. An empty list means
    /// "nobody crashes"; a nonempty one must cover every processor and
    /// leave at least one `None`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CrashBudgetLength`] on a length mismatch,
    /// [`RuntimeError::AllCrashed`] if no processor survives.
    pub fn from_budgets(budgets: Vec<Option<u64>>, p: usize) -> Result<Self, RuntimeError> {
        if budgets.is_empty() {
            return Ok(Self::none());
        }
        if budgets.len() != p {
            return Err(RuntimeError::CrashBudgetLength {
                expected: p,
                got: budgets.len(),
            });
        }
        if budgets.iter().all(Option::is_some) {
            return Err(RuntimeError::AllCrashed);
        }
        Ok(Self(budgets))
    }

    /// Processor `pid`'s step budget (`None` = never crashes).
    #[must_use]
    pub fn budget(&self, pid: usize) -> Option<u64> {
        self.0.get(pid).copied().unwrap_or(None)
    }

    /// Whether any processor is scheduled to crash.
    #[must_use]
    pub fn any(&self) -> bool {
        self.0.iter().any(Option::is_some)
    }
}

/// Engine-side accounting of a threaded run — never part of the
/// `RunReport` (which must describe the algorithm, not the harness).
/// Exposed for tests and diagnostics, mirroring the sweep engine's
/// `run_cells_with_stats` pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Messages drained (and dropped) by crashed workers. A crashed
    /// processor is an infinitely delayed one, so its inbox keeps
    /// receiving; draining it bounds the channel's memory instead of
    /// letting the router grow it for the rest of the run.
    pub crashed_drained: u64,
    /// Largest batch a crashed worker drained in one wake — an upper
    /// bound on how big its inbox ever got after the crash.
    pub max_crashed_backlog: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_budgets_validate_length_and_survivors() {
        assert!(matches!(
            CrashSchedule::from_budgets(vec![None, Some(1)], 3).unwrap_err(),
            RuntimeError::CrashBudgetLength {
                expected: 3,
                got: 2
            }
        ));
        assert_eq!(
            CrashSchedule::from_budgets(vec![Some(1), Some(2)], 2).unwrap_err(),
            RuntimeError::AllCrashed
        );
        let ok = CrashSchedule::from_budgets(vec![None, Some(2)], 2).unwrap();
        assert_eq!(ok.budget(1), Some(2));
        assert!(ok.any());
    }
}
