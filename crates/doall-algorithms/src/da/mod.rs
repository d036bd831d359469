//! Algorithm family **DA(q)** (Fig. 3, Section 5): the deterministic
//! message-passing re-interpretation of Anderson & Woll's shared-memory
//! certified Write-All algorithm.
//!
//! Each processor holds a *replica* of a q-ary boolean progress tree whose
//! leaves are the jobs (tasks, or `⌈t/p⌉`-task clusters when `t > p`). A
//! processor traverses its replica in post-order looking for work; at an
//! interior node of depth `m` it visits the `q` subtrees in the order given
//! by permutation `π_{x[m]} ∈ Σ`, where `x[m]` is the `m`-th q-ary digit of
//! its pid. Two changes versus the shared-memory original (paper §1.2):
//!
//! 1. instead of a global tree there is a replica per processor;
//! 2. instead of writing to shared memory, a processor **multicasts** its
//!    replica whenever it marks a node done; received replicas are merged
//!    in by bitwise OR (updates are monotone, so replicas never conflict).
//!
//! For any `ε > 0` there is a constant `q` and a schedule list `Σ` with
//! `Cont(Σ) ≤ 3q·H_q` (Lemma 4.1) such that the work is
//! `O(t·p^ε + p·min{t, d}·⌈t/d⌉^ε)` against any d-adversary
//! (Theorems 5.4/5.5), with message complexity `O(p · W)` (Theorem 5.6).

mod machine;
mod tree;

pub use machine::DaProcess;
pub use tree::TreeShape;

use crate::Algorithm;
use doall_core::{CoreError, DoAllProcess, Instance};
use doall_perms::{search, Schedules};
use std::sync::Arc;

/// Factory for DA(q).
///
/// ```
/// use doall_algorithms::{Algorithm, Da};
/// use doall_core::Instance;
///
/// // DA(3) with a certified low-contention schedule list.
/// let da = Da::with_default_schedules(3, 0);
/// assert_eq!(da.name(), "DA(3)");
///
/// let procs = da.spawn(Instance::new(9, 81).unwrap());
/// assert_eq!(procs.len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct Da {
    q: usize,
    schedules: Arc<Schedules>,
}

impl Da {
    /// Creates DA(q) from an explicit schedule list `Σ` of `q`
    /// permutations of `[q]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `q < 2`, or the list is
    /// not `q` permutations of `[q]`.
    pub fn new(q: usize, schedules: Schedules) -> Result<Self, CoreError> {
        if q < 2 {
            return Err(CoreError::invalid("q", "DA(q) requires q ≥ 2"));
        }
        if schedules.n() != q || schedules.len() != q {
            return Err(CoreError::invalid(
                "schedules",
                format!(
                    "DA({q}) needs exactly {q} permutations of [{q}], got {} of [{}]",
                    schedules.len(),
                    schedules.n()
                ),
            ));
        }
        Ok(Self {
            q,
            schedules: Arc::new(schedules),
        })
    }

    /// Creates DA(q) with a certified low-contention schedule list found by
    /// [`search::low_contention_list`] (exhaustively optimal for `q ≤ 3`,
    /// hill-climbed with exact certification for `q ≤ 8`).
    ///
    /// # Panics
    ///
    /// Panics if `q < 2`.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "invariant: the search returns q permutations of [q] by construction"
    )]
    pub fn with_default_schedules(q: usize, seed: u64) -> Self {
        assert!(q >= 2, "DA(q) requires q ≥ 2");
        let (schedules, _) = search::low_contention_list(q, seed);
        Self::new(q, schedules).expect("searched list has the right shape")
    }

    /// The branching factor `q`.
    #[must_use]
    pub fn q(&self) -> usize {
        self.q
    }

    /// The schedule list `Σ`.
    #[must_use]
    pub fn schedules(&self) -> &Schedules {
        &self.schedules
    }
}

impl Algorithm for Da {
    fn name(&self) -> String {
        format!("DA({})", self.q)
    }

    fn spawn(&self, instance: Instance) -> Vec<Box<dyn DoAllProcess>> {
        let shared = Arc::new(machine::DaShared::new(
            instance,
            self.q,
            Arc::clone(&self.schedules),
        ));
        (0..instance.processors())
            .map(|pid| Box::new(DaProcess::new(pid, Arc::clone(&shared))) as Box<dyn DoAllProcess>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        let s3 = Schedules::random(3, 3, 0);
        assert!(Da::new(1, Schedules::random(1, 1, 0)).is_err());
        assert!(Da::new(2, s3.clone()).is_err());
        assert!(Da::new(3, s3).is_ok());
    }

    #[test]
    fn default_schedules_are_valid() {
        for q in [2, 3, 4] {
            let da = Da::with_default_schedules(q, 0);
            assert_eq!(da.q(), q);
            assert_eq!(da.schedules().len(), q);
            assert_eq!(da.schedules().n(), q);
            assert_eq!(da.name(), format!("DA({q})"));
        }
    }

    #[test]
    fn spawn_counts() {
        let da = Da::with_default_schedules(2, 0);
        let procs = da.spawn(Instance::new(5, 9).unwrap());
        assert_eq!(procs.len(), 5);
    }
}
