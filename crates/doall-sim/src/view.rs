//! The omniscient adversary's read-only view of the simulation.

use doall_core::BitSet;

/// What the adversary sees when making a decision.
///
/// The paper's adversary is omniscient: it also sees processor states and
/// pending messages, which the [`crate::Adversary`] trait receives as
/// separate arguments (so that this cheap, copyable core view can be
/// constructed per tick without borrowing fights).
#[derive(Debug, Clone, Copy)]
pub struct SimView<'a> {
    /// The current global time (unknown to the processors themselves).
    pub now: u64,
    /// Number of processors `p`.
    pub processors: usize,
    /// Number of tasks `t`.
    pub tasks: usize,
    /// Ground truth: which tasks have actually been performed so far.
    pub tasks_done: &'a BitSet,
}

impl<'a> SimView<'a> {
    /// Iterator over the indices of unperformed tasks (the set `U_s`).
    pub fn undone(&self) -> impl Iterator<Item = usize> + 'a {
        self.tasks_done.iter_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undone_counts_complement() {
        let mut done = BitSet::new(5);
        done.insert(1);
        done.insert(3);
        let view = SimView {
            now: 7,
            processors: 2,
            tasks: 5,
            tasks_done: &done,
        };
        assert_eq!(view.undone().collect::<Vec<_>>(), vec![0, 2, 4]);
    }
}
