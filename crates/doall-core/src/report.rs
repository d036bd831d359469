//! Work and message accounting (Definitions 2.1 and 2.2) and run reports.

use core::fmt;

/// Work tally per Definition 2.1: every completed local step of every
/// processor is one unit, summed from time 0 until σ (the first time all
/// tasks are performed *and* some processor knows it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkTally {
    per_proc: Vec<u64>,
}

impl WorkTally {
    /// Creates a tally over `p` processors.
    #[must_use]
    pub fn new(processors: usize) -> Self {
        Self {
            per_proc: vec![0; processors],
        }
    }

    /// Charges one unit to processor `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn charge(&mut self, pid: usize) {
        self.per_proc[pid] += 1;
    }

    /// Total work `W` across all processors.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_proc.iter().sum()
    }

    /// Work charged to each processor.
    #[must_use]
    pub fn per_processor(&self) -> &[u64] {
        &self.per_proc
    }

    /// Zeroes the tally for `processors` processors, reusing the
    /// allocation when the count allows — the arena-reset primitive for
    /// batched simulation runs.
    pub fn reset(&mut self, processors: usize) {
        self.per_proc.clear();
        self.per_proc.resize(processors, 0);
    }
}

/// Message tally per Definition 2.2: each point-to-point message is one
/// unit; a broadcast to `m` destinations counts `m`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageTally {
    sent: u64,
}

impl MessageTally {
    /// Creates an empty tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` point-to-point messages.
    pub fn charge(&mut self, n: u64) {
        self.sent += n;
    }

    /// Total message complexity `M`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.sent
    }
}

/// The result of one execution of a Do-All algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Total work `W` (Definition 2.1), counted until σ.
    pub work: u64,
    /// Total message complexity `M` (Definition 2.2), counted until σ.
    pub messages: u64,
    /// The completion time σ (global time at which all tasks were performed
    /// and at least one processor knew it), or `None` if the run was cut off
    /// before completion.
    pub sigma: Option<u64>,
    /// Whether every task was actually performed (ground truth, not just
    /// local knowledge).
    pub completed: bool,
    /// Work charged to each processor individually.
    pub work_per_processor: Vec<u64>,
    /// Section 4's *primary* executions: performances of a task that no
    /// processor had performed before the step's time unit began, so
    /// concurrent firsts all count. On real threads every step is its
    /// own instant, so only the first performance of each task is
    /// primary.
    pub primary_executions: u64,
    /// All other task performances: redundant work.
    pub secondary_executions: u64,
}

impl RunReport {
    /// Work normalized by the quadratic ceiling `p · t` — the headline
    /// metric of the paper: subquadratic solutions have ratio `o(1)` as the
    /// instance grows (for `d = o(t)`).
    #[must_use]
    pub fn work_ratio_to_quadratic(&self, p: usize, t: usize) -> f64 {
        self.work as f64 / (p as f64 * t as f64)
    }

    /// Messages per unit of work; Theorem 5.6 bounds this by `p` for DA.
    #[must_use]
    pub fn messages_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.messages as f64 / self.work as f64
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RunReport {{ work: {}, messages: {}, sigma: {}, completed: {} }}",
            self.work,
            self.messages,
            match self.sigma {
                Some(s) => s.to_string(),
                None => "-".to_string(),
            },
            self.completed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_tally_sums_per_processor() {
        let mut w = WorkTally::new(3);
        w.charge(0);
        w.charge(0);
        w.charge(2);
        assert_eq!(w.total(), 3);
        assert_eq!(w.per_processor(), &[2, 0, 1]);
    }

    #[test]
    fn message_tally_accumulates() {
        let mut m = MessageTally::new();
        m.charge(4);
        m.charge(0);
        m.charge(1);
        assert_eq!(m.total(), 5);
    }

    #[test]
    fn report_ratios() {
        let r = RunReport {
            work: 50,
            messages: 100,
            sigma: Some(10),
            completed: true,
            work_per_processor: vec![25, 25],
            primary_executions: 0,
            secondary_executions: 0,
        };
        assert!((r.work_ratio_to_quadratic(10, 10) - 0.5).abs() < 1e-12);
        assert!((r.messages_per_work() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn report_display_mentions_fields() {
        let r = RunReport {
            work: 1,
            messages: 2,
            sigma: None,
            completed: false,
            work_per_processor: vec![1],
            primary_executions: 0,
            secondary_executions: 0,
        };
        let s = r.to_string();
        assert!(s.contains("work: 1"));
        assert!(s.contains("sigma: -"));
    }

    #[test]
    fn zero_work_has_zero_message_ratio() {
        let r = RunReport {
            work: 0,
            messages: 0,
            sigma: None,
            completed: false,
            work_per_processor: vec![],
            primary_executions: 0,
            secondary_executions: 0,
        };
        assert_eq!(r.messages_per_work(), 0.0);
    }
}
