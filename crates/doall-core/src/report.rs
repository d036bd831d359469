//! Run reports: work and message counts (Definitions 2.1 and 2.2).

use core::fmt;

/// The result of one execution of a Do-All algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Total work `W` (Definition 2.1): one unit per completed local
    /// step of every processor, from time 0 until σ.
    pub work: u64,
    /// Total message complexity `M` (Definition 2.2): one unit per
    /// point-to-point message, so a broadcast to `m` destinations counts
    /// `m`, until σ.
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
