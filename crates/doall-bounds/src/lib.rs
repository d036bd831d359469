//! Closed-form complexity bounds from Kowalski & Shvartsman, used by the
//! experiment harness to print *measured vs. bound* tables. Section 4's
//! contention bounds live with the contention code in `doall-perms`
//! (`search::lemma41_bound`, `dcont_threshold`).
//!
//! All functions take the instance parameters `(p, t, d)` as plain
//! integers and return `f64` values of the bound's dominant expression
//! (no hidden constants — the experiments report the measured/bound
//! *ratio*, whose stability across a sweep is the evidence that the shape
//! of the bound is right).

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

mod lemma32;

pub use lemma32::{lemma32_ratio, ln_choose, ln_gamma};

fn assert_params(p: usize, t: usize, d: u64) {
    assert!(p >= 1, "need at least one processor");
    assert!(t >= 1, "need at least one task");
    assert!(d >= 1, "the delay bound is a positive integer");
}

/// The delay-sensitive lower bound of Theorems 3.1/3.4:
/// `t + p·min{d, t}·log_{d+1}(d + t)`.
///
/// Any deterministic (randomized) algorithm performs at least this much
/// worst-case (expected) work, up to constants, against a d-adversary.
///
/// ```
/// use doall_bounds::{lower_bound_work, oblivious_work};
///
/// // The bound grows with d …
/// assert!(lower_bound_work(64, 1024, 16) > lower_bound_work(64, 1024, 1));
/// // … and caps near the quadratic wall once d ≥ t (Proposition 2.2).
/// let capped = lower_bound_work(64, 1024, 1_000_000);
/// assert!(capped <= 2.0 * oblivious_work(64, 1024) + 1024.0);
/// ```
#[must_use]
pub fn lower_bound_work(p: usize, t: usize, d: u64) -> f64 {
    assert_params(p, t, d);
    let (pf, tf, df) = (p as f64, t as f64, d as f64);
    tf + pf * df.min(tf) * (df + tf).ln() / (df + 1.0).ln().max(f64::MIN_POSITIVE)
}

/// The DA(q) upper bound of Theorem 5.5:
/// `t·p^ε + p·min{t, d}·⌈t/d⌉^ε` for the `ε` achieved by branching
/// factor `q` with schedule contention `cont` (Theorem 5.4 machinery:
/// `ε = log_q(4·a·Cont(Σ)/q·…)`; we expose the paper's headline shape and
/// let the caller pick `ε`).
#[must_use]
pub fn da_upper_bound(p: usize, t: usize, d: u64, epsilon: f64) -> f64 {
    assert_params(p, t, d);
    assert!(epsilon > 0.0 && epsilon <= 1.0, "ε must be in (0, 1]");
    let (pf, tf, df) = (p as f64, t as f64, d as f64);
    let ceil_t_over_d = (tf / df).ceil();
    tf * pf.powf(epsilon) + pf * tf.min(df) * ceil_t_over_d.powf(epsilon)
}

/// The `ε` that DA(q) with schedule contention `cont` actually achieves in
/// the Theorem 5.4 recursion: the recursion
/// `W(p, t) ≤ a·(Cont(Σ)·W(p/q, t/q) + p·q·min{d, t/q})` solves to
/// exponent `ε = log_q(Cont(Σ)/q)` on the task term — the "price of
/// contention". With Lemma 4.1 lists (`Cont ≤ 3qH_q`) this tends to 0 as
/// `q` grows.
#[must_use]
pub fn da_epsilon(q: usize, cont: usize) -> f64 {
    assert!(q >= 2, "q must be at least 2");
    assert!(cont >= q, "contention is at least n");
    ((cont as f64) / (q as f64)).ln().max(0.0) / (q as f64).ln()
}

/// The PA upper bound of Theorem 6.2/6.3 (with `n = min{t, p}`):
/// `t·log n + p·min{t, d}·log(2 + t/d)`.
#[must_use]
pub fn pa_upper_bound(p: usize, t: usize, d: u64) -> f64 {
    assert_params(p, t, d);
    let (pf, tf, df) = (p as f64, t as f64, d as f64);
    let n = pf.min(tf);
    tf * n.ln().max(1.0) + pf * tf.min(df) * (2.0 + tf / df).ln()
}

/// The PA message bound of Theorem 6.2/6.3:
/// `t·p·log n + p²·min{t, d}·log(2 + t/d)` — exactly `p` times
/// [`pa_upper_bound`].
#[must_use]
pub fn pa_message_bound(p: usize, t: usize, d: u64) -> f64 {
    pa_upper_bound(p, t, d) * p as f64
}

/// Work of the oblivious baseline: exactly `p·t` (Section 1) — the
/// quadratic ceiling, and the optimum once `d = Ω(t)` (Proposition 2.2).
#[must_use]
pub fn oblivious_work(p: usize, t: usize) -> f64 {
    assert!(p >= 1 && t >= 1, "parameters must be positive");
    p as f64 * t as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_bound_grows_with_d_until_t() {
        let base = lower_bound_work(16, 256, 1);
        let mid = lower_bound_work(16, 256, 16);
        assert!(mid > base);
        // Once d ≥ t the bound caps at Θ(p·t): min{d, t} = t and the log
        // tends to 1.
        let cap = lower_bound_work(16, 256, 100_000);
        assert!(cap < 2.0 * oblivious_work(16, 256) + 256.0);
        assert!(cap > 0.5 * oblivious_work(16, 256));
    }

    #[test]
    fn lower_bound_at_least_t() {
        assert!(lower_bound_work(1, 500, 1) >= 500.0);
    }

    #[test]
    fn da_bound_interpolates() {
        // Small d: the t·p^ε term dominates; large d: approaches p·t.
        let small = da_upper_bound(64, 4096, 1, 0.3);
        let large = da_upper_bound(64, 4096, 4096, 0.3);
        assert!(small < large);
        assert!(large >= oblivious_work(64, 4096));
    }

    #[test]
    fn da_epsilon_decreases_with_q_for_lemma41_lists() {
        // ε = log_q(3H_q): decreasing in q for q ≥ 3.
        let lemma41 = |q: usize| 3.0 * q as f64 * (1..=q).map(|j| 1.0 / j as f64).sum::<f64>();
        let eps = |q: usize| da_epsilon(q, lemma41(q).ceil() as usize);
        assert!(eps(8) < eps(4));
        assert!(eps(4) < eps(2) || eps(2) == 0.0);
    }

    #[test]
    fn pa_bound_shape() {
        let p = 64;
        let t = 4096;
        // d = 1: dominated by t·log n.
        let b1 = pa_upper_bound(p, t, 1);
        assert!(b1 < 2.0 * (t as f64) * (p as f64).ln() + 1000.0);
        // Growing d grows the bound.
        assert!(pa_upper_bound(p, t, 64) > b1);
        // Message bound is exactly p×.
        assert!((pa_message_bound(p, t, 7) - 64.0 * pa_upper_bound(p, t, 7)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn zero_d_rejected() {
        let _ = lower_bound_work(1, 1, 0);
    }
}
