//! Construction of low-contention schedule lists.
//!
//! Lemma 4.1 (Anderson & Woll) guarantees that for every `n` there is a
//! list `Σ` of `n` permutations of `[n]` with `Cont(Σ) ≤ 3nH_n = O(n log n)`;
//! the paper finds such lists by exhaustive search ("this cost might be of
//! order `(n!)^n`"). DA(q) only ever needs them for a *constant* `q`, so we
//! provide:
//!
//! * [`exhaustive_min_contention`] — provably optimal lists for `q ≤ 4`
//!   (using the left-composition invariance of contention to fix
//!   `π_0 = identity`);
//! * [`hill_climb_low_contention`] — local search with **exact**
//!   certification for `q ≤ 8`;
//! * [`Schedules::random`] — random lists for the large-`n` regime, whose
//!   `d`-contention is bounded by Theorem 4.4 with overwhelming
//!   probability (this is what PaDet uses, per Corollary 4.5).
//!
//! The dispatching constructor [`low_contention_list`] picks the strongest
//! affordable method.

use crate::contention::{d_contention_exact, d_contention_of_list, DContentionEstimate};
use crate::harmonic;
use crate::{PermError, Permutation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A validated, nonempty list of equal-size schedules
/// `Σ = ⟨π_0, …, π_{p−1}⟩`, the object both DA(q) and PaDet are
/// parameterized by.
///
/// ```
/// use doall_perms::Schedules;
///
/// // A Theorem 4.4-style random list: 8 schedules over [32].
/// let sigma = Schedules::random(8, 32, 42);
/// assert_eq!((sigma.len(), sigma.n()), (8, 32));
///
/// // Its d-contention grows with d and saturates at n·p.
/// let profile = sigma.d_contention_profile(&[1, 4, 32]);
/// assert!(profile[0].value <= profile[1].value);
/// assert_eq!(profile[2].value, 8 * 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedules {
    perms: Vec<Permutation>,
}

impl Schedules {
    /// Wraps a list of permutations.
    ///
    /// # Errors
    ///
    /// Returns [`PermError::Empty`] for an empty list and
    /// [`PermError::NotABijection`] if the sizes disagree (the list would
    /// not be a subset of a single `S_n`).
    pub fn from_perms(perms: Vec<Permutation>) -> Result<Self, PermError> {
        let first = perms.first().ok_or(PermError::Empty)?;
        let n = first.n();
        if perms.iter().any(|p| p.n() != n) {
            return Err(PermError::NotABijection);
        }
        Ok(Self { perms })
    }

    /// A list of `count` independent uniformly random permutations of
    /// `[n]` — the Theorem 4.4 construction.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `n == 0`.
    #[must_use]
    pub fn random(count: usize, n: usize, seed: u64) -> Self {
        assert!(count > 0, "need at least one schedule");
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            perms: (0..count)
                .map(|_| Permutation::random(n, &mut rng))
                .collect(),
        }
    }

    /// `count` copies of the identity — the *worst possible* list
    /// (contention `count · n`), useful as an experimental control.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `n == 0`.
    #[must_use]
    pub fn worst(count: usize, n: usize) -> Self {
        assert!(count > 0, "need at least one schedule");
        Self {
            perms: vec![Permutation::identity(n); count],
        }
    }

    /// Size `n` of the underlying set.
    #[must_use]
    pub fn n(&self) -> usize {
        self.perms[0].n()
    }

    /// Number of schedules in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// Always `false` (the type is validated nonempty); present for
    /// `len`/`is_empty` API symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `u`-th schedule.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn get(&self, u: usize) -> &Permutation {
        &self.perms[u]
    }

    /// All schedules as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Permutation] {
        &self.perms
    }

    /// `d`-contention of this list for each `d` in `ds` (exact for
    /// `n ≤ 8`, estimated otherwise); `d = 1` is `Cont(Σ)`.
    #[must_use]
    pub fn d_contention_profile(&self, ds: &[usize]) -> Vec<DContentionEstimate> {
        ds.iter()
            .map(|&d| d_contention_of_list(&self.perms, d))
            .collect()
    }
}

/// The Lemma 4.1 existence bound `3nH_n` for lists of `n` permutations of
/// `[n]`.
#[must_use]
pub fn lemma41_bound(n: usize) -> f64 {
    3.0 * n as f64 * harmonic(n)
}

/// Exhaustive search for a minimum-contention list of `q` permutations of
/// `[q]`, exact by construction.
///
/// Contention is invariant under left-composition of the whole list with a
/// fixed permutation (substituting `ϱ → ρ⁻¹ϱ` in the max), so every
/// contention value is achieved by a list with `π_0 = identity`; we only
/// enumerate those, reducing the search space from `(q!)^q` to
/// `(q!)^{q−1}`.
///
/// # Panics
///
/// Panics unless `1 ≤ q ≤ 4` (beyond that the space is astronomically
/// large; use [`hill_climb_low_contention`]).
#[must_use]
pub fn exhaustive_min_contention(q: usize) -> (Schedules, usize) {
    assert!(
        (1..=4).contains(&q),
        "exhaustive search is only affordable for 1 ≤ q ≤ 4 (got {q})"
    );
    let all: Vec<Permutation> = Permutation::all(q).collect();
    let mut best: Option<(Vec<Permutation>, usize)> = None;
    let mut stack: Vec<Permutation> = vec![Permutation::identity(q)];
    search_lists(&all, q, &mut stack, &mut best);
    #[expect(
        clippy::expect_used,
        reason = "invariant: the identity-rooted search always records a candidate"
    )]
    let (perms, value) = best.expect("search space is nonempty");
    (Schedules { perms }, value)
}

fn search_lists(
    all: &[Permutation],
    q: usize,
    stack: &mut Vec<Permutation>,
    best: &mut Option<(Vec<Permutation>, usize)>,
) {
    if stack.len() == q {
        let value = d_contention_exact(stack, 1);
        if best.as_ref().is_none_or(|(_, b)| value < *b) {
            *best = Some((stack.clone(), value));
        }
        return;
    }
    for candidate in all {
        stack.push(candidate.clone());
        search_lists(all, q, stack, best);
        stack.pop();
    }
}

/// Randomized hill-climbing for a low-contention list of `q` permutations
/// of `[q]`, with **exact** contention certification of the result.
///
/// Moves are transpositions within a single schedule; `restarts`
/// independent starts, first-improvement descent. Each evaluation is the
/// `O(2^q · q²)` subset recurrence of [`d_contention_exact`] at `d = 1`;
/// `q` stops at 8, the exact range of [`d_contention_of_list`].
///
/// # Panics
///
/// Panics unless `2 ≤ q ≤ 8`.
#[must_use]
pub fn hill_climb_low_contention(q: usize, seed: u64, restarts: usize) -> (Schedules, usize) {
    assert!(
        (2..=8).contains(&q),
        "exact certification requires 2 ≤ q ≤ 8 (got {q})"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: Option<(Vec<Permutation>, usize)> = None;

    for _ in 0..restarts.max(1) {
        let mut current: Vec<Permutation> =
            (0..q).map(|_| Permutation::random(q, &mut rng)).collect();
        let mut value = d_contention_exact(&current, 1);
        // First-improvement descent with a bounded stall budget.
        let mut stall = 0usize;
        let budget = 8 * q * q;
        while stall < budget {
            let u = rng.random_range(0..q);
            let i = rng.random_range(0..q);
            let j = rng.random_range(0..q);
            if i == j {
                stall += 1;
                continue;
            }
            current[u].swap_positions(i, j);
            let v = d_contention_exact(&current, 1);
            if v < value {
                value = v;
                stall = 0;
            } else {
                current[u].swap_positions(i, j);
                stall += 1;
            }
        }
        if best.as_ref().is_none_or(|(_, b)| value < *b) {
            best = Some((current, value));
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "invariant: restarts ≥ 1, so the loop records a best"
    )]
    let (perms, value) = best.expect("at least one restart");
    (Schedules { perms }, value)
}

/// Constructs a list of `q` permutations of `[q]` with certified-low
/// contention, dispatching on `q`:
///
/// * `q ≤ 3` — provably optimal (exhaustive; at `q = 1` the one
///   permutation of `[1]`, contention 1);
/// * `q ≤ 8` — hill-climbing with exact certification;
/// * otherwise — a random list with an estimated certificate (the
///   Theorem 4.4 regime).
///
/// Returns the list and its (certified or estimated) contention.
///
/// # Panics
///
/// Panics if `q == 0`.
#[must_use]
pub fn low_contention_list(q: usize, seed: u64) -> (Schedules, DContentionEstimate) {
    assert!(q >= 1, "a schedule list needs at least one job");
    let certified = |(s, value): (Schedules, usize)| {
        let c = DContentionEstimate {
            d: 1,
            value,
            exact: true,
        };
        (s, c)
    };
    match q {
        1..=3 => certified(exhaustive_min_contention(q)),
        4..=8 => certified(hill_climb_low_contention(q, seed, 3)),
        _ => {
            let s = Schedules::random(q, q, seed);
            let c = d_contention_of_list(s.as_slice(), 1);
            (s, c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_perms_validates() {
        assert_eq!(Schedules::from_perms(vec![]).unwrap_err(), PermError::Empty);
        let bad = Schedules::from_perms(vec![Permutation::identity(2), Permutation::identity(3)]);
        assert_eq!(bad.unwrap_err(), PermError::NotABijection);
        let ok = Schedules::from_perms(vec![Permutation::identity(3); 2]).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.n(), 3);
    }

    #[test]
    fn one_job_list_is_the_identity_with_contention_one() {
        let (s, c) = low_contention_list(1, 0);
        assert_eq!(s.as_slice(), [Permutation::identity(1)]);
        assert_eq!((c.d, c.value, c.exact), (1, 1, true));
        assert_eq!(exhaustive_min_contention(1), (s, 1));
    }

    #[test]
    fn exhaustive_q2_is_optimal() {
        let (s, v) = exhaustive_min_contention(2);
        assert_eq!(s.len(), 2);
        // For q = 2: the best list pairs the two orders; Cont = 3
        // (one schedule contributes 2, the other 1, whatever ϱ is).
        assert_eq!(v, 3);
        assert_eq!(d_contention_exact(s.as_slice(), 1), 3);
    }

    #[test]
    fn exhaustive_q3_beats_lemma41() {
        let (s, v) = exhaustive_min_contention(3);
        assert_eq!(s.len(), 3);
        assert!(v as f64 <= lemma41_bound(3), "{v} vs {}", lemma41_bound(3));
        // Sanity: strictly better than the all-identical list (9).
        assert!(v < 9);
    }

    #[test]
    fn hill_climb_q4_certified() {
        let (s, v) = hill_climb_low_contention(4, 1, 2);
        assert_eq!(
            d_contention_exact(s.as_slice(), 1),
            v,
            "certificate is exact"
        );
        assert!(v as f64 <= lemma41_bound(4), "{v} vs {}", lemma41_bound(4));
    }

    #[test]
    fn hill_climb_matches_exhaustive_on_q3() {
        let (_, opt) = exhaustive_min_contention(3);
        let (_, hc) = hill_climb_low_contention(3, 5, 4);
        assert!(hc >= opt);
        assert!(hc <= opt + 2, "hill climbing should land near optimum");
    }

    #[test]
    fn dispatcher_modes() {
        let (s2, c2) = low_contention_list(2, 0);
        assert!(c2.exact);
        assert_eq!(s2.len(), 2);
        let (s5, c5) = low_contention_list(5, 0);
        assert!(c5.exact);
        assert_eq!(s5.len(), 5);
        assert!(c5.value as f64 <= lemma41_bound(5));
        let (s12, c12) = low_contention_list(12, 0);
        assert!(!c12.exact);
        assert_eq!(s12.len(), 12);
    }

    #[test]
    fn worst_list_has_maximal_contention() {
        let s = Schedules::worst(3, 3);
        assert_eq!(d_contention_exact(s.as_slice(), 1), 9);
    }

    #[test]
    fn random_schedules_deterministic_by_seed() {
        let a = Schedules::random(4, 10, 99);
        let b = Schedules::random(4, 10, 99);
        assert_eq!(a, b);
        let c = Schedules::random(4, 10, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn d_contention_profile_monotone() {
        let s = Schedules::random(3, 6, 0);
        let prof = s.d_contention_profile(&[1, 2, 3, 6]);
        for w in prof.windows(2) {
            assert!(w[0].value <= w[1].value);
        }
        assert_eq!(prof.last().unwrap().value, 18, "saturates at n·p");
    }
}
