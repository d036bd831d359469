//! Contention of schedule lists (Anderson & Woll; Section 4 of the paper)
//! and its delay-sensitive generalization (Section 4.2).
//!
//! For a list `Σ = ⟨π_0, …, π_{p−1}⟩` of permutations of `[n]`, a
//! reference permutation `ϱ ∈ S_n` and a delay `d`,
//!
//! ```text
//! (d)-Cont(Σ, ϱ) = Σ_u (d)-lrm(ϱ⁻¹ ∘ π_u),
//! (d)-Cont(Σ)    = max_{ϱ ∈ S_n} (d)-Cont(Σ, ϱ).
//! ```
//!
//! Anderson & Woll's `Cont(Σ)` is the `d = 1` case, because `(1)-lrm` is
//! `lrm`. `Cont(Σ)` bounds the number of *primary* (first-time, possibly
//! concurrent) job executions of the oblivious algorithm ObliDo
//! (Lemma 4.2), and through the recursion of Lemma 5.3 drives the work of
//! DA(q). For any list, `n ≤ Cont(Σ) ≤ n·p` (each of the `p` schedules
//! contributes between 1 and `n` maxima); the paper states the `p = n`
//! special case `n ≤ Cont(Σ) ≤ n²`.
//!
//! Lemma 6.1 bridges combinatorics and executions: the work of the schedule
//! algorithms PaDet/PaRan1 against any `d`-adversary is at most
//! `(d)-Cont(Σ)`. Theorem 4.4 shows a random list of `p` schedules
//! satisfies, for **every** `d` simultaneously,
//! `(d)-Cont(Σ) ≤ n·ln n + 8·p·d·ln(e + n/d)` with probability at least
//! `1 − e^{−n ln n · ln(7/e²) − p}`, and Corollary 4.5 extracts the
//! deterministic lists used by PaDet.

use crate::{d_lrm, Permutation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest `n` for which [`d_contention_of_list`] returns the exact value.
const EXACT_MAX_N: usize = 8;

/// `(d)-Cont(Σ, ϱ) = Σ_u (d)-lrm(ϱ⁻¹ ∘ π_u)`; `d = 1` gives `Cont(Σ, ϱ)`.
///
/// # Panics
///
/// Panics if `sigma` is empty or the sizes disagree.
#[must_use]
pub fn d_contention_wrt(sigma: &[Permutation], rho: &Permutation, d: usize) -> usize {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    let rho_inv = rho.inverse();
    sigma
        .iter()
        .map(|pi| {
            assert_eq!(pi.n(), rho.n(), "schedule sizes must agree");
            d_lrm(&rho_inv.compose(pi), d)
        })
        .sum()
}

/// Exact `(d)-Cont(Σ) = max_ϱ (d)-Cont(Σ, ϱ)` by a recurrence over subsets
/// of jobs rather than over the `n!` reference permutations.
///
/// Read `ϱ` as the order in which jobs are placed. Job `x` is a
/// `d`-left-to-right maximum of `ϱ⁻¹ ∘ π_u` exactly when fewer than `d` of
/// its predecessors in `π_u` are still unplaced at the moment `x` is
/// placed. So `(d)-Cont(Σ, ϱ)` is a sum of gains
/// `gain(S, x) = #{u : |pred_u(x) ∖ S| < d}` that depend only on the set
/// `S` placed before `x`, and the maximum over `ϱ` is `f([n])` for
///
/// ```text
/// f(∅) = 0,   f(T) = max_{x ∈ T} f(T ∖ {x}) + gain(T ∖ {x}, x).
/// ```
///
/// Cost is `O(2ⁿ · n · p)` time and a table of `2ⁿ` entries.
///
/// # Panics
///
/// Panics if `sigma` is empty, the sizes disagree, or `n > 20` (the
/// table would exceed 2²⁰ entries).
#[must_use]
pub fn d_contention_exact(sigma: &[Permutation], d: usize) -> usize {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    let (n, p) = (sigma[0].n(), sigma.len());
    assert!(n <= 20, "the 2^n table caps n at 20 (got {n})");
    // pred[x·p + u]: bitmask of the jobs before x in π_u.
    let mut pred = vec![0u32; n * p];
    for (u, pi) in sigma.iter().enumerate() {
        assert_eq!(pi.n(), n, "schedule sizes must agree");
        let mut before = 0u32;
        for &x in pi.as_slice() {
            pred[x as usize * p + u] = before;
            before |= 1 << x;
        }
    }
    // Every set is numbered after its subsets, so one ascending pass
    // settles f(S) before S is extended.
    let mut f = vec![0usize; 1 << n];
    for s in 0..f.len() {
        let unplaced = !(s as u32);
        for x in (0..n).filter(|&x| s & (1 << x) == 0) {
            let gain = pred[x * p..(x + 1) * p]
                .iter()
                .filter(|&&m| ((m & unplaced).count_ones() as usize) < d)
                .count();
            let t = s | (1 << x);
            f[t] = f[t].max(f[s] + gain);
        }
    }
    f[f.len() - 1]
}

/// Result of a `(d)`-contention computation (value + exactness flag);
/// `d = 1` is `Cont(Σ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DContentionEstimate {
    /// The delay parameter `d` the value refers to.
    pub d: usize,
    /// The (estimated or exact) `d`-contention value.
    pub value: usize,
    /// `true` if `value` is the exact maximum over all of `S_n`.
    pub exact: bool,
}

/// Estimates `(d)-Cont(Σ)` from below: the max of `(d)-Cont(Σ, ϱ)` over
/// the identity and `samples` random `ϱ`, followed by a first-improvement
/// swap ascent from the best of them (bounded proposal budget).
///
/// Only reports on `n` beyond the exact range use this; the algorithms rely
/// on exact values for small `q` or on the probabilistic bounds of
/// Theorem 4.4.
///
/// # Panics
///
/// Panics if `sigma` is empty.
#[must_use]
pub fn d_contention_estimate(sigma: &[Permutation], d: usize, samples: usize, seed: u64) -> usize {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    let n = sigma[0].n();
    let mut rng = StdRng::seed_from_u64(seed);

    // The identity is the natural first guess: for schedule lists built from
    // "forward-leaning" permutations it is often the worst case.
    let mut best_rho = Permutation::identity(n);
    let mut best = d_contention_wrt(sigma, &best_rho, d);

    for _ in 0..samples {
        let rho = Permutation::random(n, &mut rng);
        let v = d_contention_wrt(sigma, &rho, d);
        if v > best {
            best = v;
            best_rho = rho;
        }
    }

    // Greedy ascent: propose random transpositions, keep improvements.
    let budget = (4 * n).max(128);
    let mut rho = best_rho;
    for _ in 0..budget {
        if n < 2 {
            break;
        }
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j {
            continue;
        }
        rho.swap_positions(i, j);
        let v = d_contention_wrt(sigma, &rho, d);
        if v > best {
            best = v;
        } else {
            rho.swap_positions(i, j); // revert
        }
    }
    best
}

/// `(d)-Cont(Σ)` with an automatic exact/estimate decision: exact for
/// `n ≤ 8`, sampled estimate (64 samples, seed 0) otherwise.
///
/// # Panics
///
/// Panics if `sigma` is empty.
#[must_use]
pub fn d_contention_of_list(sigma: &[Permutation], d: usize) -> DContentionEstimate {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    let exact = sigma[0].n() <= EXACT_MAX_N;
    let value = if exact {
        d_contention_exact(sigma, d)
    } else {
        d_contention_estimate(sigma, d, 64, 0)
    };
    DContentionEstimate { d, value, exact }
}

/// The Theorem 4.4 threshold `n·ln n + 8·p·d·ln(e + n/d)`: a random list of
/// `p` schedules from `S_n` stays below this for every `d` simultaneously
/// with overwhelming probability.
///
/// # Panics
///
/// Panics if `n == 0`, `p == 0`, or `d == 0`.
#[must_use]
pub fn dcont_threshold(n: usize, p: usize, d: usize) -> f64 {
    assert!(n > 0 && p > 0 && d > 0, "parameters must be positive");
    let (n, p, d) = (n as f64, p as f64, d as f64);
    n * n.ln() + 8.0 * p * d * (std::f64::consts::E + n / d).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perm(img: &[u32]) -> Permutation {
        Permutation::from_image(img.to_vec()).unwrap()
    }

    /// The definition itself: the maximum over all `n!` reference
    /// permutations.
    fn brute_force(sigma: &[Permutation], d: usize) -> usize {
        Permutation::all(sigma[0].n())
            .map(|rho| d_contention_wrt(sigma, &rho, d))
            .max()
            .unwrap()
    }

    #[test]
    fn exact_matches_enumeration_of_all_references() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for n in 1..=7 {
            for p in [1, 2, n, 2 * n] {
                let sigma: Vec<Permutation> =
                    (0..p).map(|_| Permutation::random(n, &mut rng)).collect();
                for d in 1..=n + 1 {
                    assert_eq!(
                        d_contention_exact(&sigma, d),
                        brute_force(&sigma, d),
                        "n={n} p={p} d={d} Σ={sigma:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn contention_wrt_identity_is_sum_of_lrm() {
        let sigma = vec![Permutation::identity(4), Permutation::reversal(4)];
        let id = Permutation::identity(4);
        assert_eq!(d_contention_wrt(&sigma, &id, 1), 4 + 1);
    }

    #[test]
    fn single_identity_schedule_has_contention_n() {
        // Σ = ⟨ι⟩: Cont(Σ, ϱ) = lrm(ϱ⁻¹), maximized at ϱ = ι giving n.
        let sigma = vec![Permutation::identity(4)];
        assert_eq!(d_contention_exact(&sigma, 1), 4);
    }

    #[test]
    fn identical_schedules_have_maximal_contention() {
        // p copies of the same permutation: worst ϱ aligns them all to the
        // identity, giving p·n.
        let sigma = vec![perm(&[2, 0, 1]); 3];
        assert_eq!(d_contention_exact(&sigma, 1), 9);
    }

    #[test]
    fn contention_bounds_hold_for_all_lists_n3() {
        // Exhaustively check n ≤ Cont(Σ) ≤ n·p over all lists of 2
        // permutations of [3].
        let all: Vec<Permutation> = Permutation::all(3).collect();
        for a in &all {
            for b in &all {
                let sigma = vec![a.clone(), b.clone()];
                let c = d_contention_exact(&sigma, 1);
                assert!((3..=6).contains(&c), "{a:?} {b:?}: {c}");
            }
        }
    }

    #[test]
    fn exact_beats_or_equals_estimate() {
        let hand = vec![
            perm(&[0, 1, 2, 3]),
            perm(&[3, 2, 1, 0]),
            perm(&[1, 3, 0, 2]),
            perm(&[2, 0, 3, 1]),
        ];
        let mut rng = StdRng::seed_from_u64(23);
        let random: Vec<Permutation> = (0..4).map(|_| Permutation::random(6, &mut rng)).collect();
        for sigma in [hand, random] {
            for d in [1, 2, 3] {
                let exact = d_contention_exact(&sigma, d);
                let est = d_contention_estimate(&sigma, d, 16, 42);
                assert!(est <= exact, "d={d}: estimate {est} > exact {exact}");
                assert!(est >= sigma[0].n(), "at least n");
            }
        }
    }

    #[test]
    fn of_list_is_exact_for_small_n() {
        let sigma = vec![Permutation::identity(5), Permutation::reversal(5)];
        for d in [1, 2] {
            let c = d_contention_of_list(&sigma, d);
            assert!(c.exact);
            assert_eq!((c.d, c.value), (d, d_contention_exact(&sigma, d)));
        }
    }

    #[test]
    fn of_list_estimates_for_large_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let sigma: Vec<Permutation> = (0..4).map(|_| Permutation::random(16, &mut rng)).collect();
        for d in [1, 2] {
            let c = d_contention_of_list(&sigma, d);
            assert!(!c.exact);
            assert!(c.value >= 16, "at least n");
            assert!(c.value <= 64, "at most n·p");
        }
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn empty_list_panics() {
        let _ = d_contention_exact(&[], 1);
    }

    #[test]
    fn large_d_saturates_at_np() {
        let sigma = vec![Permutation::identity(4), Permutation::reversal(4)];
        assert_eq!(d_contention_exact(&sigma, 4), 8);
        assert_eq!(d_contention_exact(&sigma, 100), 8);
    }

    #[test]
    fn monotone_in_d() {
        let mut rng = StdRng::seed_from_u64(17);
        let sigma: Vec<Permutation> = (0..3).map(|_| Permutation::random(6, &mut rng)).collect();
        let mut prev = 0;
        for d in 1..=6 {
            let cur = d_contention_exact(&sigma, d);
            assert!(cur >= prev, "d-contention must grow with d");
            prev = cur;
        }
        assert_eq!(prev, 18);
    }

    #[test]
    fn threshold_is_increasing_in_d_and_p() {
        let base = dcont_threshold(100, 10, 1);
        assert!(dcont_threshold(100, 10, 5) > base);
        assert!(dcont_threshold(100, 20, 1) > base);
        assert!(base > 100.0 * (100.0f64).ln());
    }

    #[test]
    fn wrt_identity_hand_check() {
        // Σ = ⟨⟨3 1 0 2⟩⟩, ϱ = identity: (d)-Cont = (d)-lrm of the schedule.
        let sigma = vec![perm(&[3, 1, 0, 2])];
        let id = Permutation::identity(4);
        assert_eq!(d_contention_wrt(&sigma, &id, 1), 1);
        assert_eq!(d_contention_wrt(&sigma, &id, 2), 3);
        assert_eq!(d_contention_wrt(&sigma, &id, 3), 4);
    }
}
