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

use crate::lrm::Fenwick;
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
/// Each reference is scored from scratch, `O(p·n log n)` on buffers the
/// call allocates once. The ascent then proposes `max(4n, 128)` random
/// transpositions of two ranks `lo < hi` of `ϱ`, and scores each by its
/// change alone. Call `g` the number of earlier positions of `π_u` that
/// hold a greater rank; a position counts when `g < d`. The swap moves
/// the two jobs at positions `x < y` of `π_u`, and changes `g` only:
///
/// * at positions between them holding a rank inside `(lo, hi)`, by one;
/// * at `x` by `c`, the number of such ranks before `x`;
/// * at `y` by `c + m + 1`, where `m` counts such ranks between `x` and `y`.
///
/// (Each change is upward where the rank rises, at the middle positions
/// and `y` when `x` held `lo`.) A proposal then costs one `O(n)` scan per
/// schedule, `O(p·n)` in all, and allocates nothing. The swap is kept
/// only when it raises the value. The draws and the returned value are
/// those of rescoring every proposal with [`d_contention_wrt`].
///
/// Only reports on `n` beyond the exact range use this; the algorithms rely
/// on exact values for small `q` or on the probabilistic bounds of
/// Theorem 4.4.
///
/// # Panics
///
/// Panics if `sigma` is empty or the sizes disagree.
#[must_use]
pub fn d_contention_estimate(sigma: &[Permutation], d: usize, samples: usize, seed: u64) -> usize {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    let n = sigma[0].n();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ranked = Ranked::new(sigma, d);

    // The identity is the natural first guess: for schedule lists built from
    // "forward-leaning" permutations it is often the worst case.
    let mut rho = Permutation::identity(n);
    let mut best = ranked.fill(&rho);

    for _ in 0..samples {
        let sample = Permutation::random(n, &mut rng);
        let v = ranked.fill(&sample);
        if v > best {
            best = v;
            rho = sample;
        }
    }

    // Greedy ascent: propose random transpositions, keep improvements.
    let budget = if n < 2 { 0 } else { (4 * n).max(128) };
    ranked.fill(&rho);
    for _ in 0..budget {
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j {
            continue;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let gain = ranked.gain(&rho, lo, hi);
        if gain > 0 {
            ranked.commit(&mut rho, lo, hi);
            best += gain.unsigned_abs();
        }
    }
    best
}

/// `(d)-Cont(Σ, ϱ)` for one reference `ϱ`, kept per position so that a
/// swap of two ranks of `ϱ` can be scored and applied in `O(p·n)`.
struct Ranked<'a> {
    sigma: &'a [Permutation],
    d: usize,
    n: usize,
    /// `pos[u·n + x]`: the position of job `x` in `π_u`.
    pos: Vec<u32>,
    /// `rank[u·n + k] = ϱ⁻¹(π_u(k))`.
    rank: Vec<u32>,
    /// `greater[u·n + k]`: the earlier positions of `π_u` holding a greater
    /// rank than `k` does.
    greater: Vec<u32>,
    /// `ϱ⁻¹`, rebuilt by each `fill`.
    rank_of: Vec<u32>,
    fenwick: Fenwick,
}

impl<'a> Ranked<'a> {
    fn new(sigma: &'a [Permutation], d: usize) -> Self {
        let n = sigma[0].n();
        let mut pos = vec![0u32; sigma.len() * n];
        for (u, pi) in sigma.iter().enumerate() {
            assert_eq!(pi.n(), n, "schedule sizes must agree");
            for (k, &x) in pi.as_slice().iter().enumerate() {
                pos[u * n + x as usize] = k as u32;
            }
        }
        Self {
            sigma,
            d,
            n,
            pos,
            rank: vec![0; sigma.len() * n],
            greater: vec![0; sigma.len() * n],
            rank_of: vec![0; n],
            fenwick: Fenwick::new(n),
        }
    }

    /// Sets the reference to `rho` and returns `(d)-Cont(Σ, rho)`.
    fn fill(&mut self, rho: &Permutation) -> usize {
        for (r, &x) in rho.as_slice().iter().enumerate() {
            self.rank_of[x as usize] = r as u32;
        }
        let n = self.n;
        let mut count = 0;
        for (u, pi) in self.sigma.iter().enumerate() {
            self.fenwick.clear();
            let row = u * n..(u + 1) * n;
            let cells = self.rank[row.clone()]
                .iter_mut()
                .zip(&mut self.greater[row]);
            for ((k, &x), (rank, greater)) in pi.as_slice().iter().enumerate().zip(cells) {
                *rank = self.rank_of[x as usize];
                // Earlier ranks greater than this one = k - (earlier ranks ≤ it).
                *greater = (k - self.fenwick.prefix_sum(*rank as usize)) as u32;
                self.fenwick.add(*rank as usize);
                count += usize::from((*greater as usize) < self.d);
            }
        }
        count
    }

    /// For schedule `u` and the jobs of ranks `lo < hi` under `rho`: their
    /// positions `x < y` in `π_u`, whether `x` holds `lo` (then the swap
    /// raises the rank at `x`), and `c`, the number of positions before `x`
    /// holding a rank inside `(lo, hi)`.
    fn ends(
        &self,
        rho: &Permutation,
        u: usize,
        lo: usize,
        hi: usize,
    ) -> (usize, usize, bool, usize) {
        let row = u * self.n;
        let at_lo = self.pos[row + rho.apply(lo)] as usize;
        let at_hi = self.pos[row + rho.apply(hi)] as usize;
        let (x, y) = (at_lo.min(at_hi), at_lo.max(at_hi));
        let c = self.rank[row..row + x]
            .iter()
            .filter(|&&r| inside(r, lo, hi))
            .count();
        (x, y, at_lo < at_hi, c)
    }

    /// The change in `(d)-Cont(Σ, ϱ)` if `rho`'s ranks `lo < hi` swapped.
    fn gain(&self, rho: &Permutation, lo: usize, hi: usize) -> isize {
        let below = |g: usize| isize::from(g < self.d);
        let mut gain = 0;
        for u in 0..self.sigma.len() {
            let (x, y, rises, c) = self.ends(rho, u, lo, hi);
            let row = u * self.n..(u + 1) * self.n;
            let (rank, greater) = (&self.rank[row.clone()], &self.greater[row]);
            // A middle count moves by one, so it crosses d only from
            // d − 1 when it rises and from d when it falls.
            let edge = if rises {
                self.d.wrapping_sub(1)
            } else {
                self.d
            };
            let (mut m, mut crossed) = (0, 0);
            for (&r, &g) in rank[x + 1..y].iter().zip(&greater[x + 1..y]) {
                let inside = inside(r, lo, hi);
                m += usize::from(inside);
                crossed += usize::from(inside & (g as usize == edge));
            }
            let (gx, gy) = (greater[x] as usize, greater[y] as usize);
            let (gx2, gy2, middle) = if rises {
                (gx - c, gy + c + m + 1, -(crossed as isize))
            } else {
                (gx + c, gy - (c + m + 1), crossed as isize)
            };
            gain += middle + below(gx2) - below(gx) + below(gy2) - below(gy);
        }
        gain
    }

    /// Swaps `rho`'s ranks `lo < hi`, and the kept ranks and counts with
    /// them.
    fn commit(&mut self, rho: &mut Permutation, lo: usize, hi: usize) {
        for u in 0..self.sigma.len() {
            let (x, y, rises, c) = self.ends(rho, u, lo, hi);
            let row = u * self.n..(u + 1) * self.n;
            let (rank, greater) = (&mut self.rank[row.clone()], &mut self.greater[row]);
            let mut m = 0;
            for (&r, g) in rank[x + 1..y].iter().zip(&mut greater[x + 1..y]) {
                if inside(r, lo, hi) {
                    m += 1;
                    *g = if rises { *g + 1 } else { *g - 1 };
                }
            }
            let moved = (c + m + 1) as u32;
            if rises {
                greater[x] -= c as u32;
                greater[y] += moved;
            } else {
                greater[x] += c as u32;
                greater[y] -= moved;
            }
            rank.swap(x, y);
        }
        rho.swap_positions(lo, hi);
    }
}

/// Whether rank `r` lies strictly between `lo` and `hi` (one compare: below
/// `lo + 1` wraps around to a large value).
fn inside(r: u32, lo: usize, hi: usize) -> bool {
    r.wrapping_sub(lo as u32 + 1) < (hi - lo - 1) as u32
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
    fn estimate_at_edge_delays() {
        // d = 0 counts no position; d ≥ n counts all n·p of them. A d cast
        // to u32 would read 2^32 as 0.
        let mut rng = StdRng::seed_from_u64(3);
        let sigma: Vec<Permutation> = (0..4).map(|_| Permutation::random(80, &mut rng)).collect();
        assert_eq!(d_contention_estimate(&sigma, 0, 8, 0), 0);
        for d in [80, 1 << 32, usize::MAX] {
            assert_eq!(d_contention_estimate(&sigma, d, 8, 0), 320, "d={d}");
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
