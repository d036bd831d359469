//! Structured (O(1)-storage, O(1)-evaluation) schedule constructions.
//!
//! The paper leaves open "how to construct such permutations efficiently"
//! (§7) — its deterministic lists come from exhaustive search (tiny `q`)
//! or the probabilistic method (Corollary 4.5), and the constructive
//! alternative it cites (Naor–Roth) needs `q` exponential in `1/ε³`.
//! This module provides the two classical cheap constructions so the
//! experiment harness (E15) can measure how their contention compares
//! with random lists:
//!
//! * [`rotation_schedules`] — `π_u(i) = (i + u·⌈n/p⌉) mod n`: what a
//!   practitioner would write first. Spreads *starting points* perfectly,
//!   but all processors sweep in the same direction, so its plain
//!   contention is poor (`Θ(n·p)` against the identity ordering) — a
//!   useful cautionary baseline.
//! * [`affine_schedules`] — `π_u(i) = (aᵤ·i + bᵤ) mod n` for `n` prime
//!   and distinct multipliers `aᵤ`: the direction varies per processor,
//!   which empirically brings `d`-contention close to random lists while
//!   needing only two words of state per schedule.

use crate::{PermError, Permutation, Schedules};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Rotation schedules: processor `u` starts at offset `u·⌈n/count⌉` and
/// wraps — perfect start-point spreading, identical sweep direction.
///
/// # Panics
///
/// Panics if `count == 0` or `n == 0`.
#[must_use]
pub fn rotation_schedules(count: usize, n: usize) -> Schedules {
    assert!(count > 0, "need at least one schedule");
    assert!(n > 0, "permutations must be nonempty");
    let stride = n.div_ceil(count);
    let perms = (0..count)
        .map(|u| {
            let off = (u * stride) % n;
            Permutation::from_image((0..n).map(|i| ((i + off) % n) as u32).collect())
                // lint:allow(H001) — invariant: i ↦ i+off mod n is a bijection
                .expect("rotation is a bijection")
        })
        .collect();
    // lint:allow(H001) — invariant: count ≥ 1 rotations were just built
    Schedules::from_perms(perms).expect("nonempty by construction")
}

/// Whether `n` is prime (trial division; the schedule sizes in play are
/// tiny).
#[must_use]
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut k = 2;
    while k * k <= n {
        if n % k == 0 {
            return false;
        }
        k += 1;
    }
    true
}

/// Affine schedules over a prime modulus: `π_u(i) = (aᵤ·i + bᵤ) mod n`
/// with the multipliers `aᵤ ∈ {1, …, n−1}` drawn without replacement (so
/// every processor sweeps with a different stride/direction) and offsets
/// `bᵤ` random.
///
/// # Errors
///
/// Returns [`PermError::NotABijection`] if `n` is not prime (composite
/// moduli make `a·i mod n` non-injective for `gcd(a, n) > 1`; restricting
/// to primes keeps the construction simple and is no practical loss —
/// pad the job set to the next prime).
pub fn affine_schedules(count: usize, n: usize, seed: u64) -> Result<Schedules, PermError> {
    assert!(count > 0, "need at least one schedule");
    if !is_prime(n) {
        return Err(PermError::NotABijection);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut multipliers: Vec<usize> = (1..n).collect();
    multipliers.shuffle(&mut rng);
    let mut offsets: Vec<usize> = (0..n).collect();
    offsets.shuffle(&mut rng);
    let perms = (0..count)
        .map(|u| {
            let a = multipliers[u % multipliers.len()];
            let b = offsets[u % offsets.len()];
            Permutation::from_image((0..n).map(|i| ((a * i + b) % n) as u32).collect())
                // lint:allow(H001) — invariant: gcd(a, n) = 1 for prime n, so the map is a bijection
                .expect("affine map over a prime modulus is a bijection")
        })
        .collect();
    Schedules::from_perms(perms)
}

/// The smallest prime `≥ n` (for padding job sets to a prime size).
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn next_prime(n: usize) -> usize {
    assert!(n > 0, "n must be positive");
    let mut k = n.max(2);
    while !is_prime(k) {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::d_contention_exact;

    #[test]
    fn rotations_are_valid_permutations() {
        let s = rotation_schedules(4, 10);
        assert_eq!(s.len(), 4);
        assert_eq!(s.n(), 10);
        // Offsets: 0, 3, 6, 9.
        assert_eq!(s.get(0).apply(0), 0);
        assert_eq!(s.get(1).apply(0), 3);
        assert_eq!(s.get(3).apply(9), (9 + 9) % 10);
    }

    #[test]
    fn rotation_contention_is_poor_against_identity() {
        // All rotations share the sweep direction: against ϱ = identity,
        // schedule u has n − offset left-to-right maxima — Θ(n·p) total.
        let n = 6;
        let s = rotation_schedules(n, n);
        let c = d_contention_exact(s.as_slice(), 1);
        assert!(
            c >= n * n / 2,
            "rotations are a bad list: Cont = {c} should be Ω(n²/2)"
        );
    }

    #[test]
    fn primality() {
        assert!(is_prime(2));
        assert!(is_prime(7));
        assert!(is_prime(97));
        assert!(!is_prime(1));
        assert!(!is_prime(9));
        assert!(!is_prime(91)); // 7 × 13
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(11), 11);
        assert_eq!(next_prime(1), 2);
    }

    #[test]
    fn affine_requires_prime_modulus() {
        assert!(affine_schedules(3, 8, 0).is_err());
        assert!(affine_schedules(3, 7, 0).is_ok());
    }

    #[test]
    fn affine_schedules_are_distinct_bijections() {
        let s = affine_schedules(5, 11, 3).unwrap();
        assert_eq!(s.len(), 5);
        for u in 0..5 {
            let p = s.get(u);
            // bijection: inverse roundtrip.
            assert_eq!(p.compose(&p.inverse()), Permutation::identity(11));
        }
        // Distinct multipliers ⇒ distinct schedules.
        for u in 0..5 {
            for v in (u + 1)..5 {
                assert_ne!(s.get(u), s.get(v));
            }
        }
    }

    #[test]
    fn affine_beats_rotations_on_contention() {
        // Varying sweep directions should land well below the rotation
        // list's near-maximal contention.
        let n = 7;
        let rot = d_contention_exact(rotation_schedules(n, n).as_slice(), 1);
        let aff = d_contention_exact(affine_schedules(n, n, 1).unwrap().as_slice(), 1);
        assert!(
            aff < rot,
            "affine ({aff}) should beat rotations ({rot}) at n = {n}"
        );
    }

    #[test]
    fn affine_is_seed_deterministic() {
        let a = affine_schedules(4, 13, 9).unwrap();
        let b = affine_schedules(4, 13, 9).unwrap();
        assert_eq!(a, b);
    }
}
