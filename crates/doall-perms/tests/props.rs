//! Property-based tests for permutation algebra and contention laws.

use doall_perms::{d_contention_wrt, d_lrm, dcont_threshold, lrm, Permutation, Schedules};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_perm(n: usize, seed: u64) -> Permutation {
    Permutation::random(n, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    /// π ∘ π⁻¹ = π⁻¹ ∘ π = identity.
    #[test]
    fn inverse_roundtrip(n in 1usize..40, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        prop_assert_eq!(p.compose(&p.inverse()), Permutation::identity(n));
        prop_assert_eq!(p.inverse().compose(&p), Permutation::identity(n));
    }

    /// Composition is associative.
    #[test]
    fn compose_associative(n in 1usize..20, s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>()) {
        let a = random_perm(n, s1);
        let b = random_perm(n, s2);
        let c = random_perm(n, s3);
        prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    /// (a ∘ b)⁻¹ = b⁻¹ ∘ a⁻¹.
    #[test]
    fn inverse_antihomomorphism(n in 1usize..20, s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = random_perm(n, s1);
        let b = random_perm(n, s2);
        prop_assert_eq!(a.compose(&b).inverse(), b.inverse().compose(&a.inverse()));
    }

    /// 1 ≤ lrm(π) ≤ n; lrm counts the first element always.
    #[test]
    fn lrm_range(n in 1usize..60, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        let l = lrm(&p);
        prop_assert!(l >= 1);
        prop_assert!(l <= n);
    }

    /// d_lrm is monotone nondecreasing in d and hits n at d = n.
    #[test]
    fn d_lrm_monotone(n in 1usize..40, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        let mut prev = 0usize;
        for d in 1..=n {
            let cur = d_lrm(&p, d);
            prop_assert!(cur >= prev);
            prop_assert!(cur >= d.min(n), "first d positions are always d-lrm");
            prev = cur;
        }
        prop_assert_eq!(prev, n);
    }

    /// d_lrm(π, 1) == lrm(π) — the generalization is conservative.
    #[test]
    fn d_lrm_generalizes_lrm(n in 1usize..40, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        prop_assert_eq!(d_lrm(&p, 1), lrm(&p));
    }

    /// lrm(π) + lrm(reverse of π as value-complement) duality: the reversal
    /// permutation has exactly one maximum; composing with it flips order.
    #[test]
    fn reversal_conjugation_bounds(n in 2usize..30, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        let rev = Permutation::reversal(n);
        // rev ∘ p replaces each value v by n−1−v, turning maxima into minima:
        // left-to-right minima count of p equals lrm(rev ∘ p).
        let lr_minima = {
            let s = p.as_slice();
            let mut m = u32::MAX;
            let mut c = 0;
            for &v in s {
                if v < m { c += 1; m = v; }
            }
            c
        };
        prop_assert_eq!(lrm(&rev.compose(&p)), lr_minima);
    }

    /// Contention w.r.t. any ϱ lies in [p, p·n]; p = #schedules.
    #[test]
    fn contention_wrt_range(
        n in 1usize..20,
        p in 1usize..6,
        seed in any::<u64>(),
        rho_seed in any::<u64>(),
    ) {
        let sigma: Vec<Permutation> =
            (0..p).map(|i| random_perm(n, seed.wrapping_add(i as u64))).collect();
        let rho = random_perm(n, rho_seed);
        let c = d_contention_wrt(&sigma, &rho, 1);
        prop_assert!(c >= p);
        prop_assert!(c <= p * n);
    }

    /// d-contention w.r.t. ϱ is monotone in d and saturates at p·n.
    #[test]
    fn d_contention_wrt_monotone(
        n in 1usize..16,
        p in 1usize..5,
        seed in any::<u64>(),
        rho_seed in any::<u64>(),
    ) {
        let sigma: Vec<Permutation> =
            (0..p).map(|i| random_perm(n, seed.wrapping_add(i as u64))).collect();
        let rho = random_perm(n, rho_seed);
        let mut prev = 0usize;
        for d in 1..=n {
            let cur = d_contention_wrt(&sigma, &rho, d);
            prop_assert!(cur >= prev);
            prev = cur;
        }
        prop_assert_eq!(prev, p * n);
    }

    /// Left-composition invariance: Cont(⟨ρ∘π_u⟩, ρ∘ϱ) = Cont(Σ, ϱ) — the
    /// symmetry the exhaustive search exploits.
    #[test]
    fn left_composition_invariance(
        n in 1usize..12,
        p in 1usize..4,
        seed in any::<u64>(),
        lift in any::<u64>(),
        rho_seed in any::<u64>(),
    ) {
        let sigma: Vec<Permutation> =
            (0..p).map(|i| random_perm(n, seed.wrapping_add(i as u64))).collect();
        let rho = random_perm(n, rho_seed);
        let lift = random_perm(n, lift);
        let lifted: Vec<Permutation> = sigma.iter().map(|s| lift.compose(s)).collect();
        prop_assert_eq!(
            d_contention_wrt(&lifted, &lift.compose(&rho), 1),
            d_contention_wrt(&sigma, &rho, 1)
        );
    }

    /// The Thm 4.4 threshold dominates n ln n and is monotone in d.
    #[test]
    fn threshold_sane(n in 2usize..1000, p in 1usize..100, d in 1usize..500) {
        let th = dcont_threshold(n, p, d);
        prop_assert!(th > n as f64 * (n as f64).ln());
        prop_assert!(dcont_threshold(n, p, d + 1) > th);
    }

    /// Random schedule lists are valid and expose consistent dimensions.
    #[test]
    fn schedules_random_valid(count in 1usize..8, n in 1usize..30, seed in any::<u64>()) {
        let s = Schedules::random(count, n, seed);
        prop_assert_eq!(s.len(), count);
        prop_assert_eq!(s.n(), n);
        for u in 0..count {
            // each schedule is a genuine permutation: inverse roundtrips
            let p = s.get(u);
            prop_assert_eq!(p.compose(&p.inverse()), Permutation::identity(n));
        }
    }
}
