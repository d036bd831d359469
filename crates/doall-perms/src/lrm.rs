//! Left-to-right maxima and their delay-sensitive generalization.

use crate::Permutation;

/// The number of *left-to-right maxima* of `π`: positions `j` with
/// `π(j) > π(i)` for all `i < j` (Knuth vol. 3; Section 4 of the paper).
///
/// The first element is always a left-to-right maximum, so
/// `1 ≤ lrm(π) ≤ n`, with `lrm(identity) = n` and `lrm(reversal) = 1`.
///
/// ```
/// use doall_perms::{lrm, Permutation};
///
/// assert_eq!(lrm(&Permutation::identity(5)), 5);
/// assert_eq!(lrm(&Permutation::reversal(5)), 1);
/// // ⟨2 0 1 4 3⟩: maxima at values 2 and 4.
/// let pi = Permutation::from_image(vec![2, 0, 1, 4, 3]).unwrap();
/// assert_eq!(lrm(&pi), 2);
/// ```
#[must_use]
pub fn lrm(pi: &Permutation) -> usize {
    let mut count = 0usize;
    let mut max_so_far: Option<u32> = None;
    for &v in pi.as_slice() {
        if max_so_far.is_none_or(|m| v > m) {
            count += 1;
            max_so_far = Some(v);
        }
    }
    count
}

/// The number of *d-left-to-right maxima* of `π`: positions `j` such that
/// fewer than `d` earlier elements are greater, i.e.
/// `|{i : i < j ∧ π(i) > π(j)}| < d` (Section 4.2).
///
/// `d_lrm(π, 1) == lrm(π)`, and `d_lrm(π, d) == n` once `d ≥ n`.
///
/// ```
/// use doall_perms::{d_lrm, lrm, Permutation};
///
/// let pi = Permutation::from_image(vec![3, 1, 0, 2]).unwrap();
/// assert_eq!(d_lrm(&pi, 1), lrm(&pi)); // 1-lrm ≡ classic lrm
/// assert_eq!(d_lrm(&pi, 2), 3);        // value 1 and value 2 have one larger predecessor
/// assert_eq!(d_lrm(&pi, 4), 4);        // saturates at n
/// ```
///
/// The implementation walks the schedule with a Fenwick tree over values,
/// counting for each position how many earlier elements exceed it —
/// `O(n log n)` total. [`crate::d_contention_wrt`] calls it once per
/// schedule; [`crate::d_contention_estimate`] keeps those counts itself and
/// updates them swap by swap.
#[must_use]
pub fn d_lrm(pi: &Permutation, d: usize) -> usize {
    let n = pi.n();
    if d == 0 {
        return 0;
    }
    if d >= n {
        return n;
    }
    let mut fenwick = Fenwick::new(n);
    let mut count = 0usize;
    for (j, &v) in pi.as_slice().iter().enumerate() {
        let v = v as usize;
        // Earlier elements greater than v = j - (# earlier elements ≤ v).
        let le = fenwick.prefix_sum(v);
        let greater = j - le;
        if greater < d {
            count += 1;
        }
        fenwick.add(v);
    }
    count
}

/// Fenwick (binary indexed) tree over `0..n` counting inserted values.
///
/// Both walks take `⌊log₂ n⌋ + 1` steps for every value, so their loop
/// exits are predictable. A prefix walk that is done stays at slot 0,
/// which is never written; an insertion walk that is done stays at the
/// last slot, which is never read.
pub(crate) struct Fenwick {
    tree: Vec<u32>,
    steps: u32,
}

impl Fenwick {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 2],
            steps: usize::BITS - n.leading_zeros(),
        }
    }

    /// Removes every inserted value.
    pub(crate) fn clear(&mut self) {
        self.tree.fill(0);
    }

    /// Inserts value `v` (counts it).
    pub(crate) fn add(&mut self, v: usize) {
        let sink = self.tree.len() - 1;
        let mut i = v + 1;
        for _ in 0..self.steps {
            self.tree[i] = self.tree[i].wrapping_add(1);
            i = (i + (i & i.wrapping_neg())).min(sink);
        }
    }

    /// Number of inserted values `≤ v`.
    pub(crate) fn prefix_sum(&self, v: usize) -> usize {
        let mut i = v + 1;
        let mut s = 0;
        for _ in 0..self.steps {
            s += self.tree[i];
            i &= i.wrapping_sub(1);
        }
        s as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn perm(img: &[u32]) -> Permutation {
        Permutation::from_image(img.to_vec()).unwrap()
    }

    #[test]
    fn lrm_of_identity_is_n() {
        assert_eq!(lrm(&Permutation::identity(7)), 7);
    }

    #[test]
    fn lrm_of_reversal_is_one() {
        assert_eq!(lrm(&Permutation::reversal(7)), 1);
    }

    #[test]
    fn lrm_hand_examples() {
        // ⟨2 0 1 4 3⟩: maxima at 2 and 4.
        assert_eq!(lrm(&perm(&[2, 0, 1, 4, 3])), 2);
        // ⟨0 2 1 3⟩: maxima 0, 2, 3.
        assert_eq!(lrm(&perm(&[0, 2, 1, 3])), 3);
        assert_eq!(lrm(&perm(&[0])), 1);
    }

    #[test]
    fn d_lrm_with_d_one_equals_lrm() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let p = Permutation::random(12, &mut rng);
            assert_eq!(d_lrm(&p, 1), lrm(&p), "{p:?}");
        }
    }

    #[test]
    fn d_lrm_saturates_at_n() {
        let p = perm(&[3, 1, 0, 2]);
        assert_eq!(d_lrm(&p, 4), 4);
        assert_eq!(d_lrm(&p, 100), 4);
        assert_eq!(d_lrm(&p, 0), 0);
    }

    #[test]
    fn d_lrm_hand_example() {
        // π = ⟨3 1 0 2⟩.
        // j=0 (v=3): 0 greater before → d-lrm for every d ≥ 1.
        // j=1 (v=1): 1 greater (3) → d-lrm iff d ≥ 2.
        // j=2 (v=0): 2 greater → d-lrm iff d ≥ 3.
        // j=3 (v=2): 1 greater → d-lrm iff d ≥ 2.
        let p = perm(&[3, 1, 0, 2]);
        assert_eq!(d_lrm(&p, 1), 1);
        assert_eq!(d_lrm(&p, 2), 3);
        assert_eq!(d_lrm(&p, 3), 4);
    }

    #[test]
    fn d_lrm_monotone_in_d() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let p = Permutation::random(20, &mut rng);
            let mut prev = 0;
            for d in 1..=20 {
                let cur = d_lrm(&p, d);
                assert!(cur >= prev);
                prev = cur;
            }
            assert_eq!(prev, 20);
        }
    }

    #[test]
    fn d_lrm_matches_naive() {
        fn naive(p: &Permutation, d: usize) -> usize {
            let s = p.as_slice();
            (0..s.len())
                .filter(|&j| (0..j).filter(|&i| s[i] > s[j]).count() < d)
                .count()
        }
        let mut rng = StdRng::seed_from_u64(99);
        // Sizes on both sides of powers of two, where the Fenwick tree's
        // walks change length.
        for n in [1, 2, 3, 7, 8, 15, 16, 17, 64] {
            for _ in 0..30 {
                let p = Permutation::random(n, &mut rng);
                for d in 1..=n {
                    assert_eq!(d_lrm(&p, d), naive(&p, d), "{p:?} d={d}");
                }
            }
        }
    }
}
