//! Property-based tests for the core data structures.

use doall_core::{BitSet, Instance, JobId, JobMap, TaskId};
use proptest::prelude::*;
use std::hash::{DefaultHasher, Hash, Hasher};

fn bitset_from(len: usize, ones: &[usize]) -> BitSet {
    let mut b = BitSet::new(len);
    for &i in ones {
        if i < len {
            b.insert(i);
        }
    }
    b
}

/// Lengths on both sides of a word, of a 4,096-bit chunk, and of the
/// 65,536-bit switch from the flat layout to the chunked one.
const MODEL_LENS: [usize; 12] = [
    0, 1, 63, 64, 65, 4095, 4096, 4097, 65_535, 65_536, 65_537, 70_000,
];

fn hash_of(b: &BitSet) -> u64 {
    let mut h = DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

/// Checks every observer of `set` against its `Vec<bool>` model, and
/// that a set rebuilt from the model, sharing no storage with `set`, is
/// equal and hashes equal.
fn check_model(set: &BitSet, model: &[bool]) -> Result<(), TestCaseError> {
    let ones: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
    let zeros: Vec<usize> = (0..model.len()).filter(|&i| !model[i]).collect();
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.count(), ones.len());
    prop_assert_eq!(set.is_full(), zeros.is_empty());
    prop_assert_eq!(set.first_zero(), zeros.first().copied());
    prop_assert!(set.iter_ones().eq(ones.iter().copied()), "iter_ones");
    prop_assert!(set.iter_zeros().eq(zeros.iter().copied()), "iter_zeros");
    let rebuilt = bitset_from(model.len(), &ones);
    prop_assert!(*set == rebuilt, "equal contents, separate storage");
    prop_assert_eq!(hash_of(set), hash_of(&rebuilt));
    Ok(())
}

proptest! {
    /// Union is a lattice join: commutative, associative, idempotent, and
    /// monotone (the result is a superset of both operands).
    #[test]
    fn bitset_union_is_join(
        len in 1usize..300,
        xs in prop::collection::vec(0usize..300, 0..40),
        ys in prop::collection::vec(0usize..300, 0..40),
    ) {
        let a = bitset_from(len, &xs);
        let b = bitset_from(len, &ys);

        let mut ab = a.clone();
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        prop_assert_eq!(&ab, &ba, "commutative");

        prop_assert!(ab.is_superset(&a));
        prop_assert!(ab.is_superset(&b));

        let mut idem = ab.clone();
        prop_assert!(!idem.union_with(&b), "idempotent: no new bits");
        prop_assert_eq!(&idem, &ab);
    }

    /// Cached popcount always agrees with a recount via the iterator.
    #[test]
    fn bitset_count_matches_iter(
        len in 1usize..300,
        xs in prop::collection::vec(0usize..300, 0..60),
    ) {
        let b = bitset_from(len, &xs);
        prop_assert_eq!(b.count(), b.iter_ones().count());
        prop_assert_eq!(b.len() - b.count(), b.iter_zeros().count());
    }

    /// iter_ones and iter_zeros partition the index range.
    #[test]
    fn bitset_iters_partition(
        len in 1usize..200,
        xs in prop::collection::vec(0usize..200, 0..50),
    ) {
        let b = bitset_from(len, &xs);
        let mut all: Vec<usize> = b.iter_ones().chain(b.iter_zeros()).collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..len).collect();
        prop_assert_eq!(all, expect);
    }

    /// JobMap: jobs are nonempty, contiguous, cover all tasks, sizes differ
    /// by at most one, and job_of inverts tasks_of.
    #[test]
    fn job_map_partition_laws(t in 1usize..500, n in 1usize..64) {
        let jm = JobMap::new(t, n);
        prop_assert_eq!(jm.job_count(), n.min(t));
        let mut next = 0usize;
        let mut min_size = usize::MAX;
        let mut max_size = 0usize;
        for j in 0..jm.job_count() {
            let r = jm.tasks_of(JobId::new(j));
            prop_assert_eq!(r.start, next);
            prop_assert!(!r.is_empty());
            min_size = min_size.min(r.len());
            max_size = max_size.max(r.len());
            for task in r.clone() {
                prop_assert_eq!(jm.job_of(TaskId::new(task)), JobId::new(j));
            }
            next = r.end;
        }
        prop_assert_eq!(next, t, "jobs cover all tasks");
        prop_assert!(max_size - min_size <= 1, "near-equal sizes");
        prop_assert_eq!(max_size, jm.max_job_size());
    }

    /// A done set (a PA processor's knowledge, a `BitSet` over jobs) only
    /// grows under merge, and is full exactly when it holds every job.
    #[test]
    fn done_set_monotone(
        t in 1usize..200,
        xs in prop::collection::vec(0usize..200, 0..50),
        ys in prop::collection::vec(0usize..200, 0..50),
    ) {
        let mut a = BitSet::new(t);
        for &x in &xs { if x < t { a.insert(x); } }
        let mut b = BitSet::new(t);
        for &y in &ys { if y < t { b.insert(y); } }
        let before = a.count();
        a.union_with(&b);
        prop_assert!(a.count() >= before);
        prop_assert!(a.count() >= b.count());
        prop_assert_eq!(a.is_full(), a.count() == t);
    }

    /// Instance units is min(p, t) and the job map is consistent with it.
    #[test]
    fn instance_units(p in 1usize..100, t in 1usize..1000) {
        let inst = Instance::new(p, t).unwrap();
        prop_assert_eq!(inst.units(), p.min(t));
        prop_assert_eq!(inst.job_map().job_count(), p.min(t));
        prop_assert_eq!(inst.job_map().task_count(), t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random operation sequences over three sets that start out sharing
    /// their storage agree with a `Vec<bool>` model per set, on both
    /// layouts. Each set is checked against its own model, so a write
    /// through one set that showed in another (say, in a clone it was
    /// copied from) fails.
    #[test]
    fn bitset_matches_model(
        len_at in 0usize..MODEL_LENS.len(),
        ops in prop::collection::vec((0u8..8, 0usize..3, 0usize..3, any::<u64>()), 0..40),
    ) {
        let len = MODEL_LENS[len_at];
        let mut sets = vec![BitSet::new(len); 3];
        let mut models = vec![vec![false; len]; 3];
        for (op, a, b, x) in ops {
            let i = (x % len.max(1) as u64) as usize;
            match op {
                0 if len > 0 => {
                    prop_assert_eq!(sets[a].insert(i), !models[a][i]);
                    models[a][i] = true;
                    prop_assert!(sets[a].contains(i));
                }
                1 if len > 0 => {
                    // A run of up to 130 bits: fills whole words.
                    for j in (i..len).take(1 + (x >> 32) as usize % 130) {
                        sets[a].insert(j);
                        models[a][j] = true;
                    }
                }
                2 => {
                    let other = sets[b].clone();
                    let theirs = models[b].clone();
                    let mut gained = false;
                    for (m, o) in models[a].iter_mut().zip(theirs) {
                        gained |= o && !*m;
                        *m |= o;
                    }
                    prop_assert_eq!(sets[a].union_with(&other), gained);
                }
                3 => {
                    sets[b] = sets[a].clone();
                    models[b] = models[a].clone();
                }
                4 => {
                    sets[a].clear();
                    models[a].fill(false);
                }
                5 => {
                    let superset = models[a].iter().zip(&models[b]).all(|(&m, &o)| m || !o);
                    prop_assert_eq!(sets[a].is_superset(&sets[b]), superset);
                }
                6 => {
                    prop_assert_eq!(sets[a] == sets[b], models[a] == models[b]);
                    if models[a] == models[b] {
                        prop_assert_eq!(hash_of(&sets[a]), hash_of(&sets[b]));
                    }
                }
                _ => check_model(&sets[a], &models[a])?,
            }
        }
        for (set, model) in sets.iter().zip(&models) {
            check_model(set, model)?;
        }
    }
}
