//! Criterion bench: the `BitSet` primitives on the broadcast hot path —
//! `union_with` (the receive-side merge), `insert` (task completion), and
//! `count` — in isolation, at the word counts the grids actually sweep.
//!
//! `union_with` is benchmarked in three regimes because its fast path is
//! input-dependent: merging fresh knowledge (disjoint halves), re-merging
//! an already-absorbed payload (the no-gain case the diff-first word loop
//! skips without writing), and the union of two full sets built
//! separately (equal contents, no shared storage, so every word is read).

use criterion::{criterion_group, criterion_main, Criterion};
use doall_core::BitSet;
use std::hint::black_box;

/// A bitset over `t` bits with every `stride`-th bit set, offset by `phase`.
fn striped(t: usize, stride: usize, phase: usize) -> BitSet {
    let mut s = BitSet::new(t);
    let mut i = phase;
    while i < t {
        s.insert(i);
        i += stride;
    }
    s
}

fn bench_bitset(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset");
    group.sample_size(30);

    for &t in &[64usize, 4096, 65536] {
        let evens = striped(t, 2, 0);
        let odds = striped(t, 2, 1);
        let full = {
            let mut s = BitSet::new(t);
            for i in 0..t {
                s.insert(i);
            }
            s
        };

        group.bench_function(format!("union_with/disjoint/t={t}"), |b| {
            b.iter(|| {
                let mut dst = evens.clone();
                black_box(dst.union_with(black_box(&odds)))
            });
        });
        group.bench_function(format!("union_with/no_gain/t={t}"), |b| {
            let mut dst = full.clone();
            b.iter(|| black_box(dst.union_with(black_box(&evens))));
        });
        group.bench_function(format!("union_with/equal/t={t}"), |b| {
            let mut dst = full.clone();
            let src = striped(t, 1, 0);
            b.iter(|| black_box(dst.union_with(black_box(&src))));
        });
        group.bench_function(format!("insert/sweep/t={t}"), |b| {
            b.iter(|| {
                let mut s = BitSet::new(t);
                for i in 0..t {
                    s.insert(black_box(i));
                }
                black_box(s.count())
            });
        });
        group.bench_function(format!("count/t={t}"), |b| {
            b.iter(|| black_box(evens.count()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bitset);
criterion_main!(benches);
