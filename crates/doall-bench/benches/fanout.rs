//! Criterion bench: `Message` fan-out — the cost of addressing one
//! broadcast payload to `p − 1` recipients, at the processor counts the
//! scaled grids sweep (p ∈ {64, 4096, 65536}).
//!
//! Two variants, one per delivery engine:
//!
//! * `shared`  — the `Mailboxes` path: one `Arc<BitSet>` payload, one
//!   refcount bump per recipient.
//! * `bus`     — the `BroadcastBus` engine: one push for the whole
//!   broadcast, then every recipient pulls its delivery.

use criterion::{criterion_group, criterion_main, Criterion};
use doall_core::{BitSet, Message, ProcId};
use doall_sim::BroadcastBus;
use std::hint::black_box;
use std::sync::Arc;

/// A half-full payload of `t = p` bits, as a DA-style knowledge set.
fn payload(t: usize) -> BitSet {
    let mut s = BitSet::new(t);
    let mut i = 0;
    while i < t {
        s.insert(i);
        i += 2;
    }
    s
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout");
    group.sample_size(20);

    for &p in &[64usize, 4096, 65536] {
        let bits = Arc::new(payload(p));
        let from = ProcId::new(0);

        group.bench_function(format!("shared/p={p}"), |b| {
            let mut out: Vec<Message> = Vec::with_capacity(p);
            b.iter(|| {
                out.clear();
                for _ in 1..p {
                    out.push(Message::new(from, Arc::clone(&bits)));
                }
                black_box(out.len())
            });
        });

        group.bench_function(format!("bus/p={p}"), |b| {
            let mut bus = BroadcastBus::new(p);
            let mut inbox: Vec<Message> = Vec::new();
            b.iter(|| {
                bus.reset(p);
                bus.push(from, 1, &bits);
                let mut delivered = 0usize;
                for pid in 1..p {
                    inbox.clear();
                    bus.deliver_into(pid, 1, &mut inbox);
                    delivered += inbox.len();
                }
                black_box(delivered)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
