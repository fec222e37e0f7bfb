//! Criterion microbenchmarks for the event calendar itself (the timing
//! wheel) at the depths the engine actually sees: quick sweeps idle
//! around 10^3 events; the overloaded fig7b points back up past 4×10^5.
//!
//! Two shapes per depth:
//!
//! * `churn` — steady state: one pop, one schedule at a short delay,
//!   constant depth. This is the engine's hot loop.
//! * `drain` — fill to depth, then pop everything. Stresses the wheel's
//!   slot-drain batching.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use fld_sim::queue::EventQueue;
use fld_sim::time::{SimDuration, SimTime};

const DEPTHS: [usize; 3] = [1_000, 100_000, 500_000];

/// Builds a queue pre-filled to `depth` with a deterministic spread of
/// delays matching the engine's profile: mostly near-term (packet
/// serialization, PCIe hops), a few far-out (timeouts, samplers).
fn filled(depth: usize) -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for i in 0..depth as u64 {
        let delay_ps = 4_096 + (i * 7_919) % 2_000_000;
        q.schedule_at(SimTime::from_picos(delay_ps), i);
    }
    q
}

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_churn");
    for depth in DEPTHS {
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("wheel", depth), &depth, |b, &depth| {
            let mut q = filled(depth);
            let mut i = depth as u64;
            b.iter(|| {
                let (t, id) = q.pop().expect("constant depth");
                q.schedule_at(t + SimDuration::from_picos(1_500_000), i);
                i += 1;
                black_box(id)
            });
        });
    }
    g.finish();
}

fn bench_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_fill_drain");
    for depth in DEPTHS {
        g.throughput(Throughput::Elements(depth as u64));
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::new("wheel", depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut q = filled(depth);
                let mut sum = 0u64;
                while let Some((_, id)) = q.pop() {
                    sum = sum.wrapping_add(id);
                }
                black_box(sum)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_churn, bench_drain);
criterion_main!(benches);
