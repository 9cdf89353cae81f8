#![allow(missing_docs)] // criterion_group! expands to undocumented items
//! Boundary-estimator benchmarks: precomputation cost per grid size
//! and per-call estimate cost (ablation A-1's timing companion).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fpbench::{Scale, Scenario};

use allfp::{BoundaryLb, LowerBoundEstimator, NaiveLb};
use roadnet::{NetworkSource, NodeId};

fn bench_precompute(c: &mut Criterion) {
    let scenario = Scenario::new(Scale::Small, 0x5EED);
    let net = &scenario.net;
    let mut group = c.benchmark_group("bdLB precompute");
    group.sample_size(10);
    for grid in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(grid), &grid, |b, &grid| {
            b.iter(|| {
                black_box(BoundaryLb::build(net, grid).unwrap());
            })
        });
    }
    group.finish();
}

fn bench_estimate_call(c: &mut Criterion) {
    let scenario = Scenario::new(Scale::Small, 0x5EED);
    let net = &scenario.net;
    let bd = BoundaryLb::build(net, 8).unwrap();
    let naive = NaiveLb::new(net.max_speed());
    let a = NodeId(3);
    let b_ = NodeId((net.n_nodes() - 5) as u32);
    let pa = net.find_node(a).unwrap();
    let pb = net.find_node(b_).unwrap();

    c.bench_function("estimate: naiveLB", |b| {
        b.iter(|| black_box(naive.travel_lower_bound(a, pa, b_, pb)))
    });
    c.bench_function("estimate: bdLB", |b| {
        b.iter(|| black_box(bd.travel_lower_bound(a, pa, b_, pb)))
    });
}

criterion_group!(benches, bench_precompute, bench_estimate_call);
criterion_main!(benches);
