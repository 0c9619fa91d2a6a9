//! Criterion benches for the analytic gradient engine — the inner loop
//! of every attack. The headline comparison (sparse assembly vs
//! ContinuousA's dense step, with the ≥5× gate) lives in the
//! `grad_bench` binary; these benches track the individual kernels.

use ba_bench::sample_targets;
use ba_core::{
    assemble_pair_grads, correction_map, dense_pair_gradients, node_grads, pair_grad,
    CandidateScope, Candidates,
};
use ba_datasets::Dataset;
use ba_graph::egonet::egonet_features;
use ba_graph::CsrGraph;
use ba_linalg::Matrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_node_grads(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_grads");
    for d in [Dataset::Er, Dataset::Wikivote] {
        let g = d.build(7);
        let feats = egonet_features(&g);
        let targets = sample_targets(&g, 10, 50, 1);
        group.bench_with_input(BenchmarkId::from_parameter(d.name()), &(), |b, _| {
            b.iter(|| black_box(node_grads(&feats.n, &feats.e, &targets).unwrap()));
        });
    }
    group.finish();
}

fn bench_correction_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("correction_map");
    for d in [Dataset::Er, Dataset::Wikivote] {
        let g = d.build(7);
        let feats = egonet_features(&g);
        let targets = sample_targets(&g, 10, 50, 1);
        let ng = node_grads(&feats.n, &feats.e, &targets).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(d.name()), &(), |b, _| {
            b.iter(|| black_box(correction_map(&g, &ng.g_e)));
        });
    }
    group.finish();
}

fn bench_single_pair_grad(c: &mut Criterion) {
    let g = Dataset::Wikivote.build(7);
    let feats = egonet_features(&g);
    let targets = sample_targets(&g, 10, 50, 1);
    let ng = node_grads(&feats.n, &feats.e, &targets).unwrap();
    c.bench_function("pair_grad_sparse", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..50u32 {
                acc += pair_grad(&g, &ng, i, i + 50);
            }
            black_box(acc)
        })
    });
}

/// The attack hot loop's backward pass: assemble G_ij for every
/// candidate pair over the CSR substrate (strategy auto-selected).
fn bench_sparse_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("assemble_pair_grads");
    for d in [Dataset::Er, Dataset::Wikivote] {
        let g = d.build(7);
        let csr = CsrGraph::from(&g);
        let feats = egonet_features(&g);
        let targets = sample_targets(&g, 10, 50, 1);
        let ng = node_grads(&feats.n, &feats.e, &targets).unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let mask = vec![true; candidates.len()];
        group.bench_with_input(BenchmarkId::from_parameter(d.name()), &(), |b, _| {
            b.iter(|| black_box(assemble_pair_grads(&csr, &ng, &candidates, &mask, 0)));
        });
    }
    group.finish();
}

fn bench_dense_gradient(c: &mut Criterion) {
    // Dense path at reduced scale (ContinuousA inner loop).
    let g = Dataset::Er.build_scaled(300, 900, 7);
    let a = Matrix::from_vec(300, 300, ba_graph::adjacency::to_row_major(&g));
    let feats = egonet_features(&g);
    let targets = sample_targets(&g, 5, 30, 1);
    let ng = node_grads(&feats.n, &feats.e, &targets).unwrap();
    let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
    let mut group = c.benchmark_group("dense_pair_gradient_n300");
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(dense_pair_gradients(&a, &ng, &candidates, t)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_node_grads,
    bench_correction_map,
    bench_single_pair_grad,
    bench_sparse_assembly,
    bench_dense_gradient
);
criterion_main!(benches);
