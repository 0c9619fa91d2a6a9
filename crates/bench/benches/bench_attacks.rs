//! Criterion benches for full attack runs at reduced scale: per-method
//! wall time is itself a claim of the paper (GradMaxSearch does B full
//! gradient scans; BinarizedAttack amortises over the λ sweep).

use ba_bench::sample_targets;
use ba_core::{
    AttackConfig, BinarizedAttack, CliqueBreaker, ContinuousA, GradMaxSearch, RandomAttack,
    StructuralAttack,
};
use ba_datasets::Dataset;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_attacks(c: &mut Criterion) {
    let g = Dataset::BitcoinAlpha.build_scaled(300, 700, 7);
    let targets = sample_targets(&g, 5, 30, 1);
    let budget = 10;
    let mut group = c.benchmark_group("attack_n300_b10");
    group.sample_size(10);
    group.bench_function("binarized", |b| {
        let attack = BinarizedAttack::new(AttackConfig::default())
            .with_iterations(40)
            .with_lambdas(vec![0.01, 0.05]);
        b.iter(|| black_box(attack.attack(&g, &targets, budget).unwrap()))
    });
    group.bench_function("gradmax", |b| {
        let attack = GradMaxSearch::default();
        b.iter(|| black_box(attack.attack(&g, &targets, budget).unwrap()))
    });
    group.bench_function("continuousA", |b| {
        let attack = ContinuousA::default().with_iterations(15);
        b.iter(|| black_box(attack.attack(&g, &targets, budget).unwrap()))
    });
    group.bench_function("random", |b| {
        let attack = RandomAttack::default();
        b.iter(|| black_box(attack.attack(&g, &targets, budget).unwrap()))
    });
    group.bench_function("cliquebreaker", |b| {
        let attack = CliqueBreaker::default();
        b.iter(|| black_box(attack.attack(&g, &targets, budget).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_attacks);
criterion_main!(benches);
