//! Criterion bench: minimum-cost threshold search under an AccI constraint
//! (the per-cell computation of Table I).

use appealnet_core::artifacts::EvaluationArtifacts;
use appealnet_core::scores::ScoreKind;
use appealnet_core::tuning::{max_accuracy_for_skipping_rate, min_cost_for_acci};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn artifacts(n: usize) -> EvaluationArtifacts {
    EvaluationArtifacts {
        scores: (0..n).map(|i| ((i * 7919) % n) as f32 / n as f32).collect(),
        little_correct: (0..n).map(|i| i % 4 != 0).collect(),
        big_correct: (0..n).map(|i| i % 31 != 0).collect(),
        hard_flags: vec![false; n],
        little_flops: 130_000,
        big_flops: 3_000_000,
        score_kind: ScoreKind::AppealNetQ,
    }
}

fn bench_tuning(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_tuning");
    group.sample_size(15);
    let art = artifacts(1500);
    group.bench_function("min_cost_for_acci_90", |b| {
        b.iter(|| min_cost_for_acci(black_box(&art), black_box(0.90)).unwrap())
    });
    group.bench_function("max_accuracy_for_sr_80", |b| {
        b.iter(|| max_accuracy_for_skipping_rate(black_box(&art), black_box(0.80)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_tuning);
criterion_main!(benches);
