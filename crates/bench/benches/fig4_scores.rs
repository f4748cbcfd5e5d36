//! Criterion bench: score histogram and AUROC computation (the analysis
//! behind Fig. 4), measured on synthetic artifacts of realistic size.

use appealnet_core::artifacts::EvaluationArtifacts;
use appealnet_core::experiments::fig4::{auroc, score_histogram};
use appealnet_core::scores::ScoreKind;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn artifacts(n: usize) -> EvaluationArtifacts {
    EvaluationArtifacts {
        scores: (0..n).map(|i| (i as f32 * 0.37).sin().abs()).collect(),
        little_correct: (0..n).map(|i| i % 7 != 0).collect(),
        big_correct: vec![true; n],
        hard_flags: (0..n).map(|i| i % 9 == 0).collect(),
        little_flops: 130_000,
        big_flops: 3_000_000,
        score_kind: ScoreKind::AppealNetQ,
    }
}

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_scores");
    group.sample_size(20);
    let art = artifacts(1500);
    group.bench_function("auroc_1500", |b| {
        b.iter(|| auroc(black_box(&art.scores), black_box(&art.little_correct)))
    });
    group.bench_function("histogram_1500_x10bins", |b| {
        b.iter_batched(
            || art.clone(),
            |a| score_histogram(black_box(&a), 10),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
