//! Criterion bench: skipping-rate sweeps over the four routing methods (the
//! computation behind each Fig. 5 panel once the models are trained).

use appealnet_core::artifacts::EvaluationArtifacts;
use appealnet_core::scores::ScoreKind;
use appealnet_core::sweep::{paper_sr_grid, sweep_methods};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn artifacts(n: usize, kind: ScoreKind, phase: f32) -> EvaluationArtifacts {
    EvaluationArtifacts {
        scores: (0..n)
            .map(|i| ((i as f32 * 0.13 + phase).sin() + 1.0) / 2.0)
            .collect(),
        little_correct: (0..n).map(|i| i % 5 != 0).collect(),
        big_correct: (0..n).map(|i| i % 23 != 0).collect(),
        hard_flags: vec![false; n],
        little_flops: 130_000,
        big_flops: 3_000_000,
        score_kind: kind,
    }
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_sweep");
    group.sample_size(20);
    let n = 1500;
    let a = artifacts(n, ScoreKind::AppealNetQ, 0.0);
    let b = artifacts(n, ScoreKind::Msp, 0.3);
    let d = artifacts(n, ScoreKind::ScoreMargin, 0.7);
    let e = artifacts(n, ScoreKind::Entropy, 1.1);
    let methods = vec![
        (ScoreKind::AppealNetQ, &a),
        (ScoreKind::Msp, &b),
        (ScoreKind::ScoreMargin, &d),
        (ScoreKind::Entropy, &e),
    ];
    let grid = paper_sr_grid();
    group.bench_function("four_methods_seven_rates_1500_samples", |bench| {
        bench.iter(|| sweep_methods(black_box(&methods), black_box(&grid)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
