//! Criterion bench: the black-box (oracle cloud) appealing-rate search of
//! Table II, where the big network is always correct.

use appealnet_core::artifacts::EvaluationArtifacts;
use appealnet_core::scores::ScoreKind;
use appealnet_core::tuning::min_cost_for_acci;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn blackbox_artifacts(n: usize) -> EvaluationArtifacts {
    EvaluationArtifacts {
        scores: (0..n)
            .map(|i| ((i * 104_729) % n) as f32 / n as f32)
            .collect(),
        little_correct: (0..n).map(|i| i % 6 != 0).collect(),
        // Oracle cloud: always correct.
        big_correct: vec![true; n],
        hard_flags: vec![false; n],
        little_flops: 130_000,
        big_flops: 3_000_000,
        score_kind: ScoreKind::AppealNetQ,
    }
}

fn bench_blackbox_tuning(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_tuning");
    group.sample_size(15);
    let art = blackbox_artifacts(1500);
    for target in [0.5f64, 0.75, 0.95] {
        group.bench_function(format!("min_ar_for_acci_{:.0}", target * 100.0), |b| {
            b.iter(|| min_cost_for_acci(black_box(&art), black_box(target)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_blackbox_tuning);
criterion_main!(benches);
