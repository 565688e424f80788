//! Ablation: QBC committee size vs selection latency (DESIGN.md §5).
//!
//! Committee creation is linear in B; this bench quantifies the 2→20
//! latency blow-up that motivates learner-aware selection.

use alem_bench::data::prepare;
use alem_core::learner::SvmTrainer;
use alem_core::strategy::{QbcStrategy, Strategy};
use alem_obs::Registry;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::PaperDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_committee_sizes(c: &mut Criterion) {
    let p = prepare(PaperDataset::DblpAcm, 0.1);
    let corpus = &p.corpus;
    let labeled: Vec<(usize, bool)> = (0..corpus.len())
        .step_by(corpus.len() / 150)
        .map(|i| (i, corpus.truth(i)))
        .collect();
    let unlabeled: Vec<usize> = (0..corpus.len())
        .filter(|i| !labeled.iter().any(|(j, _)| j == i))
        .collect();

    let mut group = c.benchmark_group("qbc_committee_size");
    group.sample_size(10);
    for b in [2usize, 5, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(b), &b, |bch, &b| {
            let mut qbc = QbcStrategy::new(SvmTrainer::default(), b);
            qbc.set_parallelism(alem_par::Parallelism::default());
            bch.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                black_box(qbc.select(
                    corpus,
                    &labeled,
                    &unlabeled,
                    10,
                    &mut rng,
                    &Registry::disabled(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_committee_sizes);
criterion_main!(benches);
