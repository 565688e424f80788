//! Criterion bench: example-selection latency per selector (Fig. 10).
//!
//! Measures one selection round — committee creation + scoring for QBC,
//! scoring only for the learner-aware selectors — on a fixed DBLP-ACM
//! corpus with a fixed labeled pool. The orderings to expect:
//! QBC(20) ≫ QBC(2) ≫ margin ≈ trees, and margin(1Dim) < margin(all).

use alem_bench::data::prepare;
use alem_core::learner::{SvmTrainer, Trainer};
use alem_core::selector;
use alem_core::strategy::{QbcStrategy, Strategy, TreeQbcStrategy};
use alem_obs::Registry;
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::PaperDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_selection(c: &mut Criterion) {
    let p = prepare(PaperDataset::DblpAcm, 0.1);
    let corpus = &p.corpus;
    let labeled: Vec<(usize, bool)> = (0..corpus.len())
        .step_by(corpus.len() / 200)
        .map(|i| (i, corpus.truth(i)))
        .collect();
    let unlabeled: Vec<usize> = (0..corpus.len())
        .filter(|i| !labeled.iter().any(|(j, _)| j == i))
        .collect();

    let mut group = c.benchmark_group("selection_round");
    group.sample_size(10);

    for committee in [2usize, 20] {
        let mut qbc = QbcStrategy::new(SvmTrainer::default(), committee);
        qbc.set_parallelism(alem_par::Parallelism::default());
        group.bench_function(format!("qbc_svm_{committee}"), |b| {
            b.iter(|| {
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

    // Train the models once; learner-aware selection reuses them.
    let mut rng = StdRng::seed_from_u64(1);
    let svm = SvmTrainer::default().train(
        &labeled
            .iter()
            .map(|&(i, _)| corpus.x(i).to_vec())
            .collect::<Vec<_>>(),
        &labeled.iter().map(|&(_, y)| y).collect::<Vec<_>>(),
        &mut rng,
    );
    group.bench_function("margin_all_dims", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(selector::margin::select(
                &svm,
                corpus,
                &unlabeled,
                10,
                &mut rng,
                &Registry::disabled(),
                &alem_par::Parallelism::default(),
            ))
        })
    });
    group.bench_function("margin_blocking_1dim", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(selector::blocking_dim::select(
                &svm,
                1,
                corpus,
                &unlabeled,
                10,
                &mut rng,
                &Registry::disabled(),
                &alem_par::Parallelism::default(),
            ))
        })
    });

    let mut trees = TreeQbcStrategy::new(20);
    trees.set_parallelism(alem_par::Parallelism::default());
    trees
        .fit(corpus, &labeled, &mut rng)
        .expect("continuous features train a forest");
    group.bench_function("tree_qbc_20", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(trees.select(
                corpus,
                &labeled,
                &unlabeled,
                10,
                &mut rng,
                &Registry::disabled(),
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
