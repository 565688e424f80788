//! End-to-end integration tests: dataset generation → blocking →
//! featurization → active learning → evaluation, for every learner family.

use alem_core::blocking::BlockingConfig;
use alem_core::corpus::Corpus;
use alem_core::ensemble::ActiveEnsembleStrategy;
use alem_core::learner::{DnfTrainer, NnTrainer, SvmTrainer};
use alem_core::loop_::{ActiveLearner, EvalMode, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::strategy::{
    LfpLfnStrategy, MarginNnStrategy, MarginSvmStrategy, QbcStrategy, Strategy, TreeQbcStrategy,
};
use datagen::PaperDataset;

fn easy_corpus() -> Corpus {
    // DBLP-ACM is the easiest dataset: every learner should do well.
    let cfg = PaperDataset::DblpAcm.config(0.05);
    let ds = datagen::generate(&cfg, 42);
    let (corpus, _) = Corpus::from_candidates(
        &ds,
        &BlockingConfig {
            jaccard_threshold: cfg.blocking_threshold,
        },
    )
    .unwrap();
    corpus
}

fn run<S: Strategy>(corpus: &Corpus, strategy: S, max_labels: usize) -> f64 {
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let params = LoopParams {
        max_labels,
        ..LoopParams::default()
    };
    ActiveLearner::new(strategy, params)
        .run(corpus, &oracle, 3)
        .expect("perfect-oracle run")
        .best_f1()
}

#[test]
fn trees_reach_high_f1_end_to_end() {
    let corpus = easy_corpus();
    let f1 = run(&corpus, TreeQbcStrategy::new(10), 400);
    assert!(f1 > 0.9, "Trees(10) best F1 {f1}");
}

#[test]
fn linear_margin_end_to_end() {
    let corpus = easy_corpus();
    let f1 = run(&corpus, MarginSvmStrategy::new(SvmTrainer::default()), 400);
    assert!(f1 > 0.8, "Linear-Margin best F1 {f1}");
}

#[test]
fn linear_blocking_dims_end_to_end() {
    let corpus = easy_corpus();
    let f1 = run(
        &corpus,
        MarginSvmStrategy::builder().blocking_dims(1).build(),
        400,
    );
    assert!(f1 > 0.75, "Linear-Margin(1Dim) best F1 {f1}");
}

#[test]
fn qbc_svm_end_to_end() {
    let corpus = easy_corpus();
    let f1 = run(&corpus, QbcStrategy::new(SvmTrainer::default(), 5), 400);
    assert!(f1 > 0.8, "Linear-QBC(5) best F1 {f1}");
}

#[test]
fn nn_margin_end_to_end() {
    let corpus = easy_corpus();
    let f1 = run(&corpus, MarginNnStrategy::new(NnTrainer::default()), 300);
    assert!(f1 > 0.7, "NN-Margin best F1 {f1}");
}

#[test]
fn ensemble_svm_end_to_end() {
    let corpus = easy_corpus();
    let f1 = run(
        &corpus,
        ActiveEnsembleStrategy::new(SvmTrainer::default(), 0.85),
        400,
    );
    assert!(f1 > 0.8, "Linear-Margin(Ensemble) best F1 {f1}");
}

#[test]
fn rules_end_to_end() {
    let corpus = easy_corpus();
    let f1 = run(
        &corpus,
        LfpLfnStrategy::new(DnfTrainer::default(), 0.85),
        400,
    );
    // Rules are limited to 3 similarity functions; 0.6 on clean data is
    // the bar (the paper reports 0.962 on the real full-size corpus).
    assert!(f1 > 0.6, "Rules(LFP/LFN) best F1 {f1}");
}

#[test]
fn holdout_evaluation_end_to_end() {
    let corpus = easy_corpus();
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let params = LoopParams {
        eval: EvalMode::Holdout { test_frac: 0.2 },
        max_labels: 300,
        stop_at_f1: None,
        ..LoopParams::default()
    };
    let r = ActiveLearner::new(TreeQbcStrategy::new(10), params)
        .run(&corpus, &oracle, 3)
        .expect("holdout run");
    assert!(r.best_f1() > 0.85, "holdout Trees best F1 {}", r.best_f1());
    // Hold-out label budget never exceeds the 80% train pool.
    assert!(r.total_labels() <= (corpus.len() * 4) / 5 + 1);
}

#[test]
fn noisy_oracle_degrades_gracefully() {
    let corpus = easy_corpus();
    let run_with_noise = |noise: f64| {
        let oracle = Oracle::noisy(corpus.truths().to_vec(), noise, 5).expect("valid noise");
        let params = LoopParams {
            max_labels: 300,
            stop_at_f1: None,
            ..LoopParams::default()
        };
        ActiveLearner::new(TreeQbcStrategy::new(10), params)
            .run(&corpus, &oracle, 3)
            .expect("noisy run")
            .best_f1()
    };
    let clean = run_with_noise(0.0);
    let noisy = run_with_noise(0.4);
    assert!(
        clean > noisy + 0.05,
        "40% noise should hurt: clean {clean} vs noisy {noisy}"
    );
}

#[test]
fn social_corpus_pipeline() {
    let cfg = datagen::social::SocialConfig {
        n_employees: 120,
        n_profiles: 800,
        coverage: 0.8,
    };
    let ds = datagen::social::generate_social(&cfg, 3);
    let (corpus, _) = Corpus::from_candidates(
        &ds,
        &BlockingConfig {
            jaccard_threshold: 0.2,
        },
    )
    .unwrap();
    assert!(
        corpus.len() > 100,
        "social corpus too small: {}",
        corpus.len()
    );
    let f1 = run(&corpus, TreeQbcStrategy::new(10), 300);
    assert!(f1 > 0.7, "Trees on social corpus best F1 {f1}");
}
