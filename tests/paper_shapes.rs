//! Shape tests: the qualitative findings of the paper's evaluation must
//! hold on the synthetic corpora. These are the claims EXPERIMENTS.md
//! tracks; each test checks an ordering or a crossover, never an absolute
//! number.
//!
//! Kept at small scale so the suite stays fast; the bench harness
//! (`figures all`) reproduces the same shapes at larger scales.

use alem_block::TokenIndex;
use alem_core::corpus::Corpus;
use alem_core::evaluator::RunResult;
use alem_core::learner::{DnfTrainer, SvmTrainer};
use alem_core::loop_::{ActiveLearner, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::strategy::{
    LfpLfnStrategy, MarginSvmStrategy, QbcStrategy, Strategy, TreeQbcStrategy,
};
use datagen::PaperDataset;

fn corpus(d: PaperDataset, scale: f64) -> Corpus {
    let cfg = d.config(scale);
    let ds = datagen::generate(&cfg, 42);
    let (corpus, _) = Corpus::from_candidates(
        &ds,
        &TokenIndex::builder()
            .threshold(cfg.blocking_threshold)
            .build(),
    )
    .unwrap();
    corpus
}

fn run<S: Strategy>(c: &Corpus, s: S, max_labels: usize) -> RunResult {
    let oracle = Oracle::perfect(c.truths().to_vec());
    let params = LoopParams {
        max_labels,
        ..LoopParams::default()
    };
    ActiveLearner::new(s, params)
        .run(c, &oracle, 17)
        .expect("perfect-oracle run")
}

/// §6.1: "random forests with learner-aware QBC invariably produce the
/// best quality EM" — trees beat linear-margin on a product dataset.
#[test]
fn trees_beat_linear_on_products() {
    let c = corpus(PaperDataset::AbtBuy, 0.12);
    let trees = run(&c, TreeQbcStrategy::new(20), 500).best_f1();
    let linear = run(&c, MarginSvmStrategy::new(SvmTrainer::default()), 500).best_f1();
    assert!(
        trees > linear + 0.1,
        "Trees(20) {trees:.3} should clearly beat Linear-Margin {linear:.3}"
    );
}

/// §6.1: products are the hard domain — every fixed strategy scores lower
/// on Abt-Buy than on DBLP-ACM.
#[test]
fn products_harder_than_publications() {
    let abt = corpus(PaperDataset::AbtBuy, 0.12);
    let dblp = corpus(PaperDataset::DblpAcm, 0.12);
    let f_abt = run(&abt, MarginSvmStrategy::new(SvmTrainer::default()), 400).best_f1();
    let f_dblp = run(&dblp, MarginSvmStrategy::new(SvmTrainer::default()), 400).best_f1();
    assert!(
        f_dblp > f_abt + 0.1,
        "DBLP {f_dblp:.3} should be much easier than Abt-Buy {f_abt:.3}"
    );
}

/// §6.1: "there is little to choose between margin-based selection and
/// learner-agnostic QBC in terms of quality" for linear classifiers...
#[test]
fn margin_and_qbc_comparable_quality() {
    let c = corpus(PaperDataset::DblpAcm, 0.12);
    let margin = run(&c, MarginSvmStrategy::new(SvmTrainer::default()), 400).best_f1();
    let qbc = run(&c, QbcStrategy::new(SvmTrainer::default(), 10), 400).best_f1();
    assert!(
        (margin - qbc).abs() < 0.12,
        "margin {margin:.3} vs QBC {qbc:.3} should be comparable"
    );
}

/// ...but margin has (much) lower selection latency because there is no
/// committee to train (Fig. 10).
#[test]
fn margin_selects_faster_than_qbc() {
    let c = corpus(PaperDataset::DblpAcm, 0.12);
    let margin = run(&c, MarginSvmStrategy::new(SvmTrainer::default()), 300);
    let qbc = run(&c, QbcStrategy::new(SvmTrainer::default(), 20), 300);
    let sel = |r: &RunResult| -> f64 { r.iterations.iter().map(|s| s.selection_secs()).sum() };
    assert!(
        sel(&qbc) > 2.0 * sel(&margin),
        "QBC selection {:.4}s should dwarf margin {:.4}s",
        sel(&qbc),
        sel(&margin)
    );
}

/// §4.1: committee creation dominates QBC latency and grows with committee
/// size.
#[test]
fn committee_creation_grows_with_size() {
    let c = corpus(PaperDataset::DblpAcm, 0.12);
    let small = run(&c, QbcStrategy::new(SvmTrainer::default(), 2), 200);
    let large = run(&c, QbcStrategy::new(SvmTrainer::default(), 20), 200);
    let committee = |r: &RunResult| -> f64 { r.iterations.iter().map(|s| s.committee_secs).sum() };
    assert!(
        committee(&large) > 3.0 * committee(&small),
        "QBC(20) committee time {:.4}s vs QBC(2) {:.4}s",
        committee(&large),
        committee(&small)
    );
}

/// Fig. 8c/9c: larger tree ensembles reach at least the quality of tiny
/// ones.
#[test]
fn larger_forests_no_worse() {
    let c = corpus(PaperDataset::AbtBuy, 0.12);
    let t2 = run(&c, TreeQbcStrategy::new(2), 500).best_f1();
    let t20 = run(&c, TreeQbcStrategy::new(20), 500).best_f1();
    assert!(
        t20 + 0.03 >= t2,
        "Trees(20) {t20:.3} should be at least Trees(2) {t2:.3}"
    );
}

/// §6.3: rules terminate early with far fewer labels and far fewer atoms
/// than tree ensembles (interpretability), at lower quality on products.
#[test]
fn rules_fewer_atoms_and_labels_than_trees() {
    let c = corpus(PaperDataset::AbtBuy, 0.12);
    let trees = run(&c, TreeQbcStrategy::new(10), 500);
    let rules = run(&c, LfpLfnStrategy::new(DnfTrainer::default(), 0.85), 500);
    assert!(
        rules.total_labels() < trees.total_labels(),
        "rules labels {} should undercut trees {}",
        rules.total_labels(),
        trees.total_labels()
    );
    let last_atoms = |r: &RunResult| r.iterations.last().and_then(|s| s.atoms).unwrap_or(0);
    assert!(
        last_atoms(&rules) * 5 < last_atoms(&trees).max(1),
        "rule atoms {} vs tree atoms {}",
        last_atoms(&rules),
        last_atoms(&trees)
    );
}

/// Fig. 14a: tree-ensemble quality degrades monotonically-ish with noise
/// (0% clearly better than 40%).
#[test]
fn noise_hurts_trees() {
    let c = corpus(PaperDataset::AbtBuy, 0.12);
    let run_noise = |noise: f64| {
        let oracle = Oracle::noisy(c.truths().to_vec(), noise, 5).expect("valid noise");
        let params = LoopParams {
            max_labels: 400,
            stop_at_f1: None,
            ..LoopParams::default()
        };
        ActiveLearner::new(TreeQbcStrategy::new(10), params)
            .run(&c, &oracle, 17)
            .expect("noisy run")
            .best_f1()
    };
    let f0 = run_noise(0.0);
    let f40 = run_noise(0.4);
    assert!(f0 > f40 + 0.1, "0% {f0:.3} vs 40% {f40:.3}");
}

/// §6.2 extension: majority voting recovers quality under heavy labeling
/// noise.
#[test]
fn majority_voting_recovers_noisy_quality() {
    let c = corpus(PaperDataset::DblpAcm, 0.12);
    let run_votes = |votes: usize| {
        let oracle =
            Oracle::noisy_with_voting(c.truths().to_vec(), 0.35, votes, 5).expect("odd committee");
        let params = LoopParams {
            max_labels: 400,
            stop_at_f1: None,
            ..LoopParams::default()
        };
        ActiveLearner::new(TreeQbcStrategy::new(10), params)
            .run(&c, &oracle, 17)
            .expect("voting run")
            .best_f1()
    };
    let one = run_votes(1);
    let five = run_votes(5);
    assert!(
        five > one + 0.05,
        "5-vote correction {five:.3} should beat single vote {one:.3} at 35% noise"
    );
}

/// §5.1 extension: LSH-approximate margin keeps quality comparable to
/// exact margin selection.
#[test]
fn lsh_margin_quality_comparable() {
    use alem_core::strategy::LshMarginStrategy;
    let c = corpus(PaperDataset::DblpAcm, 0.12);
    let exact = run(&c, MarginSvmStrategy::new(SvmTrainer::default()), 400).best_f1();
    let lsh = run(
        &c,
        LshMarginStrategy::new(SvmTrainer::default(), 32, 4),
        400,
    )
    .best_f1();
    assert!(
        (exact - lsh).abs() < 0.15,
        "exact margin {exact:.3} vs LSH {lsh:.3}"
    );
}

/// §2 related-work claim: IWAL's randomized queries are no more
/// label-efficient than pure margin selection on the F1 objective.
#[test]
fn iwal_not_better_than_margin() {
    use alem_core::selector::iwal::IwalConfig;
    use alem_core::strategy::IwalSvmStrategy;
    let c = corpus(PaperDataset::DblpAcm, 0.12);
    let margin = run(&c, MarginSvmStrategy::new(SvmTrainer::default()), 300).best_f1();
    let iwal = run(
        &c,
        IwalSvmStrategy::new(mlcore::svm::SvmConfig::default(), IwalConfig::default()),
        300,
    )
    .best_f1();
    assert!(
        margin + 0.05 >= iwal,
        "margin {margin:.3} should not lose to IWAL {iwal:.3}"
    );
}

/// §5.1 / Fig. 11: blocking-dimension selection keeps comparable quality
/// to full-dimension margin.
#[test]
fn blocking_dims_preserve_quality() {
    let c = corpus(PaperDataset::DblpAcm, 0.12);
    let full = run(&c, MarginSvmStrategy::new(SvmTrainer::default()), 400).best_f1();
    let b1 = run(
        &c,
        MarginSvmStrategy::builder().blocking_dims(1).build(),
        400,
    )
    .best_f1();
    assert!(
        (full - b1).abs() < 0.12,
        "margin(all) {full:.3} vs margin(1Dim) {b1:.3} should be comparable"
    );
}
