//! Property-based tests on the example selectors and oracle.

use alem_core::corpus::Corpus;
use alem_core::learner::SvmTrainer;
use alem_core::oracle::{Oracle, OracleAnswer, QueryOracle};
use alem_core::selector::{bottom_k_asc, qbc, top_k_desc};
use alem_core::strategy::{QbcStrategy, Strategy};
use mlcore::svm::LinearSvm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn corpus_from(xs: Vec<f64>) -> Corpus {
    let feats: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
    let truth: Vec<bool> = xs.iter().map(|&v| v > 0.5).collect();
    Corpus::from_features(feats, truth).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// top_k/bottom_k always return k distinct in-range indices.
    #[test]
    fn topk_returns_distinct_indices(
        scores in prop::collection::vec(0.0f64..1.0, 1..200),
        k in 1usize..50,
        seed in 0u64..1000,
    ) {
        let scored: Vec<(usize, f64)> = scores.iter().cloned().enumerate().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let top = top_k_desc(scored.clone(), k, &mut rng);
        let bot = bottom_k_asc(scored, k, &mut rng);
        for out in [&top, &bot] {
            prop_assert!(out.len() == k.min(scores.len()));
            let mut s = out.clone();
            s.sort_unstable();
            s.dedup();
            prop_assert_eq!(s.len(), out.len());
            prop_assert!(out.iter().all(|&i| i < scores.len()));
        }
    }

    /// The k-th highest selected score dominates every unselected score.
    #[test]
    fn topk_scores_dominate(
        scores in prop::collection::vec(0.0f64..1.0, 2..100),
        k in 1usize..20,
    ) {
        let scored: Vec<(usize, f64)> = scores.iter().cloned().enumerate().collect();
        let mut rng = StdRng::seed_from_u64(1);
        let top = top_k_desc(scored, k, &mut rng);
        let _k = k.min(scores.len());
        let min_selected = top.iter().map(|&i| scores[i]).fold(f64::INFINITY, f64::min);
        for (i, &s) in scores.iter().enumerate() {
            if !top.contains(&i) {
                prop_assert!(s <= min_selected + 1e-12);
            }
        }
    }

    /// QBC selections always come from the unlabeled pool, without
    /// duplicates, at most batch-many.
    #[test]
    fn qbc_selects_within_pool(
        n in 20usize..120,
        batch in 1usize..15,
        seed in 0u64..100,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let corpus = corpus_from(xs);
        let labeled: Vec<(usize, bool)> =
            (0..n).step_by(4).map(|i| (i, corpus.truth(i))).collect();
        let unlabeled: Vec<usize> =
            (0..n).filter(|i| i % 4 != 0).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = QbcStrategy::new(SvmTrainer::default(), 3).select(
            &corpus, &labeled, &unlabeled, batch, &mut rng, &alem_obs::Registry::disabled(),
        );
        prop_assert!(sel.chosen.len() <= batch);
        let mut sorted = sel.chosen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sel.chosen.len());
        prop_assert!(sel.chosen.iter().all(|i| unlabeled.contains(i)));
    }

    /// Committee variance is in [0, 0.25] for any committee and example.
    #[test]
    fn committee_variance_bounds(
        weights in prop::collection::vec(-3.0f64..3.0, 1..8),
        x in -2.0f64..2.0,
    ) {
        let committee: Vec<LinearSvm> = weights
            .iter()
            .map(|&w| LinearSvm::from_parts(vec![w], 0.1))
            .collect();
        let corpus = corpus_from(vec![x]);
        let v = qbc::score_pool(&committee, &corpus, &[0], false, &alem_par::Parallelism::sequential());
        prop_assert_eq!(v.len(), 1);
        prop_assert!((0.0..=0.25 + 1e-12).contains(&v[0]));
    }

    /// Noisy oracle flip rate concentrates near the configured noise.
    #[test]
    fn oracle_flip_rate(noise in 0.0f64..=1.0, seed in 0u64..50) {
        let n = 4000;
        let oracle = Oracle::noisy(vec![true; n], noise, seed).expect("valid noise");
        let flips = (0..n)
            .filter(|&i| matches!(oracle.try_label(i), Ok(OracleAnswer::Label(false))))
            .count();
        let rate = flips as f64 / n as f64;
        prop_assert!((rate - noise).abs() < 0.05, "rate {} vs noise {}", rate, noise);
    }

    /// Blocking-dimension pruning never selects an example whose blocking
    /// dims are all zero (when unpruned candidates exist).
    #[test]
    fn blocking_dim_never_selects_pruned(
        zeros in 1usize..40,
        nonzeros in 1usize..40,
        k in 1usize..3,
    ) {
        let mut feats = Vec::new();
        for _ in 0..zeros {
            // Zero in every dimension: pruned for any choice of blocking
            // dims.
            feats.push(vec![0.0, 0.0]);
        }
        for i in 0..nonzeros {
            feats.push(vec![0.1 + i as f64 * 0.01, 0.7]);
        }
        let n = feats.len();
        let truth = vec![false; n];
        let corpus = Corpus::from_features(feats, truth).unwrap();
        let svm = LinearSvm::from_parts(vec![5.0, 0.01], -1.0);
        let unlabeled: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let (selection, pruned) = alem_core::selector::blocking_dim::select(
            &svm, k, &corpus, &unlabeled, 5, &mut rng,
            &alem_obs::Registry::disabled(), &alem_par::Parallelism::sequential(),
        );
        prop_assert_eq!(pruned, zeros);
        prop_assert!(selection.chosen.iter().all(|&i| i >= zeros));
    }
}
