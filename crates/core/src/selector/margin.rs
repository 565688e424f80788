//! Margin-based example selection (§4.2).
//!
//! Scores each unlabeled example by the trained model's distance from its
//! decision boundary — `|w·x + b|` for a linear SVM, `|affine output|` for
//! the neural net — and picks the examples closest to it. Learner-aware:
//! there is no committee to build, so the whole latency is scoring time.
//!
//! Any [`Classifier`] is scored through
//! [`Classifier::decision_values`], one call per chunk of the pool, so a
//! linear SVM runs on linalg's blocked kernel and every other model maps
//! `decision_value` over the rows.

use super::{select_top_k, Selection};
use crate::corpus::Corpus;
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::Classifier;
use rand::rngs::StdRng;

/// Ambiguity scores for the pool: the negated absolute margin, so the
/// examples closest to the decision boundary score highest. Aligned with
/// `unlabeled`; thread-count invariant.
pub fn score_pool<M: Classifier + Sync>(
    model: &M,
    corpus: &Corpus,
    unlabeled: &[usize],
    par: &Parallelism,
) -> Vec<f64> {
    par.map_chunks(unlabeled, |chunk| {
        let values = model.decision_values(chunk.iter().map(|&i| corpus.x(i)));
        values.into_iter().map(|d| -d.abs()).collect()
    })
}

/// One margin-selection round: the `batch` examples with the highest
/// [`score_pool`] scores.
pub fn select<M: Classifier + Sync>(
    model: &M,
    corpus: &Corpus,
    unlabeled: &[usize],
    batch: usize,
    rng: &mut StdRng,
    obs: &Registry,
    par: &Parallelism,
) -> Selection {
    select_top_k(unlabeled, batch, rng, obs, || {
        Ok(score_pool(model, corpus, unlabeled, par))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcore::svm::LinearSvm;
    use rand::SeedableRng;
    use std::time::Duration;

    fn corpus() -> Corpus {
        let feats: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let truth: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        Corpus::from_features(feats, truth).unwrap()
    }

    #[test]
    fn picks_examples_closest_to_hyperplane() {
        let c = corpus();
        // Boundary at x = 0.5: f(x) = 2x - 1.
        let svm = LinearSvm::from_parts(vec![2.0], -1.0);
        let unlabeled: Vec<usize> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let sel = select(
            &svm,
            &c,
            &unlabeled,
            10,
            &mut rng,
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert_eq!(sel.committee_creation, Duration::ZERO);
        for &i in &sel.chosen {
            let v = c.x(i)[0];
            assert!((0.40..=0.60).contains(&v), "chose far example {v}");
        }
    }

    #[test]
    fn respects_batch_and_pool() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![2.0], -1.0);
        let unlabeled: Vec<usize> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let sel = select(
            &svm,
            &c,
            &unlabeled,
            7,
            &mut rng,
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert_eq!(sel.chosen.len(), 7);
        assert!(sel.chosen.iter().all(|&i| i < 50));
    }

    #[test]
    fn linear_scores_have_the_per_row_bits_at_any_thread_count() {
        let feats: Vec<Vec<f64>> = (0..37)
            .map(|i| vec![i as f64 / 37.0, ((i * 7) % 11) as f64 / 11.0, 0.0])
            .collect();
        let truth: Vec<bool> = (0..37).map(|i| i >= 20).collect();
        let c = Corpus::from_features(feats, truth).unwrap();
        let svm = LinearSvm::from_parts(vec![2.0, -1.5, -0.25], -0.5);
        let unlabeled: Vec<usize> = (0..37).rev().collect();
        let bits = |s: Vec<f64>| s.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let want = bits(unlabeled.iter().map(|&i| -svm.margin(c.x(i))).collect());
        for t in [1, 2, 3, 8] {
            let got = score_pool(&svm, &c, &unlabeled, &Parallelism::fixed(t));
            assert_eq!(bits(got), want, "threads={t}");
        }
    }

    #[test]
    fn selection_is_thread_count_invariant() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![2.0], -1.0);
        let unlabeled: Vec<usize> = (0..100).collect();
        let pick = |par: Parallelism| {
            let mut rng = StdRng::seed_from_u64(9);
            select(
                &svm,
                &c,
                &unlabeled,
                10,
                &mut rng,
                &Registry::disabled(),
                &par,
            )
            .chosen
        };
        let seq = pick(Parallelism::sequential());
        for t in [2, 3, 8] {
            assert_eq!(seq, pick(Parallelism::fixed(t)), "threads={t}");
        }
    }
}
