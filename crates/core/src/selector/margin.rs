//! Margin-based example selection (§4.2).
//!
//! Scores each unlabeled example by the trained model's distance from its
//! decision boundary — `|w·x + b|` for a linear SVM, `|affine output|` for
//! the neural net — and picks the examples closest to it. Learner-aware:
//! there is no committee to build, so the whole latency is scoring time.
//!
//! Every linear SVM is scored by [`score_pool_linear`] and
//! [`select_linear`], on linalg's blocked kernel. The crate's `score_pool`
//! and `select` take the margin as a closure, for the neural net.

use super::{score_pool_with, scored_pool, top_k_desc, Selection};
use crate::corpus::Corpus;
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::svm::LinearSvm;
use rand::rngs::StdRng;
use std::time::Duration;

/// Ambiguity scores for the pool: the negated absolute margin, so the
/// examples closest to the decision boundary score highest. Aligned with
/// `unlabeled`; thread-count invariant.
pub(crate) fn score_pool<F>(
    margin_of: F,
    corpus: &Corpus,
    unlabeled: &[usize],
    par: &Parallelism,
) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    score_pool_with(par, unlabeled, |i| -margin_of(corpus.x(i)))
}

/// `score_pool` for a linear SVM, with `|w·x + b|` evaluated a block of
/// rows at a time by linalg's panel kernel (one model): the same scores,
/// bit for bit.
pub fn score_pool_linear(
    svm: &LinearSvm,
    corpus: &Corpus,
    unlabeled: &[usize],
    par: &Parallelism,
) -> Vec<f64> {
    let panel = LinearSvm::panel(std::slice::from_ref(svm));
    par.map_chunks(unlabeled, |chunk| {
        let mut scores = Vec::with_capacity(chunk.len());
        panel.eval(chunk.iter().map(|&i| corpus.x(i)), |v| {
            scores.extend(v.iter().map(|d| -d.abs()))
        });
        scores
    })
}

/// One margin-selection round. `margin_of` must return the *absolute*
/// distance from the decision boundary for a corpus example index.
pub(crate) fn select<F>(
    margin_of: F,
    corpus: &Corpus,
    unlabeled: &[usize],
    batch: usize,
    rng: &mut StdRng,
    obs: &Registry,
    par: &Parallelism,
) -> Selection
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    pick(unlabeled, batch, rng, obs, || {
        score_pool(margin_of, corpus, unlabeled, par)
    })
}

/// One margin-selection round for a linear SVM, scoring with
/// [`score_pool_linear`].
pub fn select_linear(
    svm: &LinearSvm,
    corpus: &Corpus,
    unlabeled: &[usize],
    batch: usize,
    rng: &mut StdRng,
    obs: &Registry,
    par: &Parallelism,
) -> Selection {
    pick(unlabeled, batch, rng, obs, || {
        score_pool_linear(svm, corpus, unlabeled, par)
    })
}

/// Score the pool under the `select.score` span and take the `batch`
/// highest scores.
fn pick(
    unlabeled: &[usize],
    batch: usize,
    rng: &mut StdRng,
    obs: &Registry,
    score: impl FnOnce() -> Vec<f64>,
) -> Selection {
    let score_span = obs.span("select.score");
    let scores = score();
    obs.counter_add("select.pairs_scored", scores.len() as u64);
    let chosen = top_k_desc(scored_pool(unlabeled, &scores), batch, rng);
    Selection {
        chosen,
        committee_creation: Duration::ZERO,
        scoring: score_span.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn corpus() -> Corpus {
        let feats: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let truth: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        Corpus::from_features(feats, truth)
    }

    #[test]
    fn picks_examples_closest_to_hyperplane() {
        let c = corpus();
        // Boundary at x = 0.5: f(x) = 2x - 1.
        let svm = LinearSvm::from_parts(vec![2.0], -1.0);
        let unlabeled: Vec<usize> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let sel = select_linear(
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
        let sel = select_linear(
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
        let c = Corpus::from_features(feats, truth);
        let svm = LinearSvm::from_parts(vec![2.0, -1.5, -0.25], -0.5);
        let unlabeled: Vec<usize> = (0..37).rev().collect();
        let bits = |s: Vec<f64>| s.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let want = bits(score_pool(
            |x| svm.margin(x),
            &c,
            &unlabeled,
            &Parallelism::sequential(),
        ));
        for t in [1, 2, 3, 8] {
            let got = score_pool_linear(&svm, &c, &unlabeled, &Parallelism::fixed(t));
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
            select_linear(
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
