//! Blocking dimensions for margin-based selection (§5.1).
//!
//! The weight vector of a trained linear SVM is examined for the `K`
//! dimensions with the largest absolute weights — the *blocking
//! dimensions*. For each unlabeled example the selector first evaluates
//! only those dimensions; if they are all zero the example is assumed to
//! have an all-zero feature vector, whose margin is just `|b|` — an
//! unambiguous example that can be skipped without computing the full dot
//! product. Only surviving examples get a full margin computation.
//!
//! Using all dimensions as blocking dimensions degenerates to vanilla
//! margin selection (the "margin(62Dim)" baseline of Fig. 11); `K = 1` is
//! the "margin(1Dim)" variant that cuts selection latency without hurting
//! quality on most datasets (Fig. 10d, Fig. 11).

use super::{margin, scored_pool, top_k_desc, Selection, EXCLUDED};
use crate::corpus::Corpus;
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::svm::LinearSvm;
use rand::rngs::StdRng;
use std::time::Duration;

/// Outcome of a blocking-dimension margin round, with pruning statistics.
#[derive(Debug, Clone, Default)]
pub struct BlockingSelection {
    /// The selection result.
    pub selection: Selection,
    /// Examples skipped because every blocking dimension was zero.
    pub pruned: usize,
    /// Examples that received a full margin computation.
    pub evaluated: usize,
}

/// Pruned margin scores for the pool, aligned with `unlabeled`: examples
/// whose blocking dimensions are all zero get [`EXCLUDED`]; survivors get
/// the negated absolute margin (higher = closer to the boundary).
///
/// The cheap prune pass runs sequentially *before* the fan-out — it only
/// touches `k` dimensions per example — so worker threads spend their time
/// exclusively on full dot products.
pub fn score_pool(
    svm: &LinearSvm,
    k: usize,
    corpus: &Corpus,
    unlabeled: &[usize],
    par: &Parallelism,
) -> Vec<f64> {
    let dims = svm.top_weight_dims(k);
    let (slots, survivors): (Vec<usize>, Vec<usize>) = unlabeled
        .iter()
        .enumerate()
        .filter(|&(_, &i)| dims.iter().any(|&d| corpus.x(i)[d] != 0.0))
        .map(|(j, &i)| (j, i))
        .unzip();
    let margins = margin::score_pool(svm, corpus, &survivors, par);
    let mut scores = vec![EXCLUDED; unlabeled.len()];
    for (j, m) in slots.into_iter().zip(margins) {
        scores[j] = m;
    }
    scores
}

/// One margin round pruned by the top-`k` blocking dimensions of `svm`.
#[allow(clippy::too_many_arguments)] // mirrors the pipeline's natural inputs
pub fn select(
    svm: &LinearSvm,
    k: usize,
    corpus: &Corpus,
    unlabeled: &[usize],
    batch: usize,
    rng: &mut StdRng,
    obs: &Registry,
    par: &Parallelism,
) -> BlockingSelection {
    let score_span = obs.span("select.score");
    let scores = score_pool(svm, k, corpus, unlabeled, par);
    let pruned = scores.iter().filter(|&&s| s == EXCLUDED).count();
    let evaluated = unlabeled.len() - pruned;
    obs.counter_add("select.pairs_skipped", pruned as u64);
    obs.counter_add("select.pairs_scored", evaluated as u64);
    let mut chosen = top_k_desc(scored_pool(unlabeled, &scores), batch, rng);
    // Degenerate fallback: if pruning removed everything, fall back to the
    // skipped pool so active learning can still progress.
    if chosen.is_empty() && !unlabeled.is_empty() {
        let scores = margin::score_pool(svm, corpus, unlabeled, par);
        obs.counter_add("select.pairs_scored", unlabeled.len() as u64);
        chosen = top_k_desc(scored_pool(unlabeled, &scores), batch, rng);
    }
    BlockingSelection {
        selection: Selection {
            chosen,
            committee_creation: Duration::ZERO,
            scoring: score_span.finish(),
        },
        pruned,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Corpus where feature 0 is the high-weight dimension and is zero for
    /// the first half of examples.
    fn corpus() -> Corpus {
        let feats: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                if i < 50 {
                    vec![0.0, 0.3]
                } else {
                    vec![(i - 50) as f64 / 50.0, 0.3]
                }
            })
            .collect();
        let truth: Vec<bool> = (0..100).map(|i| i >= 75).collect();
        Corpus::from_features(feats, truth)
    }

    #[test]
    fn prunes_zero_blocking_dim_examples() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![3.0, 0.1], -1.5);
        let unlabeled: Vec<usize> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let out = select(
            &svm,
            1,
            &c,
            &unlabeled,
            10,
            &mut rng,
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        // Examples 0..50 have a zero blocking dim, and so does example 50
        // (its value is (50-50)/50 = 0).
        assert_eq!(out.pruned, 51);
        assert_eq!(out.evaluated, 49);
        assert!(out.selection.chosen.iter().all(|&i| i > 50));
    }

    #[test]
    fn all_dims_equals_vanilla_margin() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![3.0, 0.1], -1.5);
        let unlabeled: Vec<usize> = (50..100).collect();
        let out = select(
            &svm,
            2,
            &c,
            &unlabeled,
            5,
            &mut StdRng::seed_from_u64(8),
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        let vanilla = margin::select(
            &svm,
            &c,
            &unlabeled,
            5,
            &mut StdRng::seed_from_u64(8),
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        let mut a = out.selection.chosen.clone();
        let mut b = vanilla.chosen.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn falls_back_when_everything_pruned() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![3.0, 0.1], -1.5);
        // Only examples whose blocking dim is zero.
        let unlabeled: Vec<usize> = (0..50).collect();
        let out = select(
            &svm,
            1,
            &c,
            &unlabeled,
            5,
            &mut StdRng::seed_from_u64(8),
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert_eq!(out.selection.chosen.len(), 5);
        assert_eq!(out.pruned, 50);
    }

    #[test]
    fn scores_are_thread_count_invariant() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![3.0, 0.1], -1.5);
        let unlabeled: Vec<usize> = (0..100).collect();
        let seq = score_pool(&svm, 1, &c, &unlabeled, &Parallelism::sequential());
        for t in [2, 3, 8] {
            assert_eq!(
                seq,
                score_pool(&svm, 1, &c, &unlabeled, &Parallelism::fixed(t))
            );
        }
        assert_eq!(seq.iter().filter(|&&s| s == EXCLUDED).count(), 51);
    }
}
