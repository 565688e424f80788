//! Blocking dimensions for margin-based selection (§5.1).
//!
//! The weight vector of a trained linear SVM is examined for the `K`
//! dimensions with the largest absolute weights — the *blocking
//! dimensions*. For each unlabeled example the selector first evaluates
//! only those dimensions; if they are all zero the example is assumed to
//! have an all-zero feature vector, whose margin is just `|b|` — an
//! unambiguous example that can be skipped without building its feature
//! vector or computing the full dot product. Only surviving examples get
//! a full margin computation.
//!
//! This is the zero rule ([`Skip::Zero`]) of the staged scan in
//! [`super::lazy_margin`], run over the fresh top-`K` dims of the
//! current model: on a lazy corpus phase 1 computes at most `K` cells of
//! a pair, and only survivors materialize their rows.
//!
//! Using all dimensions as blocking dimensions degenerates to vanilla
//! margin selection (the "margin(62Dim)" baseline of Fig. 11); `K = 1` is
//! the "margin(1Dim)" variant that cuts selection latency without hurting
//! quality on most datasets (Fig. 10d, Fig. 11).

use super::lazy_margin::{self, Skip};
use super::Selection;
use crate::corpus::Corpus;
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::svm::LinearSvm;
use rand::rngs::StdRng;

/// Pruned margin scores for the pool, aligned with `unlabeled`: examples
/// whose top-`k` blocking dimensions are all zero get
/// [`EXCLUDED`](super::EXCLUDED); survivors get the negated absolute
/// margin (higher = closer to the boundary).
pub fn score_pool(
    svm: &LinearSvm,
    k: usize,
    corpus: &Corpus,
    unlabeled: &[usize],
    par: &Parallelism,
) -> Vec<f64> {
    let dims = svm.top_weight_dims(k);
    lazy_margin::scan(svm, corpus, unlabeled, &dims, Skip::Zero, 0, par).0
}

/// One margin round pruned by the top-`k` blocking dimensions of `svm`:
/// the selection, and how many examples were skipped.
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
) -> (Selection, usize) {
    let dims = svm.top_weight_dims(k);
    lazy_margin::select(
        svm,
        corpus,
        unlabeled,
        batch,
        &dims,
        Skip::Zero,
        rng,
        obs,
        par,
    )
}

#[cfg(test)]
mod tests {
    use super::super::{margin, EXCLUDED};
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
        Corpus::from_features(feats, truth).unwrap()
    }

    #[test]
    fn prunes_zero_blocking_dim_examples() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![3.0, 0.1], -1.5);
        let unlabeled: Vec<usize> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let (selection, pruned) = select(
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
        assert_eq!(pruned, 51);
        assert!(selection.chosen.iter().all(|&i| i > 50));
    }

    #[test]
    fn all_dims_equals_vanilla_margin() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![3.0, 0.1], -1.5);
        let unlabeled: Vec<usize> = (50..100).collect();
        let (out, _) = select(
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
        let mut a = out.chosen.clone();
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
        let (selection, pruned) = select(
            &svm,
            1,
            &c,
            &unlabeled,
            5,
            &mut StdRng::seed_from_u64(8),
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert_eq!(selection.chosen.len(), 5);
        assert_eq!(pruned, 50);
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
