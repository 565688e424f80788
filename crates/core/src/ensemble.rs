//! Active ensembles of linear classifiers (§5.2).
//!
//! Instead of refining a single SVM, the ensemble strategy accumulates
//! several *high-precision* SVMs over the course of active learning. When
//! the candidate SVM's precision on the freshly labeled batch reaches the
//! threshold τ (0.85 in the paper), it is accepted into the ensemble and
//! every pair it predicts as a match is removed from both the labeled and
//! the unlabeled pools — the next candidate is then learned on the
//! remaining, uncovered examples. The final matcher is the union of the
//! accepted classifiers' positive predictions, trading a little precision
//! for substantially higher recall (Fig. 11). Pool pruning also makes
//! selection latency fall sharply in later iterations (Fig. 10d).

use crate::corpus::Corpus;
use crate::error::AlemError;
use crate::learner::Trainer;
use crate::selector;
use crate::strategy::{labeled_rows, Strategy, StrategyStats};
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::Classifier;
use rand::rngs::StdRng;

/// Margin selection + incremental active ensemble over any trainer:
/// `Linear-Margin(Ensemble)` over [`crate::learner::SvmTrainer`], and over
/// the neural net the extension the paper sketches at the end of §5.2
/// ("Active ensemble for neural networks can be applied as discussed in
/// the current section without much of a modification"). The candidate
/// is scored by [`selector::margin::score_pool`].
pub struct ActiveEnsembleStrategy<T: Trainer> {
    trainer: T,
    /// Precision threshold τ for accepting a candidate (paper: 0.85).
    tau: f64,
    accepted: Vec<T::Model>,
    candidate: Option<T::Model>,
    par: Parallelism,
}

impl<T: Trainer> ActiveEnsembleStrategy<T> {
    /// Active ensemble over `trainer` with acceptance threshold `tau`;
    /// `fit` rejects a `tau` outside `[0, 1]` (NaN too) with
    /// [`AlemError::InvalidConfig`].
    pub fn new(trainer: T, tau: f64) -> Self {
        ActiveEnsembleStrategy {
            trainer,
            tau,
            accepted: Vec::new(),
            candidate: None,
            par: Parallelism::sequential(),
        }
    }

    /// The accepted component models ("#AcceptedSVMs" in Fig. 11).
    pub fn accepted(&self) -> &[T::Model] {
        &self.accepted
    }

    fn union_predict(&self, x: &[f64]) -> bool {
        self.accepted.iter().any(|m| m.predict(x))
            || self.candidate.as_ref().is_some_and(|m| m.predict(x))
    }
}

impl<T: Trainer> Strategy for ActiveEnsembleStrategy<T> {
    fn name(&self) -> String {
        format!("{}-Margin(Ensemble)", self.trainer.name())
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        if !(0.0..=1.0).contains(&self.tau) {
            return Err(AlemError::InvalidConfig(format!(
                "tau must be a probability in [0, 1], got {}",
                self.tau
            )));
        }
        // Covered examples were pruned from the pools in post_label, so the
        // candidate is trained on exactly the uncovered labeled data.
        let (xs, ys) = labeled_rows(corpus, labeled, false)?;
        self.candidate = Some(self.trainer.train(&xs, &ys, rng));
        Ok(())
    }

    fn score_pool(&self, corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        let model = self.candidate.as_ref().ok_or_else(|| {
            AlemError::InvalidConfig("ensemble has no candidate yet; call fit first".to_owned())
        })?;
        Ok(selector::margin::score_pool(
            model, corpus, unlabeled, &self.par,
        ))
    }

    fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        self.union_predict(corpus.x(i))
    }

    fn stats(&self) -> StrategyStats {
        StrategyStats {
            accepted_models: Some(self.accepted.len()),
            ..StrategyStats::default()
        }
    }

    fn saved_model(&self) -> Option<crate::model_io::SavedModel> {
        let members: Vec<&T::Model> = self.accepted.iter().chain(&self.candidate).collect();
        self.trainer.saved_ensemble(&members)
    }

    fn post_label(
        &mut self,
        corpus: &Corpus,
        new: &[(usize, bool)],
        labeled: &mut Vec<(usize, bool)>,
        unlabeled: &mut Vec<usize>,
        _rng: &mut StdRng,
        obs: &Registry,
    ) {
        let Some(candidate) = &self.candidate else {
            return;
        };
        // Precision of the candidate on the Oracle-labeled batch (§5.2:
        // "the precision is computed on the selected examples in each
        // active learning iteration whose labels are provided by the
        // Oracle").
        let mut claimed = 0usize;
        let mut correct = 0usize;
        for &(i, y) in new {
            if candidate.predict(corpus.x(i)) {
                claimed += 1;
                if y {
                    correct += 1;
                }
            }
        }
        if claimed == 0 || (correct as f64 / claimed as f64) < self.tau {
            if claimed > 0 {
                obs.counter_add("ensemble.rejected", 1);
            }
            return;
        }
        // Accept and prune everything the new member covers.
        let Some(member) = self.candidate.take() else {
            return;
        };
        let before = labeled.len() + unlabeled.len();
        labeled.retain(|&(i, _)| !member.predict(corpus.x(i)));
        unlabeled.retain(|&i| !member.predict(corpus.x(i)));
        obs.counter_add("ensemble.accepted", 1);
        obs.counter_add(
            "ensemble.pruned_pairs",
            (before - labeled.len() - unlabeled.len()) as u64,
        );
        obs.gauge_set("pool.unlabeled", unlabeled.len() as u64);
        self.accepted.push(member);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::{NnTrainer, SvmTrainer};
    use crate::model_io::SavedModel;
    use mlcore::svm::LinearSvm;
    use rand::SeedableRng;

    /// Two disjoint positive clusters: a single linear model can't cover
    /// both without losing precision, an ensemble can.
    fn two_cluster_corpus() -> Corpus {
        let mut feats = Vec::new();
        let mut truth = Vec::new();
        for i in 0..150 {
            let v = i as f64 / 150.0;
            // Positives live in dim0 high OR dim1 high; negatives elsewhere.
            let (x0, x1, t) = match i % 3 {
                0 => (0.8 + v * 0.1, 0.0, true),
                1 => (0.0, 0.8 + v * 0.1, true),
                _ => (0.2 * v, 0.2 * (1.0 - v), false),
            };
            feats.push(vec![x0, x1]);
            truth.push(t);
        }
        Corpus::from_features(feats, truth).unwrap()
    }

    #[test]
    fn accepts_high_precision_candidates_and_prunes() {
        let c = two_cluster_corpus();
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = ActiveEnsembleStrategy::new(SvmTrainer::default(), 0.85);
        let mut labeled: Vec<(usize, bool)> = (0..30).map(|i| (i, c.truth(i))).collect();
        s.fit(&c, &labeled, &mut rng).unwrap();

        // A batch of newly labeled examples the candidate predicts
        // positive; all of them are truly positive.
        let new: Vec<(usize, bool)> = (30..60)
            .filter(|&i| s.candidate.as_ref().unwrap().predict(c.x(i)))
            .map(|i| (i, c.truth(i)))
            .collect();
        assert_eq!(new.len(), 20, "the candidate claims 20 pairs");
        assert!(
            new.iter().all(|&(_, y)| y),
            "every claimed pair is positive"
        );
        let mut unlabeled: Vec<usize> = (60..150).collect();
        let before = unlabeled.len();
        s.post_label(
            &c,
            &new,
            &mut labeled,
            &mut unlabeled,
            &mut rng,
            &Registry::disabled(),
        );
        assert_eq!(s.accepted().len(), 1);
        assert!(unlabeled.len() < before, "covered pairs must be pruned");
    }

    #[test]
    fn tau_out_of_range_is_a_fit_error() {
        let c = two_cluster_corpus();
        let labeled: Vec<(usize, bool)> = (0..30).map(|i| (i, c.truth(i))).collect();
        for tau in [1.5, f64::NAN] {
            let mut s = ActiveEnsembleStrategy::new(SvmTrainer::default(), tau);
            let err = s.fit(&c, &labeled, &mut StdRng::seed_from_u64(5));
            assert!(
                matches!(err, Err(AlemError::InvalidConfig(_))),
                "tau {tau}: {err:?}"
            );
            assert!(s.candidate.is_none());
        }
    }

    #[test]
    fn low_precision_candidate_rejected() {
        let c = two_cluster_corpus();
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = ActiveEnsembleStrategy::new(SvmTrainer::default(), 0.99);
        let labeled: Vec<(usize, bool)> = (0..30).map(|i| (i, c.truth(i))).collect();
        s.fit(&c, &labeled, &mut rng).unwrap();
        // A batch labeled all-negative forces precision 0 on claimed pairs.
        let claimed: Vec<(usize, bool)> = (30..90)
            .filter(|&i| s.candidate.as_ref().unwrap().predict(c.x(i)))
            .map(|i| (i, false))
            .collect();
        let mut l = labeled.clone();
        let mut u: Vec<usize> = (90..150).collect();
        s.post_label(
            &c,
            &claimed,
            &mut l,
            &mut u,
            &mut rng,
            &Registry::disabled(),
        );
        assert!(s.accepted().is_empty());
    }

    #[test]
    fn generic_ensemble_over_nn() {
        let c = two_cluster_corpus();
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = ActiveEnsembleStrategy::new(NnTrainer::default(), 0.85);
        assert_eq!(s.name(), "Non-Convex Non-Linear-Margin(Ensemble)");
        let labeled: Vec<(usize, bool)> = (0..30).map(|i| (i, c.truth(i))).collect();
        s.fit(&c, &labeled, &mut rng).unwrap();
        let sel = s.select(
            &c,
            &labeled,
            &(30..60).collect::<Vec<_>>(),
            5,
            &mut rng,
            &Registry::disabled(),
        );
        assert_eq!(sel.chosen.len(), 5);
        assert_eq!(s.stats().accepted_models, Some(0));
        assert!(s.saved_model().is_none(), "only SVM ensembles persist");
        // Feeding it a perfectly-labeled claimed batch accepts the model
        // and prunes covered pairs.
        let claimed: Vec<(usize, bool)> = (30..90)
            .filter(|&i| s.candidate.as_ref().unwrap().predict(c.x(i)))
            .map(|i| (i, true))
            .collect();
        assert_eq!(claimed.len(), 40, "the candidate claims 40 pairs");
        let mut l = labeled.clone();
        let mut u: Vec<usize> = (90..150).collect();
        s.post_label(
            &c,
            &claimed,
            &mut l,
            &mut u,
            &mut rng,
            &Registry::disabled(),
        );
        assert_eq!(s.accepted().len(), 1);
    }

    #[test]
    fn union_prediction_covers_all_accepted() {
        let c = two_cluster_corpus();
        let mut s = ActiveEnsembleStrategy::new(SvmTrainer::default(), 0.85);
        // Hand-craft two one-dimensional experts.
        s.accepted.push(LinearSvm::from_parts(vec![4.0, 0.0], -2.0));
        s.accepted.push(LinearSvm::from_parts(vec![0.0, 4.0], -2.0));
        assert!(s.predict(&c, 0)); // dim0-high positive
        assert!(s.predict(&c, 1)); // dim1-high positive
        assert!(!s.predict(&c, 2)); // negative
        assert_eq!(s.stats().accepted_models, Some(2));
        // `alem match --strategy ensemble --save-model` persists the union.
        assert!(matches!(
            s.saved_model(),
            Some(SavedModel::SvmEnsemble(members)) if members == s.accepted()
        ));
    }
}
