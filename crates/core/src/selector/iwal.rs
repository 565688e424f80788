//! Importance Weighted Active Learning (Beygelzimer, Dasgupta, Langford —
//! ICML 2009), the related-work baseline the paper dismisses for EM
//! because it "either chooses a poor objective of label prediction
//! accuracy ... or incurs excessive labels in practice" (§2).
//!
//! Practical margin-flavored IWAL: walk the (shuffled) unlabeled pool and
//! query each example with probability
//! `p(x) = p_min + (1 − p_min) · exp(−c · |f(x)|)` — near-boundary
//! examples are queried almost surely, confident ones only with `p_min`.
//! Queried examples carry importance weight `1/p(x)` so the downstream
//! weighted ERM stays unbiased. Included so the benchmark can measure the
//! label-efficiency gap against margin/QBC on the F1 objective.

use super::Selection;
use crate::corpus::Corpus;
use alem_obs::Registry;
use mlcore::svm::LinearSvm;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Duration;

/// IWAL rejection-sampling parameters.
#[derive(Debug, Clone, Copy)]
pub struct IwalConfig {
    /// Floor query probability (keeps the estimator's variance bounded).
    pub p_min: f64,
    /// Margin decay: larger = more aggressive rejection of confident
    /// examples.
    pub decay: f64,
}

impl Default for IwalConfig {
    fn default() -> Self {
        IwalConfig {
            p_min: 0.1,
            decay: 2.0,
        }
    }
}

/// Outcome of one IWAL round: the selection plus the importance weight
/// `1/p` of every chosen example.
#[derive(Debug, Clone, Default)]
pub struct IwalSelection {
    /// The selection result.
    pub selection: Selection,
    /// Importance weight per chosen example (aligned with
    /// `selection.chosen`).
    pub weights: Vec<f64>,
    /// Pool examples inspected (queried or rejected) this round.
    pub inspected: usize,
}

impl IwalConfig {
    /// Query probability for an example with absolute margin `m`.
    pub fn query_probability(&self, m: f64) -> f64 {
        self.p_min + (1.0 - self.p_min) * (-self.decay * m).exp()
    }

    /// One IWAL round: sample from the shuffled pool until `batch`
    /// queries are accepted or the pool is exhausted.
    pub fn select(
        &self,
        svm: &LinearSvm,
        corpus: &Corpus,
        unlabeled: &[usize],
        batch: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> IwalSelection {
        let score_span = obs.span("select.score");
        let mut pool: Vec<usize> = unlabeled.to_vec();
        pool.shuffle(rng);
        let mut chosen = Vec::with_capacity(batch);
        let mut weights = Vec::with_capacity(batch);
        let mut inspected = 0usize;
        for i in pool {
            if chosen.len() >= batch {
                break;
            }
            inspected += 1;
            let p = self.query_probability(svm.margin(corpus.x(i)));
            if rng.gen::<f64>() < p {
                chosen.push(i);
                weights.push(1.0 / p);
            }
        }
        obs.counter_add("select.pairs_inspected", inspected as u64);
        obs.counter_add("select.pairs_scored", chosen.len() as u64);
        IwalSelection {
            selection: Selection {
                chosen,
                committee_creation: Duration::ZERO,
                scoring: score_span.finish(),
            },
            weights,
            inspected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn corpus() -> Corpus {
        let feats: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
        let truth: Vec<bool> = (0..200).map(|i| i >= 100).collect();
        Corpus::from_features(feats, truth).unwrap()
    }

    #[test]
    fn query_probability_bounds_and_monotonicity() {
        let cfg = IwalConfig::default();
        assert!((cfg.query_probability(0.0) - 1.0).abs() < 1e-12);
        let mut last = 1.0;
        for m in [0.1, 0.5, 1.0, 5.0] {
            let p = cfg.query_probability(m);
            assert!(p < last);
            assert!(p >= cfg.p_min);
            last = p;
        }
    }

    #[test]
    fn fills_batch_and_weights_align() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![2.0], -1.0);
        let unlabeled: Vec<usize> = (0..200).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let out =
            IwalConfig::default().select(&svm, &c, &unlabeled, 10, &mut rng, &Registry::disabled());
        assert_eq!(out.selection.chosen.len(), 10);
        assert_eq!(out.weights.len(), 10);
        assert!(out
            .weights
            .iter()
            .all(|&w| (1.0..=10.0 + 1e-9).contains(&w)));
        assert!(out.inspected >= 10);
    }

    #[test]
    fn prefers_boundary_examples_statistically() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![2.0], -1.0); // boundary at 0.5
        let unlabeled: Vec<usize> = (0..200).collect();
        let mut near = 0usize;
        let mut total = 0usize;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = IwalConfig::default().select(
                &svm,
                &c,
                &unlabeled,
                10,
                &mut rng,
                &Registry::disabled(),
            );
            for &i in &out.selection.chosen {
                total += 1;
                if (0.25..0.75).contains(&c.x(i)[0]) {
                    near += 1;
                }
            }
        }
        // Half the pool is within (0.25, 0.75); IWAL should concentrate
        // well above that base rate.
        assert!(
            near as f64 / total as f64 > 0.6,
            "only {near}/{total} near the boundary"
        );
    }

    #[test]
    fn exhausted_pool_returns_partial_batch() {
        let c = corpus();
        let svm = LinearSvm::from_parts(vec![2.0], -1.0);
        let unlabeled: Vec<usize> = (0..3).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let out =
            IwalConfig::default().select(&svm, &c, &unlabeled, 10, &mut rng, &Registry::disabled());
        assert!(out.selection.chosen.len() <= 3);
        assert_eq!(out.inspected, 3);
    }
}
