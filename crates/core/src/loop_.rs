//! The active-learning driver (paper Fig. 1a).
//!
//! Starting from a small random seed of labeled pairs (30 in the paper),
//! each iteration (re)trains the strategy's model on the cumulative labeled
//! data, evaluates it, asks the strategy to select a batch of ambiguous
//! pairs (10 in the paper), queries the Oracle for their labels, and folds
//! them into the training pool. Termination mirrors §6: a near-perfect F1
//! (perfect Oracles), label exhaustion (noisy Oracles), a label budget, or
//! strategy-initiated termination (LFP/LFN exhaustion for rules).
//!
//! [`ActiveLearner::run`] is the simple entry point; the fault-tolerant
//! variant with checkpoint/resume, retries, and graceful degradation lives
//! in [`crate::session`] (same loop — `run` delegates to it).

use crate::corpus::Corpus;
use crate::error::AlemError;
use crate::evaluator::RunResult;
use crate::oracle::QueryOracle;
use crate::session::SessionConfig;
use crate::strategy::Strategy;
use serde::{Deserialize, Serialize};

/// What the per-iteration evaluation runs against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EvalMode {
    /// Evaluate on *all* post-blocking pairs, labeled and unlabeled — the
    /// paper's progressive F1 (§6, train-test splits).
    Progressive,
    /// Conventional supervised split: selection draws from a (1 −
    /// `test_frac`) train pool, evaluation uses the held-out rest
    /// (Figs. 16–17 use `test_frac = 0.2`).
    Holdout {
        /// Fraction of pairs held out for testing.
        test_frac: f64,
    },
}

/// Loop hyper-parameters. Defaults are the paper's settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopParams {
    /// Initial random labeled seed (paper: 30).
    pub seed_size: usize,
    /// Labels queried per iteration (paper: 10).
    pub batch_size: usize,
    /// Total label budget including the seed (e.g. 2360 for Figs. 8–9).
    pub max_labels: usize,
    /// Evaluation mode.
    pub eval: EvalMode,
    /// Stop once progressive F1 reaches this value (perfect-Oracle
    /// termination; `None` = run to exhaustion as with noisy Oracles).
    pub stop_at_f1: Option<f64>,
}

impl Default for LoopParams {
    fn default() -> Self {
        LoopParams {
            seed_size: 30,
            batch_size: 10,
            max_labels: 2360,
            eval: EvalMode::Progressive,
            stop_at_f1: Some(0.99),
        }
    }
}

impl LoopParams {
    /// Fluent construction starting from the paper's defaults:
    ///
    /// ```
    /// use alem_core::loop_::{EvalMode, LoopParams};
    /// let params = LoopParams::builder()
    ///     .max_labels(500)
    ///     .eval(EvalMode::Holdout { test_frac: 0.2 })
    ///     .build();
    /// assert_eq!(params.seed_size, 30); // untouched defaults remain
    /// ```
    pub fn builder() -> LoopParamsBuilder {
        LoopParamsBuilder {
            params: LoopParams::default(),
        }
    }
}

/// Builder returned by [`LoopParams::builder`]. Every setter overrides one
/// paper default; [`LoopParamsBuilder::build`] yields the final params.
#[derive(Debug, Clone)]
pub struct LoopParamsBuilder {
    params: LoopParams,
}

impl LoopParamsBuilder {
    /// Initial random labeled seed (paper: 30).
    pub fn seed_size(mut self, n: usize) -> Self {
        self.params.seed_size = n;
        self
    }

    /// Labels queried per iteration (paper: 10).
    pub fn batch_size(mut self, n: usize) -> Self {
        self.params.batch_size = n;
        self
    }

    /// Total label budget including the seed.
    pub fn max_labels(mut self, n: usize) -> Self {
        self.params.max_labels = n;
        self
    }

    /// Evaluation mode (progressive F1 or a conventional hold-out split).
    pub fn eval(mut self, eval: EvalMode) -> Self {
        self.params.eval = eval;
        self
    }

    /// Stop once progressive F1 reaches this value.
    pub fn stop_at_f1(mut self, f1: f64) -> Self {
        self.params.stop_at_f1 = Some(f1);
        self
    }

    /// Run to label exhaustion: never stop on F1 (the noisy-Oracle setting).
    pub fn run_to_exhaustion(mut self) -> Self {
        self.params.stop_at_f1 = None;
        self
    }

    /// Finalize the parameters.
    pub fn build(self) -> LoopParams {
        self.params
    }
}

/// An active-learning session binding a strategy to loop parameters.
pub struct ActiveLearner<S: Strategy> {
    pub(crate) strategy: S,
    pub(crate) params: LoopParams,
}

impl<S: Strategy> ActiveLearner<S> {
    /// Bind `strategy` to `params`.
    pub fn new(strategy: S, params: LoopParams) -> Self {
        ActiveLearner { strategy, params }
    }

    /// Consume the learner, returning the strategy (to inspect the final
    /// model after [`ActiveLearner::run`]).
    pub fn into_strategy(self) -> S {
        self.strategy
    }

    /// Run the loop on `corpus` with labels from `oracle`, seeded by
    /// `seed` for full reproducibility: [`ActiveLearner::run_session`] with
    /// the default [`SessionConfig`]. Returns per-iteration statistics,
    /// or a structured [`AlemError`] on invalid configuration / an Oracle
    /// that stays unavailable past the default retry policy.
    pub fn run(
        &mut self,
        corpus: &Corpus,
        oracle: &dyn QueryOracle,
        seed: u64,
    ) -> Result<RunResult, AlemError> {
        self.run_session(corpus, oracle, seed, &SessionConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::{ForestTrainer, SvmTrainer};
    use crate::oracle::Oracle;
    use crate::strategy::{MarginSvmStrategy, QbcStrategy, RandomStrategy, TreeQbcStrategy};

    fn corpus(n: usize) -> Corpus {
        let feats: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, (i % 13) as f64 / 13.0])
            .collect();
        let truth: Vec<bool> = (0..n).map(|i| i >= 3 * n / 4).collect();
        Corpus::from_features(feats, truth)
    }

    fn quick_params() -> LoopParams {
        LoopParams {
            seed_size: 20,
            batch_size: 10,
            max_labels: 150,
            eval: EvalMode::Progressive,
            stop_at_f1: Some(0.99),
        }
    }

    #[test]
    fn builder_overrides_only_named_fields() {
        let p = LoopParams::builder()
            .seed_size(12)
            .eval(EvalMode::Holdout { test_frac: 0.25 })
            .run_to_exhaustion()
            .build();
        assert_eq!(p.seed_size, 12);
        assert_eq!(p.batch_size, LoopParams::default().batch_size);
        assert_eq!(p.max_labels, LoopParams::default().max_labels);
        assert_eq!(p.eval, EvalMode::Holdout { test_frac: 0.25 });
        assert_eq!(p.stop_at_f1, None);
        let q = LoopParams::builder().stop_at_f1(0.95).build();
        assert_eq!(q.stop_at_f1, Some(0.95));
    }

    #[test]
    fn margin_svm_converges_on_separable_data() {
        let c = corpus(300);
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(
            MarginSvmStrategy::new(SvmTrainer::default()),
            quick_params(),
        );
        let run = al.run(&c, &oracle, 7).unwrap();
        assert!(run.best_f1() > 0.9, "best F1 {}", run.best_f1());
        assert!(!run.iterations.is_empty());
        // Label counts grow by the batch size.
        assert_eq!(run.iterations[0].labels_used, 20);
        if run.iterations.len() > 1 {
            assert_eq!(run.iterations[1].labels_used, 30);
        }
    }

    #[test]
    fn trees_reach_high_f1_fast() {
        let c = corpus(300);
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(TreeQbcStrategy::new(10), quick_params());
        let run = al.run(&c, &oracle, 7).unwrap();
        assert!(run.best_f1() > 0.95, "best F1 {}", run.best_f1());
        // Tree strategy reports interpretability stats.
        assert!(run.iterations[0].atoms.is_some());
    }

    #[test]
    fn stops_at_label_budget() {
        let c = corpus(300);
        let oracle = Oracle::perfect(c.truths().to_vec());
        let params = LoopParams {
            stop_at_f1: None,
            max_labels: 60,
            seed_size: 20,
            batch_size: 10,
            eval: EvalMode::Progressive,
        };
        let mut al = ActiveLearner::new(
            RandomStrategy::new(ForestTrainer::with_trees(3), "SupervisedTrees(Random-3)"),
            params,
        );
        let run = al.run(&c, &oracle, 7).unwrap();
        assert!(run.total_labels() <= 60);
        assert_eq!(oracle.queries(), run.total_labels() as u64);
    }

    #[test]
    fn holdout_mode_evaluates_on_test_only() {
        let c = corpus(200);
        let oracle = Oracle::perfect(c.truths().to_vec());
        let params = LoopParams {
            eval: EvalMode::Holdout { test_frac: 0.2 },
            seed_size: 20,
            batch_size: 10,
            max_labels: 100,
            stop_at_f1: Some(0.99),
        };
        let mut al = ActiveLearner::new(QbcStrategy::new(SvmTrainer::default(), 3), params);
        let run = al.run(&c, &oracle, 11).unwrap();
        // The train pool is 160 examples; labels can't exceed it.
        assert!(run.total_labels() <= 100);
        assert!(run.best_f1() > 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = corpus(200);
        let f1s = |seed: u64| -> Vec<f64> {
            let oracle = Oracle::perfect(c.truths().to_vec());
            let mut al = ActiveLearner::new(
                MarginSvmStrategy::new(SvmTrainer::default()),
                quick_params(),
            );
            al.run(&c, &oracle, seed)
                .unwrap()
                .iterations
                .iter()
                .map(|s| s.f1)
                .collect()
        };
        assert_eq!(f1s(3), f1s(3));
    }

    #[test]
    fn seed_larger_than_pool_is_clamped() {
        let c = corpus(25);
        let oracle = Oracle::perfect(c.truths().to_vec());
        let params = LoopParams {
            seed_size: 100,
            batch_size: 10,
            max_labels: 200,
            eval: EvalMode::Progressive,
            stop_at_f1: None,
        };
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params);
        let run = al.run(&c, &oracle, 1).unwrap();
        // Whole pool became the seed; exactly one iteration recorded.
        assert_eq!(run.total_labels(), 25);
        assert_eq!(run.iterations.len(), 1);
    }

    #[test]
    fn single_class_corpus_does_not_panic() {
        let feats: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0]).collect();
        let truth = vec![false; 60];
        let c = Corpus::from_features(feats, truth);
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(
            TreeQbcStrategy::new(3),
            LoopParams {
                seed_size: 10,
                batch_size: 10,
                max_labels: 40,
                eval: EvalMode::Progressive,
                stop_at_f1: None,
            },
        );
        let run = al.run(&c, &oracle, 2).unwrap();
        // No positives anywhere: F1 is 0 but the loop completes (after the
        // session's bounded extra random draws fail to find a second class).
        assert_eq!(run.best_f1(), 0.0);
        assert!(run.total_labels() <= 40);
    }

    #[test]
    fn noisy_labels_flow_into_training_but_eval_uses_truth() {
        let c = corpus(200);
        // 100% noise: every training label is wrong, so progressive F1
        // against the (clean) ground truth should collapse.
        let oracle = Oracle::noisy(c.truths().to_vec(), 1.0, 9).unwrap();
        let mut al = ActiveLearner::new(
            TreeQbcStrategy::new(5),
            LoopParams {
                max_labels: 100,
                stop_at_f1: None,
                seed_size: 20,
                batch_size: 10,
                eval: EvalMode::Progressive,
            },
        );
        let run = al.run(&c, &oracle, 3).unwrap();
        assert!(
            run.best_f1() < 0.5,
            "inverted labels gave F1 {}",
            run.best_f1()
        );
    }

    #[test]
    fn qbc_records_committee_time() {
        let c = corpus(200);
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(
            QbcStrategy::new(SvmTrainer::default(), 5),
            LoopParams {
                max_labels: 40,
                seed_size: 20,
                batch_size: 10,
                eval: EvalMode::Progressive,
                stop_at_f1: None,
            },
        );
        let run = al.run(&c, &oracle, 3).unwrap();
        // Every iteration that selected must have spent committee time.
        let selecting_iters = run.iterations.len() - 1;
        let with_committee = run
            .iterations
            .iter()
            .take(selecting_iters)
            .filter(|s| s.committee_secs > 0.0)
            .count();
        assert_eq!(with_committee, selecting_iters);
    }
}
