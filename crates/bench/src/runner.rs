//! Parallel execution of independent active-learning runs.
//!
//! Every figure involves several independent runs (strategies × datasets ×
//! noise levels × seeds). Runs share only immutable corpora, so they
//! parallelize trivially across threads.

use alem_core::corpus::Corpus;
use alem_core::evaluator::RunResult;
use alem_core::loop_::{ActiveLearner, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::strategy::Strategy;

/// Base RNG seed for active-learning runs (distinct from the data seed).
pub const RUN_SEED: u64 = 1729;

/// Execute a batch of independent jobs on worker threads, preserving input
/// order in the output.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    alem_par::Parallelism::default().run(jobs)
}

/// Run one strategy on a corpus with a perfect Oracle.
pub fn run_perfect<S: Strategy>(
    corpus: &Corpus,
    strategy: S,
    params: LoopParams,
    seed: u64,
) -> RunResult {
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    ActiveLearner::new(strategy, params)
        .run(corpus, &oracle, seed)
        // alem-lint: allow(panic-reach) -- experiment harness aborts on run failure; specs are validated by the caller
        .unwrap_or_else(|e| panic!("benchmark run failed: {e}"))
}

/// Run one strategy on a corpus with a noisy Oracle.
pub fn run_noisy<S: Strategy>(
    corpus: &Corpus,
    strategy: S,
    params: LoopParams,
    noise: f64,
    seed: u64,
) -> RunResult {
    let oracle = Oracle::noisy(corpus.truths().to_vec(), noise, seed ^ 0x9e37_79b9)
        // alem-lint: allow(panic-reach) -- experiment harness aborts on invalid oracle config; fatal by contract
        .unwrap_or_else(|e| panic!("invalid oracle configuration: {e}"));
    ActiveLearner::new(strategy, params)
        .run(corpus, &oracle, seed)
        // alem-lint: allow(panic-reach) -- experiment harness aborts on run failure; specs are validated by the caller
        .unwrap_or_else(|e| panic!("benchmark run failed: {e}"))
}

/// Loop parameters for a corpus: paper settings (seed 30, batch 10) with a
/// label budget capped by pool size.
pub fn paper_params(corpus: &Corpus, max_labels: usize) -> LoopParams {
    LoopParams {
        seed_size: 30.min(corpus.len().saturating_sub(1)).max(1),
        batch_size: 10,
        max_labels: max_labels.min(corpus.len()),
        ..LoopParams::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alem_core::learner::SvmTrainer;
    use alem_core::strategy::MarginSvmStrategy;

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..40usize).map(|i| Box::new(move || i * i) as _).collect();
        let out = run_parallel(jobs);
        assert_eq!(out, (0..40).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn perfect_run_works() {
        let feats: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let truth: Vec<bool> = (0..100).map(|i| i >= 60).collect();
        let corpus = Corpus::from_features(feats, truth).unwrap();
        let params = paper_params(&corpus, 80);
        let r = run_perfect(
            &corpus,
            MarginSvmStrategy::new(SvmTrainer::default()),
            params,
            1,
        );
        assert!(r.best_f1() > 0.8);
    }
}
