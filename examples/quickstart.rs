//! Quickstart: active learning for entity matching in ~40 lines.
//!
//! Generates a small synthetic beer-matching dataset (BeerAdvocate vs
//! RateBeer), blocks and featurizes it, then runs the paper's
//! best-performing combination — a random forest with learner-aware
//! query-by-committee — against a perfect labeling Oracle.
//!
//! ```text
//! cargo run --release -p alem-bench --example quickstart
//! ```

use alem_block::TokenIndex;
use alem_core::prelude::*;
use datagen::PaperDataset;

fn main() {
    // 1. A dataset: two tables of beer listings plus hidden ground truth.
    let gen_cfg = PaperDataset::Beer.config(1.0);
    let dataset = datagen::generate(&gen_cfg, 42);
    println!(
        "tables: {} x {} records, {} true matches",
        dataset.left.len(),
        dataset.right.len(),
        dataset.matches.len()
    );

    // 2. Block the Cartesian product and extract 21-similarity features.
    let blocking = TokenIndex::builder()
        .threshold(gen_cfg.blocking_threshold)
        .build();
    let (corpus, _space) = Corpus::from_candidates(&dataset, &blocking)
        .expect("the token index streams valid candidates");
    println!(
        "post-blocking pairs: {} (skew {:.3}, {} feature dims)",
        corpus.len(),
        corpus.skew(),
        corpus.dim()
    );

    // 3. Active learning: 30 seed labels, batches of 10, perfect Oracle.
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let params = LoopParams::builder().build(); // the paper's defaults
    let mut learner = ActiveLearner::new(TreeQbcStrategy::builder().trees(20).build(), params);
    let run = learner
        .run(&corpus, &oracle, 7)
        .unwrap_or_else(|e| panic!("quickstart run failed: {e}"));

    // 4. Results.
    for it in run.iterations.iter().step_by(4) {
        println!(
            "labels {:>4}  progressive F1 {:.3}  (train {:.0} ms, select {:.0} ms)",
            it.labels_used,
            it.f1,
            it.train_secs * 1e3,
            it.selection_secs() * 1e3,
        );
    }
    println!(
        "best F1 {:.3} after {} labels ({} Oracle queries)",
        run.best_f1(),
        run.labels_to_convergence(0.005),
        oracle.queries()
    );
}
