//! Publication deduplication with latency-conscious selection.
//!
//! DBLP-ACM-style bibliographic matching is nearly clean, so every learner
//! reaches high F1 — what differs is *user wait time*. This example
//! contrasts learner-agnostic QBC (which retrains a bootstrap committee
//! every iteration) against margin selection with the paper's §5.1
//! blocking-dimension optimization, printing the latency decomposition the
//! paper plots in Fig. 10.
//!
//! ```text
//! cargo run --release -p alem-bench --example publication_dedup
//! ```

use alem_block::TokenIndex;
use alem_core::prelude::*;
use datagen::PaperDataset;

fn main() {
    let gen_cfg = PaperDataset::DblpAcm.config(0.5);
    let dataset = datagen::generate(&gen_cfg, 42);
    let blocking = TokenIndex::builder()
        .threshold(gen_cfg.blocking_threshold)
        .build();
    let (corpus, _fx) = Corpus::from_candidates(&dataset, &blocking)
        .expect("the token index streams valid candidates");
    println!(
        "bibliographic corpus: {} candidate pairs, skew {:.3}\n",
        corpus.len(),
        corpus.skew()
    );

    let params = LoopParams {
        max_labels: 400,
        ..LoopParams::default()
    };

    // Learner-agnostic QBC: 20 bootstrap SVMs retrained per iteration.
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let mut qbc = ActiveLearner::new(QbcStrategy::new(SvmTrainer::default(), 20), params.clone());
    let qbc_run = qbc
        .run(&corpus, &oracle, 3)
        .unwrap_or_else(|e| panic!("QBC run failed: {e}"));

    // Learner-aware margin with a single blocking dimension.
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let mut margin = ActiveLearner::new(
        MarginSvmStrategy::builder().blocking_dims(1).build(),
        params,
    );
    let margin_run = margin
        .run(&corpus, &oracle, 3)
        .unwrap_or_else(|e| panic!("margin run failed: {e}"));

    println!(
        "{:<26} {:>8} {:>14} {:>12} {:>10}",
        "strategy", "best F1", "committee (s)", "scoring (s)", "total (s)"
    );
    for run in [&qbc_run, &margin_run] {
        let committee: f64 = run.iterations.iter().map(|s| s.committee_secs).sum();
        let scoring: f64 = run.iterations.iter().map(|s| s.scoring_secs).sum();
        println!(
            "{:<26} {:>8.3} {:>14.3} {:>12.3} {:>10.3}",
            run.strategy,
            run.best_f1(),
            committee,
            scoring,
            run.total_user_wait_secs()
        );
    }
    let speedup = qbc_run
        .iterations
        .iter()
        .map(|s| s.selection_secs())
        .sum::<f64>()
        / margin_run
            .iterations
            .iter()
            .map(|s| s.selection_secs())
            .sum::<f64>()
            .max(1e-9);
    println!(
        "\nmargin(1Dim) selects examples {speedup:.0}x faster than QBC(20) at comparable F1 —"
    );
    println!("the committee-creation time is the bottleneck the paper's §5 removes.");
}
