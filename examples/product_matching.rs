//! Product matching with a noisy crowd: compare selector/learner
//! combinations on an Abt-Buy-like catalog under labeling noise.
//!
//! This is the paper's §6.2 scenario: the Oracle is a crowd that flips 10%
//! of labels, so picking a noise-robust combination matters. The example
//! runs four strategies and prints a comparison table of quality, labels
//! and latency.
//!
//! ```text
//! cargo run --release -p alem-bench --example product_matching
//! ```

use alem_core::prelude::*;
use alem_core::report::TableReport;
use datagen::PaperDataset;

fn run_one<S: Strategy>(corpus: &Corpus, strategy: S, noise: f64) -> Vec<String> {
    let oracle = Oracle::noisy(corpus.truths().to_vec(), noise, 99)
        .unwrap_or_else(|e| panic!("invalid oracle configuration: {e}"));
    let params = LoopParams {
        max_labels: 800,
        stop_at_f1: None, // noisy oracles run to the label budget (§6.2)
        ..LoopParams::default()
    };
    let mut al = ActiveLearner::new(strategy, params);
    let run = al
        .run(corpus, &oracle, 11)
        .unwrap_or_else(|e| panic!("matching run failed: {e}"));
    vec![
        run.strategy.clone(),
        format!("{:.3}", run.best_f1()),
        format!("{:.3}", run.final_f1()),
        format!("{}", run.labels_to_convergence(0.01)),
        format!("{:.2}", run.total_user_wait_secs()),
    ]
}

fn main() {
    let gen_cfg = PaperDataset::AbtBuy.config(0.25);
    let dataset = datagen::generate(&gen_cfg, 42);
    let blocking = BlockingConfig {
        jaccard_threshold: gen_cfg.blocking_threshold,
    };
    let (corpus, _fx) =
        Corpus::from_candidates(&dataset, &blocking).expect("valid blocking config");
    println!(
        "Abt-Buy-like catalog: {} candidate pairs, skew {:.3}\n",
        corpus.len(),
        corpus.skew()
    );

    let noise = 0.10;
    let rows = vec![
        run_one(&corpus, TreeQbcStrategy::new(20), noise),
        run_one(&corpus, QbcStrategy::new(SvmTrainer::default(), 10), noise),
        run_one(
            &corpus,
            MarginSvmStrategy::builder().blocking_dims(1).build(),
            noise,
        ),
        run_one(
            &corpus,
            ActiveEnsembleStrategy::new(SvmTrainer::default(), 0.85),
            noise,
        ),
    ];

    let table = TableReport {
        id: "product_matching".into(),
        title: format!("Strategies under a {:.0}% noisy Oracle", noise * 100.0),
        header: vec![
            "Strategy".into(),
            "Best F1".into(),
            "Final F1".into(),
            "#Labels to converge".into(),
            "Total wait (s)".into(),
        ],
        rows,
    };
    println!("{}", table.to_text());
    println!("Tree ensembles degrade most gracefully with labeling noise —");
    println!("the paper's Fig. 14 finding.");
}
