//! Interpretable rule learning on hand-built tables.
//!
//! Shows the full schema → blocking → Boolean featurization → LFP/LFN
//! pipeline on a tiny social-profile matching task you can read end to
//! end, then prints the learned DNF rule ensemble in the paper's §6.3
//! listing style. Rules trade a little F1 for a model a human can audit —
//! the interpretability side of the paper's quality/interpretability
//! trade-off.
//!
//! ```text
//! cargo run --release -p alem-bench --example interpretable_rules
//! ```

use alem_block::TokenIndex;
use alem_core::interpret::dnf_to_string;
use alem_core::prelude::*;
use datagen::social::{generate_social, SocialConfig};

fn main() {
    // A scaled-down version of the paper's §6.3.1 corpus: employee records
    // matched against a larger social-profile table, no usable ground
    // truth at scale — which is exactly when you want an auditable model.
    let cfg = SocialConfig {
        n_employees: 300,
        n_profiles: 2500,
        coverage: 0.8,
    };
    let dataset = generate_social(&cfg, 7);
    let blocking = TokenIndex::builder().threshold(0.2).build();
    let (corpus, space) = Corpus::from_candidates(&dataset, &blocking)
        .expect("the token index streams valid candidates");
    println!(
        "{} employees x {} profiles -> {} candidate pairs (skew {:.3})\n",
        dataset.left.len(),
        dataset.right.len(),
        corpus.len(),
        corpus.skew()
    );

    // LFP/LFN rule learning: high-precision conjunctions accumulate into
    // an ensemble; terminates by itself once no likely false
    // positives/negatives remain.
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let params = LoopParams {
        max_labels: 600,
        stop_at_f1: None,
        ..LoopParams::default()
    };
    let mut al = ActiveLearner::new(LfpLfnStrategy::new(DnfTrainer::default(), 0.85), params);
    let run = al
        .run(&corpus, &oracle, 5)
        .unwrap_or_else(|e| panic!("rules run failed: {e}"));

    let strategy = al.into_strategy();
    let dnf = strategy.effective_dnf();
    println!(
        "terminated after {} iterations, {} labels, best F1 {:.3}",
        run.iterations.len(),
        run.total_labels(),
        run.best_f1()
    );
    println!(
        "#DNF atoms: {} (each atom is one auditable predicate)\n",
        dnf.atom_count()
    );
    println!(
        "learned matching rules:\n{}",
        dnf_to_string(&dnf, &space.bool_descriptions())
    );
}
