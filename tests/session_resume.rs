//! Property-based tests for the fault-tolerant session layer: a run that
//! is killed at a checkpoint and resumed must reproduce the uninterrupted
//! run exactly (deterministic fingerprint, i.e. bit-identical F1 values).

use alem_core::corpus::Corpus;
use alem_core::error::AlemError;
use alem_core::loop_::{ActiveLearner, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::session::{Checkpoint, SessionConfig};
use alem_core::strategy::TreeQbcStrategy;
use proptest::prelude::*;

fn corpus(n: usize) -> Corpus {
    let feats: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            vec![t, (1.0 - t) * 0.7, (i % 7) as f64 / 7.0]
        })
        .collect();
    let truth: Vec<bool> = (0..n).map(|i| i >= (n * 3) / 5).collect();
    Corpus::from_features(feats, truth)
}

fn oracle(c: &Corpus, noise: f64) -> Oracle {
    if noise == 0.0 {
        Oracle::perfect(c.truths().to_vec())
    } else {
        match Oracle::noisy(c.truths().to_vec(), noise, 923) {
            Ok(o) => o,
            Err(e) => panic!("valid noise rejected: {e}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint → kill → resume is invisible: the resumed session's
    /// deterministic fingerprint equals the uninterrupted run's, for
    /// random loop parameters, halt points, and oracle noise.
    #[test]
    fn resume_equals_uninterrupted(
        seed_size in 4usize..16,
        batch_size in 1usize..6,
        max_labels in 30usize..70,
        halt_after in 1usize..5,
        run_seed in 0u64..1000,
        noisy in any::<bool>(),
    ) {
        let c = corpus(120);
        let noise = if noisy { 0.15 } else { 0.0 };
        let params = LoopParams {
            seed_size,
            batch_size,
            max_labels,
            stop_at_f1: None,
            ..LoopParams::default()
        };

        // Uninterrupted reference run.
        let reference = {
            let o = oracle(&c, noise);
            let mut al = ActiveLearner::new(TreeQbcStrategy::new(3), params.clone());
            match al.run_session(&c, &o, run_seed, &SessionConfig::default()) {
                Ok(run) => run,
                Err(e) => panic!("reference run failed: {e}"),
            }
        };

        // Same run, killed after `halt_after` iterations...
        let ckpt_path = std::env::temp_dir().join(format!(
            "alem-prop-{}-{seed_size}-{batch_size}-{max_labels}-{halt_after}-{run_seed}.json",
            std::process::id()
        ));
        let halt_config = SessionConfig {
            checkpoint_path: Some(ckpt_path.clone()),
            halt_after: Some(halt_after),
            ..SessionConfig::default()
        };
        let halted = {
            let o = oracle(&c, noise);
            let mut al = ActiveLearner::new(TreeQbcStrategy::new(3), params.clone());
            al.run_session(&c, &o, run_seed, &halt_config)
        };

        let resumed = match halted {
            // Run finished before the kill point: results must match as-is.
            Ok(run) => run,
            Err(AlemError::Halted { .. }) => {
                // ... then resumed from the on-disk checkpoint with a
                // *fresh* oracle (fast-forwarded internally) and strategy.
                let ckpt = match Checkpoint::load(&ckpt_path) {
                    Ok(ck) => ck,
                    Err(e) => panic!("checkpoint load failed: {e}"),
                };
                let o = oracle(&c, noise);
                let mut al = ActiveLearner::new(TreeQbcStrategy::new(3), params.clone());
                match al.resume_session(&c, &o, ckpt, &SessionConfig::default()) {
                    Ok(run) => run,
                    Err(e) => panic!("resume failed: {e}"),
                }
            }
            Err(e) => panic!("halting run failed: {e}"),
        };
        let _ = std::fs::remove_file(&ckpt_path);

        prop_assert_eq!(
            reference.deterministic_fingerprint(),
            resumed.deterministic_fingerprint()
        );
        prop_assert_eq!(reference.total_labels(), resumed.total_labels());
    }
}
