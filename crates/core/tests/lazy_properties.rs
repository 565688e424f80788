//! Property tests for the lazy two-phase extraction path: the chosen
//! batch must be bit-identical to eager selection for *any* phase-1 dim
//! set, warm+lazy sessions must fingerprint identically across thread
//! counts and against the eager-corpus golden, and the feature-cache
//! telemetry must account for every materialization exactly once across
//! a halt/resume boundary.

use alem_block::TokenIndex;
use alem_core::corpus::Corpus;
use alem_core::error::AlemError;
use alem_core::loop_::{ActiveLearner, EvalMode, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::schema::{AttrKind, EmDataset, Record, Schema, Table};
use alem_core::selector::lazy_margin::{self, Skip};
use alem_core::selector::margin;
use alem_core::session::{Checkpoint, SessionConfig};
use alem_core::strategy::{MarginSvmStrategy, Strategy};
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::svm::LinearSvm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lazy selector's chosen batch equals the eager selector's bit
    /// for bit, for any corpus, model, batch size, and phase-1 dim set —
    /// including the empty set (all mass unread) and the full set
    /// (bounds are exact). This is the invariant that lets the strategy
    /// choose dims for speed alone.
    #[test]
    fn lazy_selection_matches_eager_for_any_dim_set(
        n in 20usize..120,
        dim in 2usize..14,
        seed in 0u64..500,
        batch in 1usize..12,
        dim_mask in prop::collection::vec(any::<bool>(), 14),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let truth: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let corpus = Corpus::from_features(feats, truth)
            .unwrap()
            .with_bounded_features();
        let w: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let svm = LinearSvm::from_parts(w, rng.gen::<f64>() - 0.5);
        let unlabeled: Vec<usize> = (0..n).collect();
        let dims: Vec<usize> = (0..dim).filter(|&d| dim_mask[d]).collect();

        let eager = margin::select(
            &svm,
            &corpus,
            &unlabeled,
            batch,
            &mut StdRng::seed_from_u64(seed ^ 0xabcd),
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        let (lazy, phase1_only) = lazy_margin::select(
            &svm,
            &corpus,
            &unlabeled,
            batch,
            &dims,
            Skip::Bound,
            &mut StdRng::seed_from_u64(seed ^ 0xabcd),
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        prop_assert_eq!(&lazy.chosen, &eager.chosen);
        // Pruning can never exceed the pool it pruned from.
        prop_assert!(phase1_only <= n);
    }
}

/// Deterministic token soup (no RNG crate in the data itself) for
/// building an `EmDataset` the lazy corpus path can extract from.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

const WORDS: &[&str] = &[
    "apple", "ipod", "nano", "sony", "walkman", "dell", "laptop", "canon", "printer", "nikon",
    "camera", "lens", "hp", "monitor", "asus", "router", "bose", "speaker", "logitech", "mouse",
];

fn synthetic_dataset(n: usize) -> EmDataset {
    let schema = || Schema::new(vec![("title", AttrKind::Text), ("brand", AttrKind::Text)]);
    let mut rng = Lcg(0x5eed);
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut matches = std::collections::BTreeSet::new();
    for i in 0..n {
        let a = WORDS[(rng.next() as usize) % WORDS.len()];
        let b = WORDS[(rng.next() as usize) % WORDS.len()];
        left.push(Record::new(vec![
            Some(format!("{a} {b}")),
            Some(a.to_owned()),
        ]));
        if rng.next().is_multiple_of(2) {
            let c = WORDS[(rng.next() as usize) % WORDS.len()];
            right.push(Record::new(vec![
                Some(format!("{a} {b} {c}")),
                Some(a.to_owned()),
            ]));
            matches.insert((i as u32, i as u32));
        } else {
            let d = WORDS[(rng.next() as usize) % WORDS.len()];
            right.push(Record::new(vec![
                Some(format!("{a} {d}")),
                Some(d.to_owned()),
            ]));
        }
    }
    EmDataset {
        left: Table::new("left", schema(), left),
        right: Table::new("right", schema(), right),
        matches,
        name: "lazy-props".into(),
    }
}

fn warm_lazy_strategy() -> MarginSvmStrategy {
    MarginSvmStrategy::builder()
        .warm_start()
        .lazy_topk(3)
        .build()
}

fn params() -> LoopParams {
    LoopParams {
        seed_size: 16,
        batch_size: 8,
        max_labels: 72,
        eval: EvalMode::Holdout { test_frac: 0.25 },
        stop_at_f1: None,
    }
}

fn run_fingerprint(corpus: &Corpus, threads: usize, seed: u64) -> String {
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let config = SessionConfig {
        parallelism: Parallelism::fixed(threads),
        ..SessionConfig::default()
    };
    ActiveLearner::new(warm_lazy_strategy(), params())
        .run_session(corpus, &oracle, seed, &config)
        .expect("session runs")
        .deterministic_fingerprint()
}

/// Warm + lazy sessions fingerprint identically at 1/2/4/8 threads, and
/// all of them match the eager-corpus run — the eager fingerprint is the
/// golden value the lazy path must reproduce byte for byte.
#[test]
fn warm_lazy_fingerprints_thread_invariant_and_match_eager_golden() {
    let ds = synthetic_dataset(150);
    let blocking = TokenIndex::builder().threshold(0.2).build();
    let (eager, _) =
        Corpus::from_candidates_with(&ds, &blocking, &Parallelism::sequential()).unwrap();
    assert!(eager.len() > 60, "need a non-trivial pair pool");
    for seed in [7u64, 23] {
        let golden = run_fingerprint(&eager, 1, seed);
        for threads in [1usize, 2, 4, 8] {
            // A fresh lazy corpus per run: the memo state must never
            // leak into results, only into timings.
            let (lazy, _) = Corpus::from_candidates_lazy(&ds, &blocking).unwrap();
            assert_eq!(
                run_fingerprint(&lazy, threads, seed),
                golden,
                "lazy/warm diverged from eager golden at {threads} threads (seed {seed})"
            );
        }
    }
}

/// §5.1 on a lazy corpus reads the blocking dims through the store's
/// partial cells: after one fit and one `Linear-Margin(1Dim)` selection,
/// only the labeled rows (the fit read them) and that round's survivors
/// (phase 2 scored them) are materialized, never a skipped pair's row.
#[test]
fn blocking_dims_materialize_only_labeled_rows_and_survivors() {
    let ds = synthetic_dataset(150);
    let blocking = TokenIndex::builder().threshold(0.2).build();
    let (corpus, _) = Corpus::from_candidates_lazy(&ds, &blocking).unwrap();
    let labeled: Vec<(usize, bool)> = (0..corpus.len())
        .step_by(5)
        .map(|i| (i, corpus.truth(i)))
        .collect();
    let unlabeled: Vec<usize> = (0..corpus.len()).filter(|i| i % 5 != 0).collect();
    let mut strategy = MarginSvmStrategy::builder().blocking_dims(1).build();
    strategy
        .fit(&corpus, &labeled, &mut StdRng::seed_from_u64(3))
        .unwrap();
    assert_eq!(corpus.store().materialized_rows(), labeled.len());
    let selection = strategy.select(
        &corpus,
        &labeled,
        &unlabeled,
        8,
        &mut StdRng::seed_from_u64(4),
        &Registry::disabled(),
    );
    assert_eq!(selection.chosen.len(), 8);
    let skipped = strategy
        .stats()
        .pruned
        .expect("blocking dims report pruning");
    assert!(skipped > 0, "the round must skip some pairs");
    let survivors = unlabeled.len() - skipped;
    assert_eq!(
        corpus.store().materialized_rows(),
        labeled.len() + survivors
    );
}

fn counters(obs: &Registry) -> (u64, u64) {
    (
        obs.counter_value("feat.cache_hits"),
        obs.counter_value("feat.cache_misses"),
    )
}

/// `feat.cache_hits`/`feat.cache_misses` account for cache traffic
/// exactly once across a halt/resume boundary: the halted half plus the
/// resumed half equals an uninterrupted run's counters, and the miss
/// total equals the store's own materialization count — nothing is
/// double-counted when resume re-bases against a corpus whose memo
/// already holds the first half's rows.
#[test]
fn feat_cache_counters_are_exact_across_halt_resume() {
    let ds = synthetic_dataset(150);
    let blocking = TokenIndex::builder().threshold(0.2).build();

    // Uninterrupted run on a fresh lazy corpus.
    let (full_corpus, _) = Corpus::from_candidates_lazy(&ds, &blocking).unwrap();
    let full_obs = Registry::enabled();
    let full = {
        let oracle = Oracle::perfect(full_corpus.truths().to_vec());
        let config = SessionConfig {
            obs: full_obs.clone(),
            ..SessionConfig::default()
        };
        ActiveLearner::new(warm_lazy_strategy(), params())
            .run_session(&full_corpus, &oracle, 7, &config)
            .unwrap()
    };

    // Same run halted after 2 iterations, then resumed on the same
    // (already partly materialized) corpus.
    let (corpus, _) = Corpus::from_candidates_lazy(&ds, &blocking).unwrap();
    let path = std::env::temp_dir().join(format!("alem-lazy-props-{}.ckpt", std::process::id()));
    let first_obs = Registry::enabled();
    {
        let oracle = Oracle::perfect(corpus.truths().to_vec());
        let config = SessionConfig {
            obs: first_obs.clone(),
            checkpoint_path: Some(path.clone()),
            halt_after: Some(2),
            ..SessionConfig::default()
        };
        let out = ActiveLearner::new(warm_lazy_strategy(), params())
            .run_session(&corpus, &oracle, 7, &config);
        assert!(matches!(out, Err(AlemError::Halted { .. })));
    }
    let second_obs = Registry::enabled();
    let resumed = {
        let ckpt = Checkpoint::load(&path).unwrap();
        let oracle = Oracle::perfect(corpus.truths().to_vec());
        let config = SessionConfig {
            obs: second_obs.clone(),
            ..SessionConfig::default()
        };
        ActiveLearner::new(warm_lazy_strategy(), params())
            .resume_session(&corpus, &oracle, ckpt, &config)
            .unwrap()
    };
    std::fs::remove_file(&path).ok();

    assert_eq!(
        resumed.deterministic_fingerprint(),
        full.deterministic_fingerprint(),
        "resume must not change results"
    );
    let (fh, fm) = counters(&full_obs);
    let (h1, m1) = counters(&first_obs);
    let (h2, m2) = counters(&second_obs);
    assert_eq!(
        (h1 + h2, m1 + m2),
        (fh, fm),
        "halted + resumed counter halves must equal the uninterrupted run"
    );
    // The emitted miss total is the store's own materialization ledger at
    // the last emission boundary: every miss emitted exactly once.
    let (_, store_misses) = corpus.feature_cache_stats();
    let (_, full_store_misses) = full_corpus.feature_cache_stats();
    assert_eq!(store_misses, full_store_misses);
    assert!(m1 + m2 <= store_misses);
    assert!(fm <= full_store_misses);
}
