//! The parallel layer's core contract: for any thread count, selections,
//! scores, and whole-run fingerprints are byte-identical to the sequential
//! path. Chunk boundaries depend only on `(len, n_threads)` and per-member
//! RNG seeds are pre-drawn on the caller's thread, so `--threads N` may
//! only change wall-clock time, never results.

use alem_core::corpus::Corpus;
use alem_core::learner::{DnfTrainer, SvmTrainer};
use alem_core::loop_::{ActiveLearner, EvalMode, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::selector;
use alem_core::session::SessionConfig;
use alem_core::strategy::{
    LfpLfnStrategy, MarginSvmStrategy, QbcStrategy, Strategy, TreeQbcStrategy,
};
use alem_par::Parallelism;
use mlcore::svm::LinearSvm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// A small two-cluster corpus with Boolean predicates so every strategy
/// (including the rule learner) can run on it.
fn corpus(n: usize) -> Corpus {
    let feats: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![i as f64 / n as f64, (i % 13) as f64 / 13.0])
        .collect();
    // Predicate 0 tracks the ground truth closely (so the rule learner can
    // find a candidate clause); predicate 1 is a noisy distractor.
    let bools: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                f64::from(i >= 3 * n / 4 || i % 31 == 0),
                f64::from(i % 2 == 0),
            ]
        })
        .collect();
    let truth: Vec<bool> = (0..n).map(|i| i >= 3 * n / 4).collect();
    Corpus::from_features(feats, truth).with_bool_features(bools)
}

fn params() -> LoopParams {
    LoopParams {
        seed_size: 20,
        batch_size: 10,
        max_labels: 120,
        eval: EvalMode::Progressive,
        stop_at_f1: None,
    }
}

fn strategies() -> Vec<Box<dyn Strategy + Send>> {
    vec![
        Box::new(MarginSvmStrategy::new(SvmTrainer::default())),
        Box::new(MarginSvmStrategy::builder().blocking_dims(1).build()),
        Box::new(QbcStrategy::new(SvmTrainer::default(), 5)),
        Box::new(TreeQbcStrategy::builder().trees(5).build()),
        Box::new(LfpLfnStrategy::new(DnfTrainer::default(), 0.85)),
    ]
}

fn fingerprint_at(strategy: Box<dyn Strategy + Send>, threads: usize) -> String {
    let c = corpus(300);
    let oracle = Oracle::perfect(c.truths().to_vec());
    let cfg = SessionConfig {
        parallelism: Parallelism::fixed(threads),
        ..SessionConfig::default()
    };
    let mut al = ActiveLearner::new(strategy, params());
    al.run_session(&c, &oracle, 93, &cfg)
        .expect("session failed")
        .deterministic_fingerprint()
}

/// Every strategy's full-session fingerprint is invariant across thread
/// counts — the ISSUE's headline acceptance criterion, in miniature.
#[test]
fn session_fingerprints_are_thread_count_invariant() {
    for make in 0..strategies().len() {
        let baseline = fingerprint_at(strategies().remove(make), 1);
        for t in [2, 3, 8] {
            let name = strategies()[make].name();
            assert_eq!(
                baseline,
                fingerprint_at(strategies().remove(make), t),
                "strategy {name} diverged at {t} threads"
            );
        }
    }
}

/// `Strategy::score_pool` returns the same scores for any thread count
/// once the strategy is fitted.
#[test]
fn strategy_score_pool_is_thread_count_invariant() {
    let c = corpus(200);
    let labeled: Vec<(usize, bool)> = (0..40).map(|i| (i * 5, c.truth(i * 5))).collect();
    let unlabeled: Vec<usize> = (0..200).filter(|i| i % 5 != 0).collect();
    for mut s in strategies() {
        let mut rng = StdRng::seed_from_u64(11);
        s.fit(&c, &labeled, &mut rng).expect("fit failed");
        // QBC needs one select to build its committee before score_pool.
        let mut rng2 = StdRng::seed_from_u64(12);
        s.select(
            &c,
            &labeled,
            &unlabeled,
            10,
            &mut rng2,
            &alem_obs::Registry::disabled(),
        );
        s.set_parallelism(Parallelism::sequential());
        let baseline = match s.score_pool(&c, &unlabeled) {
            Ok(b) => b,
            Err(_) => {
                // No scorable model on this corpus (e.g. the rule learner
                // found no candidate clause); every thread count must then
                // fail the same way.
                for t in [2, 3, 8] {
                    s.set_parallelism(Parallelism::fixed(t));
                    assert!(s.score_pool(&c, &unlabeled).is_err(), "{}", s.name());
                }
                continue;
            }
        };
        assert_eq!(baseline.len(), unlabeled.len(), "{}", s.name());
        for t in [2, 3, 8] {
            s.set_parallelism(Parallelism::fixed(t));
            let scores = s.score_pool(&c, &unlabeled).expect("score_pool failed");
            assert_eq!(baseline, scores, "{} diverged at {t} threads", s.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `chunks` is a pure function of `(len, n_threads)`: boundaries
    /// tile `0..len` exactly, sizes differ by at most one, and the chunk
    /// count never exceeds either input.
    #[test]
    fn chunk_boundaries_tile_the_pool(len in 0usize..500, threads in 1usize..12) {
        let chunks = alem_par::chunks(len, threads);
        let mut covered = 0usize;
        let mut sizes = Vec::new();
        for c in &chunks {
            prop_assert_eq!(c.start, covered);
            covered = c.end;
            sizes.push(c.len());
        }
        prop_assert_eq!(covered, len);
        if len > 0 {
            prop_assert!(chunks.len() <= threads.min(len));
            let max = sizes.iter().max().expect("nonempty");
            let min = sizes.iter().min().expect("nonempty");
            prop_assert!(max - min <= 1, "uneven chunks: {:?}", sizes);
        }
    }

    /// Parallel margin scoring equals sequential scoring for arbitrary
    /// pools and thread counts, and selections drawn from those scores
    /// with the same RNG are identical.
    #[test]
    fn margin_selection_matches_sequential(
        xs in prop::collection::vec(-1.0f64..1.0, 12..120),
        threads in 2usize..9,
        batch in 1usize..10,
        seed in 0u64..200,
    ) {
        let n = xs.len();
        let feats: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
        let truth: Vec<bool> = xs.iter().map(|&v| v > 0.0).collect();
        let c = Corpus::from_features(feats, truth);
        let svm = LinearSvm::from_parts(vec![1.3], -0.1);
        let unlabeled: Vec<usize> = (0..n).collect();

        let seq = selector::margin::score_pool(
            &svm, &c, &unlabeled, &Parallelism::sequential());
        let par = selector::margin::score_pool(
            &svm, &c, &unlabeled, &Parallelism::fixed(threads));
        prop_assert_eq!(&seq, &par);

        let pick = |p: &Parallelism| {
            let mut rng = StdRng::seed_from_u64(seed);
            selector::margin::select(
                &svm, &c, &unlabeled, batch, &mut rng,
                &alem_obs::Registry::disabled(), p,
            ).chosen
        };
        prop_assert_eq!(pick(&Parallelism::sequential()), pick(&Parallelism::fixed(threads)));
    }
}

/// The two fan-out primitives agree with their sequential equivalents for
/// every thread count in the test matrix.
#[test]
fn map_and_run_match_sequential() {
    let items: Vec<u64> = (0..257).collect();
    let expect: Vec<u64> = items.iter().map(|&v| v * v + 1).collect();
    for t in THREAD_COUNTS {
        let got = Parallelism::fixed(t).map(&items, |&v| v * v + 1);
        assert_eq!(expect, got, "map diverged at {t} threads");
        let jobs: Vec<_> = items.iter().map(|&v| move || v * v + 1).collect();
        let got = Parallelism::fixed(t).run(jobs);
        assert_eq!(expect, got, "run diverged at {t} threads");
    }
}
