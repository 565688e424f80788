//! Pinned outputs of the linear-SVM paths that run on blocked kernels:
//! QBC's committee training and pool scoring, and margin scoring. The
//! constants were recorded from the per-row, per-member implementation
//! (one serial dot product per decision value, one Pegasos run per
//! committee member over its own copied bootstrap rows). The blocked
//! kernels must reproduce them bit for bit, at any thread count.

use alem_core::blocking::BlockingConfig;
use alem_core::corpus::Corpus;
use alem_core::learner::SvmTrainer;
use alem_core::loop_::{ActiveLearner, EvalMode, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::session::SessionConfig;
use alem_core::strategy::{MarginSvmStrategy, QbcStrategy, Strategy};
use alem_obs::Registry;
use alem_par::Parallelism;
use datagen::PaperDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a digest of `QbcStrategy` (SVM, committee 10)'s session
/// fingerprint on [`corpus`] with [`params`] and session seed 5.
const QBC_SESSION_DIGEST: u64 = 0x787a_79c5_8c67_32c8;
/// FNV-1a digest of the bits of that strategy's `score_pool` after one
/// fit and select on every fourth example.
const QBC_SCORES_DIGEST: u64 = 0xd1a1_fe84_178c_ce77;
/// The same for `MarginSvmStrategy` (eager, all dims).
const MARGIN_SCORES_DIGEST: u64 = 0x59de_0b09_e36c_6b72;

/// Cora at a small scale, blocked at its paper threshold.
fn corpus() -> Corpus {
    let cfg = PaperDataset::Cora.config(0.02);
    let ds = datagen::generate(&cfg, 42);
    let blocking = BlockingConfig {
        jaccard_threshold: cfg.blocking_threshold,
    };
    Corpus::from_candidates(&ds, &blocking)
        .expect("blocking streams valid candidates")
        .0
}

fn params() -> LoopParams {
    LoopParams {
        seed_size: 20,
        batch_size: 10,
        max_labels: 140,
        eval: EvalMode::Progressive,
        stop_at_f1: None,
    }
}

fn qbc() -> QbcStrategy<SvmTrainer> {
    QbcStrategy::builder(SvmTrainer::default())
        .committee_size(10)
        .build()
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bits_digest(scores: &[f64]) -> u64 {
    fnv(scores.iter().flat_map(|s| s.to_bits().to_le_bytes()))
}

/// Fit and select once on every fourth example, then score the rest.
fn score_bits<S: Strategy>(mut s: S, c: &Corpus, threads: usize) -> u64 {
    let labeled: Vec<(usize, bool)> = (0..c.len()).step_by(4).map(|i| (i, c.truth(i))).collect();
    let unlabeled: Vec<usize> = (0..c.len()).filter(|i| i % 4 != 0).collect();
    s.set_parallelism(Parallelism::fixed(threads));
    s.fit(c, &labeled, &mut StdRng::seed_from_u64(11))
        .expect("fit");
    s.select(
        c,
        &labeled,
        &unlabeled,
        10,
        &mut StdRng::seed_from_u64(12),
        &Registry::disabled(),
    );
    let scores = s.score_pool(c, &unlabeled).expect("score_pool");
    assert_eq!(scores.len(), unlabeled.len());
    bits_digest(&scores)
}

#[test]
fn qbc_svm_session_fingerprint_is_pinned() {
    let c = corpus();
    let oracle = Oracle::perfect(c.truths().to_vec());
    for threads in [1, 3] {
        let config = SessionConfig {
            parallelism: Parallelism::fixed(threads),
            ..SessionConfig::default()
        };
        let fp = ActiveLearner::new(qbc(), params())
            .run_session(&c, &oracle, 5, &config)
            .expect("session")
            .run_result()
            .expect("session finished")
            .deterministic_fingerprint();
        assert_eq!(fnv(fp.bytes()), QBC_SESSION_DIGEST, "threads={threads}");
    }
}

#[test]
fn qbc_and_margin_score_pool_bits_are_pinned() {
    let c = corpus();
    for threads in [1, 3] {
        let q = score_bits(qbc(), &c, threads);
        let m = score_bits(MarginSvmStrategy::builder().build(), &c, threads);
        assert_eq!(q, QBC_SCORES_DIGEST, "QBC, threads={threads}");
        assert_eq!(m, MARGIN_SCORES_DIGEST, "margin, threads={threads}");
    }
}
