//! Pinned outputs of the linear-SVM paths that run on blocked kernels:
//! QBC's committee training and pool scoring, and margin scoring. The
//! constants were recorded from the per-row, per-member implementation
//! (one serial dot product per decision value, one Pegasos run per
//! committee member over its own copied bootstrap rows). The blocked
//! kernels must reproduce them bit for bit, at any thread count.
//!
//! The [`Pin`]s extend this to every `Strategy` implementation and
//! builder mode, so a refactor of the selection layer shows any change
//! in what a session labels or how a pool scores. The tree and linear
//! margin pins also hold on a lazily extracted corpus, whose rows and
//! partial cells must carry the eager bits. The last test pins how much
//! of that corpus a lazy margin session computes.

use alem_block::TokenIndex;
use alem_core::corpus::Corpus;
use alem_core::ensemble::ActiveEnsembleStrategy;
use alem_core::learner::{DnfTrainer, NnTrainer, SvmTrainer};
use alem_core::loop_::{ActiveLearner, EvalMode, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::selector::iwal::IwalConfig;
use alem_core::session::SessionConfig;
use alem_core::strategy::{
    IwalSvmStrategy, LfpLfnStrategy, LshMarginStrategy, MarginNnStrategy, MarginSvmStrategy,
    QbcStrategy, RandomStrategy, Strategy, TreeQbcStrategy,
};
use alem_obs::Registry;
use alem_par::Parallelism;
use datagen::PaperDataset;
use mlcore::svm::SvmConfig;
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
    build_corpus(false)
}

/// [`corpus`]'s tables, built eagerly or with lazily extracted rows.
fn build_corpus(lazy: bool) -> Corpus {
    let cfg = PaperDataset::Cora.config(0.02);
    let ds = datagen::generate(&cfg, 42);
    let blocking = TokenIndex::builder()
        .threshold(cfg.blocking_threshold)
        .build();
    let built = if lazy {
        Corpus::from_candidates_lazy(&ds, &blocking)
    } else {
        Corpus::from_candidates(&ds, &blocking)
    };
    built.expect("blocking streams valid candidates").0
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

/// One strategy configuration, its label budget, and its digests at
/// threads 1 and 3 (equal, since every strategy is thread-count
/// invariant): the session fingerprint on [`corpus`] with session seed 5,
/// and the bits of `score_pool` after one fit and select on every fourth
/// example. Recorded before the selection layer shared one margin scorer,
/// one active ensemble and one top-k `select`.
struct Pin {
    label: &'static str,
    build: fn() -> Box<dyn Strategy + Send>,
    max_labels: usize,
    session: u64,
    scores: u64,
}

/// The neural nets train slowly in debug builds, so their sessions stop
/// after four rounds.
const NN_LABELS: usize = 60;

fn pins_trees_and_margins() -> Vec<Pin> {
    vec![
        Pin {
            label: "Trees(10)",
            build: || Box::new(TreeQbcStrategy::new(10)),
            max_labels: 140,
            session: 0xf7cd_4020_eed4_509a,
            scores: 0x4847_428d_ec50_94b5,
        },
        Pin {
            label: "Trees(10), refresh_frac(0.3)",
            build: || {
                Box::new(
                    TreeQbcStrategy::builder()
                        .trees(10)
                        .refresh_frac(0.3)
                        .build(),
                )
            },
            max_labels: 140,
            session: 0x2185_19b3_a16e_e428,
            scores: 0x4847_428d_ec50_94b5,
        },
        Pin {
            label: "Linear-Margin",
            build: || Box::new(MarginSvmStrategy::builder().build()),
            max_labels: 140,
            session: 0xa3dd_b045_f7f4_e376,
            scores: 0x59de_0b09_e36c_6b72,
        },
        Pin {
            label: "Linear-Margin(1Dim)",
            build: || Box::new(MarginSvmStrategy::builder().blocking_dims(1).build()),
            max_labels: 140,
            session: 0xbb91_8e27_dec1_7dc8,
            scores: 0x164b_d29b_6f23_a1e5,
        },
        Pin {
            label: "Linear-Margin, lazy_topk(8)",
            build: || Box::new(MarginSvmStrategy::builder().lazy_topk(8).build()),
            max_labels: 140,
            session: 0xa3dd_b045_f7f4_e376,
            scores: 0x59de_0b09_e36c_6b72,
        },
        Pin {
            label: "Linear-Margin, warm_start()",
            build: || Box::new(MarginSvmStrategy::builder().warm_start().build()),
            max_labels: 140,
            session: 0xf7ae_2bbe_cce5_801e,
            scores: 0x59de_0b09_e36c_6b72,
        },
        Pin {
            label: "Linear-Margin, lazy_topk(8).warm_start()",
            build: || {
                Box::new(
                    MarginSvmStrategy::builder()
                        .lazy_topk(8)
                        .warm_start()
                        .build(),
                )
            },
            max_labels: 140,
            session: 0xf7ae_2bbe_cce5_801e,
            scores: 0x59de_0b09_e36c_6b72,
        },
        Pin {
            label: "Linear-Margin(LSH16)",
            build: || Box::new(LshMarginStrategy::new(SvmTrainer::default(), 16, 4)),
            max_labels: 140,
            session: 0x5236_5654_8b28_7096,
            scores: 0x59de_0b09_e36c_6b72,
        },
        Pin {
            label: "Linear-Margin(Ensemble)",
            build: || Box::new(ActiveEnsembleStrategy::new(SvmTrainer::default(), 0.85)),
            max_labels: 140,
            session: 0xaadd_8aab_0e18_c763,
            scores: 0x59de_0b09_e36c_6b72,
        },
    ]
}

fn pins_nets() -> Vec<Pin> {
    vec![
        Pin {
            label: "NN-Margin",
            build: || Box::new(MarginNnStrategy::new(NnTrainer::default())),
            max_labels: NN_LABELS,
            session: 0xd30a_367a_a336_5d75,
            scores: 0x12a7_a030_c8d2_2f28,
        },
        Pin {
            label: "Non-Convex Non-Linear-Margin(Ensemble)",
            build: || Box::new(ActiveEnsembleStrategy::new(NnTrainer::default(), 0.85)),
            max_labels: NN_LABELS,
            session: 0xd108_748c_e62a_dcaf,
            scores: 0x12a7_a030_c8d2_2f28,
        },
        Pin {
            label: "Non-Convex Non-Linear-QBC(2)",
            build: || {
                Box::new(
                    QbcStrategy::builder(NnTrainer::default())
                        .committee_size(2)
                        .build(),
                )
            },
            max_labels: NN_LABELS,
            session: 0x48d4_88a5_ac13_39f6,
            scores: 0x3542_2215_f678_ebc5,
        },
    ]
}

fn pins_rules_and_baselines() -> Vec<Pin> {
    vec![
        Pin {
            label: "Rules-QBC(5), Boolean features",
            build: || {
                Box::new(
                    QbcStrategy::builder(DnfTrainer::default())
                        .committee_size(5)
                        .bool_features(true)
                        .build(),
                )
            },
            max_labels: 140,
            session: 0xf408_e1b6_5695_ecb9,
            scores: 0x68b7_8dd6_a77e_adab,
        },
        Pin {
            label: "Rules(LFP/LFN)",
            build: || Box::new(LfpLfnStrategy::new(DnfTrainer::default(), 0.85)),
            max_labels: 140,
            session: 0x8bfa_e50e_fb70_ba64,
            scores: 0xa12d_3436_6da9_74f6,
        },
        Pin {
            label: "Random",
            build: || Box::new(RandomStrategy::new(SvmTrainer::default(), "Random")),
            max_labels: 140,
            session: 0xc95a_84aa_0419_464c,
            scores: 0x8492_e564_8419_dd45,
        },
        Pin {
            label: "Linear-IWAL",
            build: || {
                Box::new(IwalSvmStrategy::new(
                    SvmConfig::default(),
                    IwalConfig::default(),
                ))
            },
            max_labels: 140,
            session: 0x11d5_9acc_fdc7_f38d,
            scores: 0x8492_e564_8419_dd45,
        },
    ]
}

/// Check every pin at threads 1 and 3 on the eager or the lazy
/// [`build_corpus`]; each lazy run gets a fresh corpus, so no run reads
/// rows an earlier one extracted. On a mismatch, fail with the digests
/// of the whole group.
fn check_pins(pins: &[Pin], lazy: bool) {
    let c = build_corpus(lazy);
    let fresh = || if lazy { build_corpus(true) } else { c.clone() };
    let oracle = Oracle::perfect(c.truths().to_vec());
    let mut report = String::new();
    let mut failed = false;
    for pin in pins {
        for threads in [1, 3] {
            let config = SessionConfig {
                parallelism: Parallelism::fixed(threads),
                ..SessionConfig::default()
            };
            let params = LoopParams {
                max_labels: pin.max_labels,
                ..params()
            };
            let fp = ActiveLearner::new((pin.build)(), params)
                .run_session(&fresh(), &oracle, 5, &config)
                .expect("session")
                .deterministic_fingerprint();
            let session = fnv(fp.bytes());
            let scores = score_bits((pin.build)(), &fresh(), threads);
            failed |= session != pin.session || scores != pin.scores;
            report.push_str(&format!(
                "{} (threads {threads}, lazy {lazy}): session {session:#018x}, scores {scores:#018x}\n",
                pin.label
            ));
        }
    }
    assert!(!failed, "pinned digests changed:\n{report}");
}

#[test]
fn tree_and_linear_margin_strategies_are_pinned() {
    check_pins(&pins_trees_and_margins(), false);
    check_pins(&pins_trees_and_margins(), true);
}

#[test]
fn neural_net_strategies_are_pinned() {
    check_pins(&pins_nets(), false);
}

#[test]
fn rule_and_baseline_strategies_are_pinned() {
    check_pins(&pins_rules_and_baselines(), false);
}

/// Rows a lazy `lazy_topk` session on [`corpus`] materializes and the
/// partial cells its phase-1 reads fill, cold and warm.
struct LazyWork {
    warm: bool,
    rows: usize,
    cells: usize,
}

/// A lazy corpus computes only what the bound rule of the staged margin
/// scan leaves in doubt, and selects exactly what an eager corpus does.
/// The session reads three quarters of the dims in phase 1, labels 90
/// pairs to exhaustion and evaluates on a 10% hold-out with session seed
/// 7, cold and warm. Its rows built and partial cells filled are pinned
/// exactly: a change that skips fewer pairs builds more rows. Each lazy
/// fingerprint must equal the plain margin strategy's on the eager
/// corpus, at threads 1 and 3.
#[test]
fn lazy_margin_sessions_build_pinned_work_and_select_as_eager() {
    let eager = corpus();
    let topk = eager.dim() * 3 / 4;
    let params = LoopParams::builder()
        .max_labels(90)
        .eval(EvalMode::Holdout { test_frac: 0.1 })
        .run_to_exhaustion()
        .build();
    let oracle = Oracle::perfect(eager.truths().to_vec());
    let pins = [
        LazyWork {
            warm: false,
            rows: 737,
            cells: 119_081,
        },
        LazyWork {
            warm: true,
            rows: 531,
            cells: 100_587,
        },
    ];
    for pin in pins {
        let strategy = |lazy_topk: Option<usize>| {
            let mut b = MarginSvmStrategy::builder();
            if let Some(k) = lazy_topk {
                b = b.lazy_topk(k);
            }
            if pin.warm {
                b = b.warm_start();
            }
            b.build()
        };
        for threads in [1, 3] {
            let config = SessionConfig {
                parallelism: Parallelism::fixed(threads),
                ..SessionConfig::default()
            };
            let run = |c: &Corpus, lazy_topk: Option<usize>| {
                ActiveLearner::new(strategy(lazy_topk), params.clone())
                    .run_session(c, &oracle, 7, &config)
                    .expect("session")
                    .deterministic_fingerprint()
            };
            let lazy = build_corpus(true);
            let what = format!("warm {}, threads {threads}", pin.warm);
            assert_eq!(run(&lazy, Some(topk)), run(&eager, None), "{what}");
            let store = lazy.store();
            assert_eq!(
                (store.materialized_rows(), store.partial_cells_filled()),
                (pin.rows, pin.cells),
                "{what}"
            );
            assert!(pin.rows < lazy.len(), "{what}");
        }
    }
}
