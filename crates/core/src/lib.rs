//! `alem-core` — a unified active-learning benchmark framework for entity
//! matching.
//!
//! This crate is a from-scratch Rust reproduction of the system described in
//! *"A Comprehensive Benchmark Framework for Active Learning Methods in
//! Entity Matching"* (Meduri, Popa, Sen, Sarwat — SIGMOD 2020). It lets you
//! mix-and-match **learners** (linear SVM, feed-forward neural network,
//! random forest, DNF rule learner — see [`learner`]) with **example
//! selectors** (learner-agnostic QBC, learner-aware tree QBC, margin-based
//! selection with optional blocking dimensions, and the LFP/LFN heuristic —
//! see [`selector`]), and evaluates every combination on the paper's four
//! metric families: EM quality (progressive F1), example-selection latency,
//! \#labels to convergence, and interpretability.
//!
//! # Pipeline
//!
//! 1. [`schema`] describes the two tables to match; a
//!    [`candidates::CandidateSource`] streams candidate pairs out of the
//!    Cartesian product — the `alem-block` crate implements the paper's
//!    offline Jaccard token filter and the other index strategies, and
//!    [`candidates::BlockingReport`] measures their recall and reduction
//!    ratio.
//! 2. [`features`] turns each candidate pair into a dense feature vector (21
//!    similarity functions × aligned attributes) and, for the rule learner,
//!    a Boolean predicate vector; [`corpus::Corpus`] bundles the pair
//!    universe with its hidden ground truth.
//! 3. [`loop_`] drives active learning: 30 seed labels, batches of 10
//!    queried from an [`oracle::Oracle`] (perfect or noisy), model refit,
//!    and per-iteration evaluation by [`evaluator`].
//! 4. [`ensemble`] (active ensembles of high-precision SVMs, §5.2) and
//!    [`selector::blocking_dim`] (top-K weight blocking, §5.1) implement the
//!    paper's two optimizations; [`interpret`] converts trees to DNFs for
//!    the interpretability comparison (§6.3).
//!
//! # Quick start
//!
//! ```
//! use alem_core::prelude::*;
//!
//! // A tiny synthetic corpus: one informative feature.
//! let feats: Vec<Vec<f64>> = (0..200)
//!     .map(|i| vec![i as f64 / 200.0, (i % 7) as f64 / 7.0])
//!     .collect();
//! let truth: Vec<bool> = (0..200).map(|i| i >= 120).collect();
//! let corpus = Corpus::from_features(feats, truth.clone()).expect("one label per row");
//!
//! let params = LoopParams::builder()
//!     .seed_size(20)
//!     .batch_size(10)
//!     .max_labels(120)
//!     .build();
//! let oracle = Oracle::perfect(truth);
//! let run = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params)
//!     .run(&corpus, &oracle, 42)
//!     .expect("valid configuration and a reliable oracle");
//! assert!(run.best_f1() > 0.9);
//! ```
//!
//! Long-running sessions can checkpoint and resume ([`session`]), retry
//! transient Oracle failures, and inject faults for robustness benchmarks
//! ([`oracle::TransientOracle`] and friends); failures surface as
//! structured [`error::AlemError`] values instead of panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod corpus;
pub mod ensemble;
pub mod error;
pub mod evaluator;
pub mod features;
pub mod featurestore;
pub mod interpret;
pub mod learner;
pub mod loop_;
pub mod model_io;
pub mod oracle;
pub mod prelude;
pub mod report;
pub mod schema;
pub mod selector;
pub mod session;
pub mod strategy;
