//! One-line import for the common case: `use alem_core::prelude::*;`.
//!
//! Re-exports the types that virtually every alem program touches — the
//! corpus and its construction, the loop driver and its parameters, the
//! strategy zoo with its trainers, the Oracle, and the session layer —
//! so examples and downstream crates don't need a dozen `use` lines to
//! run one active-learning session. Specialized machinery (fault-injection
//! oracles, the interpretability reports, raw selectors) stays behind its
//! full module path on purpose: reaching for it should be a visible
//! decision.

pub use crate::blocking::BlockingConfig;
pub use crate::candidates::{BlockingReport, CandidateSource};
pub use crate::corpus::Corpus;
pub use crate::ensemble::ActiveEnsembleStrategy;
pub use crate::error::AlemError;
pub use crate::evaluator::RunResult;
pub use crate::learner::{DnfTrainer, ForestTrainer, NnTrainer, SvmTrainer, Trainer};
pub use crate::loop_::{ActiveLearner, EvalMode, LoopParams};
pub use crate::oracle::{Oracle, QueryOracle};
pub use crate::schema::EmDataset;
pub use crate::session::{Checkpoint, SessionConfig, SessionOutcome};
pub use crate::strategy::{
    LfpLfnStrategy, MarginNnStrategy, MarginSvmStrategy, QbcStrategy, RandomStrategy, Strategy,
    TreeQbcStrategy,
};
pub use alem_par::Parallelism;
