//! Strategies: a learner paired with a compatible example selector.
//!
//! The paper's framework records which selectors are compatible with which
//! learners through a class hierarchy (Fig. 2); here each valid combination
//! is a concrete [`Strategy`] implementation the [`crate::loop_`] driver
//! can run:
//!
//! | Strategy | Learner | Selector |
//! |---|---|---|
//! | [`QbcStrategy`] | any [`Trainer`] | learner-agnostic bootstrap QBC |
//! | [`TreeQbcStrategy`] | random forest | learner-aware QBC over its trees |
//! | [`MarginSvmStrategy`] | linear SVM | margin, optionally blocking-dims |
//! | [`MarginNnStrategy`] | neural net | margin (pre-sigmoid affine output) |
//! | [`LfpLfnStrategy`] | DNF rules | LFP/LFN heuristic |
//! | [`RandomStrategy`] | any [`Trainer`] | uniform random (supervised baseline) |
//!
//! The active-ensemble optimization lives in [`crate::ensemble`].

use crate::corpus::Corpus;
use crate::error::AlemError;
use crate::interpret;
use crate::learner::{DnfTrainer, ForestTrainer, NnTrainer, SvmTrainer, Trainer};
use crate::selector::{self, Selection};
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::forest::RandomForest;
use mlcore::nn::NeuralNet;
use mlcore::rules::{Conjunction, Dnf};
use mlcore::svm::LinearSvm;
use mlcore::Classifier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Optional per-iteration extras a strategy can report.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrategyStats {
    /// #DNF atoms of the current interpretable model.
    pub atoms: Option<usize>,
    /// Maximum tree depth of the current ensemble.
    pub depth: Option<usize>,
    /// Accepted models in an active ensemble.
    pub accepted_models: Option<usize>,
    /// Unlabeled examples pruned by blocking dimensions last selection.
    pub pruned: Option<usize>,
}

/// A learner + selector combination runnable by the active-learning loop.
///
/// # Fallibility
///
/// [`Strategy::fit`] is the validation point: it returns an
/// [`AlemError`] when the corpus cannot support the strategy (e.g. a rule
/// learner on a corpus without Boolean predicate features). Once `fit`
/// has succeeded, [`Strategy::select`] and [`Strategy::predict`] cannot
/// fail; called *before* a successful `fit` they degrade instead of
/// panicking — `select` returns an empty [`Selection`] (the session
/// driver falls back to random sampling) and `predict` returns `false`
/// (no evidence of a match).
pub trait Strategy {
    /// Report label, e.g. `"Trees(20)"`.
    fn name(&self) -> String;

    /// (Re)train on the cumulative labeled data. Errors when the corpus
    /// is unusable for this strategy ([`AlemError::InvalidConfig`]).
    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError>;

    /// Choose up to `batch` examples from the unlabeled pool. Timing in
    /// the returned [`Selection`] is sourced from `obs` spans
    /// (`select.committee` / `select.score`); pass
    /// [`Registry::disabled`] when telemetry is off.
    ///
    /// The default takes the `batch` highest [`Strategy::score_pool`]
    /// scores, ties randomized, and selects nothing when `score_pool`
    /// errs. Strategies whose policy is not the top k of a whole-pool
    /// score override it.
    #[allow(clippy::too_many_arguments)] // mirrors the pipeline's natural inputs
    fn select(
        &mut self,
        corpus: &Corpus,
        _labeled: &[(usize, bool)],
        unlabeled: &[usize],
        batch: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Selection {
        selector::select_top_k(unlabeled, batch, rng, obs, || {
            self.score_pool(corpus, unlabeled)
        })
    }

    /// Batch ambiguity scores for the unlabeled pool: entry `j` scores
    /// `unlabeled[j]`, higher means more informative, and
    /// [`selector::EXCLUDED`] marks examples this strategy refuses to
    /// select (pruned by blocking dimensions, covered by accepted rules).
    ///
    /// This is the uniform batch-scoring surface behind every selector:
    /// the default [`Strategy::select`] is a top-k consumer of these
    /// scores, and the parallel fan-out (see
    /// [`Strategy::set_parallelism`]) happens inside this single method
    /// family instead of once per selector.
    ///
    /// Errors with [`AlemError::InvalidConfig`] when the strategy has no
    /// scoring model yet (e.g. `fit`/`select` not called). The default
    /// implementation scores every example `0.0` — sequentially, with no
    /// model consulted — so a generic top-k consumer degrades to uniform
    /// random sampling (ties are randomized).
    fn score_pool(&self, _corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        Ok(vec![0.0; unlabeled.len()])
    }

    /// Install the thread-count policy used by `score_pool`/`select`/`fit`
    /// fan-outs. Results are byte-identical for any setting; only wall
    /// clock changes. The default ignores it (inherently sequential
    /// strategies). Strategies start out sequential until the session
    /// driver calls this with [`crate::session::SessionConfig`]'s value.
    fn set_parallelism(&mut self, _par: Parallelism) {}

    /// Predict the label of corpus example `i` with the current model.
    fn predict(&self, corpus: &Corpus, i: usize) -> bool;

    /// Per-iteration extras (interpretability, ensemble size, pruning).
    fn stats(&self) -> StrategyStats {
        StrategyStats::default()
    }

    /// Strategy-initiated termination (e.g. LFP/LFN exhaustion).
    fn terminated(&self) -> bool {
        false
    }

    /// Hook after new labels arrive; ensemble strategies prune pools here.
    #[allow(clippy::too_many_arguments)] // mirrors the pipeline's natural inputs
    fn post_label(
        &mut self,
        _corpus: &Corpus,
        _new: &[(usize, bool)],
        _labeled: &mut Vec<(usize, bool)>,
        _unlabeled: &mut Vec<usize>,
        _rng: &mut StdRng,
        _obs: &Registry,
    ) {
    }

    /// Snapshot the trained model for persistence, if this strategy's
    /// family supports it (see [`crate::model_io::SavedModel`]).
    fn saved_model(&self) -> Option<crate::model_io::SavedModel> {
        None
    }

    /// Snapshot the warm-training state (optimizer continuation, rotation
    /// counters) for checkpointing, if this strategy trains incrementally
    /// (see [`crate::model_io::WarmState`]). `None` for cold-only
    /// strategies or before the first fit.
    fn warm_state(&self) -> Option<crate::model_io::WarmState> {
        None
    }

    /// Restore warm-training state captured by [`Strategy::warm_state`],
    /// so a resumed session's next fit continues bit-identically. The
    /// default (cold-only strategies) ignores it.
    fn restore_warm_state(&mut self, _warm: crate::model_io::WarmState) {}
}

/// Every mutable pointer to a strategy is a strategy: `&mut S` lets a
/// [`crate::session::SessionMachine`] borrow one (e.g. out of an
/// [`crate::loop_::ActiveLearner`]) instead of owning it, and
/// `Box<dyn Strategy + Send>` serves a strategy chosen at run time. This
/// is the one forwarder; each trait method is forwarded once here, so a
/// provided method never silently falls back to its default.
impl<P> Strategy for P
where
    P: std::ops::DerefMut,
    P::Target: Strategy,
{
    fn name(&self) -> String {
        (**self).name()
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        (**self).fit(corpus, labeled, rng)
    }

    fn select(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        unlabeled: &[usize],
        batch: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Selection {
        (**self).select(corpus, labeled, unlabeled, batch, rng, obs)
    }

    fn score_pool(&self, corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        (**self).score_pool(corpus, unlabeled)
    }

    fn set_parallelism(&mut self, par: Parallelism) {
        (**self).set_parallelism(par);
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        (**self).predict(corpus, i)
    }

    fn stats(&self) -> StrategyStats {
        (**self).stats()
    }

    fn terminated(&self) -> bool {
        (**self).terminated()
    }

    fn post_label(
        &mut self,
        corpus: &Corpus,
        new: &[(usize, bool)],
        labeled: &mut Vec<(usize, bool)>,
        unlabeled: &mut Vec<usize>,
        rng: &mut StdRng,
        obs: &Registry,
    ) {
        (**self).post_label(corpus, new, labeled, unlabeled, rng, obs);
    }

    fn saved_model(&self) -> Option<crate::model_io::SavedModel> {
        (**self).saved_model()
    }

    fn warm_state(&self) -> Option<crate::model_io::WarmState> {
        (**self).warm_state()
    }

    fn restore_warm_state(&mut self, warm: crate::model_io::WarmState) {
        (**self).restore_warm_state(warm);
    }
}

/// Gather labeled feature rows for training. Errors when `use_bool` is
/// requested on a corpus without Boolean predicate features — the one
/// user-reachable way to hand a rule-family strategy the wrong corpus.
pub(crate) fn labeled_rows(
    corpus: &Corpus,
    labeled: &[(usize, bool)],
    use_bool: bool,
    // alem-lint: allow(flat-feature-store) -- O(labeled) training rows gathered per fit, not the pool-sized matrix
) -> Result<(Vec<Vec<f64>>, Vec<bool>), AlemError> {
    let xs = if use_bool {
        let bools = corpus.bool_features().ok_or_else(|| {
            AlemError::InvalidConfig(format!(
                "corpus '{}' has no Boolean predicate features; build it with \
                 Corpus::from_candidates or Corpus::with_bool_features",
                corpus.name()
            ))
        })?;
        labeled.iter().map(|&(i, _)| bools[i].clone()).collect()
    } else {
        labeled.iter().map(|&(i, _)| corpus.x(i).to_vec()).collect()
    };
    let ys = labeled.iter().map(|&(_, y)| y).collect();
    Ok((xs, ys))
}

// ---------------------------------------------------------------------------
// Learner-agnostic QBC
// ---------------------------------------------------------------------------

/// Learner-agnostic bootstrap QBC over any trainer (§4.1).
pub struct QbcStrategy<T: Trainer> {
    trainer: T,
    committee_size: usize,
    use_bool: bool,
    model: Option<T::Model>,
    /// Committee from the most recent selection round, kept so
    /// [`Strategy::score_pool`] can score without retraining.
    committee: Vec<T::Model>,
    par: Parallelism,
}

/// Builder for [`QbcStrategy`]; start from [`QbcStrategy::builder`].
#[derive(Debug, Clone)]
pub struct QbcStrategyBuilder<T: Trainer> {
    trainer: T,
    committee_size: usize,
    use_bool: bool,
}

impl<T: Trainer> QbcStrategyBuilder<T> {
    /// Committee size `B` (paper sweeps 2, 10, 20; default 20).
    pub fn committee_size(mut self, size: usize) -> Self {
        self.committee_size = size;
        self
    }

    /// Train committee members on Boolean predicate features instead of
    /// continuous similarities (rule learners, Fig. 19).
    pub fn bool_features(mut self, use_bool: bool) -> Self {
        self.use_bool = use_bool;
        self
    }

    /// Finish building the strategy.
    pub fn build(self) -> QbcStrategy<T> {
        QbcStrategy {
            trainer: self.trainer,
            committee_size: self.committee_size,
            use_bool: self.use_bool,
            model: None,
            committee: Vec::new(),
            par: Parallelism::sequential(),
        }
    }
}

impl<T: Trainer> QbcStrategy<T> {
    /// QBC with a committee of `committee_size` models over continuous
    /// features.
    pub fn new(trainer: T, committee_size: usize) -> Self {
        QbcStrategy::builder(trainer)
            .committee_size(committee_size)
            .build()
    }

    /// Configure a QBC strategy; defaults to a committee of 20 over
    /// continuous features.
    pub fn builder(trainer: T) -> QbcStrategyBuilder<T> {
        QbcStrategyBuilder {
            trainer,
            committee_size: 20,
            use_bool: false,
        }
    }

    /// The current trained model, if any.
    pub fn model(&self) -> Option<&T::Model> {
        self.model.as_ref()
    }
}

impl<T: Trainer> Strategy for QbcStrategy<T> {
    fn name(&self) -> String {
        format!("{}-QBC({})", self.trainer.name(), self.committee_size)
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        let (xs, ys) = labeled_rows(corpus, labeled, self.use_bool)?;
        self.model = Some(self.trainer.train(&xs, &ys, rng));
        Ok(())
    }

    fn select(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        unlabeled: &[usize],
        batch: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Selection {
        let committee_span = obs.span("select.committee");
        self.committee = selector::qbc::train_committee(
            &self.trainer,
            corpus,
            labeled,
            self.committee_size,
            rng,
            self.use_bool,
            &self.par,
        );
        let committee_creation = committee_span.finish();
        Selection {
            committee_creation,
            ..selector::select_top_k(unlabeled, batch, rng, obs, || {
                self.score_pool(corpus, unlabeled)
            })
        }
    }

    fn score_pool(&self, corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        if self.committee.is_empty() {
            return Err(AlemError::InvalidConfig(
                "QBC has no committee yet; run select once before score_pool".to_owned(),
            ));
        }
        Ok(selector::qbc::score_pool(
            &self.committee,
            corpus,
            unlabeled,
            self.use_bool,
            &self.par,
        ))
    }

    fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        let Some(model) = self.model.as_ref() else {
            return false;
        };
        if self.use_bool {
            corpus
                .bool_features()
                .is_some_and(|bools| model.predict(&bools[i]))
        } else {
            model.predict(corpus.x(i))
        }
    }
}

// ---------------------------------------------------------------------------
// Learner-aware QBC for tree ensembles
// ---------------------------------------------------------------------------

/// Trees retrained per warm round are bootstrap-capped at this many
/// resampled examples, which is what keeps per-round train cost flat as
/// the labeled pool grows.
const REFRESH_BOOTSTRAP_CAP: usize = 256;

/// Random forest with learner-aware QBC over its own trees (§4.1.1) — the
/// paper's best-performing combination, labeled `Trees(n)` in the figures.
pub struct TreeQbcStrategy {
    trainer: ForestTrainer,
    /// When set, warm rounds retrain only this fraction of the committee
    /// (rotating deterministically) instead of the whole forest.
    refresh_frac: Option<f64>,
    model: Option<RandomForest>,
    /// Warm (partial-refresh) rounds since the last cold fit; drives the
    /// member rotation.
    warm_rounds: u64,
    par: Parallelism,
}

/// Builder for [`TreeQbcStrategy`]; start from [`TreeQbcStrategy::builder`].
#[derive(Debug, Clone)]
pub struct TreeQbcStrategyBuilder {
    trainer: ForestTrainer,
    refresh_frac: Option<f64>,
}

impl TreeQbcStrategyBuilder {
    /// Number of trees (paper sweeps 2, 10, 20).
    pub fn trees(mut self, n_trees: usize) -> Self {
        self.trainer = ForestTrainer::with_trees(n_trees);
        self
    }

    /// Use a custom forest trainer (ablation benches).
    pub fn trainer(mut self, trainer: ForestTrainer) -> Self {
        self.trainer = trainer;
        self
    }

    /// Warm-start retraining: after the first (cold) fit, each round
    /// retrains only `ceil(frac × n_trees)` committee members, chosen by
    /// deterministic rotation, on a bootstrap capped at
    /// `REFRESH_BOOTSTRAP_CAP` (256) examples — so per-round train cost stops
    /// scaling with the labeled-pool size. `frac` is clamped to
    /// `(0, 1]`-sensible membership (at least one tree, at most all).
    pub fn refresh_frac(mut self, frac: f64) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "refresh_frac must be in (0, 1]");
        self.refresh_frac = Some(frac);
        self
    }

    /// Finish building the strategy.
    pub fn build(self) -> TreeQbcStrategy {
        TreeQbcStrategy {
            trainer: self.trainer,
            refresh_frac: self.refresh_frac,
            model: None,
            warm_rounds: 0,
            par: Parallelism::sequential(),
        }
    }
}

impl TreeQbcStrategy {
    /// Forest of `n_trees` with Corleone settings.
    pub fn new(n_trees: usize) -> Self {
        TreeQbcStrategy::builder().trees(n_trees).build()
    }

    /// Configure a tree-QBC strategy; defaults to a 10-tree forest with
    /// Corleone settings.
    pub fn builder() -> TreeQbcStrategyBuilder {
        TreeQbcStrategyBuilder {
            trainer: ForestTrainer::default(),
            refresh_frac: None,
        }
    }

    /// The current forest, if trained.
    pub fn model(&self) -> Option<&RandomForest> {
        self.model.as_ref()
    }
}

impl Strategy for TreeQbcStrategy {
    fn name(&self) -> String {
        format!("Trees({})", self.trainer.0.n_trees)
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        let (xs, ys) = labeled_rows(corpus, labeled, false)?;
        let set = mlcore::data::TrainSet::new(&xs, &ys);
        match (self.refresh_frac, self.model.take()) {
            (Some(frac), Some(forest)) if !set.is_empty() => {
                let n = self.trainer.0.n_trees;
                let m = ((frac * n as f64).ceil() as usize).clamp(1, n);
                // Rotate through the committee so every tree is eventually
                // refreshed; consecutive integers mod n are distinct while
                // m ≤ n, so members never collide within a round.
                let start = (self.warm_rounds as usize).wrapping_mul(m);
                let members: Vec<usize> = (0..m).map(|j| (start + j) % n).collect();
                self.model = Some(self.trainer.0.refresh_with(
                    &forest,
                    &members,
                    &set,
                    Some(REFRESH_BOOTSTRAP_CAP),
                    rng,
                    &self.par,
                ));
                self.warm_rounds += 1;
            }
            _ => {
                self.model = Some(self.trainer.0.train_with(&set, rng, &self.par));
                self.warm_rounds = 0;
            }
        }
        Ok(())
    }

    fn score_pool(&self, corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        let forest = self.model.as_ref().ok_or_else(|| {
            AlemError::InvalidConfig("tree QBC has no forest yet; call fit first".to_owned())
        })?;
        Ok(selector::tree_qbc::score_pool(
            forest, corpus, unlabeled, &self.par,
        ))
    }

    fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        self.model
            .as_ref()
            .is_some_and(|forest| forest.predict(corpus.x(i)))
    }

    fn stats(&self) -> StrategyStats {
        let forest = self.model.as_ref();
        StrategyStats {
            atoms: forest.map(interpret::forest_atom_count),
            depth: forest.map(RandomForest::depth),
            ..StrategyStats::default()
        }
    }

    fn saved_model(&self) -> Option<crate::model_io::SavedModel> {
        self.model.clone().map(crate::model_io::SavedModel::Forest)
    }

    fn warm_state(&self) -> Option<crate::model_io::WarmState> {
        match (self.refresh_frac, &self.model) {
            (Some(_), Some(model)) => Some(crate::model_io::WarmState::Forest {
                model: model.clone(),
                rounds: self.warm_rounds,
            }),
            _ => None,
        }
    }

    fn restore_warm_state(&mut self, warm: crate::model_io::WarmState) {
        if let crate::model_io::WarmState::Forest { model, rounds } = warm {
            self.model = Some(model);
            self.warm_rounds = rounds;
        }
    }
}

// ---------------------------------------------------------------------------
// Margin for linear SVMs (with optional blocking dimensions)
// ---------------------------------------------------------------------------

/// Replay sample size mixed into each warm SVM round alongside the new
/// labels, so old decision boundaries are not forgotten while per-round
/// train cost stays flat as the labeled pool grows.
const WARM_REPLAY_CAP: usize = 32;

/// Fraction of the fresh top-`k` weight mass the sticky phase-1 dim set
/// must retain to be kept for another round (see
/// [`MarginSvmStrategy`]'s `lazy_dims`). Below it the set is refreshed
/// from the current weights.
const LAZY_DIMS_STICKINESS: f64 = 0.9;

/// Linear SVM with margin-based selection (§4.2.1); `blocking_k` enables
/// the §5.1 blocking-dimension pruning.
pub struct MarginSvmStrategy {
    trainer: SvmTrainer,
    blocking_k: Option<usize>,
    /// Phase-1 dims of two-phase lazy selection, if enabled.
    lazy_topk: Option<usize>,
    /// Sticky phase-1 dim set: kept across rounds while it retains
    /// [`LAZY_DIMS_STICKINESS`] of the fresh top-`k` weight mass,
    /// refreshed otherwise. Selection is bit-identical for any dim set
    /// (see [`selector::lazy_margin::select_with_dims`]), so stickiness
    /// only moves the speed/pruning trade-off: a stable set keeps the
    /// lazy store's partial-cell memo near `pool × topk` instead of
    /// growing every round as the top-weight ranking churns, while the
    /// mass test still tracks real weight drift. Derived state: not
    /// checkpointed, re-derived from the restored model on resume.
    lazy_dims: Option<Vec<usize>>,
    /// Warm-start Pegasos across rounds instead of refitting from scratch.
    warm: bool,
    /// Resumable optimizer state when `warm` and at least one fit ran.
    warm_state: Option<mlcore::svm::SvmWarmState>,
    /// Labeled examples already absorbed into `warm_state`.
    seen: usize,
    /// Warm rounds since the last cold fit.
    warm_rounds: u64,
    model: Option<LinearSvm>,
    last_pruned: Option<usize>,
    par: Parallelism,
}

/// Builder for [`MarginSvmStrategy`]; start from
/// [`MarginSvmStrategy::builder`].
#[derive(Debug, Clone, Default)]
pub struct MarginSvmStrategyBuilder {
    trainer: SvmTrainer,
    blocking_k: Option<usize>,
    lazy_topk: Option<usize>,
    warm: bool,
}

impl MarginSvmStrategyBuilder {
    /// Use a custom SVM trainer.
    pub fn trainer(mut self, trainer: SvmTrainer) -> Self {
        self.trainer = trainer;
        self
    }

    /// Prune with the top-`k` blocking dimensions of §5.1.
    pub fn blocking_dims(mut self, k: usize) -> Self {
        self.blocking_k = Some(k);
        self
    }

    /// Select with two-phase lazy extraction: phase 1 reads only the `k`
    /// highest-`|weight|` dims and interval-bounds each pair's margin;
    /// only pairs inside the uncertain band get their full vector
    /// materialized. The chosen batches are bit-identical to eager
    /// selection (see [`selector::lazy_margin`]); engaged only on corpora
    /// with `[0, 1]`-bounded features, eager fallback otherwise. Ignored
    /// when blocking dims are configured (that path already prunes).
    pub fn lazy_topk(mut self, k: usize) -> Self {
        self.lazy_topk = Some(k);
        self
    }

    /// Warm-start training: the first fit is an ordinary cold Pegasos
    /// solve; every later round *continues* that optimization — a few
    /// passes over the newly labeled examples plus a replay sample of at
    /// most `WARM_REPLAY_CAP` (32) older ones — so per-round train cost
    /// stops scaling with the labeled-pool size.
    pub fn warm_start(mut self) -> Self {
        self.warm = true;
        self
    }

    /// Finish building the strategy.
    pub fn build(self) -> MarginSvmStrategy {
        MarginSvmStrategy {
            trainer: self.trainer,
            blocking_k: self.blocking_k,
            lazy_topk: self.lazy_topk,
            lazy_dims: None,
            warm: self.warm,
            warm_state: None,
            seen: 0,
            warm_rounds: 0,
            model: None,
            last_pruned: None,
            par: Parallelism::sequential(),
        }
    }
}

impl MarginSvmStrategy {
    /// Vanilla margin over all dimensions.
    pub fn new(trainer: SvmTrainer) -> Self {
        MarginSvmStrategy::builder().trainer(trainer).build()
    }

    /// Configure a margin-SVM strategy; defaults to a vanilla margin over
    /// all dimensions with a default SVM trainer.
    pub fn builder() -> MarginSvmStrategyBuilder {
        MarginSvmStrategyBuilder::default()
    }

    /// The current SVM, if trained.
    pub fn model(&self) -> Option<&LinearSvm> {
        self.model.as_ref()
    }
}

impl Strategy for MarginSvmStrategy {
    fn name(&self) -> String {
        match self.blocking_k {
            Some(k) => format!("Linear-Margin({k}Dim)"),
            None => "Linear-Margin".to_owned(),
        }
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        if !self.warm {
            let (xs, ys) = labeled_rows(corpus, labeled, false)?;
            self.model = Some(self.trainer.train(&xs, &ys, rng));
            return Ok(());
        }
        match self.warm_state.take() {
            None => {
                // First fit is the ordinary cold solve; it seeds the
                // optimizer state the warm rounds continue from.
                let (xs, ys) = labeled_rows(corpus, labeled, false)?;
                let model = self.trainer.train(&xs, &ys, rng);
                self.warm_state = Some(mlcore::svm::SvmWarmState::after_cold_fit(
                    &model,
                    &self.trainer.0,
                    labeled.len(),
                ));
                self.seen = labeled.len();
                self.warm_rounds = 0;
                self.model = Some(model);
            }
            Some(state) => {
                let seen = self.seen.min(labeled.len());
                let mut round: Vec<(usize, bool)> = labeled[seen..].to_vec();
                // Replay a small sample of older labels so the boundary
                // keeps honoring them without a full-pool pass.
                let replay_n = WARM_REPLAY_CAP.min(seen);
                round.extend((0..replay_n).map(|_| labeled[rng.gen_range(0..seen)]));
                let (xs, ys) = labeled_rows(corpus, &round, false)?;
                let set = mlcore::data::TrainSet::new(&xs, &ys);
                if !set.is_empty() && set.dim() != state.weights.len() {
                    // Dimensionality changed under us (different corpus);
                    // the continuation is meaningless, fall back to cold.
                    let (xs, ys) = labeled_rows(corpus, labeled, false)?;
                    let model = self.trainer.train(&xs, &ys, rng);
                    self.warm_state = Some(mlcore::svm::SvmWarmState::after_cold_fit(
                        &model,
                        &self.trainer.0,
                        labeled.len(),
                    ));
                    self.seen = labeled.len();
                    self.warm_rounds = 0;
                    self.model = Some(model);
                    return Ok(());
                }
                let epochs = (self.trainer.0.epochs / 5).max(2);
                let (model, next) = self.trainer.0.train_warm(&set, state, epochs, rng);
                self.warm_state = Some(next);
                self.seen = labeled.len();
                self.warm_rounds += 1;
                self.model = Some(model);
            }
        }
        Ok(())
    }

    fn select(
        &mut self,
        corpus: &Corpus,
        _labeled: &[(usize, bool)],
        unlabeled: &[usize],
        batch: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Selection {
        let Some(svm) = self.model.as_ref() else {
            return Selection::default();
        };
        match (self.blocking_k, self.lazy_topk) {
            (Some(k), _) => {
                let out = selector::blocking_dim::select(
                    svm, k, corpus, unlabeled, batch, rng, obs, &self.par,
                );
                self.last_pruned = Some(out.pruned);
                out.selection
            }
            (None, Some(topk)) if corpus.features_bounded_01() => {
                // Drop a stale set if the dimensionality changed under us
                // (different corpus mid-run).
                if self
                    .lazy_dims
                    .as_ref()
                    .is_some_and(|d| d.iter().any(|&x| x >= svm.weights().len()))
                {
                    self.lazy_dims = None;
                }
                let topk = topk.min(svm.weights().len());
                let fresh = svm.top_weight_dims(topk);
                let mass =
                    |dims: &[usize]| dims.iter().map(|&d| svm.weights()[d].abs()).sum::<f64>();
                let keep = self.lazy_dims.as_ref().is_some_and(|cur| {
                    cur.len() == fresh.len() && mass(cur) >= LAZY_DIMS_STICKINESS * mass(&fresh)
                });
                let dims: &[usize] = if keep {
                    self.lazy_dims.as_deref().unwrap_or(&[])
                } else {
                    self.lazy_dims.insert(fresh)
                };
                selector::lazy_margin::select_with_dims(
                    svm, corpus, unlabeled, batch, dims, rng, obs, &self.par,
                )
                .selection
            }
            (None, _) => {
                selector::margin::select(svm, corpus, unlabeled, batch, rng, obs, &self.par)
            }
        }
    }

    fn score_pool(&self, corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        let svm = self.model.as_ref().ok_or_else(|| {
            AlemError::InvalidConfig("margin SVM has no model yet; call fit first".to_owned())
        })?;
        Ok(match self.blocking_k {
            Some(k) => selector::blocking_dim::score_pool(svm, k, corpus, unlabeled, &self.par),
            None => selector::margin::score_pool(svm, corpus, unlabeled, &self.par),
        })
    }

    fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        self.model
            .as_ref()
            .is_some_and(|svm| svm.predict(corpus.x(i)))
    }

    fn stats(&self) -> StrategyStats {
        StrategyStats {
            pruned: self.last_pruned,
            ..StrategyStats::default()
        }
    }

    fn saved_model(&self) -> Option<crate::model_io::SavedModel> {
        self.model.clone().map(crate::model_io::SavedModel::Svm)
    }

    fn warm_state(&self) -> Option<crate::model_io::WarmState> {
        if !self.warm {
            return None;
        }
        self.warm_state
            .clone()
            .map(|state| crate::model_io::WarmState::Svm {
                state,
                seen: self.seen,
                rounds: self.warm_rounds,
            })
    }

    fn restore_warm_state(&mut self, warm: crate::model_io::WarmState) {
        if let crate::model_io::WarmState::Svm {
            state,
            seen,
            rounds,
        } = warm
        {
            self.model = Some(LinearSvm::from_parts(state.weights.clone(), state.bias));
            self.warm_state = Some(state);
            self.seen = seen;
            self.warm_rounds = rounds;
        }
    }
}

// ---------------------------------------------------------------------------
// Margin via LSH (the Jain et al. baseline of §5.1)
// ---------------------------------------------------------------------------

/// Linear SVM with approximate margin selection through random-hyperplane
/// LSH — the alternative speed-up §5.1 compares its blocking dimensions
/// against. The signature index is built lazily on the first selection
/// (its cost shows up in that round's scoring time, mirroring how an
/// offline index build would be amortized).
pub struct LshMarginStrategy {
    trainer: SvmTrainer,
    bits: usize,
    oversample: usize,
    model: Option<LinearSvm>,
    index: Option<selector::lsh::HyperplaneLsh>,
    par: Parallelism,
}

impl LshMarginStrategy {
    /// LSH margin with `bits`-bit signatures and an `oversample × batch`
    /// exact-scoring shortlist.
    pub fn new(trainer: SvmTrainer, bits: usize, oversample: usize) -> Self {
        LshMarginStrategy {
            trainer,
            bits,
            oversample,
            model: None,
            index: None,
            par: Parallelism::sequential(),
        }
    }
}

impl Strategy for LshMarginStrategy {
    fn name(&self) -> String {
        format!("Linear-Margin(LSH{})", self.bits)
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        let (xs, ys) = labeled_rows(corpus, labeled, false)?;
        self.model = Some(self.trainer.train(&xs, &ys, rng));
        Ok(())
    }

    fn select(
        &mut self,
        corpus: &Corpus,
        _labeled: &[(usize, bool)],
        unlabeled: &[usize],
        batch: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Selection {
        if self.model.is_none() {
            return Selection::default();
        }
        if self.index.is_none() {
            self.index = Some(selector::lsh::HyperplaneLsh::build(
                corpus, self.bits, rng, obs,
            ));
        }
        match (self.model.as_ref(), self.index.as_ref()) {
            (Some(svm), Some(index)) => {
                index.select(svm, corpus, unlabeled, batch, self.oversample, rng, obs)
            }
            _ => Selection::default(),
        }
    }

    /// Exact margin scores — the LSH approximation only shortcuts
    /// `select`'s candidate shortlist, not the scoring surface.
    fn score_pool(&self, corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        let svm = self.model.as_ref().ok_or_else(|| {
            AlemError::InvalidConfig("LSH margin has no model yet; call fit first".to_owned())
        })?;
        Ok(selector::margin::score_pool(
            svm, corpus, unlabeled, &self.par,
        ))
    }

    fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        self.model
            .as_ref()
            .is_some_and(|svm| svm.predict(corpus.x(i)))
    }
}

// ---------------------------------------------------------------------------
// Margin for neural networks
// ---------------------------------------------------------------------------

/// Neural network with margin-based selection on the pre-sigmoid affine
/// output (§4.2.2).
pub struct MarginNnStrategy {
    trainer: NnTrainer,
    model: Option<NeuralNet>,
    par: Parallelism,
}

impl MarginNnStrategy {
    /// Margin selection over a neural-net trainer.
    pub fn new(trainer: NnTrainer) -> Self {
        MarginNnStrategy {
            trainer,
            model: None,
            par: Parallelism::sequential(),
        }
    }

    /// The current network, if trained.
    pub fn model(&self) -> Option<&NeuralNet> {
        self.model.as_ref()
    }
}

impl Strategy for MarginNnStrategy {
    fn name(&self) -> String {
        "NN-Margin".to_owned()
    }

    fn saved_model(&self) -> Option<crate::model_io::SavedModel> {
        self.model
            .clone()
            .map(|m| crate::model_io::SavedModel::NeuralNet(Box::new(m)))
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        let (xs, ys) = labeled_rows(corpus, labeled, false)?;
        self.model = Some(self.trainer.train(&xs, &ys, rng));
        Ok(())
    }

    fn score_pool(&self, corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        let net = self.model.as_ref().ok_or_else(|| {
            AlemError::InvalidConfig("NN margin has no model yet; call fit first".to_owned())
        })?;
        Ok(selector::margin::score_pool(
            net, corpus, unlabeled, &self.par,
        ))
    }

    fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        self.model
            .as_ref()
            .is_some_and(|net| net.predict(corpus.x(i)))
    }
}

// ---------------------------------------------------------------------------
// IWAL (importance-weighted active learning) over a linear SVM
// ---------------------------------------------------------------------------

/// IWAL baseline: rejection-sampled queries with inverse-propensity
/// weights fed into weighted hinge-loss training (see
/// [`selector::iwal`]). Included to reproduce the paper's related-work
/// claim that IWAL is label-inefficient for EM (§2).
pub struct IwalSvmStrategy {
    svm_config: mlcore::svm::SvmConfig,
    iwal: selector::iwal::IwalConfig,
    model: Option<LinearSvm>,
    /// Importance weight per labeled example (seed labels weigh 1.0).
    /// Ordered map: iteration order must not depend on hasher state.
    weights: std::collections::BTreeMap<usize, f64>,
}

impl IwalSvmStrategy {
    /// IWAL over a linear SVM with the given rejection parameters.
    pub fn new(svm_config: mlcore::svm::SvmConfig, iwal: selector::iwal::IwalConfig) -> Self {
        IwalSvmStrategy {
            svm_config,
            iwal,
            model: None,
            weights: std::collections::BTreeMap::new(),
        }
    }
}

impl Strategy for IwalSvmStrategy {
    fn name(&self) -> String {
        "Linear-IWAL".to_owned()
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        let (xs, ys) = labeled_rows(corpus, labeled, false)?;
        let ws: Vec<f64> = labeled
            .iter()
            .map(|&(i, _)| self.weights.get(&i).copied().unwrap_or(1.0))
            .collect();
        let set = mlcore::data::TrainSet::new(&xs, &ys);
        self.model = Some(self.svm_config.train_weighted(&set, Some(&ws), rng));
        Ok(())
    }

    fn select(
        &mut self,
        corpus: &Corpus,
        _labeled: &[(usize, bool)],
        unlabeled: &[usize],
        batch: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Selection {
        let Some(svm) = self.model.as_ref() else {
            return Selection::default();
        };
        let out = self.iwal.select(svm, corpus, unlabeled, batch, rng, obs);
        for (&i, &w) in out.selection.chosen.iter().zip(&out.weights) {
            self.weights.insert(i, w);
        }
        out.selection
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        self.model
            .as_ref()
            .is_some_and(|svm| svm.predict(corpus.x(i)))
    }
}

// ---------------------------------------------------------------------------
// Rules with LFP/LFN
// ---------------------------------------------------------------------------

/// DNF rule learner driven by the LFP/LFN heuristic (§4.3). Maintains an
/// ensemble of accepted high-precision rules plus one candidate rule under
/// refinement.
pub struct LfpLfnStrategy {
    trainer: DnfTrainer,
    /// Precision threshold a candidate must reach on newly labeled
    /// examples to join the accepted ensemble.
    accept_precision: f64,
    accepted: Dnf,
    candidate: Option<Conjunction>,
    terminated: bool,
    par: Parallelism,
}

impl LfpLfnStrategy {
    /// Rule learning with the paper's acceptance threshold τ.
    pub fn new(trainer: DnfTrainer, accept_precision: f64) -> Self {
        LfpLfnStrategy {
            trainer,
            accept_precision,
            accepted: Dnf::empty(),
            candidate: None,
            terminated: false,
            par: Parallelism::sequential(),
        }
    }

    /// The accepted rule ensemble.
    pub fn accepted(&self) -> &Dnf {
        &self.accepted
    }

    /// Accepted ensemble plus the current candidate — the model used for
    /// prediction.
    pub fn effective_dnf(&self) -> Dnf {
        let mut d = self.accepted.clone();
        if let Some(c) = &self.candidate {
            d.push(c.clone());
        }
        d
    }
}

impl Strategy for LfpLfnStrategy {
    fn name(&self) -> String {
        "Rules(LFP/LFN)".to_owned()
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        _rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        let (xs, ys) = labeled_rows(corpus, labeled, true)?;
        // Positives not yet covered by the accepted ensemble drive the
        // next candidate clause.
        let active: Vec<bool> = xs
            .iter()
            .zip(&ys)
            .map(|(x, &y)| y && !self.accepted.matches(x))
            .collect();
        let set = mlcore::data::TrainSet::new(&xs, &ys);
        self.candidate = self.trainer.0.learn_conjunction(&set, &active);
        // When no clause is learnable yet we keep going: more labels may
        // unlock one, and selection will report exhaustion otherwise.
        Ok(())
    }

    fn select(
        &mut self,
        corpus: &Corpus,
        _labeled: &[(usize, bool)],
        unlabeled: &[usize],
        batch: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Selection {
        let Some(candidate) = &self.candidate else {
            self.terminated = true;
            return Selection::default();
        };
        let out = selector::lfp_lfn::select(
            candidate,
            &self.accepted,
            corpus,
            unlabeled,
            batch,
            rng,
            obs,
            &self.par,
        );
        if out.exhausted() {
            self.terminated = true;
        }
        out.selection
    }

    fn score_pool(&self, corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        let candidate = self.candidate.as_ref().ok_or_else(|| {
            AlemError::InvalidConfig("LFP/LFN has no candidate rule yet; call fit first".to_owned())
        })?;
        Ok(selector::lfp_lfn::score_pool(
            candidate,
            &self.accepted,
            corpus,
            unlabeled,
            &self.par,
        ))
    }

    fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        let Some(bools) = corpus.bool_features() else {
            return false;
        };
        let x = &bools[i];
        self.accepted.matches(x) || self.candidate.as_ref().is_some_and(|c| c.matches(x))
    }

    fn stats(&self) -> StrategyStats {
        StrategyStats {
            atoms: Some(self.effective_dnf().atom_count()),
            ..StrategyStats::default()
        }
    }

    fn saved_model(&self) -> Option<crate::model_io::SavedModel> {
        Some(crate::model_io::SavedModel::Rules(self.effective_dnf()))
    }

    fn terminated(&self) -> bool {
        self.terminated
    }

    fn post_label(
        &mut self,
        corpus: &Corpus,
        new: &[(usize, bool)],
        _labeled: &mut Vec<(usize, bool)>,
        _unlabeled: &mut Vec<usize>,
        _rng: &mut StdRng,
        obs: &Registry,
    ) {
        // Accept the candidate if its precision on the newly labeled
        // examples it claims as matches reaches τ.
        let Some(candidate) = &self.candidate else {
            return;
        };
        let Some(bools) = corpus.bool_features() else {
            return;
        };
        let mut claimed = 0usize;
        let mut correct = 0usize;
        for &(i, y) in new {
            if candidate.matches(&bools[i]) {
                claimed += 1;
                if y {
                    correct += 1;
                }
            }
        }
        if claimed > 0 && correct as f64 / claimed as f64 >= self.accept_precision {
            obs.counter_add("rules.clauses_accepted", 1);
            self.accepted.push(candidate.clone());
            self.candidate = None;
        }
    }
}

// ---------------------------------------------------------------------------
// Random selection (supervised baseline)
// ---------------------------------------------------------------------------

/// Uniform-random example selection — the supervised-learning baseline of
/// Figs. 16–17 ("SupervisedTrees(Random-n)", and the DeepMatcher proxy
/// when paired with a wide NN trainer and `train_frac = 0.75`).
pub struct RandomStrategy<T: Trainer> {
    trainer: T,
    label: String,
    /// Fraction of the labeled pool actually used for training (DeepMatcher
    /// holds out 1/4 of the labels as a validation set it never trains on).
    train_frac: f64,
    model: Option<T::Model>,
}

/// Builder for [`RandomStrategy`]; start from [`RandomStrategy::builder`].
#[derive(Debug, Clone)]
pub struct RandomStrategyBuilder<T: Trainer> {
    trainer: T,
    label: String,
    train_frac: f64,
}

impl<T: Trainer> RandomStrategyBuilder<T> {
    /// Train on only this fraction of the labeled pool (3:1
    /// train:validation, like the paper's DeepMatcher runs).
    pub fn train_frac(mut self, train_frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&train_frac));
        self.train_frac = train_frac;
        self
    }

    /// Finish building the strategy.
    pub fn build(self) -> RandomStrategy<T> {
        RandomStrategy {
            trainer: self.trainer,
            label: self.label,
            train_frac: self.train_frac,
            model: None,
        }
    }
}

impl<T: Trainer> RandomStrategy<T> {
    /// Random selection training on all labels.
    pub fn new(trainer: T, label: &str) -> Self {
        RandomStrategy::builder(trainer, label).build()
    }

    /// Configure a random-selection baseline; defaults to training on all
    /// labels. Random selection keeps the default uniform
    /// [`Strategy::score_pool`] — scoring every example equally *is* this
    /// strategy's policy.
    pub fn builder(trainer: T, label: &str) -> RandomStrategyBuilder<T> {
        RandomStrategyBuilder {
            trainer,
            label: label.to_owned(),
            train_frac: 1.0,
        }
    }
}

impl<T: Trainer> Strategy for RandomStrategy<T> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        let n_train = ((labeled.len() as f64) * self.train_frac).round().max(1.0) as usize;
        let mut pool: Vec<&(usize, bool)> = labeled.iter().collect();
        pool.shuffle(rng);
        let subset: Vec<(usize, bool)> = pool
            .into_iter()
            .take(n_train.min(labeled.len()))
            .copied()
            .collect();
        let (xs, ys) = labeled_rows(corpus, &subset, false)?;
        self.model = Some(self.trainer.train(&xs, &ys, rng));
        Ok(())
    }

    fn select(
        &mut self,
        _corpus: &Corpus,
        _labeled: &[(usize, bool)],
        unlabeled: &[usize],
        batch: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Selection {
        let score_span = obs.span("select.score");
        let mut pool = unlabeled.to_vec();
        pool.shuffle(rng);
        pool.truncate(batch);
        Selection {
            chosen: pool,
            committee_creation: std::time::Duration::ZERO,
            scoring: score_span.finish(),
        }
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        self.model.as_ref().is_some_and(|m| m.predict(corpus.x(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::{Arc, Mutex};

    fn corpus() -> Corpus {
        let feats: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 80.0]).collect();
        let truth: Vec<bool> = (0..80).map(|i| i >= 40).collect();
        let bools: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![f64::from(u8::from(i >= 40))])
            .collect();
        Corpus::from_features(feats, truth).with_bool_features(bools)
    }

    fn seed_labeled(c: &Corpus) -> Vec<(usize, bool)> {
        [5, 15, 25, 35, 45, 55, 65, 75]
            .iter()
            .map(|&i| (i, c.truth(i)))
            .collect()
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(
            QbcStrategy::new(SvmTrainer::default(), 20).name(),
            "Linear-QBC(20)"
        );
        assert_eq!(TreeQbcStrategy::new(20).name(), "Trees(20)");
        assert_eq!(
            MarginSvmStrategy::new(SvmTrainer::default()).name(),
            "Linear-Margin"
        );
        assert_eq!(
            MarginSvmStrategy::builder().blocking_dims(1).build().name(),
            "Linear-Margin(1Dim)"
        );
        assert_eq!(
            MarginNnStrategy::new(NnTrainer::default()).name(),
            "NN-Margin"
        );
        assert_eq!(
            LfpLfnStrategy::new(DnfTrainer::default(), 0.85).name(),
            "Rules(LFP/LFN)"
        );
    }

    #[test]
    fn margin_svm_fit_select_predict() {
        let c = corpus();
        let labeled = seed_labeled(&c);
        let unlabeled: Vec<usize> = (0..80)
            .filter(|i| !labeled.iter().any(|(j, _)| j == i))
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = MarginSvmStrategy::new(SvmTrainer::default());
        s.fit(&c, &labeled, &mut rng).unwrap();
        assert!(s.predict(&c, 79));
        assert!(!s.predict(&c, 0));
        let sel = s.select(&c, &labeled, &unlabeled, 5, &mut rng, &Registry::disabled());
        assert_eq!(sel.chosen.len(), 5);
    }

    #[test]
    fn tree_qbc_reports_interpretability() {
        let c = corpus();
        let labeled = seed_labeled(&c);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = TreeQbcStrategy::new(5);
        s.fit(&c, &labeled, &mut rng).unwrap();
        let st = s.stats();
        assert!(st.atoms.is_some());
        assert!(st.depth.is_some());
    }

    #[test]
    fn lfp_lfn_learns_and_accepts() {
        let c = corpus();
        let labeled = seed_labeled(&c);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = LfpLfnStrategy::new(DnfTrainer::default(), 0.85);
        s.fit(&c, &labeled, &mut rng).unwrap();
        assert!(s.candidate.is_some());
        // Feed it a perfectly-labeled batch the candidate claims.
        let new: Vec<(usize, bool)> = vec![(50, true), (60, true)];
        let mut l = labeled.clone();
        let mut u = vec![];
        s.post_label(&c, &new, &mut l, &mut u, &mut rng, &Registry::disabled());
        assert_eq!(s.accepted().clauses().len(), 1);
        assert!(s.predict(&c, 70));
        assert!(!s.predict(&c, 10));
    }

    #[test]
    fn score_pool_errors_before_fit_and_aligns_after() {
        let c = corpus();
        let labeled = seed_labeled(&c);
        let unlabeled: Vec<usize> = (0..40).collect();
        let mut s = MarginSvmStrategy::new(SvmTrainer::default());
        assert!(s.score_pool(&c, &unlabeled).is_err());
        let mut rng = StdRng::seed_from_u64(1);
        s.fit(&c, &labeled, &mut rng).unwrap();
        let scores = s.score_pool(&c, &unlabeled).unwrap();
        assert_eq!(scores.len(), unlabeled.len());
        // The default implementation scores every example equally — the
        // random baseline's uniform policy.
        let r = RandomStrategy::new(SvmTrainer::default(), "Random");
        let uniform = r.score_pool(&c, &unlabeled).unwrap();
        assert!(uniform.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_svm_rounds_continue_and_checkpoint_roundtrips() {
        let c = corpus();
        let mut labeled = seed_labeled(&c);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = MarginSvmStrategy::builder().warm_start().build();
        s.fit(&c, &labeled, &mut rng).unwrap();
        assert_eq!(s.warm_state().unwrap().rounds(), 0);
        // New labels arrive; the next fits continue the optimization.
        for &i in &[2, 12, 22, 32, 42, 52] {
            labeled.push((i, c.truth(i)));
            s.fit(&c, &labeled, &mut rng).unwrap();
        }
        assert_eq!(s.warm_state().unwrap().rounds(), 6);
        assert!(s.predict(&c, 79));
        assert!(!s.predict(&c, 0));

        // Checkpoint roundtrip restores identical continuation state.
        let warm = s.warm_state().unwrap();
        let js = serde_json::to_string(&warm).unwrap();
        let back: crate::model_io::WarmState = serde_json::from_str(&js).unwrap();
        let mut restored = MarginSvmStrategy::builder().warm_start().build();
        restored.restore_warm_state(back);
        assert_eq!(restored.warm_state().unwrap(), warm);
        labeled.push((62, c.truth(62)));
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        s.fit(&c, &labeled, &mut rng_a).unwrap();
        restored.fit(&c, &labeled, &mut rng_b).unwrap();
        assert_eq!(s.model().unwrap(), restored.model().unwrap());
    }

    #[test]
    fn warm_forest_refreshes_a_rotating_subset() {
        let c = corpus();
        let labeled = seed_labeled(&c);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = TreeQbcStrategy::builder()
            .trees(10)
            .refresh_frac(0.3)
            .build();
        s.fit(&c, &labeled, &mut rng).unwrap();
        let cold = s.model().unwrap().clone();
        s.fit(&c, &labeled, &mut rng).unwrap();
        let warm = s.model().unwrap();
        // ceil(0.3 × 10) = 3 members refresh per round; the other 7 trees
        // must be carried over untouched.
        let unchanged = cold
            .trees()
            .iter()
            .zip(warm.trees())
            .filter(|(a, b)| a == b)
            .count();
        assert_eq!(unchanged, 7);
        assert_eq!(s.warm_state().unwrap().rounds(), 1);
        // Name (and hence run fingerprints' strategy label) is unaffected.
        assert_eq!(s.name(), "Trees(10)");
    }

    /// Overrides every provided [`Strategy`] method and records which ran,
    /// so a pointer forwarder that misses one (and silently runs the
    /// default) is caught.
    struct Probe(Arc<Mutex<Vec<&'static str>>>);

    impl Probe {
        fn hit(&self, method: &'static str) {
            self.0.lock().unwrap().push(method);
        }
    }

    impl Strategy for Probe {
        fn name(&self) -> String {
            "Probe".into()
        }

        fn fit(
            &mut self,
            _: &Corpus,
            _: &[(usize, bool)],
            _: &mut StdRng,
        ) -> Result<(), AlemError> {
            Ok(())
        }

        fn select(
            &mut self,
            _: &Corpus,
            _: &[(usize, bool)],
            _: &[usize],
            _: usize,
            _: &mut StdRng,
            _: &Registry,
        ) -> Selection {
            self.hit("select");
            Selection::default()
        }

        fn score_pool(&self, _: &Corpus, _: &[usize]) -> Result<Vec<f64>, AlemError> {
            self.hit("score_pool");
            Ok(Vec::new())
        }

        fn set_parallelism(&mut self, _: Parallelism) {
            self.hit("set_parallelism");
        }

        fn predict(&self, _: &Corpus, _: usize) -> bool {
            false
        }

        fn stats(&self) -> StrategyStats {
            self.hit("stats");
            StrategyStats::default()
        }

        fn terminated(&self) -> bool {
            self.hit("terminated");
            false
        }

        fn post_label(
            &mut self,
            _: &Corpus,
            _: &[(usize, bool)],
            _: &mut Vec<(usize, bool)>,
            _: &mut Vec<usize>,
            _: &mut StdRng,
            _: &Registry,
        ) {
            self.hit("post_label");
        }

        fn saved_model(&self) -> Option<crate::model_io::SavedModel> {
            self.hit("saved_model");
            None
        }

        fn warm_state(&self) -> Option<crate::model_io::WarmState> {
            self.hit("warm_state");
            None
        }

        fn restore_warm_state(&mut self, _: crate::model_io::WarmState) {
            self.hit("restore_warm_state");
        }
    }

    /// Call every provided method of `s` once.
    fn call_provided<S: Strategy>(mut s: S, c: &Corpus) {
        let mut rng = StdRng::seed_from_u64(1);
        let obs = Registry::disabled();
        let (mut labeled, mut unlabeled) = (vec![(0, false)], vec![1, 2]);
        s.select(c, &labeled, &unlabeled, 1, &mut rng, &obs);
        s.score_pool(c, &unlabeled).unwrap();
        s.set_parallelism(Parallelism::sequential());
        s.stats();
        s.terminated();
        s.post_label(c, &[], &mut labeled, &mut unlabeled, &mut rng, &obs);
        s.saved_model();
        s.warm_state();
        s.restore_warm_state(crate::model_io::WarmState::Svm {
            state: mlcore::svm::SvmWarmState::zero(1),
            seen: 0,
            rounds: 0,
        });
    }

    #[test]
    fn pointer_forwarders_reach_every_provided_method() {
        let c = corpus();
        let want = [
            "select",
            "score_pool",
            "set_parallelism",
            "stats",
            "terminated",
            "post_label",
            "saved_model",
            "warm_state",
            "restore_warm_state",
        ];
        let calls = Arc::new(Mutex::new(Vec::new()));
        let mut probe = Probe(calls.clone());
        call_provided(&mut probe, &c);
        assert_eq!(*calls.lock().unwrap(), want, "through &mut S");
        calls.lock().unwrap().clear();
        let boxed: Box<dyn Strategy + Send> = Box::new(probe);
        call_provided(boxed, &c);
        assert_eq!(
            *calls.lock().unwrap(),
            want,
            "through Box<dyn Strategy + Send>"
        );
    }

    #[test]
    fn random_strategy_selects_uniformly() {
        let c = corpus();
        let labeled = seed_labeled(&c);
        let unlabeled: Vec<usize> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = RandomStrategy::new(ForestTrainer::with_trees(3), "SupervisedTrees(Random-3)");
        s.fit(&c, &labeled, &mut rng).unwrap();
        let sel = s.select(
            &c,
            &labeled,
            &unlabeled,
            10,
            &mut rng,
            &Registry::disabled(),
        );
        assert_eq!(sel.chosen.len(), 10);
        let mut sorted = sel.chosen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }
}
