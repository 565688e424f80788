//! [`SessionMachine`]: the active-learning session as an event-driven
//! state machine.
//!
//! The blocking session loop ([`crate::session`]) interleaves two very
//! different concerns: the deterministic learning schedule (seed draw,
//! train, evaluate, select, apply labels) and the *delivery* of oracle
//! answers (retries, backoff, telemetry). `SessionMachine` extracts the
//! first concern into a pull-driven core that never blocks: it exposes the
//! examples it is waiting on ([`SessionMachine::pending`]) and advances
//! one [`SessionMachine::deliver`] call at a time. Answer transport —
//! whether a synchronous `QueryOracle`, a retry loop, or a remote labeler
//! over a socket (`alem-serve`) — lives entirely outside.
//!
//! # Determinism contract
//!
//! The machine consumes answers *by example*, not by arrival order: a
//! batch wave is applied only once every member has answered, in the
//! selector's chosen order. Duplicate answers and answers for examples
//! the machine never asked about are ignored (and counted). Consequently
//! the [`RunResult::deterministic_fingerprint`] of a machine-driven
//! session is a pure function of the master seed and the per-example
//! answer values — independent of delivery order, duplication, timing,
//! or how often the session was checkpointed and rehydrated in between.
//! The blocking [`ActiveLearner::run_session`][rs] is itself a thin pump
//! over this machine, so the two paths cannot drift.
//!
//! [rs]: crate::loop_::ActiveLearner::run_session
//!
//! # Checkpoint boundaries
//!
//! The RNG for iteration `k` is reconstructed from `(master_seed, k)`, so
//! the machine is snapshot-able exactly at iteration boundaries: each time
//! a new iteration begins, a [`Checkpoint`] of the pre-iteration state is
//! cached and served by [`SessionMachine::checkpoint`] until the next
//! boundary. Mid-wave kills therefore replay at most one iteration's
//! worth of answers.

use super::{
    derive_rng, one_class, validate_params, Checkpoint, SessionConfig, CHECKPOINT_VERSION,
};
use crate::corpus::Corpus;
use crate::error::AlemError;
use crate::evaluator::{confusion_over, iteration_stats, IterationStats, RunResult};
use crate::loop_::{EvalMode, LoopParams};
use crate::oracle::OracleAnswer;
use crate::strategy::Strategy;
use alem_obs::Span;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Consecutive zero-progress iterations (every selected example
/// abstained) tolerated before the session fails with
/// [`AlemError::Stalled`].
const MAX_STALLED_ITERS: usize = 5;

/// One outstanding label request: answer it with
/// [`SessionMachine::deliver`]. `id` is unique within the machine (fresh
/// ids are issued if a wave is re-emitted after a resume), `example` is
/// the corpus index the label is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRequest {
    /// Monotonically increasing request id (unique per machine).
    pub id: u64,
    /// Corpus example index to label.
    pub example: usize,
}

/// Externally visible machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineState {
    /// Constructed but neither [`SessionMachine::start`]ed nor
    /// [`SessionMachine::resume`]d.
    Created,
    /// Waiting for answers to [`SessionMachine::pending`] queries.
    AwaitingAnswers,
    /// Stopped at the configured `halt_after` boundary; the caller should
    /// persist [`SessionMachine::checkpoint`].
    Halted,
    /// Ran to normal termination; [`SessionMachine::take_result`] has the
    /// [`RunResult`].
    Done,
    /// A prior call returned an error; the machine cannot advance.
    Failed,
}

/// Mutable state threaded through the session loop (and captured by
/// checkpoints).
#[derive(Default)]
struct LiveState {
    master_seed: u64,
    iter_no: usize,
    stalled: usize,
    labeled: Vec<(usize, bool)>,
    unlabeled: Vec<usize>,
    eval_idx: Vec<usize>,
    iterations: Vec<IterationStats>,
}

/// Seed-draw bookkeeping (both the main sequential draw and the
/// single-class repair draw).
struct SeedState {
    pool: Vec<usize>,
    cursor: usize,
    seed_n: usize,
    labeled: Vec<(usize, bool)>,
    skipped: Vec<usize>,
    unlabeled: Vec<usize>,
    extra: usize,
    pending_example: usize,
    pool_rng: StdRng,
    eval_idx: Vec<usize>,
    span: Option<Span>,
}

/// An in-flight batch wave: answers are collected per chosen slot and the
/// wave is applied only when complete, in chosen order.
struct BatchState {
    chosen: Vec<usize>,
    answers: Vec<Option<OracleAnswer>>,
    outstanding: usize,
    rng: StdRng,
    iter_span: Option<Span>,
    oracle_span: Option<Span>,
}

enum Phase {
    Created,
    SeedMain(SeedState),
    SeedExtra(SeedState),
    Batch(BatchState),
    Halted,
    Done,
    Failed,
}

/// The active-learning session loop with answer delivery inverted: the
/// machine asks (via [`SessionMachine::pending`]) and the caller answers
/// (via [`SessionMachine::deliver`]). See the module docs for the
/// determinism and checkpointing contracts.
pub struct SessionMachine<S: Strategy> {
    strategy: S,
    strategy_name: String,
    params: LoopParams,
    config: SessionConfig,
    master_seed: u64,
    dataset: String,
    corpus_len: usize,
    corpus_fp: u64,
    st: LiveState,
    phase: Phase,
    boundary: Option<Checkpoint>,
    answers_applied: u64,
    next_id: u64,
    pending: Vec<QueryRequest>,
    ignored_answers: u64,
    warned_empty_selection: bool,
    /// Feature-cache counter values at the last emission, so the obs
    /// counters `feat.cache_hits`/`feat.cache_misses` carry per-iteration
    /// deltas rather than re-counting the corpus lifetime totals.
    feat_base: (u64, u64),
    result: Option<RunResult>,
}

impl<S: Strategy> SessionMachine<S> {
    /// Wrap `strategy` in an un-started machine. Call
    /// [`SessionMachine::start`] or [`SessionMachine::resume`] next.
    pub fn new(strategy: S, params: LoopParams, config: SessionConfig) -> Self {
        let strategy_name = strategy.name();
        SessionMachine {
            strategy,
            strategy_name,
            params,
            config,
            master_seed: 0,
            dataset: String::new(),
            corpus_len: 0,
            corpus_fp: 0,
            st: LiveState::default(),
            phase: Phase::Created,
            boundary: None,
            answers_applied: 0,
            next_id: 0,
            pending: Vec::new(),
            ignored_answers: 0,
            warned_empty_selection: false,
            feat_base: (0, 0),
            result: None,
        }
    }

    /// Begin a fresh session with `seed`. On success the machine is either
    /// awaiting seed answers, or already `Done`/`Halted` for degenerate
    /// inputs. Errors leave the machine `Failed`.
    pub fn start(&mut self, corpus: &Corpus, seed: u64) -> Result<(), AlemError> {
        let r = self.start_inner(corpus, seed);
        if r.is_err() {
            self.fail();
        }
        r
    }

    /// Rehydrate from a checkpoint taken on the *same* corpus (length,
    /// content fingerprint, and dataset-independent identity are all
    /// verified) with the same strategy. The checkpointed [`LoopParams`]
    /// replace the machine's. Errors leave the machine `Failed`.
    ///
    /// Note the machine does not own an oracle: callers replaying a
    /// positional oracle stream must fast-forward it by
    /// `checkpoint.oracle_queries` themselves.
    pub fn resume(&mut self, corpus: &Corpus, checkpoint: Checkpoint) -> Result<(), AlemError> {
        let r = self.resume_inner(corpus, checkpoint);
        if r.is_err() {
            self.fail();
        }
        r
    }

    /// Deliver one oracle answer for `example`. Answers for examples not
    /// currently pending (duplicates, stale retransmissions) are ignored
    /// and counted in [`SessionMachine::ignored_answers`]. Errors leave
    /// the machine `Failed`.
    pub fn deliver(
        &mut self,
        corpus: &Corpus,
        example: usize,
        answer: OracleAnswer,
    ) -> Result<(), AlemError> {
        let r = self.deliver_inner(corpus, example, answer);
        if r.is_err() {
            self.fail();
        }
        r
    }

    /// Current externally visible state.
    pub fn state(&self) -> MachineState {
        match self.phase {
            Phase::Created => MachineState::Created,
            Phase::SeedMain(_) | Phase::SeedExtra(_) | Phase::Batch(_) => {
                MachineState::AwaitingAnswers
            }
            Phase::Halted => MachineState::Halted,
            Phase::Done => MachineState::Done,
            Phase::Failed => MachineState::Failed,
        }
    }

    /// The queries the machine is waiting on (empty unless
    /// [`MachineState::AwaitingAnswers`]).
    pub fn pending(&self) -> &[QueryRequest] {
        &self.pending
    }

    /// Iteration number of the most recent boundary snapshot, if the main
    /// loop has been entered.
    pub fn boundary_iter(&self) -> Option<usize> {
        self.boundary.as_ref().map(|c| c.iter_no)
    }

    /// Snapshot of the last iteration boundary (None during the seed
    /// phase). `oracle_queries` counts answers *applied* by this machine;
    /// callers pumping a positional `QueryOracle` should overwrite it with
    /// the oracle's own count before persisting.
    pub fn checkpoint(&self) -> Option<Checkpoint> {
        self.boundary.clone()
    }

    /// The completed run, once. `None` before `Done` (or after taken).
    pub fn take_result(&mut self) -> Option<RunResult> {
        self.result.take()
    }

    /// Labels consumed so far.
    pub fn labels_used(&self) -> usize {
        match &self.phase {
            Phase::SeedMain(s) | Phase::SeedExtra(s) => s.labeled.len(),
            _ => self.st.labeled.len(),
        }
    }

    /// Iterations fully recorded so far.
    pub fn iterations_done(&self) -> usize {
        self.st.iterations.len()
    }

    /// Answers that were ignored because no matching query was pending
    /// (duplicates, replays after resume, unknown examples).
    pub fn ignored_answers(&self) -> u64 {
        self.ignored_answers
    }

    fn fail(&mut self) {
        self.phase = Phase::Failed;
        self.pending.clear();
    }

    fn ask(&mut self, examples: &[usize]) {
        self.pending = examples
            .iter()
            .map(|&example| {
                let id = self.next_id;
                self.next_id += 1;
                QueryRequest { id, example }
            })
            .collect();
    }

    fn start_inner(&mut self, corpus: &Corpus, seed: u64) -> Result<(), AlemError> {
        if !matches!(self.phase, Phase::Created) {
            return Err(AlemError::InvalidConfig(
                "session machine already started".into(),
            ));
        }
        validate_params(&self.params)?;
        if corpus.is_empty() {
            return Err(AlemError::DegenerateLabels("corpus has no pairs".into()));
        }
        if self.params.seed_size > self.params.max_labels {
            return Err(AlemError::BudgetExhausted {
                used: self.params.seed_size,
                budget: self.params.max_labels,
            });
        }
        self.bind_corpus(corpus, seed);

        // One sub-RNG per setup concern, forked from slot 0 in a fixed
        // order, so the eval split cannot perturb the seed draw (see the
        // blocking loop's rationale in the parent module).
        let mut setup_rng = derive_rng(seed, 0);
        let mut eval_rng = StdRng::seed_from_u64(setup_rng.gen());
        let mut pool_rng = StdRng::seed_from_u64(setup_rng.gen());
        let span = self.config.obs.span("seed");

        let (mut pool, eval_idx): (Vec<usize>, Vec<usize>) = match self.params.eval {
            EvalMode::Progressive => ((0..corpus.len()).collect(), (0..corpus.len()).collect()),
            EvalMode::Holdout { test_frac } => corpus.split_holdout(test_frac, &mut eval_rng),
        };
        pool.sort_unstable();
        pool.shuffle(&mut pool_rng);
        let seed_n = self.params.seed_size.min(pool.len());
        let state = SeedState {
            pool,
            cursor: 0,
            seed_n,
            labeled: Vec::with_capacity(seed_n),
            skipped: Vec::new(),
            unlabeled: Vec::new(),
            extra: 0,
            pending_example: 0,
            pool_rng,
            eval_idx,
            span: Some(span),
        };
        self.advance_seed_main(corpus, state)
    }

    fn bind_corpus(&mut self, corpus: &Corpus, seed: u64) {
        self.master_seed = seed;
        self.dataset = corpus.name().to_owned();
        self.corpus_len = corpus.len();
        self.corpus_fp = corpus.content_fingerprint();
        self.feat_base = corpus.feature_cache_stats();
        self.strategy.set_parallelism(self.config.parallelism);
        self.config
            .obs
            .gauge_set("par.threads", self.config.parallelism.threads() as u64);
    }

    /// Emit the feature-cache hit/miss deltas accumulated since the last
    /// emission as `feat.cache_hits` / `feat.cache_misses`.
    fn emit_feat_cache(&mut self, corpus: &Corpus) {
        let (hits, misses) = corpus.feature_cache_stats();
        let (h0, m0) = self.feat_base;
        self.config
            .obs
            .counter_add("feat.cache_hits", hits.saturating_sub(h0));
        self.config
            .obs
            .counter_add("feat.cache_misses", misses.saturating_sub(m0));
        self.feat_base = (hits, misses);
    }

    fn resume_inner(&mut self, corpus: &Corpus, ckpt: Checkpoint) -> Result<(), AlemError> {
        if !matches!(self.phase, Phase::Created) {
            return Err(AlemError::InvalidConfig(
                "session machine already started".into(),
            ));
        }
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(AlemError::CheckpointCorrupt(format!(
                "version {} (this build reads {CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        if ckpt.corpus_len != corpus.len() {
            return Err(AlemError::CheckpointCorrupt(format!(
                "checkpoint was taken on a corpus of {} pairs, this one has {}",
                ckpt.corpus_len,
                corpus.len()
            )));
        }
        let fp = corpus.content_fingerprint();
        if ckpt.corpus_fingerprint != fp {
            return Err(AlemError::CheckpointCorrupt(format!(
                "checkpoint corpus fingerprint {:016x} does not match this corpus ({fp:016x}); \
                 same length, different contents",
                ckpt.corpus_fingerprint
            )));
        }
        if ckpt.strategy != self.strategy_name {
            return Err(AlemError::InvalidConfig(format!(
                "checkpoint was taken with strategy '{}', learner runs '{}'",
                ckpt.strategy, self.strategy_name
            )));
        }
        validate_params(&ckpt.params)?;
        self.params = ckpt.params.clone();
        self.bind_corpus(corpus, ckpt.master_seed);
        self.answers_applied = ckpt.oracle_queries;
        // Restore incremental-training state before the first fit, so a
        // resumed warm session continues bit-identically instead of
        // falling back to a cold refit.
        if let Some(warm) = ckpt.warm.clone() {
            self.strategy.restore_warm_state(warm);
        }
        self.st = LiveState {
            master_seed: ckpt.master_seed,
            iter_no: ckpt.iter_no,
            stalled: ckpt.stalled,
            labeled: ckpt.labeled,
            unlabeled: ckpt.unlabeled,
            eval_idx: ckpt.eval_idx,
            iterations: ckpt.iterations,
        };
        self.begin_iteration(corpus)
    }

    fn deliver_inner(
        &mut self,
        corpus: &Corpus,
        example: usize,
        answer: OracleAnswer,
    ) -> Result<(), AlemError> {
        match std::mem::replace(&mut self.phase, Phase::Failed) {
            Phase::SeedMain(mut s) => {
                if s.pending_example != example || self.pending.is_empty() {
                    self.ignored_answers += 1;
                    self.phase = Phase::SeedMain(s);
                    return Ok(());
                }
                self.pending.clear();
                self.answers_applied += 1;
                match answer {
                    OracleAnswer::Label(b) => s.labeled.push((example, b)),
                    OracleAnswer::Abstain => s.skipped.push(example),
                }
                self.advance_seed_main(corpus, s)
            }
            Phase::SeedExtra(mut s) => {
                if s.pending_example != example || self.pending.is_empty() {
                    self.ignored_answers += 1;
                    self.phase = Phase::SeedExtra(s);
                    return Ok(());
                }
                self.pending.clear();
                self.answers_applied += 1;
                match answer {
                    OracleAnswer::Label(b) => s.labeled.push((example, b)),
                    OracleAnswer::Abstain => s.unlabeled.push(example),
                }
                self.advance_seed_extra(corpus, s)
            }
            Phase::Batch(mut b) => {
                let slot = b
                    .chosen
                    .iter()
                    .enumerate()
                    .find(|&(p, &c)| c == example && b.answers[p].is_none())
                    .map(|(p, _)| p);
                let Some(p) = slot else {
                    self.ignored_answers += 1;
                    self.phase = Phase::Batch(b);
                    return Ok(());
                };
                b.answers[p] = Some(answer);
                b.outstanding -= 1;
                self.answers_applied += 1;
                if let Some(pos) = self.pending.iter().position(|q| q.example == example) {
                    self.pending.remove(pos);
                }
                if b.outstanding == 0 {
                    self.complete_batch(corpus, b)
                } else {
                    self.phase = Phase::Batch(b);
                    Ok(())
                }
            }
            other => {
                // Delivery against a settled machine (Done/Halted/Failed
                // or never started): ignore, preserve the phase.
                self.ignored_answers += 1;
                self.phase = other;
                Ok(())
            }
        }
    }

    /// Emit the next sequential seed query, or finish the main seed draw.
    fn advance_seed_main(&mut self, corpus: &Corpus, mut s: SeedState) -> Result<(), AlemError> {
        if s.labeled.len() < s.seed_n && s.cursor < s.pool.len() {
            let i = s.pool[s.cursor];
            s.cursor += 1;
            s.pending_example = i;
            self.ask(&[i]);
            self.phase = Phase::SeedMain(s);
            return Ok(());
        }
        let mut unlabeled = std::mem::take(&mut s.skipped);
        unlabeled.extend(s.pool.drain(s.cursor..));
        s.unlabeled = unlabeled;
        if s.labeled.is_empty() {
            return Err(AlemError::DegenerateLabels(
                "no seed labels: the oracle abstained on every seed example".into(),
            ));
        }
        self.advance_seed_extra(corpus, s)
    }

    /// Draw extra random labels while the seed is single-class (bounded by
    /// one extra seed's worth), then enter the main loop.
    fn advance_seed_extra(&mut self, corpus: &Corpus, mut s: SeedState) -> Result<(), AlemError> {
        if one_class(&s.labeled)
            && s.extra < s.seed_n
            && !s.unlabeled.is_empty()
            && s.labeled.len() < self.params.max_labels
        {
            let j = s.pool_rng.gen_range(0..s.unlabeled.len());
            let i = s.unlabeled.swap_remove(j);
            s.extra += 1;
            s.pending_example = i;
            self.ask(&[i]);
            self.phase = Phase::SeedExtra(s);
            return Ok(());
        }
        if s.extra > 0 {
            eprintln!(
                "alem: single-class seed; drew {} extra random label(s) ({})",
                s.extra,
                if one_class(&s.labeled) {
                    "still one class — proceeding"
                } else {
                    "now two classes"
                }
            );
        }
        if corpus.sanitized_features() > 0 {
            eprintln!(
                "alem: corpus '{}' had {} non-finite feature value(s) sanitized to 0",
                corpus.name(),
                corpus.sanitized_features()
            );
        }
        if let Some(span) = s.span.take() {
            span.finish();
        }
        self.st = LiveState {
            master_seed: self.master_seed,
            iter_no: 0,
            stalled: 0,
            labeled: s.labeled,
            unlabeled: s.unlabeled,
            eval_idx: s.eval_idx,
            iterations: Vec::new(),
        };
        self.begin_iteration(corpus)
    }

    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            master_seed: self.st.master_seed,
            iter_no: self.st.iter_no,
            stalled: self.st.stalled,
            labeled: self.st.labeled.clone(),
            unlabeled: self.st.unlabeled.clone(),
            eval_idx: self.st.eval_idx.clone(),
            iterations: self.st.iterations.clone(),
            oracle_queries: self.answers_applied,
            params: self.params.clone(),
            strategy: self.strategy_name.clone(),
            dataset: self.dataset.clone(),
            corpus_len: self.corpus_len,
            corpus_fingerprint: self.corpus_fp,
            warm: self.strategy.warm_state(),
        }
    }

    /// Run one iteration up to (and including) batch selection: snapshot
    /// the boundary, honor `halt_after`, train, evaluate, check
    /// termination, select, and emit the batch wave.
    fn begin_iteration(&mut self, corpus: &Corpus) -> Result<(), AlemError> {
        let obs = self.config.obs.clone();
        let k = self.st.iter_no;
        obs.set_iter(k as u64);
        let iter_span = obs.span("iteration");
        obs.counter_add(
            "par.chunks",
            self.config.parallelism.chunk_count(self.st.unlabeled.len()) as u64,
        );
        self.boundary = Some(self.snapshot());

        if self.config.halt_after == Some(k) && k > 0 {
            self.phase = Phase::Halted;
            return Ok(());
        }

        let mut rng = derive_rng(self.st.master_seed, k as u64 + 1);

        // Train on the cumulative labeled data.
        let train_span = obs.span("train");
        self.strategy.fit(corpus, &self.st.labeled, &mut rng)?;
        let train_time = train_span.finish();
        if let Some(warm) = self.strategy.warm_state() {
            obs.gauge_set("train.warm_rounds", warm.rounds());
        }

        // Evaluate against ground truth.
        let eval_span = obs.span("eval");
        let confusion = confusion_over(
            |i| self.strategy.predict(corpus, i),
            |i| corpus.truth(i),
            &self.st.eval_idx,
        );
        eval_span.finish();
        let mut stats = iteration_stats(
            k,
            self.st.labeled.len(),
            &confusion,
            train_time,
            std::time::Duration::ZERO,
            std::time::Duration::ZERO,
        );
        let extra = self.strategy.stats();
        stats.atoms = extra.atoms;
        stats.depth = extra.depth;
        stats.accepted_models = extra.accepted_models;
        stats.pruned = extra.pruned;

        // Termination checks before selecting more labels.
        let reached_target = self.params.stop_at_f1.is_some_and(|t| stats.f1 >= t);
        let out_of_budget = self.st.labeled.len() + self.params.batch_size > self.params.max_labels;
        if reached_target
            || out_of_budget
            || self.st.unlabeled.is_empty()
            || self.strategy.terminated()
        {
            self.st.iterations.push(stats);
            return self.finish();
        }

        // Select the next batch.
        let select_span = obs.span("select");
        let selection = self.strategy.select(
            corpus,
            &self.st.labeled,
            &self.st.unlabeled,
            self.params.batch_size,
            &mut rng,
            &obs,
        );
        select_span.finish();
        self.emit_feat_cache(corpus);
        stats.committee_secs = selection.committee_creation.as_secs_f64();
        stats.scoring_secs = selection.scoring.as_secs_f64();
        self.st.iterations.push(stats);

        let mut chosen = selection.chosen;
        if chosen.is_empty() {
            if self.strategy.terminated() {
                return self.finish(); // deliberate exhaustion (e.g. LFP/LFN ran dry)
            }
            // Graceful degradation: a selector that returns an empty
            // batch without terminating gets a random batch instead.
            if !self.warned_empty_selection {
                eprintln!(
                    "alem: selector returned an empty batch at iteration {k}; \
                     falling back to random sampling"
                );
                self.warned_empty_selection = true;
            }
            let mut candidates = self.st.unlabeled.clone();
            candidates.shuffle(&mut rng);
            candidates.truncate(self.params.batch_size);
            chosen = candidates;
            if chosen.is_empty() {
                return self.finish();
            }
        }

        let oracle_span = obs.span("oracle.query");
        self.ask(&chosen);
        let outstanding = chosen.len();
        self.phase = Phase::Batch(BatchState {
            answers: vec![None; outstanding],
            outstanding,
            chosen,
            rng,
            iter_span: Some(iter_span),
            oracle_span: Some(oracle_span),
        });
        Ok(())
    }

    /// Apply a fully answered wave in chosen order, then start the next
    /// iteration.
    fn complete_batch(&mut self, corpus: &Corpus, mut b: BatchState) -> Result<(), AlemError> {
        let obs = self.config.obs.clone();
        if let Some(span) = b.oracle_span.take() {
            span.finish();
        }
        let new: Vec<(usize, bool)> = b
            .chosen
            .iter()
            .zip(b.answers.iter())
            .filter_map(|(&i, a)| match a {
                Some(OracleAnswer::Label(l)) => Some((i, *l)),
                _ => None, // abstained: stays unlabeled, re-selectable
            })
            .collect();
        self.st
            .unlabeled
            .retain(|i| !new.iter().any(|&(j, _)| j == *i));
        if new.is_empty() {
            self.st.stalled += 1;
            if self.st.stalled > MAX_STALLED_ITERS {
                return Err(AlemError::Stalled {
                    iterations: self.st.stalled,
                });
            }
        } else {
            self.st.stalled = 0;
            self.st.labeled.extend(new.iter().copied());
            self.strategy.post_label(
                corpus,
                &new,
                &mut self.st.labeled,
                &mut self.st.unlabeled,
                &mut b.rng,
                &obs,
            );
        }
        obs.gauge_set("pool.unlabeled", self.st.unlabeled.len() as u64);
        if let Some(span) = b.iter_span.take() {
            span.finish();
        }
        self.st.iter_no += 1;
        self.begin_iteration(corpus)
    }

    fn finish(&mut self) -> Result<(), AlemError> {
        self.result = Some(RunResult {
            strategy: self.strategy.name(),
            dataset: self.dataset.clone(),
            iterations: self.st.iterations.clone(),
        });
        self.phase = Phase::Done;
        self.pending.clear();
        Ok(())
    }
}
