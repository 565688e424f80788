//! Fault-tolerant, checkpointable active-learning sessions.
//!
//! A session is [`crate::loop_::ActiveLearner::run`] with survival gear: it
//! validates its configuration up front ([`AlemError::InvalidConfig`]
//! instead of panics), rides out transient Oracle failures with a
//! [`RetryPolicy`], degrades gracefully around degenerate inputs
//! (single-class seeds, empty selector batches, non-finite features), and
//! can write a [`Checkpoint`] every N iterations so a killed run resumes
//! exactly where it stopped.
//!
//! # Determinism and resume
//!
//! Every iteration `k` draws from its own RNG, derived from the master
//! seed: `seed ⊕ φ·(k+1)`. Setup forks slot 0 into one sub-RNG per concern
//! (hold-out split, seed draw) so the evaluation mode cannot perturb the
//! selection stream. The checkpointed "RNG
//! state" is therefore just `(master_seed, iter_no)` — resuming
//! reconstructs iteration `k`'s generator bit-for-bit. For strategies that
//! refit from scratch each iteration (all of the paper's core strategies),
//! a resumed run's [`RunResult`] is identical to the uninterrupted run's
//! on every deterministic field (see
//! [`RunResult::deterministic_fingerprint`]); wall-clock timings naturally
//! differ. Strategies carrying mutable cross-iteration state (the active
//! ensemble, LFP/LFN caches) resume correctly but not bit-identically —
//! DESIGN.md documents the fault model in full.

mod machine;

pub use machine::{MachineState, QueryRequest, SessionMachine};

use crate::corpus::Corpus;
use crate::error::AlemError;
use crate::evaluator::{IterationStats, RunResult};
use crate::loop_::{ActiveLearner, EvalMode, LoopParams};
use crate::oracle::{QueryOracle, RetryPolicy};
use crate::strategy::Strategy;
use alem_obs::Registry;
use alem_par::Parallelism;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Format version written into checkpoints; loading any other version
/// fails with [`AlemError::CheckpointCorrupt`]. Version 2 added
/// `corpus_fingerprint` so a resume against a different corpus of the
/// same length is rejected instead of silently producing garbage.
/// Version 3 seals the checkpoint's JSON with a checksum of it (see
/// [`Checkpoint::encode`]), so a corrupted file that still parses is
/// rejected too.
pub const CHECKPOINT_VERSION: u32 = 3;

/// FNV-1a 64 of `bytes`: the checkpoint checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A checkpoint as [`Checkpoint::decode`] reads it: the checkpoint and
/// the checksum [`Checkpoint::encode`] sealed it with.
#[derive(Deserialize)]
struct Sealed {
    checksum: String,
    checkpoint: Checkpoint,
}

/// Derive the RNG for a session slot (0 = setup, k+1 = iteration k).
fn derive_rng(master_seed: u64, slot: u64) -> StdRng {
    StdRng::seed_from_u64(master_seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(slot + 1))
}

/// Session-level knobs layered on top of [`LoopParams`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Write a checkpoint every N iterations (`None` = never).
    pub checkpoint_every: Option<usize>,
    /// Where checkpoints go (required when `checkpoint_every` or
    /// `halt_after` is set).
    pub checkpoint_path: Option<PathBuf>,
    /// Retry policy for transient Oracle failures.
    pub retry: RetryPolicy,
    /// Simulate a kill: checkpoint and stop at the start of iteration N,
    /// returning [`AlemError::Halted`] (testing hook for the resume
    /// invariant; `None` = run to completion).
    pub halt_after: Option<usize>,
    /// Telemetry registry; defaults to [`Registry::disabled`]. Spans,
    /// counters, and gauges recorded here never feed back into the
    /// learner, so enabling it cannot change a run's
    /// [`RunResult::deterministic_fingerprint`].
    pub obs: Registry,
    /// Thread-count policy for the parallel hot paths (committee/forest
    /// training and pool scoring). Results are byte-identical for any
    /// value — chunk boundaries depend only on `(len, n_threads)` and
    /// per-member RNG seeds are pre-drawn — so this knob only trades
    /// wall-clock for cores. Defaults to [`Parallelism::auto`];
    /// [`Parallelism::sequential`] reproduces the single-threaded path.
    pub parallelism: Parallelism,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            checkpoint_every: None,
            checkpoint_path: None,
            retry: RetryPolicy::default(),
            halt_after: None,
            obs: Registry::disabled(),
            parallelism: Parallelism::default(),
        }
    }
}

/// Serializable snapshot of a session at an iteration boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Checkpoint format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The master seed the session was started with.
    pub master_seed: u64,
    /// Iteration about to run when the snapshot was taken.
    pub iter_no: usize,
    /// Consecutive zero-progress iterations at snapshot time.
    pub stalled: usize,
    /// Cumulative labeled examples (index, oracle label).
    pub labeled: Vec<(usize, bool)>,
    /// Remaining unlabeled pool indices.
    pub unlabeled: Vec<usize>,
    /// Evaluation set indices.
    pub eval_idx: Vec<usize>,
    /// Per-iteration statistics recorded so far.
    pub iterations: Vec<IterationStats>,
    /// Oracle queries consumed so far (replayed on resume via
    /// [`QueryOracle::fast_forward`]).
    pub oracle_queries: u64,
    /// Loop parameters in force (resume uses these, not the learner's).
    pub params: LoopParams,
    /// Strategy name — resuming under a different strategy is rejected.
    pub strategy: String,
    /// Dataset name.
    pub dataset: String,
    /// Corpus size — resuming on a different corpus is rejected.
    pub corpus_len: usize,
    /// [`Corpus::content_fingerprint`] of the corpus the session ran on —
    /// resuming on same-length-but-different contents is rejected.
    pub corpus_fingerprint: u64,
    /// Warm-training continuation state of the strategy at the snapshot
    /// boundary, when the strategy trains incrementally (see
    /// [`crate::model_io::WarmState`]). Absent in older checkpoints and
    /// for cold-only strategies — both deserialize to `None` and resume
    /// with an ordinary cold refit.
    #[serde(default)]
    pub warm: Option<crate::model_io::WarmState>,
}

impl Checkpoint {
    /// The checkpoint's serialized form: `{"checksum":"…","checkpoint":…}`,
    /// where `checkpoint` is the checkpoint's JSON and `checksum` the
    /// FNV-1a 64 of exactly that JSON text, as 16 hex digits.
    pub fn encode(&self) -> Result<String, AlemError> {
        let json = serde_json::to_string(self)
            .map_err(|e| AlemError::Io(format!("serializing checkpoint: {e}")))?;
        let checksum = fnv1a(json.as_bytes());
        Ok(format!(
            "{{\"checksum\":\"{checksum:016x}\",\"checkpoint\":{json}}}"
        ))
    }

    /// Read what [`Checkpoint::encode`] wrote. Fails with
    /// [`AlemError::CheckpointCorrupt`] when the text does not parse, its
    /// version is not [`CHECKPOINT_VERSION`], or its checksum is not that
    /// of the checkpoint it holds. The checksum is taken again over the
    /// parsed checkpoint's own JSON, so a changed byte passes only if it
    /// leaves every value as it was.
    pub fn decode(text: &str) -> Result<Self, AlemError> {
        let sealed: Sealed =
            serde_json::from_str(text).map_err(|e| AlemError::CheckpointCorrupt(e.to_string()))?;
        let ckpt = sealed.checkpoint;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(AlemError::CheckpointCorrupt(format!(
                "version {} (this build reads {CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        let json = serde_json::to_string(&ckpt)
            .map_err(|e| AlemError::CheckpointCorrupt(e.to_string()))?;
        let checksum = format!("{:016x}", fnv1a(json.as_bytes()));
        if sealed.checksum != checksum {
            return Err(AlemError::CheckpointCorrupt(format!(
                "checksum {:?} does not match the content's {checksum}",
                sealed.checksum
            )));
        }
        Ok(ckpt)
    }

    /// Atomically write the checkpoint to `path` (temp file + rename, so a
    /// kill mid-write never leaves a truncated checkpoint behind).
    pub fn save(&self, path: &Path) -> Result<(), AlemError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode()?)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load and validate a checkpoint from `path`.
    ///
    /// A stale `.tmp` sibling (left behind when a process died between
    /// [`Checkpoint::save`]'s write and rename) is removed best-effort:
    /// its contents are possibly truncated and the rename never happened,
    /// so the durable file at `path` is always the authoritative snapshot.
    pub fn load(path: &Path) -> Result<Self, AlemError> {
        let tmp = path.with_extension("tmp");
        if tmp.exists() {
            std::fs::remove_file(&tmp).ok();
        }
        let text = std::fs::read_to_string(path)?;
        Checkpoint::decode(&text).map_err(|e| match e {
            AlemError::CheckpointCorrupt(msg) => {
                AlemError::CheckpointCorrupt(format!("{}: {msg}", path.display()))
            }
            other => other,
        })
    }
}

fn validate_params(params: &LoopParams) -> Result<(), AlemError> {
    if params.seed_size == 0 {
        return Err(AlemError::InvalidConfig(
            "seed_size must be at least 1".into(),
        ));
    }
    if params.batch_size == 0 {
        return Err(AlemError::InvalidConfig(
            "batch_size must be at least 1".into(),
        ));
    }
    if params.max_labels == 0 {
        return Err(AlemError::InvalidConfig(
            "max_labels must be at least 1".into(),
        ));
    }
    if let EvalMode::Holdout { test_frac } = params.eval {
        if !(0.0..1.0).contains(&test_frac) {
            return Err(AlemError::InvalidConfig(format!(
                "holdout test_frac must be in [0, 1), got {test_frac}"
            )));
        }
    }
    if let Some(t) = params.stop_at_f1 {
        if !(0.0..=1.0).contains(&t) {
            return Err(AlemError::InvalidConfig(format!(
                "stop_at_f1 must be in [0, 1], got {t}"
            )));
        }
    }
    Ok(())
}

fn one_class(labeled: &[(usize, bool)]) -> bool {
    labeled.iter().all(|&(_, b)| b) || labeled.iter().all(|&(_, b)| !b)
}

impl<S: Strategy> ActiveLearner<S> {
    /// Run a fault-tolerant session from scratch. Like
    /// [`ActiveLearner::run`] but with checkpointing, retries, and the
    /// simulated-kill hook of `config`.
    pub fn run_session(
        &mut self,
        corpus: &Corpus,
        oracle: &dyn QueryOracle,
        seed: u64,
        config: &SessionConfig,
    ) -> Result<RunResult, AlemError> {
        let mut machine =
            SessionMachine::new(&mut self.strategy, self.params.clone(), config.clone());
        machine.start(corpus, seed)?;
        pump(machine, corpus, oracle, config)
    }

    /// Resume a checkpointed session. The Oracle is fast-forwarded past
    /// the queries the interrupted run consumed, and the loop continues
    /// from the checkpointed iteration under the checkpointed parameters.
    pub fn resume_session(
        &mut self,
        corpus: &Corpus,
        oracle: &dyn QueryOracle,
        checkpoint: Checkpoint,
        config: &SessionConfig,
    ) -> Result<RunResult, AlemError> {
        let consumed = checkpoint.oracle_queries;
        let mut machine =
            SessionMachine::new(&mut self.strategy, self.params.clone(), config.clone());
        // Validation (version, corpus length + fingerprint, strategy,
        // params) happens inside resume; only fast-forward the oracle once
        // the checkpoint is accepted.
        machine.resume(corpus, checkpoint)?;
        oracle.fast_forward(consumed);
        pump(machine, corpus, oracle, config)
    }
}

/// Drive a [`SessionMachine`] to completion against a blocking
/// [`QueryOracle`], answering every pending query in order through the
/// session's [`RetryPolicy`] and handling the machine's boundary side
/// effects (periodic checkpoints, `halt_after`). Fresh runs and resumes
/// both land here, so the blocking API is a thin pump over the same state
/// machine `alem-serve` drives over the wire. The machine validates its
/// own inputs; the one check left to the pump is that the oracle can
/// label every corpus example.
fn pump<S: Strategy>(
    mut machine: SessionMachine<S>,
    corpus: &Corpus,
    oracle: &dyn QueryOracle,
    config: &SessionConfig,
) -> Result<RunResult, AlemError> {
    if oracle.universe() < corpus.len() {
        return Err(AlemError::InvalidConfig(format!(
            "oracle covers {} examples but the corpus has {}",
            oracle.universe(),
            corpus.len()
        )));
    }
    let mut written: Option<usize> = None;
    loop {
        // Boundary side effects first: the machine snapshots the
        // pre-iteration state before training, and no oracle queries can
        // be in flight at that point, so `oracle.queries()` still equals
        // its value at the boundary.
        let halted = machine.state() == MachineState::Halted;
        if let Some(k) = machine.boundary_iter() {
            let due = config
                .checkpoint_every
                .is_some_and(|every| every > 0 && k > 0 && k.is_multiple_of(every));
            if (due && written != Some(k)) || halted {
                let path = config.checkpoint_path.as_ref().ok_or_else(|| {
                    AlemError::InvalidConfig(
                        "checkpointing requested but no checkpoint_path set".into(),
                    )
                })?;
                let Some(mut ckpt) = machine.checkpoint() else {
                    return Err(AlemError::InvalidConfig(
                        "internal: boundary without a checkpoint snapshot".into(),
                    ));
                };
                ckpt.oracle_queries = oracle.queries();
                let ckpt_span = config.obs.span("checkpoint.write");
                ckpt.save(path)?;
                ckpt_span.finish();
                written = Some(k);
                if halted {
                    return Err(AlemError::Halted { iteration: k });
                }
            }
        }
        match machine.state() {
            MachineState::Done => {
                return machine.take_result().ok_or_else(|| {
                    AlemError::InvalidConfig("internal: completed session has no result".into())
                });
            }
            MachineState::AwaitingAnswers => {
                let wave: Vec<usize> = machine.pending().iter().map(|q| q.example).collect();
                for i in wave {
                    let answer = config.retry.query_observed(oracle, i, &config.obs)?;
                    machine.deliver(corpus, i, answer)?;
                }
            }
            _ => {
                return Err(AlemError::InvalidConfig(
                    "internal: session machine made no progress".into(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::SvmTrainer;
    use crate::oracle::{AbstainingOracle, Oracle, OracleAnswer, TransientOracle};
    use crate::strategy::{MarginSvmStrategy, TreeQbcStrategy};
    use std::time::Duration;

    fn corpus(n: usize) -> Corpus {
        let feats: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, (i % 13) as f64 / 13.0])
            .collect();
        let truth: Vec<bool> = (0..n).map(|i| i >= 3 * n / 4).collect();
        Corpus::from_features(feats, truth).unwrap()
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

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("alem-session-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let ckpt = Checkpoint {
            version: CHECKPOINT_VERSION,
            master_seed: 42,
            iter_no: 3,
            stalled: 1,
            labeled: vec![(0, true), (5, false)],
            unlabeled: vec![1, 2, 3],
            eval_idx: vec![0, 1, 2, 3, 4, 5],
            iterations: vec![],
            oracle_queries: 2,
            params: LoopParams::default(),
            strategy: "Linear-Margin".into(),
            dataset: "toy".into(),
            corpus_len: 6,
            corpus_fingerprint: 0xdead_beef_0123_4567,
            warm: None,
        };
        let path = tmp_path("roundtrip");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let path = tmp_path("corrupt");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(AlemError::CheckpointCorrupt(_))
        ));
        std::fs::write(&path, "{\"version\": 999}").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(AlemError::CheckpointCorrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_checksum_catches_a_changed_value() {
        let c = corpus(40);
        let mut machine = SessionMachine::new(
            MarginSvmStrategy::new(SvmTrainer::default()),
            params(),
            SessionConfig::default(),
        );
        machine.start(&c, 5).unwrap();
        answer_until(&mut machine, &c, Some(1)).unwrap();
        let ckpt = machine.checkpoint().expect("boundary reached");
        let text = ckpt.encode().unwrap();
        assert_eq!(Checkpoint::decode(&text).unwrap(), ckpt);
        // Another master seed, still valid JSON of a valid checkpoint.
        let seed = format!("\"master_seed\":{}", ckpt.master_seed);
        let reseeded = text.replacen(&seed, "\"master_seed\":6", 1);
        assert_ne!(reseeded, text);
        // A checksum of another checkpoint.
        let other = Checkpoint {
            master_seed: 6,
            ..ckpt.clone()
        };
        let resealed = format!("{}{}", &other.encode().unwrap()[..32], &text[32..]);
        assert_ne!(resealed, text);
        for bad in [reseeded, resealed, serde_json::to_string(&ckpt).unwrap()] {
            assert!(
                matches!(
                    Checkpoint::decode(&bad),
                    Err(AlemError::CheckpointCorrupt(_))
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn halt_and_resume_matches_uninterrupted_run() {
        let c = corpus(300);

        let full = {
            let oracle = Oracle::perfect(c.truths().to_vec());
            let mut al =
                ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
            al.run(&c, &oracle, 17).unwrap()
        };
        assert!(
            full.iterations.len() > 4,
            "need a few iterations to halt mid-run"
        );

        let path = tmp_path("halt-resume");
        let halted_cfg = SessionConfig {
            checkpoint_path: Some(path.clone()),
            halt_after: Some(3),
            ..SessionConfig::default()
        };
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        assert_eq!(
            al.run_session(&c, &oracle, 17, &halted_cfg).unwrap_err(),
            AlemError::Halted { iteration: 3 }
        );

        // A fresh learner + fresh oracle resumes from the checkpoint.
        let ckpt = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt.iterations.len(), 3);
        let oracle2 = Oracle::perfect(c.truths().to_vec());
        let mut al2 = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        let resumed = al2
            .resume_session(&c, &oracle2, ckpt, &SessionConfig::default())
            .unwrap();

        assert_eq!(
            resumed.deterministic_fingerprint(),
            full.deterministic_fingerprint()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_lazy_halt_and_resume_matches_uninterrupted_run() {
        // Warm-started Pegasos + lazy two-phase selection: the checkpoint
        // carries the optimizer continuation, so a halt/resume run must
        // fingerprint-match the uninterrupted one bit for bit.
        let c = corpus(300).with_bounded_features();
        let fresh = || {
            MarginSvmStrategy::builder()
                .warm_start()
                .lazy_topk(1)
                .build()
        };

        let full = {
            let oracle = Oracle::perfect(c.truths().to_vec());
            let mut al = ActiveLearner::new(fresh(), params());
            al.run(&c, &oracle, 17).unwrap()
        };

        let path = tmp_path("warm-halt-resume");
        let halted_cfg = SessionConfig {
            checkpoint_path: Some(path.clone()),
            halt_after: Some(3),
            ..SessionConfig::default()
        };
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(fresh(), params());
        assert!(matches!(
            al.run_session(&c, &oracle, 17, &halted_cfg),
            Err(AlemError::Halted { .. })
        ));

        let ckpt = Checkpoint::load(&path).unwrap();
        assert!(ckpt.warm.is_some(), "warm strategy must checkpoint state");
        let oracle2 = Oracle::perfect(c.truths().to_vec());
        let mut al2 = ActiveLearner::new(fresh(), params());
        let resumed = al2
            .resume_session(&c, &oracle2, ckpt, &SessionConfig::default())
            .unwrap();
        assert_eq!(
            resumed.deterministic_fingerprint(),
            full.deterministic_fingerprint()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_corpus_and_strategy() {
        let c = corpus(100);
        let ckpt = Checkpoint {
            version: CHECKPOINT_VERSION,
            master_seed: 1,
            iter_no: 1,
            stalled: 0,
            labeled: vec![(0, false)],
            unlabeled: vec![1, 2],
            eval_idx: vec![0, 1, 2],
            iterations: vec![],
            oracle_queries: 1,
            params: params(),
            strategy: "Linear-Margin(AllDim)".into(),
            dataset: "toy".into(),
            corpus_len: 999, // wrong
            corpus_fingerprint: c.content_fingerprint(),
            warm: None,
        };
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        assert!(matches!(
            al.resume_session(&c, &oracle, ckpt.clone(), &SessionConfig::default()),
            Err(AlemError::CheckpointCorrupt(_))
        ));

        // Same length, different contents: the fingerprint catches what
        // `corpus_len` cannot.
        let mut wrong_content = ckpt.clone();
        wrong_content.corpus_len = 100;
        wrong_content.corpus_fingerprint ^= 1;
        assert!(matches!(
            al.resume_session(&c, &oracle, wrong_content, &SessionConfig::default()),
            Err(AlemError::CheckpointCorrupt(_))
        ));

        let mut wrong_strategy = ckpt;
        wrong_strategy.corpus_len = 100;
        wrong_strategy.strategy = "SomethingElse".into();
        assert!(matches!(
            al.resume_session(&c, &oracle, wrong_strategy, &SessionConfig::default()),
            Err(AlemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_params_error_instead_of_panicking() {
        let c = corpus(50);
        let oracle = Oracle::perfect(c.truths().to_vec());
        let bad = LoopParams {
            batch_size: 0,
            ..params()
        };
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), bad);
        assert!(matches!(
            al.run(&c, &oracle, 1),
            Err(AlemError::InvalidConfig(_))
        ));

        let over_budget = LoopParams {
            seed_size: 80,
            max_labels: 40,
            ..params()
        };
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), over_budget);
        assert!(matches!(
            al.run(&c, &oracle, 1),
            Err(AlemError::BudgetExhausted {
                used: 80,
                budget: 40
            })
        ));
    }

    #[test]
    fn small_oracle_is_rejected() {
        let c = corpus(50);
        let oracle = Oracle::perfect(vec![true; 10]); // covers too little
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        assert!(matches!(
            al.run(&c, &oracle, 1),
            Err(AlemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn resume_with_a_short_oracle_is_rejected() {
        let c = corpus(300);
        let path = tmp_path("short-oracle-resume");
        let halted_cfg = SessionConfig {
            checkpoint_path: Some(path.clone()),
            halt_after: Some(3),
            ..SessionConfig::default()
        };
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        assert!(matches!(
            al.run_session(&c, &oracle, 17, &halted_cfg),
            Err(AlemError::Halted { iteration: 3 })
        ));

        let ckpt = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let short = Oracle::perfect(vec![true; 10]); // covers too little
        let mut al2 = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        assert!(matches!(
            al2.resume_session(&c, &short, ckpt, &SessionConfig::default()),
            Err(AlemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn transient_failures_with_retry_complete_the_budget() {
        let c = corpus(300);
        // 20% failure rate, 5 attempts: P(5 consecutive failures) = 0.032%
        // per query — the full budget completes with near certainty.
        let oracle = TransientOracle::new(Oracle::perfect(c.truths().to_vec()), 0.2, 71).unwrap();
        let cfg = SessionConfig {
            retry: RetryPolicy {
                max_attempts: 5,
                base_delay: Duration::from_micros(10),
                multiplier: 2.0,
                max_delay: Duration::from_micros(100),
            },
            ..SessionConfig::default()
        };
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        let run = al.run_session(&c, &oracle, 13, &cfg).unwrap();
        assert_eq!(run.total_labels(), 120, "full budget despite 20% failures");
        assert!(oracle.failures() > 0, "fault injection actually fired");
    }

    #[test]
    fn exhausted_retries_surface_as_oracle_unavailable() {
        let c = corpus(100);
        let oracle = TransientOracle::new(Oracle::perfect(c.truths().to_vec()), 0.0, 1).unwrap();
        oracle.script_failures(3);
        let cfg = SessionConfig {
            retry: RetryPolicy::none(),
            ..SessionConfig::default()
        };
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        match al.run_session(&c, &oracle, 5, &cfg) {
            Err(AlemError::OracleUnavailable { attempts: 1, .. }) => {}
            other => panic!("expected OracleUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn abstentions_leave_examples_reselectable() {
        let c = corpus(300);
        let oracle = AbstainingOracle::new(Oracle::perfect(c.truths().to_vec()), 0.3, 21).unwrap();
        let mut al = ActiveLearner::new(TreeQbcStrategy::new(5), params());
        let run = al
            .run_session(&c, &oracle, 29, &SessionConfig::default())
            .unwrap();
        assert!(oracle.abstentions() > 0, "abstentions actually fired");
        // Labels still accumulate despite abstentions.
        assert!(run.total_labels() > 20, "labels: {}", run.total_labels());
    }

    #[test]
    fn telemetry_is_determinism_neutral() {
        let c = corpus(300);
        let plain = {
            let oracle = Oracle::perfect(c.truths().to_vec());
            let mut al = ActiveLearner::new(TreeQbcStrategy::new(5), params());
            al.run_session(&c, &oracle, 41, &SessionConfig::default())
                .unwrap()
        };

        let obs = Registry::enabled();
        let cfg = SessionConfig {
            obs: obs.clone(),
            ..SessionConfig::default()
        };
        let observed = {
            let oracle = Oracle::perfect(c.truths().to_vec());
            let mut al = ActiveLearner::new(TreeQbcStrategy::new(5), params());
            al.run_session(&c, &oracle, 41, &cfg).unwrap()
        };
        assert_eq!(
            plain.deterministic_fingerprint(),
            observed.deterministic_fingerprint(),
            "enabling telemetry changed the run"
        );

        // The enabled registry really recorded the whole loop.
        let names: std::collections::BTreeSet<&str> = obs.events().iter().map(|e| e.name).collect();
        for want in [
            "seed",
            "iteration",
            "train",
            "eval",
            "select",
            "select.score",
            "oracle.query",
        ] {
            assert!(names.contains(want), "missing span {want} in {names:?}");
        }
        assert!(obs.counter_value("oracle.labels") > 0);
        // The parallel layer reports its shape even when sequential.
        assert!(names.contains("par.threads"), "missing gauge par.threads");
        assert!(obs.counter_value("par.chunks") > 0);
    }

    #[test]
    fn eval_mode_does_not_perturb_query_stream() {
        use std::sync::Mutex;

        /// Records the exact index sequence sent to the Oracle.
        struct RecordingOracle {
            inner: Oracle,
            order: Mutex<Vec<usize>>,
        }
        impl QueryOracle for RecordingOracle {
            fn try_label(&self, i: usize) -> Result<OracleAnswer, AlemError> {
                self.order.lock().unwrap().push(i);
                self.inner.try_label(i)
            }
            fn queries(&self) -> u64 {
                self.inner.queries()
            }
            fn universe(&self) -> usize {
                self.inner.universe()
            }
            fn fast_forward(&self, n: u64) {
                self.inner.fast_forward(n)
            }
        }

        let c = corpus(300);
        let run = |eval: EvalMode| -> Vec<usize> {
            let oracle = RecordingOracle {
                inner: Oracle::perfect(c.truths().to_vec()),
                order: Mutex::new(Vec::new()),
            };
            let p = LoopParams { eval, ..params() };
            let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), p);
            al.run_session(&c, &oracle, 31, &SessionConfig::default())
                .unwrap();
            oracle.order.into_inner().unwrap()
        };

        // A hold-out split that holds nothing out leaves the same pool as
        // progressive mode; with per-concern setup RNGs the *entire* query
        // stream — seed draw and every selection — must be identical.
        // (Before the fix, the split's shuffles advanced the shared setup
        // RNG and the two modes diverged from the first seed query on.)
        let progressive = run(EvalMode::Progressive);
        let holdout = run(EvalMode::Holdout { test_frac: 0.0 });
        assert_eq!(progressive, holdout);
    }

    #[test]
    fn parallelism_setting_keeps_fingerprint() {
        let c = corpus(300);
        let run = |par: Parallelism| {
            let oracle = Oracle::perfect(c.truths().to_vec());
            let cfg = SessionConfig {
                parallelism: par,
                ..SessionConfig::default()
            };
            let mut al = ActiveLearner::new(TreeQbcStrategy::new(5), params());
            al.run_session(&c, &oracle, 47, &cfg).unwrap()
        };
        let seq = run(Parallelism::sequential());
        for t in [2, 4] {
            assert_eq!(
                seq.deterministic_fingerprint(),
                run(Parallelism::fixed(t)).deterministic_fingerprint(),
                "threads={t}"
            );
        }
    }

    #[test]
    fn resume_with_telemetry_keeps_fingerprint() {
        let c = corpus(300);
        let full = {
            let oracle = Oracle::perfect(c.truths().to_vec());
            let mut al =
                ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
            al.run(&c, &oracle, 17).unwrap()
        };

        let path = tmp_path("telemetry-resume");
        let halted_cfg = SessionConfig {
            checkpoint_path: Some(path.clone()),
            halt_after: Some(3),
            obs: Registry::enabled(),
            ..SessionConfig::default()
        };
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        assert!(matches!(
            al.run_session(&c, &oracle, 17, &halted_cfg),
            Err(AlemError::Halted { iteration: 3 })
        ));

        let resume_cfg = SessionConfig {
            obs: Registry::enabled(),
            ..SessionConfig::default()
        };
        let ckpt = Checkpoint::load(&path).unwrap();
        let oracle2 = Oracle::perfect(c.truths().to_vec());
        let mut al2 = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        let resumed = al2.resume_session(&c, &oracle2, ckpt, &resume_cfg).unwrap();
        assert_eq!(
            resumed.deterministic_fingerprint(),
            full.deterministic_fingerprint()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn periodic_checkpoints_are_written() {
        let c = corpus(300);
        let path = tmp_path("periodic");
        let cfg = SessionConfig {
            checkpoint_every: Some(2),
            checkpoint_path: Some(path.clone()),
            ..SessionConfig::default()
        };
        let oracle = Oracle::perfect(c.truths().to_vec());
        let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
        al.run_session(&c, &oracle, 23, &cfg).unwrap();
        let ckpt = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt.version, CHECKPOINT_VERSION);
        assert!(ckpt.iter_no >= 2);
        assert_eq!(ckpt.corpus_len, 300);
        assert_eq!(ckpt.corpus_fingerprint, c.content_fingerprint());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_tmp_sibling_is_removed_on_load() {
        let ckpt = Checkpoint {
            version: CHECKPOINT_VERSION,
            master_seed: 7,
            iter_no: 1,
            stalled: 0,
            labeled: vec![(0, true)],
            unlabeled: vec![1],
            eval_idx: vec![0, 1],
            iterations: vec![],
            oracle_queries: 1,
            params: LoopParams::default(),
            strategy: "Linear-Margin".into(),
            dataset: "toy".into(),
            corpus_len: 2,
            corpus_fingerprint: 9,
            warm: None,
        };
        let path = tmp_path("stale-tmp");
        ckpt.save(&path).unwrap();
        // Simulate a kill between write and rename: a truncated .tmp
        // sibling next to a good checkpoint.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, "{\"version\": 2, \"truncat").unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt, "durable file is authoritative");
        assert!(!tmp.exists(), "stale .tmp should be cleaned up");
        std::fs::remove_file(&path).ok();
    }

    /// Drive the `SessionMachine` by hand, delivering each batch wave in
    /// reverse arrival order with duplicated and bogus answers thrown in.
    /// The fingerprint must equal the blocking run's: answer *values*
    /// matter, delivery order and duplication must not.
    #[test]
    fn machine_is_invariant_to_answer_delivery_order() {
        let c = corpus(300);
        let blocking = {
            let oracle = Oracle::perfect(c.truths().to_vec());
            let mut al = ActiveLearner::new(TreeQbcStrategy::new(5), params());
            al.run(&c, &oracle, 53).unwrap()
        };

        let mut machine =
            SessionMachine::new(TreeQbcStrategy::new(5), params(), SessionConfig::default());
        machine.start(&c, 53).unwrap();
        let mut waves = 0usize;
        while machine.state() == MachineState::AwaitingAnswers {
            let mut wave: Vec<usize> = machine.pending().iter().map(|q| q.example).collect();
            wave.reverse();
            waves += 1;
            // An answer for an example nobody asked about must be ignored.
            machine
                .deliver(&c, usize::MAX, OracleAnswer::Label(true))
                .unwrap();
            let n = wave.len();
            for (pos, i) in wave.into_iter().enumerate() {
                machine
                    .deliver(&c, i, OracleAnswer::Label(c.truth(i)))
                    .unwrap();
                // Mid-wave duplicates (with a contradicting label!) must be
                // ignored; after the last answer the machine has already
                // advanced, so a duplicate there could hit the next wave.
                if pos + 1 < n {
                    machine
                        .deliver(&c, i, OracleAnswer::Label(!c.truth(i)))
                        .unwrap();
                }
            }
        }
        assert_eq!(machine.state(), MachineState::Done);
        assert!(machine.ignored_answers() > 0, "duplicates actually fired");
        assert!(waves > 2, "expected several waves, got {waves}");
        let run = machine.take_result().unwrap();
        assert_eq!(
            run.deterministic_fingerprint(),
            blocking.deterministic_fingerprint(),
            "delivery order changed the run"
        );
    }

    /// Answer every pending query with the truth until the machine leaves
    /// `AwaitingAnswers` or reaches iteration boundary `stop`.
    fn answer_until<S: crate::strategy::Strategy>(
        machine: &mut SessionMachine<S>,
        c: &Corpus,
        stop: Option<usize>,
    ) -> Result<(), AlemError> {
        while machine.state() == MachineState::AwaitingAnswers
            && (stop.is_none() || machine.boundary_iter() != stop)
        {
            let wave: Vec<usize> = machine.pending().iter().map(|q| q.example).collect();
            for i in wave {
                machine.deliver(c, i, OracleAnswer::Label(c.truth(i)))?;
            }
        }
        Ok(())
    }

    fn warm_margin() -> MarginSvmStrategy {
        MarginSvmStrategy::builder().warm_start().build()
    }

    /// A corpus, the encoded checkpoint of a warm margin session on it,
    /// taken at the third iteration boundary so its bytes hold a
    /// `WarmState`, and the fingerprint of that session run to the end
    /// without a break.
    fn warm_checkpoint() -> &'static (Corpus, String, String) {
        static TARGET: std::sync::OnceLock<(Corpus, String, String)> = std::sync::OnceLock::new();
        TARGET.get_or_init(|| {
            let c = corpus(120);
            let mut machine =
                SessionMachine::new(warm_margin(), params(), SessionConfig::default());
            machine.start(&c, 61).unwrap();
            answer_until(&mut machine, &c, Some(3)).unwrap();
            let ckpt = machine.checkpoint().expect("boundary reached");
            assert!(ckpt.warm.is_some(), "a warm session checkpoints its state");
            let text = ckpt.encode().unwrap();
            answer_until(&mut machine, &c, None).unwrap();
            let fingerprint = machine.take_result().unwrap().deterministic_fingerprint();
            (c, text, fingerprint)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]
        /// One byte of a valid checkpoint replaced, or the checkpoint cut
        /// short: the bytes fail to decode, or resuming on them gives `Ok`
        /// or a structured error, and so does every answer after it. It
        /// never panics, and a session that resumes and finishes finishes
        /// as the session that was never broken off.
        #[test]
        fn mutated_checkpoints_resume_or_fail_without_panicking(
            at in 0..1_000_000usize,
            byte in 0..=255u8,
            cut in 0..8u8,
        ) {
            let (c, text, uninterrupted) = warm_checkpoint();
            let mut bytes = text.clone().into_bytes();
            let at = at % bytes.len();
            if cut == 0 {
                bytes.truncate(at);
            } else {
                bytes[at] = byte;
            }
            let decoded = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| Checkpoint::decode(text).ok());
            if let Some(ckpt) = decoded {
                let mut machine =
                    SessionMachine::new(warm_margin(), params(), SessionConfig::default());
                if machine.resume(c, ckpt).is_ok()
                    && answer_until(&mut machine, c, None).is_ok()
                    && machine.state() == MachineState::Done
                {
                    let run = machine.take_result().unwrap();
                    proptest::prop_assert_eq!(&run.deterministic_fingerprint(), uninterrupted);
                }
            }
        }
    }

    /// Checkpoint the machine at a boundary, rebuild a fresh machine from
    /// that checkpoint, and finish: fingerprint must match the
    /// uninterrupted blocking run.
    #[test]
    fn machine_checkpoint_rehydrates_bit_identically() {
        let c = corpus(300);
        let full = {
            let oracle = Oracle::perfect(c.truths().to_vec());
            let mut al =
                ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params());
            al.run(&c, &oracle, 61).unwrap()
        };

        let mut machine = SessionMachine::new(
            MarginSvmStrategy::new(SvmTrainer::default()),
            params(),
            SessionConfig::default(),
        );
        machine.start(&c, 61).unwrap();
        // Answer waves until the third iteration boundary, then snapshot.
        answer_until(&mut machine, &c, Some(3)).unwrap();
        let ckpt = machine.checkpoint().expect("boundary reached");
        assert_eq!(ckpt.iter_no, 3);
        drop(machine);

        let mut resumed = SessionMachine::new(
            MarginSvmStrategy::new(SvmTrainer::default()),
            params(),
            SessionConfig::default(),
        );
        resumed.resume(&c, ckpt).unwrap();
        answer_until(&mut resumed, &c, None).unwrap();
        assert_eq!(resumed.state(), MachineState::Done);
        let run = resumed.take_result().unwrap();
        assert_eq!(
            run.deterministic_fingerprint(),
            full.deterministic_fingerprint()
        );
    }
}
