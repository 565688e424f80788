//! The qbc-cora workload, in process: datagen Cora tables → `alem-block`
//! candidates → eager corpus → a `SessionMachine` session, a closed loop
//! whose labeler answers every question at once from `AnswerKey::perfect`.
//!
//! A run times set-up (block, build the corpus, start a session) a few
//! times, then runs two sessions with different seeds on the last corpus,
//! each repeated, in turn. Repeats of a session run the same computation
//! (same corpus, same seed), so each must reproduce its first
//! fingerprint; the wait percentiles are taken over the raw waits of
//! every repeat, so they average over the host's changes in speed during
//! the run.

use crate::mix64;
use crate::report::{self, Layers, Metric, Ops};
use alem_block::TokenIndex;
use alem_core::candidates::CandidateSource;
use alem_core::corpus::Corpus;
use alem_core::error::AlemError;
use alem_core::learner::SvmTrainer;
use alem_core::loop_::{EvalMode, LoopParams};
use alem_core::oracle::AnswerKey;
use alem_core::schema::{EmDataset, Pair};
use alem_core::selector::Selection;
use alem_core::session::{MachineState, SessionConfig, SessionMachine};
use alem_core::strategy::{QbcStrategy, Strategy, StrategyStats};
use alem_obs::Registry;
use alem_par::Parallelism;
use datagen::PaperDataset;
use rand::rngs::StdRng;
use std::cell::Cell;
use std::time::{Duration, Instant};

pub const NAME: &str = "qbc-cora";
/// Why it was chosen: which layers it loads and which it bypasses.
pub const WHY: &str = "eager featurize of the widest schema in set-up, QBC committee plus \
                       whole-pool scoring in the wait; bypasses lazy rows, the wire and checkpoints";
const DATASET: PaperDataset = PaperDataset::Cora;
const SCALE: f64 = 0.2;
/// Set-up samples per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Distinct sessions per run (57 waits each): a run's waits and its
/// `best_f1` come from two query sequences rather than one.
const SESSIONS: usize = 2;
/// Seconds one set-up and one session take on the host this was tuned
/// on. A run holds `SETUPS` set-ups and as many repeats of its sessions
/// as fill `--seconds` at these speeds (at least `MIN_REPEATS`), whatever
/// the host's speed, so a faster program finishes sooner rather than
/// doing more.
const SETUP_S: f64 = 2.8;
const SESSION_S: f64 = 3.7;
const MIN_REPEATS: usize = 2;

/// Progressive F1 over all pairs, 600 labels in batches of 10.
fn params() -> LoopParams {
    LoopParams::builder()
        .seed_size(30)
        .batch_size(10)
        .max_labels(600)
        .eval(EvalMode::Progressive)
        .run_to_exhaustion()
        .build()
}

/// QBC with a committee of 10 SVMs.
fn strategy() -> QbcStrategy<SvmTrainer> {
    QbcStrategy::builder(SvmTrainer::default())
        .committee_size(10)
        .build()
}

/// Per-layer clocks filled by the delegating strategy and source.
#[derive(Default)]
struct Clock {
    block: Cell<Duration>,
    candidates: Cell<u64>,
    fit: Cell<Duration>,
    fit_calls: Cell<u64>,
    select: Cell<Duration>,
    pool_rows: Cell<u64>,
    eval: Cell<Duration>,
    predicts: Cell<u64>,
    /// End of the last fit: evaluation runs from there until `select`
    /// starts (or the wait ends, on the last iteration).
    eval_from: Cell<Option<Instant>>,
}

fn add(cell: &Cell<Duration>, d: Duration) {
    cell.set(cell.get() + d);
}

fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

impl Clock {
    fn close_eval(&self, now: Instant) {
        if let Some(from) = self.eval_from.take() {
            add(&self.eval, now - from);
        }
    }
}

/// A candidate source that times the wrapped one: stream time minus the
/// time spent in the consumer's sink is the block layer's self time.
struct TimedSource<'a> {
    inner: &'a dyn CandidateSource,
    clock: &'a Clock,
}

impl CandidateSource for TimedSource<'_> {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn size_hint(&self, ds: &EmDataset) -> (usize, Option<usize>) {
        self.inner.size_hint(ds)
    }

    fn stream(
        &self,
        ds: &EmDataset,
        sink: &mut dyn FnMut(&[Pair]) -> Result<(), AlemError>,
    ) -> Result<(), AlemError> {
        let start = Instant::now();
        let mut in_sink = Duration::ZERO;
        let mut pairs = 0u64;
        let r = self.inner.stream(ds, &mut |chunk| {
            let t = Instant::now();
            pairs += chunk.len() as u64;
            let r = sink(chunk);
            in_sink += t.elapsed();
            r
        });
        add(&self.clock.block, start.elapsed().saturating_sub(in_sink));
        bump(&self.clock.candidates, pairs);
        r
    }
}

/// A strategy that times `fit`, `select` and the evaluation between them
/// and counts `predict` calls, delegating everything to the wrapped one.
struct Timed<'a, S> {
    inner: S,
    clock: &'a Clock,
}

impl<S: Strategy> Strategy for Timed<'_, S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fit(
        &mut self,
        corpus: &Corpus,
        labeled: &[(usize, bool)],
        rng: &mut StdRng,
    ) -> Result<(), AlemError> {
        let start = Instant::now();
        let r = self.inner.fit(corpus, labeled, rng);
        let end = Instant::now();
        add(&self.clock.fit, end - start);
        bump(&self.clock.fit_calls, 1);
        self.clock.eval_from.set(Some(end));
        r
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
        let start = Instant::now();
        self.clock.close_eval(start);
        bump(&self.clock.pool_rows, unlabeled.len() as u64);
        let s = self
            .inner
            .select(corpus, labeled, unlabeled, batch, rng, obs);
        add(&self.clock.select, start.elapsed());
        s
    }

    fn score_pool(&self, corpus: &Corpus, unlabeled: &[usize]) -> Result<Vec<f64>, AlemError> {
        self.inner.score_pool(corpus, unlabeled)
    }

    fn set_parallelism(&mut self, par: Parallelism) {
        self.inner.set_parallelism(par)
    }

    fn predict(&self, corpus: &Corpus, i: usize) -> bool {
        bump(&self.clock.predicts, 1);
        self.inner.predict(corpus, i)
    }

    fn stats(&self) -> StrategyStats {
        self.inner.stats()
    }

    fn terminated(&self) -> bool {
        self.inner.terminated()
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
        self.inner
            .post_label(corpus, new, labeled, unlabeled, rng, obs)
    }

    fn saved_model(&self) -> Option<alem_core::model_io::SavedModel> {
        self.inner.saved_model()
    }

    fn warm_state(&self) -> Option<alem_core::model_io::WarmState> {
        self.inner.warm_state()
    }

    fn restore_warm_state(&mut self, warm: alem_core::model_io::WarmState) {
        self.inner.restore_warm_state(warm)
    }
}

/// One finished session.
struct SessionOut {
    /// One sample per wave that starts an iteration, in ms.
    waits_ms: Vec<f64>,
    /// The last answer's time, ms: it completes the last iteration and
    /// starts no wave, so it is not a wait.
    end_ms: f64,
    /// First question pending → last answer applied.
    loop_time: Duration,
    answers: u64,
    fingerprint: String,
    best_f1: f64,
    /// Budget check: labels used leave no room for another batch.
    reached_budget: bool,
    committee_s: f64,
    score_s: f64,
}

/// What one set-up measured.
struct Setup {
    /// Tables handed over → first question pending.
    time: Duration,
    /// Blocking plus the corpus build.
    build: Duration,
    /// VmRSS growth over the corpus build.
    rss_growth_mb: f64,
    candidates: usize,
    dim: usize,
    /// Share of the tables' true matches among the candidates.
    recall: f64,
}

/// Session `s` of workload seed `seed`.
fn session_seed(seed: u64, s: usize) -> u64 {
    mix64(seed ^ mix64(0x5e55_1000 + s as u64))
}

/// Generation seed of the tables. Like the paper's public datasets (and
/// the bench crate's `DATA_SEED`), the workload's tables are fixed; the
/// workload seed varies the sessions run on them.
const DATA_SEED: u64 = 20_200_614;

/// The generated tables and their blocking threshold.
fn tables() -> (EmDataset, f64) {
    let cfg = DATASET.config(SCALE);
    (datagen::generate(&cfg, DATA_SEED), cfg.blocking_threshold)
}

fn token_index(threshold: f64, par: Parallelism) -> TokenIndex {
    TokenIndex::builder()
        .threshold(threshold)
        .parallelism(par)
        .build()
}

fn machine<S: Strategy>(strategy: S, par: Parallelism) -> SessionMachine<S> {
    let config = SessionConfig {
        parallelism: par,
        ..SessionConfig::default()
    };
    SessionMachine::new(strategy, params(), config)
}

/// Time one set-up: blocking, the corpus build and the start of session
/// 0 of `seed`, until its first question is pending; with a clock,
/// blocking runs through the timing source. Returns the corpus too.
fn setup(
    ds: &EmDataset,
    threshold: f64,
    seed: u64,
    par: Parallelism,
    clock: Option<&Clock>,
) -> Result<(Setup, Corpus), AlemError> {
    let rss0 = report::status_mb("self", "VmRSS");
    let start = Instant::now();
    let index = token_index(threshold, par);
    let timed;
    let source: &dyn CandidateSource = match clock {
        Some(clock) => {
            timed = TimedSource {
                inner: &index,
                clock,
            };
            &timed
        }
        None => &index,
    };
    let (corpus, _fx) = Corpus::from_candidates_with(ds, source, &par)?;
    let build = start.elapsed();
    let rss_growth_mb = report::status_mb("self", "VmRSS") - rss0;
    machine(strategy(), par).start(&corpus, session_seed(seed, 0))?;
    let time = start.elapsed();
    let setup = Setup {
        time,
        build,
        rss_growth_mb,
        candidates: corpus.len(),
        dim: corpus.dim(),
        recall: corpus.truths().iter().filter(|&&t| t).count() as f64
            / ds.matches.len().max(1) as f64,
    };
    Ok((setup, corpus))
}

/// Drive one session to the end of its budget.
fn session<S: Strategy>(
    strategy: S,
    corpus: &Corpus,
    par: Parallelism,
    seed: u64,
    clock: &Clock,
) -> Result<SessionOut, AlemError> {
    let mut machine = machine(strategy, par);
    machine.start(corpus, seed)?;
    let started = Instant::now();
    let key = AnswerKey::perfect(seed);
    let mut waits_ms = Vec::new();
    let mut end_ms = 0.0;
    let mut answers = 0;
    while machine.state() == MachineState::AwaitingAnswers {
        let wave: Vec<usize> = machine.pending().iter().map(|q| q.example).collect();
        for example in wave {
            let before = machine.iterations_done();
            let answer = key.answer(example, corpus.truth(example));
            let t = Instant::now();
            machine.deliver(corpus, example, answer)?;
            let end = Instant::now();
            answers += 1;
            if machine.iterations_done() > before {
                clock.close_eval(end);
                // The labeler waits for a next batch; the answer that
                // ends the session starts none.
                if machine.state() == MachineState::AwaitingAnswers {
                    waits_ms.push(report::ms(end - t));
                } else {
                    end_ms = report::ms(end - t);
                }
            }
        }
    }
    let loop_time = started.elapsed();
    let labels = machine.labels_used();
    let result = machine
        .take_result()
        .ok_or_else(|| AlemError::InvalidConfig(format!("session ended {:?}", machine.state())))?;
    let params = params();
    Ok(SessionOut {
        waits_ms,
        end_ms,
        loop_time,
        answers,
        fingerprint: result.deterministic_fingerprint(),
        best_f1: result.best_f1(),
        reached_budget: labels + params.batch_size > params.max_labels,
        committee_s: result.iterations.iter().map(|s| s.committee_secs).sum(),
        score_s: result.iterations.iter().map(|s| s.scoring_secs).sum(),
    })
}

/// Repeats of each session in a run of `seconds`.
fn repeats(seconds: f64) -> usize {
    let left = seconds - SETUPS as f64 * SETUP_S;
    ((left / (SESSIONS as f64 * SESSION_S)).round().max(0.0) as usize).max(MIN_REPEATS)
}

/// The traced pass: one set-up and session 0, through the timing
/// wrappers.
struct Traced {
    setup: Setup,
    session: SessionOut,
    clock: Clock,
    /// Feature rows the corpus holds at the session's end.
    rows: usize,
}

/// Everything one invocation measured.
#[derive(Default)]
struct Run {
    setups: Vec<Setup>,
    /// `repeats[r][s]`: repeat `r` of session `s`.
    repeats: Vec<Vec<SessionOut>>,
    traced: Option<Traced>,
}

/// Fill `run`: the set-ups, then the sessions' repeats in turn on the
/// last set-up's corpus, then, when `trace` is set, a traced set-up and
/// session 0 on its corpus. Stops at the first error.
fn fill(
    run: &mut Run,
    seed: u64,
    seconds: f64,
    trace: bool,
    par: Parallelism,
) -> Result<(), String> {
    let (ds, threshold) = tables();
    let mut corpus = None;
    for k in 0..SETUPS {
        // Free the previous corpus first: one corpus at a time.
        drop(corpus.take());
        let (s, c) =
            setup(&ds, threshold, seed, par, None).map_err(|e| format!("set-up {k}: {e}"))?;
        run.setups.push(s);
        corpus = Some(c);
    }
    let corpus = corpus.ok_or("no set-up ran")?;
    for r in 0..repeats(seconds) {
        let mut sessions = Vec::with_capacity(SESSIONS);
        for s in 0..SESSIONS {
            let out = session(
                strategy(),
                &corpus,
                par,
                session_seed(seed, s),
                &Clock::default(),
            )
            .map_err(|e| format!("session {s} repeat {r}: {e}"))?;
            sessions.push(out);
        }
        run.repeats.push(sessions);
    }
    if trace {
        drop(corpus);
        let clock = Clock::default();
        let (setup, corpus) = setup(&ds, threshold, seed, par, Some(&clock))
            .map_err(|e| format!("traced set-up: {e}"))?;
        let timed = Timed {
            inner: strategy(),
            clock: &clock,
        };
        let session = session(timed, &corpus, par, session_seed(seed, 0), &clock)
            .map_err(|e| format!("traced session: {e}"))?;
        run.traced = Some(Traced {
            setup,
            session,
            clock,
            rows: corpus.store().materialized_rows(),
        });
    }
    Ok(())
}

/// Run the workload and check its outputs. A session error ends the run
/// as one failed operation. Returns the end-to-end metrics, or with
/// `trace` the per-layer metrics of the traced pass.
pub fn measure(
    seed: u64,
    seconds: f64,
    trace: bool,
    par: Parallelism,
    ops: &mut Ops,
) -> Vec<Metric> {
    let mut run = Run::default();
    if let Err(e) = fill(&mut run, seed, seconds, trace, par) {
        ops.attempted += 1;
        ops.fail(e);
    }
    let metrics = finish(&run, ops);
    if trace {
        run.traced
            .as_ref()
            .map_or_else(Vec::new, |t| layers(t, &run).metrics())
    } else {
        metrics
    }
}

/// Per-layer totals of the traced pass; the answer rate and the baseline
/// of the overhead come from the untraced run.
fn layers(t: &Traced, run: &Run) -> Layers {
    let clock = &t.clock;
    let secs = |c: &Cell<Duration>| c.get().as_secs_f64();
    let wall = (t.setup.time + t.session.loop_time).as_secs_f64();
    let untraced = || run.repeats.iter().flat_map(|r| r.iter());
    let setups: Vec<f64> = run.setups.iter().map(|s| s.time.as_secs_f64()).collect();
    let loops0: Vec<f64> = run
        .repeats
        .iter()
        .filter_map(|r| r.first())
        .map(|s| s.loop_time.as_secs_f64())
        .collect();
    let answers: u64 = untraced().map(|s| s.answers).sum();
    let loop_s: f64 = untraced().map(|s| s.loop_time.as_secs_f64()).sum();
    let waits = &t.session.waits_ms;
    let mut l = Layers {
        block_s: secs(&clock.block),
        block_candidates: clock.candidates.get(),
        block_recall: t.setup.recall,
        featurize_s: t.setup.build.as_secs_f64() - secs(&clock.block),
        featurize_rows: t.rows as u64,
        // The first set-up ran in a fresh process.
        featurize_rss_mb: run.setups.first().map_or(0.0, |s| s.rss_growth_mb),
        fit_s: secs(&clock.fit),
        fit_calls: clock.fit_calls.get(),
        select_s: secs(&clock.select),
        select_committee_s: t.session.committee_s,
        select_score_s: t.session.score_s,
        select_pool_rows: clock.pool_rows.get(),
        eval_s: secs(&clock.eval),
        eval_predicts: clock.predicts.get(),
        wait_s: (waits.iter().sum::<f64>() + t.session.end_ms) / 1e3,
        waits: waits.len() as u64,
        labels_per_s: (answers as f64 / loop_s, answers),
        overhead_frac: wall / (report::median(&setups) + report::median(&loops0)) - 1.0,
        ..Layers::default()
    };
    // Block and featurize self times plus the waits, which hold fit,
    // select, eval and the session's other work.
    l.attributed_frac = (l.block_s + l.featurize_s + l.wait_s) / wall;
    l
}

/// Check the run's outputs and compute its end-to-end metrics (none when
/// no session finished).
fn finish(run: &Run, ops: &mut Ops) -> Vec<Metric> {
    let (Some(first), Some(setup)) = (run.repeats.first(), run.setups.first()) else {
        return Vec::new();
    };
    let mut check = |out: &SessionOut, s: usize, what: &str| {
        ops.attempted += 1;
        if !out.reached_budget {
            ops.fail(format!("{what}: session stopped short of its label budget"));
        } else if out.fingerprint != first[s].fingerprint
            || out.waits_ms.len() != first[s].waits_ms.len()
        {
            ops.fail(format!("{what}: differs from the session's first repeat"));
        }
    };
    for (r, sessions) in run.repeats.iter().enumerate() {
        for (s, out) in sessions.iter().enumerate() {
            check(out, s, &format!("session {s} repeat {r}"));
        }
    }
    if let Some(t) = &run.traced {
        check(&t.session, 0, "traced session 0");
    }

    let setups: Vec<f64> = run.setups.iter().map(|s| s.time.as_secs_f64()).collect();
    let waits: Vec<f64> = run
        .repeats
        .iter()
        .flatten()
        .flat_map(|s| s.waits_ms.iter().copied())
        .collect();
    println!(
        "input {{\"workload\": \"{NAME}\", \"dataset\": {}, \"scale\": {SCALE}, \
         \"tables_seed\": {DATA_SEED}, \"candidates\": {}, \"dims\": {}, \"setups\": {}, \
         \"sessions\": {}, \"repeats\": {}, \"waits\": {}}}",
        report::json_str(DATASET.name()),
        setup.candidates,
        setup.dim,
        run.setups.len(),
        first.len(),
        run.repeats.len(),
        waits.len()
    );
    [
        Some(report::metric(
            "setup_s",
            report::median(&setups),
            "s",
            setups.len(),
        )),
        report::pct_metric("wait_p50_ms", &waits, 50.0),
        report::pct_metric("wait_p90_ms", &waits, 90.0),
        Some(report::metric(
            "peak_rss_mb",
            report::status_mb("self", "VmHWM"),
            "MB",
            1,
        )),
        Some(report::metric(
            "best_f1",
            first.iter().map(|s| s.best_f1).sum::<f64>() / first.len() as f64,
            "ratio",
            first.len(),
        )),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Self-test probe: one set-up and each session once for `seed`,
/// summarized as its input counts and a digest of the fingerprints.
pub fn probe(seed: u64, par: Parallelism) -> Result<(String, u64), String> {
    let (ds, threshold) = tables();
    let (setup, corpus) = setup(&ds, threshold, seed, par, None).map_err(|e| e.to_string())?;
    let sessions = (0..SESSIONS)
        .map(|s| {
            session(
                strategy(),
                &corpus,
                par,
                session_seed(seed, s),
                &Clock::default(),
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok((
        format!(
            "candidates={} dims={} waits={}",
            setup.candidates,
            setup.dim,
            sessions.iter().map(|s| s.waits_ms.len()).sum::<usize>()
        ),
        crate::digest(sessions.iter().map(|s| s.fingerprint.as_str())),
    ))
}
