//! The session fleet: registry, supervision, deadlines, admission
//! control, drain, and cold restart.
//!
//! # Supervision model
//!
//! Sessions are passive [`SessionMachine`]s driven by whichever connection
//! thread delivers the next request, serialized by a per-session
//! (non-poisoning) `parking_lot` mutex. Every call into a machine — and
//! therefore into strategy code — runs under `catch_unwind`: a panic is
//! converted into data (a `Poisoned` session state) for *that session only*,
//! counted in `serve.worker_panics`, and the fleet keeps serving. A
//! poisoned session's last durable checkpoint survives, so a fleet
//! restart re-hydrates it as live again — panic isolation now, crash
//! recovery later.
//!
//! # Deadlines
//!
//! Each pending query is stamped when its wave is emitted. The deadline
//! sweeper (a dedicated `alem_par::supervised` thread, see
//! [`crate::server`]) converts overdue queries into abstentions — the
//! same semantics as [`alem_core::oracle::AbstainingOracle`]: the example
//! stays unlabeled and re-selectable, the session keeps moving, and a
//! permanently silent labeler eventually ends the session through the
//! machine's stalled-iterations guard instead of hanging the fleet.
//!
//! # Backpressure
//!
//! Admission is bounded: past `max_sessions` live sessions, `open`
//! answers `busy` with a `retry_after_ms` hint sized from the
//! [`RetryPolicy`] the rest of the workspace already uses. Nothing queues
//! server-side; the client owns the retry schedule.
//!
//! # Finished sessions
//!
//! A finished session's result lives in its durable `<name>.done.json`.
//! Once the record is written, the session leaves the session map for a
//! map of finished names, which keeps no `Session` and no record: `poll`,
//! `answer` and `crash` read the record back from disk. So the memory, the
//! deadline sweep and the drain of a fleet do not grow with sessions
//! served. A restart lists the state directory once and registers every
//! session with a done record by name, without reading its files; the
//! checks a restart runs (meta, corpus fingerprint, done record, else
//! resume or replay) run at the first request that needs the record.
//! Until then `healthz` counts such a session as done. A session whose
//! record could not be written keeps it in memory.

use crate::dataset;
use crate::proto::{self, Request, Response};
use crate::store::{DoneRecord, SessionMeta, Store};
use alem_core::corpus::Corpus;
use alem_core::error::AlemError;
use alem_core::learner::SvmTrainer;
use alem_core::loop_::LoopParams;
use alem_core::oracle::{OracleAnswer, RetryPolicy};
use alem_core::session::{MachineState, SessionConfig, SessionMachine};
use alem_core::strategy::{
    MarginSvmStrategy, QbcStrategy, RandomStrategy, Strategy, TreeQbcStrategy,
};
use alem_obs::{FlightRecorder, Registry, Span};
use alem_par::Parallelism;
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counter families exported by the `metrics` op — both the structured
/// `counters` field and the Prometheus text exposition emit every family
/// listed here (as 0 when untouched), so scrape-side presence checks and
/// `validate_metrics.py --require` never depend on traffic having
/// happened. CI validates exactly this list.
pub const FLEET_COUNTERS: &[&str] = &[
    "serve.sessions_opened",
    "serve.sessions_completed",
    "serve.sessions_failed",
    "serve.sessions_resumed",
    "serve.frames_rejected",
    "serve.answers_applied",
    "serve.answers_ignored",
    "serve.answers_timeout",
    "serve.backpressure_rejects",
    "serve.worker_panics",
];

/// Wall-clock read, isolated so the determinism lint exemption is a
/// single audited site.
fn now() -> Instant {
    // alem-lint: allow(determinism-time) -- deadlines are wall-clock by nature; stamps never feed a RunResult
    Instant::now()
}

/// Build a strategy by wire name. The subset offered over the wire is
/// deliberately small and cheap-per-iteration — service sessions are many
/// and interactive, not one big batch sweep.
pub fn build_strategy(name: &str) -> Result<Box<dyn Strategy + Send>, AlemError> {
    Ok(match name {
        "margin" => Box::new(MarginSvmStrategy::new(SvmTrainer::default())),
        "trees10" => Box::new(TreeQbcStrategy::new(10)),
        "trees20" => Box::new(TreeQbcStrategy::new(20)),
        "qbc5" => Box::new(QbcStrategy::new(SvmTrainer::default(), 5)),
        "random" => Box::new(RandomStrategy::new(SvmTrainer::default(), "Random(SVM)")),
        other => {
            return Err(AlemError::InvalidConfig(format!(
                "unknown strategy '{other}' (margin/trees10/trees20/qbc5/random)"
            )))
        }
    })
}

/// Fleet-level knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Where metas/checkpoints/done records live.
    pub state_dir: PathBuf,
    /// Live-session admission bound; more opens get `busy`.
    pub max_sessions: usize,
    /// Answers older than this are swept into abstentions.
    pub answer_deadline: Duration,
    /// Checkpoint every N iteration boundaries (0 = only at drain).
    pub checkpoint_every: usize,
    /// Telemetry registry shared with the server loop.
    pub obs: Registry,
    /// Flight recorder over `obs`: feeds windowed admission hints and
    /// the post-mortem dumps written on worker panics and drain.
    pub flight: Option<FlightRecorder>,
    /// Abort mid-checkpoint-write on the N-th write (fault injection).
    pub chaos_die_at_checkpoint: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            state_dir: PathBuf::from("alem-serve-state"),
            max_sessions: 256,
            answer_deadline: Duration::from_secs(30),
            checkpoint_every: 3,
            obs: Registry::disabled(),
            flight: None,
            chaos_die_at_checkpoint: None,
        }
    }
}

type Machine = SessionMachine<Box<dyn Strategy + Send>>;

/// What a call into a machine under `catch_unwind` returned.
type Call = Result<Result<(), AlemError>, Box<dyn std::any::Any + Send>>;

enum SessState {
    Live(Box<Machine>, Arc<Corpus>),
    /// Finished; `on_disk` once the done record is durable, and the
    /// session then moves to the finished names.
    Done {
        record: DoneRecord,
        on_disk: bool,
    },
    Poisoned(String),
}

struct Session {
    name: String,
    state: SessState,
    /// (example, asked-at) for the current wave, for deadline sweeping.
    asked_at: Vec<(usize, Instant)>,
    /// Open span from wave emission to wave completion.
    wave_span: Option<Span>,
    /// Max request id of the current wave (changes exactly when a new
    /// wave is emitted — ids are monotonic and waves only shrink).
    wave_max_id: Option<u64>,
    /// Last iteration boundary checkpointed.
    last_ckpt: Option<usize>,
    /// Whether this incarnation was re-hydrated from disk.
    resumed: bool,
}

impl Session {
    fn new(name: &str, state: SessState, resumed: bool) -> Session {
        Session {
            name: name.to_string(),
            state,
            asked_at: Vec::new(),
            wave_span: None,
            wave_max_id: None,
            last_ckpt: None,
            resumed,
        }
    }

    /// Finished, with the result in its durable done record.
    fn on_disk(&self) -> bool {
        matches!(self.state, SessState::Done { on_disk: true, .. })
    }
}

/// A finished session whose result lives only in its done record.
struct Finished {
    /// The `resumed` flag its replies carry.
    resumed: bool,
    /// Whether the restore checks ran; a restart registers a finished
    /// session by name, and its first request runs them.
    checked: bool,
}

/// The session registry: every name is in exactly one of the two maps.
#[derive(Default)]
struct Sessions {
    /// Live and failed sessions, and finished ones whose done record
    /// could not be written.
    held: BTreeMap<String, Arc<Mutex<Session>>>,
    /// Finished sessions whose result is on disk.
    finished: BTreeMap<String, Finished>,
}

impl Sessions {
    fn contains(&self, name: &str) -> bool {
        self.held.contains_key(name) || self.finished.contains_key(name)
    }
}

/// What a session's files hold once the restore checks passed.
enum Restored {
    /// A readable done record.
    Done(DoneRecord),
    /// A machine resumed from the checkpoint, or replayed from the seed,
    /// and not yet settled.
    Started {
        machine: Box<Machine>,
        corpus: Arc<Corpus>,
        call: Call,
        from_ckpt: bool,
    },
}

/// The multi-session service core. All methods are callable from any
/// thread; per-session work is serialized by the session's own mutex.
pub struct Fleet {
    cfg: FleetConfig,
    store: Store,
    retry: RetryPolicy,
    corpora: Mutex<BTreeMap<String, Arc<Corpus>>>,
    sessions: Mutex<Sessions>,
    draining: AtomicBool,
    // State counts are tracked at transitions instead of by walking the
    // registry: transition sites hold the session's own lock, and taking
    // every session lock from there would self-deadlock.
    n_live: AtomicI64,
    n_done: AtomicI64,
    n_failed: AtomicI64,
}

impl Fleet {
    /// Create the fleet over `cfg.state_dir` (created if missing).
    pub fn new(cfg: FleetConfig) -> Result<Self, AlemError> {
        let store = Store::open(&cfg.state_dir, cfg.chaos_die_at_checkpoint)?;
        Ok(Fleet {
            store,
            retry: RetryPolicy::default(),
            corpora: Mutex::new(BTreeMap::new()),
            sessions: Mutex::new(Sessions::default()),
            draining: AtomicBool::new(false),
            n_live: AtomicI64::new(0),
            n_done: AtomicI64::new(0),
            n_failed: AtomicI64::new(0),
            cfg,
        })
    }

    /// The telemetry registry.
    pub fn obs(&self) -> &Registry {
        &self.cfg.obs
    }

    /// The flight recorder, when one is configured.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.cfg.flight.as_ref()
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Request a graceful drain (idempotent).
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn corpus(&self, spec: &str) -> Result<Arc<Corpus>, AlemError> {
        let mut cache = self.corpora.lock();
        if let Some(c) = cache.get(spec) {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(dataset::build(spec)?);
        cache.insert(spec.to_string(), Arc::clone(&c));
        Ok(c)
    }

    fn exists(&self, name: &str) -> bool {
        self.sessions.lock().contains(name)
    }

    /// The named session. A finished one is read back from disk into a
    /// fresh session first. That session is published already locked by
    /// this thread, so a request racing this one waits for the read
    /// instead of reading twice; no other thread can hold its lock, so
    /// taking the map lock under it cannot deadlock.
    fn find(&self, name: &str) -> Option<Arc<Mutex<Session>>> {
        {
            let sessions = self.sessions.lock();
            if let Some(sess) = sessions.held.get(name) {
                return Some(Arc::clone(sess));
            }
            if !sessions.finished.contains_key(name) {
                return None;
            }
        }
        // The state other requests see if this thread panics mid-read.
        let unread = SessState::Poisoned(format!("reading back '{name}' did not finish"));
        let slot = Arc::new(Mutex::new(Session::new(name, unread, true)));
        let mut s = slot.lock();
        let finished = {
            let mut sessions = self.sessions.lock();
            if let Some(sess) = sessions.held.get(name) {
                return Some(Arc::clone(sess));
            }
            let finished = sessions.finished.remove(name)?;
            sessions.held.insert(name.to_string(), Arc::clone(&slot));
            finished
        };
        *s = self.read_back(name, finished);
        drop(s);
        Some(slot)
    }

    /// A finished session rebuilt from disk: from its done record once
    /// the restore checks ran, else as a restart rebuilds it.
    fn read_back(&self, name: &str, finished: Finished) -> Session {
        if finished.checked {
            if let Some(record) = self.store.load_done(name) {
                let state = SessState::Done {
                    record,
                    on_disk: true,
                };
                return Session::new(name, state, finished.resumed);
            }
        }
        self.rehydrate(name, true)
    }

    /// Run `op` under the session's lock. If the session is then finished
    /// with its record on disk, move it to the finished names; the map
    /// lock is taken only after the session lock is released.
    fn with_locked<R>(&self, sess: &Arc<Mutex<Session>>, op: impl FnOnce(&mut Session) -> R) -> R {
        let mut s = sess.lock();
        let out = op(&mut s);
        self.unlock(sess, s);
        out
    }

    /// Release the lock `s` of `sess`, then retire the session as
    /// [`Fleet::with_locked`] does.
    fn unlock(&self, sess: &Arc<Mutex<Session>>, s: MutexGuard<'_, Session>) {
        let retire = s.on_disk().then(|| (s.name.clone(), s.resumed));
        drop(s);
        if let Some((name, resumed)) = retire {
            let mut sessions = self.sessions.lock();
            if sessions
                .held
                .get(&name)
                .is_some_and(|held| Arc::ptr_eq(held, sess))
            {
                sessions.held.remove(&name);
                let finished = Finished {
                    resumed,
                    checked: true,
                };
                sessions.finished.insert(name, finished);
            }
        }
    }

    /// Register a session no other thread can reach yet.
    fn place(&self, session: Session) {
        let mut sessions = self.sessions.lock();
        if session.on_disk() {
            let finished = Finished {
                resumed: session.resumed,
                checked: true,
            };
            sessions.finished.insert(session.name, finished);
        } else {
            sessions
                .held
                .insert(session.name.clone(), Arc::new(Mutex::new(session)));
        }
    }

    fn counts(&self) -> (u64, u64, u64) {
        (
            self.n_live.load(Ordering::SeqCst).max(0) as u64,
            self.n_done.load(Ordering::SeqCst).max(0) as u64,
            self.n_failed.load(Ordering::SeqCst).max(0) as u64,
        )
    }

    fn update_gauge(&self) {
        let (live, _, _) = self.counts();
        self.cfg.obs.gauge_set("serve.sessions_active", live);
    }

    fn note_live(&self) {
        self.n_live.fetch_add(1, Ordering::SeqCst);
        self.update_gauge();
    }

    fn note_done(&self) {
        self.n_live.fetch_sub(1, Ordering::SeqCst);
        self.n_done.fetch_add(1, Ordering::SeqCst);
        self.update_gauge();
    }

    fn note_failed(&self) {
        self.n_live.fetch_sub(1, Ordering::SeqCst);
        self.n_failed.fetch_add(1, Ordering::SeqCst);
        self.update_gauge();
    }

    /// Dispatch one parsed request. Never panics; never blocks beyond the
    /// named session's own lock. A request carrying a `trace_id` runs
    /// inside an [`alem_obs::trace_scope`], so every span and counter it
    /// records — dispatch, session machine, checkpoint writes — is
    /// stamped with the id; the response echoes it back.
    pub fn handle(&self, req: &Request) -> Response {
        if let Some(t) = req.trace_id.as_deref() {
            if !proto::valid_trace_id(t) {
                return Response::err(
                    proto::ERR_INVALID,
                    "bad trace_id (want 1..=128 printable ASCII bytes)",
                );
            }
        }
        let _trace = alem_obs::trace_scope(req.trace_id.as_deref());
        let mut response = match req.op.as_str() {
            "open" => self.on_open(req),
            "answer" => self.on_answer(req),
            "poll" => self.on_poll(req),
            "status" => self.on_status(),
            "healthz" => self.on_healthz(),
            "metrics" => self.on_metrics(),
            "crash" => self.on_crash(req),
            "drain" => {
                self.request_drain();
                Response::ok()
            }
            other => Response::err(proto::ERR_INVALID, format!("unknown op '{other}'")),
        };
        response.trace_id = req.trace_id.clone();
        response
    }

    fn on_open(&self, req: &Request) -> Response {
        if self.draining() {
            return Response::err(proto::ERR_DRAINING, "server is draining");
        }
        let Some(name) = req.session.as_deref() else {
            return Response::err(proto::ERR_INVALID, "open requires a session name");
        };
        if !proto::valid_session_name(name) {
            return Response::err(
                proto::ERR_INVALID,
                format!("bad session name '{name}' (want [A-Za-z0-9_-]{{1,64}})"),
            );
        }
        let (Some(spec), Some(seed), Some(strategy_name)) =
            (req.dataset.as_deref(), req.seed, req.strategy.as_deref())
        else {
            return Response::err(proto::ERR_INVALID, "open requires dataset, seed, strategy");
        };
        let taken = || {
            Response::err(
                proto::ERR_EXISTS,
                format!("session '{name}' already exists"),
            )
        };
        // A taken name is answered before admission control and the
        // dataset; the reservation below is what makes a name exclusive.
        if self.exists(name) {
            return taken();
        }
        let (live, _, _) = self.counts();
        if live as usize >= self.cfg.max_sessions {
            self.cfg.obs.counter_add("serve.backpressure_rejects", 1);
            let backoff = self
                .windowed_retry_ms()
                .unwrap_or_else(|| self.retry.delay_for(1).as_millis() as u64);
            return Response::busy(
                backoff.max(25),
                format!("{live} live sessions (max {})", self.cfg.max_sessions),
            );
        }

        let defaults = dataset::default_params();
        let params = LoopParams {
            seed_size: req.seed_size.unwrap_or(defaults.seed_size),
            batch_size: req.batch_size.unwrap_or(defaults.batch_size),
            max_labels: req.max_labels.unwrap_or(defaults.max_labels),
            eval: defaults.eval,
            stop_at_f1: req.stop_at_f1,
        };
        let corpus = match self.corpus(spec) {
            Ok(c) => c,
            Err(e) => return Response::err(proto::ERR_INVALID, e.to_string()),
        };
        let strategy = match build_strategy(strategy_name) {
            Ok(s) => s,
            Err(e) => return Response::err(proto::ERR_INVALID, e.to_string()),
        };
        let meta = SessionMeta {
            session: name.to_string(),
            dataset: spec.to_string(),
            seed,
            strategy: strategy_name.to_string(),
            seed_size: params.seed_size,
            batch_size: params.batch_size,
            max_labels: params.max_labels,
            stop_at_f1: params.stop_at_f1,
            corpus_fingerprint: format!("{:016x}", corpus.content_fingerprint()),
        };
        // Reserve the name before any work: the slot is published already
        // locked by this thread, as `find` does for read-backs, so a second
        // open of the name gets `exists` and a racing request waits for
        // this one to settle.
        let unopened = SessState::Poisoned(format!("opening '{name}' did not finish"));
        let slot = Arc::new(Mutex::new(Session::new(name, unopened, false)));
        let mut s = slot.lock();
        {
            let mut sessions = self.sessions.lock();
            if sessions.contains(name) {
                return taken();
            }
            sessions.held.insert(name.to_string(), Arc::clone(&slot));
        }
        if let Err(e) = self.store.save_meta(&meta) {
            self.sessions.lock().held.remove(name);
            return Response::err(proto::ERR_INVALID, format!("persisting meta: {e}"));
        }

        let mut machine = Box::new(Machine::new(strategy, params, self.machine_config()));
        let call = catch_unwind(AssertUnwindSafe(|| machine.start(&corpus, seed)));
        *s = Session::new(name, SessState::Live(machine, corpus), false);
        self.note_live();
        self.settle(&mut s, call);
        let response = self.session_response(&s);
        self.unlock(&slot, s);
        self.cfg.obs.counter_add("serve.sessions_opened", 1);
        self.update_gauge();
        response
    }

    fn machine_config(&self) -> SessionConfig {
        SessionConfig {
            // The fleet owns checkpoint scheduling; the machine only
            // snapshots boundaries.
            checkpoint_every: None,
            checkpoint_path: None,
            retry: self.retry.clone(),
            halt_after: None,
            obs: self.cfg.obs.clone(),
            // Sessions are many and small: give each one core and let
            // concurrency come from session-level interleaving.
            parallelism: Parallelism::sequential(),
        }
    }

    fn on_answer(&self, req: &Request) -> Response {
        let Some(name) = req.session.as_deref() else {
            return Response::err(proto::ERR_INVALID, "answer requires a session name");
        };
        let Some(example) = req.example else {
            return Response::err(proto::ERR_INVALID, "answer requires an example index");
        };
        let answer = if req.abstain == Some(true) {
            OracleAnswer::Abstain
        } else {
            match req.label {
                Some(l) => OracleAnswer::Label(l),
                None => {
                    return Response::err(proto::ERR_INVALID, "answer requires label or abstain")
                }
            }
        };
        let Some(sess) = self.find(name) else {
            return Response::err(
                proto::ERR_UNKNOWN_SESSION,
                format!("no session named '{name}'"),
            );
        };
        self.with_locked(&sess, |s| {
            if matches!(s.state, SessState::Live(..)) {
                self.deliver(s, example, answer);
            }
            self.session_response(s)
        })
    }

    /// Deliver one answer into a live session, under supervision, with
    /// ignored-versus-applied accounting.
    fn deliver(&self, s: &mut Session, example: usize, answer: OracleAnswer) {
        let SessState::Live(machine, corpus) = &mut s.state else {
            return;
        };
        let ignored_before = machine.ignored_answers();
        let call = catch_unwind(AssertUnwindSafe(|| {
            machine.deliver(corpus, example, answer)
        }));
        if let Ok(Ok(())) = &call {
            if machine.ignored_answers() > ignored_before {
                self.cfg.obs.counter_add("serve.answers_ignored", 1);
            } else {
                self.cfg.obs.counter_add("serve.answers_applied", 1);
            }
        }
        self.settle(s, call);
    }

    fn on_poll(&self, req: &Request) -> Response {
        let Some(name) = req.session.as_deref() else {
            return Response::err(proto::ERR_INVALID, "poll requires a session name");
        };
        let Some(sess) = self.find(name) else {
            return Response::err(
                proto::ERR_UNKNOWN_SESSION,
                format!("no session named '{name}'"),
            );
        };
        self.with_locked(&sess, |s| self.session_response(s))
    }

    /// `retry_after_ms` sized from actual recent throughput: the flight
    /// window's µs-per-freed-slot (sessions completed or failed free an
    /// admission slot). Falls back to the static [`RetryPolicy`] hint
    /// when no flight recorder is running or the window saw no slot free
    /// up — a constant is honest when there is no signal.
    fn windowed_retry_ms(&self) -> Option<u64> {
        let flight = self.cfg.flight.as_ref()?;
        let window_us = flight.window_us();
        if window_us == 0 {
            return None;
        }
        let freed = flight.window_counter("serve.sessions_completed")
            + flight.window_counter("serve.sessions_failed");
        if freed == 0 {
            return None;
        }
        Some((window_us / freed / 1000).clamp(25, 5_000))
    }

    fn on_status(&self) -> Response {
        // Run the restore checks of finished sessions a restart registered
        // by name, so counts and rows are those of a restart that ran them.
        let unchecked: Vec<String> = self
            .sessions
            .lock()
            .finished
            .iter()
            .filter(|(_, f)| !f.checked)
            .map(|(name, _)| name.clone())
            .collect();
        for name in &unchecked {
            if let Some(sess) = self.find(name) {
                self.with_locked(&sess, |_| ());
            }
        }
        let (live, done, failed) = self.counts();
        let mut r = Response::ok();
        r.active = Some(live);
        r.done = Some(done);
        r.failed = Some(failed);
        r.draining = Some(self.draining());
        // Same collect-then-lock-individually pattern as the deadline
        // sweeper: holding the sessions-map lock while taking session
        // locks would deadlock against transition sites.
        let (held, finished): (Vec<Arc<Mutex<Session>>>, Vec<String>) = {
            let sessions = self.sessions.lock();
            (
                sessions.held.values().map(Arc::clone).collect(),
                sessions.finished.keys().cloned().collect(),
            )
        };
        let mut rows: Vec<(String, String)> = held
            .iter()
            .map(|sess| {
                let s = sess.lock();
                let state = match &s.state {
                    SessState::Live(..) => "awaiting_answers",
                    SessState::Done { .. } => "done",
                    SessState::Poisoned(_) => "failed",
                };
                (s.name.clone(), state.to_string())
            })
            .collect();
        rows.extend(finished.into_iter().map(|name| (name, "done".to_string())));
        rows.sort();
        r.sessions = Some(rows);
        r
    }

    fn on_healthz(&self) -> Response {
        let (live, done, failed) = self.counts();
        let mut r = Response::ok();
        r.active = Some(live);
        r.done = Some(done);
        r.failed = Some(failed);
        r.draining = Some(self.draining());
        r.uptime_us = Some(self.cfg.obs.uptime_us());
        r
    }

    fn on_metrics(&self) -> Response {
        // One aggregate snapshot under the registry lock; everything
        // below — quantiles, Prometheus rendering — happens outside it.
        let mut snap = self.cfg.obs.snapshot();
        let mut r = Response::ok();
        r.counters = Some(
            FLEET_COUNTERS
                .iter()
                .map(|&name| {
                    (
                        name.to_string(),
                        snap.counters.get(name).copied().unwrap_or(0),
                    )
                })
                .collect(),
        );
        r.gauges = Some(
            snap.gauges
                .iter()
                .map(|(&name, &v)| (name.to_string(), v))
                .collect(),
        );
        if let Some(h) = snap.hists.get("serve.query_to_batch") {
            r.q2b_count = Some(h.count());
            r.q2b_p50_us = Some(h.quantile(0.5));
            r.q2b_p90_us = Some(h.quantile(0.9));
            r.q2b_p99_us = Some(h.quantile(0.99));
        }
        if let Some(flight) = &self.cfg.flight {
            let win = flight.window_hist("serve.query_to_batch");
            r.q2b_win_count = Some(win.count());
            r.q2b_win_p50_us = Some(win.quantile(0.5));
            r.q2b_win_p90_us = Some(win.quantile(0.9));
            r.q2b_win_p99_us = Some(win.quantile(0.99));
            r.window_us = Some(flight.window_us());
            snap.hists.insert("serve.query_to_batch.window", win);
        }
        r.text = Some(alem_obs::render_prometheus(&snap, FLEET_COUNTERS));
        r
    }

    fn on_crash(&self, req: &Request) -> Response {
        let Some(name) = req.session.as_deref() else {
            return Response::err(proto::ERR_INVALID, "crash requires a session name");
        };
        let Some(sess) = self.find(name) else {
            return Response::err(
                proto::ERR_UNKNOWN_SESSION,
                format!("no session named '{name}'"),
            );
        };
        self.with_locked(&sess, |s| {
            if matches!(s.state, SessState::Live(..)) {
                let call = catch_unwind(AssertUnwindSafe(|| -> Result<(), AlemError> {
                    // alem-lint: allow(panic-reach) -- deliberate crash-injection op; the panic is caught by catch_unwind and settled as session state
                    panic!("crash op requested for session '{name}'");
                }));
                self.settle(s, call);
            }
            self.session_response(s)
        })
    }

    /// Post-advance bookkeeping shared by every machine-touching path:
    /// convert panics and errors into a poisoned session, detect
    /// completion, refresh wave stamps, and write due checkpoints.
    fn settle(&self, s: &mut Session, call: Call) {
        match call {
            Err(payload) => {
                self.cfg.obs.counter_add("serve.worker_panics", 1);
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                // Black-box the last window of telemetry before poisoning:
                // a final tick folds everything up to the panic into the
                // ring, so the dump answers "what was the fleet doing in
                // the seconds before this worker died".
                if let Some(flight) = &self.cfg.flight {
                    flight.tick();
                    match flight.dump_to_dir("postmortem") {
                        Ok(Some(path)) => {
                            eprintln!("alem-serve: post-mortem flight dump at {}", path.display())
                        }
                        Ok(None) => {}
                        Err(e) => eprintln!("alem-serve: flight dump failed: {e}"),
                    }
                }
                self.poison(s, format!("panic: {msg}"));
                return;
            }
            Ok(Err(e)) => {
                self.poison(s, e.to_string());
                return;
            }
            Ok(Ok(())) => {}
        }
        let machine_state = match &s.state {
            SessState::Live(m, _) => m.state(),
            _ => return,
        };
        match machine_state {
            MachineState::Done => self.complete(s),
            MachineState::AwaitingAnswers => {
                self.sync_wave(s);
                self.maybe_checkpoint(s);
            }
            // `halt_after` is never set and Created/Failed cannot follow a
            // successful call; treat defensively as a failure.
            other => self.poison(s, format!("unexpected machine state {other:?}")),
        }
    }

    fn poison(&self, s: &mut Session, reason: String) {
        if let Some(span) = s.wave_span.take() {
            span.finish();
        }
        s.asked_at.clear();
        s.wave_max_id = None;
        eprintln!("alem-serve: session '{}' poisoned: {reason}", s.name);
        s.state = SessState::Poisoned(reason);
        self.cfg.obs.counter_add("serve.sessions_failed", 1);
        self.note_failed();
    }

    fn complete(&self, s: &mut Session) {
        if let Some(span) = s.wave_span.take() {
            span.finish();
        }
        s.asked_at.clear();
        s.wave_max_id = None;
        let SessState::Live(machine, _) = &mut s.state else {
            return;
        };
        let iterations = machine.iterations_done();
        let labels_used = machine.labels_used();
        let Some(result) = machine.take_result() else {
            self.poison(s, "machine done without a result".into());
            return;
        };
        let record = DoneRecord {
            session: s.name.clone(),
            fingerprint: result.deterministic_fingerprint(),
            iterations,
            labels_used,
            best_f1: result.best_f1(),
        };
        let on_disk = match self.store.save_done(&record) {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "alem-serve: session '{}' done record not persisted: {e}",
                    s.name
                );
                false
            }
        };
        s.state = SessState::Done { record, on_disk };
        self.cfg.obs.counter_add("serve.sessions_completed", 1);
        self.note_done();
    }

    /// Refresh wave stamps and the query-to-batch span. Waves are keyed
    /// by their max request id: ids are monotonic and a wave only ever
    /// shrinks, so a changed max id means a new wave was emitted.
    fn sync_wave(&self, s: &mut Session) {
        let SessState::Live(machine, _) = &s.state else {
            return;
        };
        let pending = machine.pending().to_vec();
        if pending.is_empty() {
            if let Some(span) = s.wave_span.take() {
                span.finish();
            }
            s.asked_at.clear();
            s.wave_max_id = None;
            return;
        }
        let max_id = pending.iter().map(|q| q.id).max().unwrap_or(0);
        if s.wave_max_id == Some(max_id) {
            s.asked_at
                .retain(|&(e, _)| pending.iter().any(|q| q.example == e));
            return;
        }
        if let Some(span) = s.wave_span.take() {
            span.finish();
        }
        s.wave_span = Some(self.cfg.obs.span("serve.query_to_batch"));
        s.wave_max_id = Some(max_id);
        let t = now();
        s.asked_at = pending.iter().map(|q| (q.example, t)).collect();
    }

    fn maybe_checkpoint(&self, s: &mut Session) {
        let every = self.cfg.checkpoint_every;
        if every == 0 {
            return;
        }
        let SessState::Live(machine, _) = &s.state else {
            return;
        };
        let Some(k) = machine.boundary_iter() else {
            return;
        };
        if k == 0 || !k.is_multiple_of(every) || s.last_ckpt == Some(k) {
            return;
        }
        let Some(ckpt) = machine.checkpoint() else {
            return;
        };
        let span = self.cfg.obs.span("checkpoint.write");
        match self.store.save_checkpoint(&s.name, &ckpt) {
            Ok(()) => s.last_ckpt = Some(k),
            Err(e) => eprintln!("alem-serve: checkpoint for '{}' failed: {e}", s.name),
        }
        span.finish();
    }

    /// Convert every overdue pending query into an abstention. Called
    /// periodically by the deadline sweeper thread. Returns how many
    /// answers were timed out this sweep.
    pub fn sweep_deadlines(&self) -> u64 {
        let sessions: Vec<Arc<Mutex<Session>>> =
            self.sessions.lock().held.values().map(Arc::clone).collect();
        let deadline = self.cfg.answer_deadline;
        let t = now();
        let mut timed_out = 0;
        for sess in sessions {
            self.with_locked(&sess, |s| {
                while let Some(&(example, _)) = s
                    .asked_at
                    .iter()
                    .find(|&&(_, asked)| t.duration_since(asked) > deadline)
                {
                    if !matches!(s.state, SessState::Live(..)) {
                        break;
                    }
                    self.cfg.obs.counter_add("serve.answers_timeout", 1);
                    timed_out += 1;
                    self.deliver(s, example, OracleAnswer::Abstain);
                }
            });
        }
        timed_out
    }

    /// Checkpoint every live session's latest boundary (graceful drain).
    /// Sessions still in their seed phase have no boundary yet; their
    /// metas suffice — a restart replays the seed draw deterministically.
    pub fn checkpoint_all(&self) -> usize {
        let sessions: Vec<Arc<Mutex<Session>>> =
            self.sessions.lock().held.values().map(Arc::clone).collect();
        let mut written = 0;
        for sess in sessions {
            let mut s = sess.lock();
            let SessState::Live(machine, _) = &s.state else {
                continue;
            };
            let Some(ckpt) = machine.checkpoint() else {
                continue;
            };
            let k = ckpt.iter_no;
            let span = self.cfg.obs.span("checkpoint.write");
            match self.store.save_checkpoint(&s.name, &ckpt) {
                Ok(()) => {
                    s.last_ckpt = Some(k);
                    written += 1;
                }
                Err(e) => eprintln!("alem-serve: drain checkpoint for '{}' failed: {e}", s.name),
            }
            span.finish();
        }
        written
    }

    /// Cold restart: register every session found in the state dir.
    /// A finished one (a done record sits beside its meta) is registered
    /// by name, counted as done and read at its first request; the rest
    /// are re-hydrated now. Returns `(live, done, failed)` counts.
    /// Failures are per-session — a corrupt checkpoint poisons that
    /// session and restores the rest.
    pub fn restore(&self) -> Result<(u64, u64, u64), AlemError> {
        let span = self.cfg.obs.span("serve.fleet_restart");
        for (name, has_record) in self.store.list_sessions()? {
            if has_record {
                self.n_done.fetch_add(1, Ordering::SeqCst);
                let finished = Finished {
                    resumed: true,
                    checked: false,
                };
                self.sessions.lock().finished.insert(name, finished);
            } else {
                let session = self.rehydrate(&name, false);
                self.place(session);
            }
        }
        span.finish();
        self.update_gauge();
        Ok(self.counts())
    }

    /// Rebuild a session from its files as a restart does; a failure
    /// poisons this session only. `counted_done` says whether the fleet
    /// already counts it as done (a finished session registered by name).
    fn rehydrate(&self, name: &str, counted_done: bool) -> Session {
        match self.restore_one(name) {
            Ok(Restored::Done(record)) => {
                if !counted_done {
                    self.n_done.fetch_add(1, Ordering::SeqCst);
                }
                let state = SessState::Done {
                    record,
                    on_disk: true,
                };
                Session::new(name, state, true)
            }
            Ok(Restored::Started {
                machine,
                corpus,
                call,
                from_ckpt,
            }) => {
                if counted_done {
                    self.n_done.fetch_sub(1, Ordering::SeqCst);
                }
                let mut session = Session::new(name, SessState::Live(machine, corpus), true);
                self.note_live();
                self.settle(&mut session, call);
                if from_ckpt {
                    self.cfg.obs.counter_add("serve.sessions_resumed", 1);
                }
                session
            }
            Err(e) => {
                if counted_done {
                    self.n_done.fetch_sub(1, Ordering::SeqCst);
                }
                self.cfg.obs.counter_add("serve.sessions_failed", 1);
                self.n_failed.fetch_add(1, Ordering::SeqCst);
                eprintln!("alem-serve: restore of '{name}' failed: {e}");
                Session::new(name, SessState::Poisoned(e.to_string()), true)
            }
        }
    }

    /// The restore checks: parse the meta and compare the rebuilt
    /// corpus's fingerprint, then take the done record, or else resume
    /// the machine from the checkpoint, or replay it from the seed.
    fn restore_one(&self, name: &str) -> Result<Restored, AlemError> {
        let meta = self.store.load_meta(name)?;
        let corpus = self.corpus(&meta.dataset)?;
        let fp = format!("{:016x}", corpus.content_fingerprint());
        if fp != meta.corpus_fingerprint {
            return Err(AlemError::CheckpointCorrupt(format!(
                "dataset '{}' rebuilt with fingerprint {fp}, meta recorded {}",
                meta.dataset, meta.corpus_fingerprint
            )));
        }
        if let Some(record) = self.store.load_done(name) {
            return Ok(Restored::Done(record));
        }
        let params = LoopParams {
            seed_size: meta.seed_size,
            batch_size: meta.batch_size,
            max_labels: meta.max_labels,
            eval: dataset::default_params().eval,
            stop_at_f1: meta.stop_at_f1,
        };
        let strategy = build_strategy(&meta.strategy)?;
        let mut machine = Box::new(Machine::new(strategy, params, self.machine_config()));
        let from_ckpt = self.store.has_checkpoint(name);
        let call = if from_ckpt {
            let ckpt = self.store.load_checkpoint(name)?;
            catch_unwind(AssertUnwindSafe(|| machine.resume(&corpus, ckpt)))
        } else {
            // Killed before the first checkpointable boundary: replay the
            // whole (deterministic) session from its seed.
            catch_unwind(AssertUnwindSafe(|| machine.start(&corpus, meta.seed)))
        };
        Ok(Restored::Started {
            machine,
            corpus,
            call,
            from_ckpt,
        })
    }

    fn session_response(&self, s: &Session) -> Response {
        let mut r = Response::ok();
        r.resumed = Some(s.resumed);
        match &s.state {
            SessState::Live(m, _) => {
                r.state = Some("awaiting_answers".to_string());
                r.pending = Some(m.pending().iter().map(|q| q.example).collect());
                r.iterations = Some(m.iterations_done());
                r.labels_used = Some(m.labels_used());
            }
            SessState::Done { record: d, .. } => {
                r.state = Some("done".to_string());
                r.pending = Some(Vec::new());
                r.iterations = Some(d.iterations);
                r.labels_used = Some(d.labels_used);
                r.fingerprint = Some(d.fingerprint.clone());
                r.best_f1 = Some(d.best_f1);
            }
            SessState::Poisoned(reason) => {
                r.state = Some("failed".to_string());
                r.pending = Some(Vec::new());
                r.detail = Some(reason.clone());
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;
    use alem_core::oracle::AnswerKey;

    fn fleet(tag: &str, max_sessions: usize) -> Fleet {
        fleet_with(tag, max_sessions, Registry::enabled())
    }

    fn fleet_with(tag: &str, max_sessions: usize, obs: Registry) -> Fleet {
        let dir = std::env::temp_dir().join(format!("alem-fleet-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Fleet::new(FleetConfig {
            state_dir: dir,
            max_sessions,
            answer_deadline: Duration::from_secs(60),
            checkpoint_every: 3,
            obs,
            flight: None,
            chaos_die_at_checkpoint: None,
        })
        .unwrap()
    }

    fn drive_to_completion(fleet: &Fleet, name: &str, seed: u64) -> Response {
        let corpus = dataset::build("toy").unwrap();
        let key = AnswerKey::perfect(seed);
        for _ in 0..100_000 {
            let r = fleet.handle(&Request::poll(name));
            match r.state.as_deref() {
                Some("awaiting_answers") => {
                    let pending = r.pending.clone().unwrap_or_default();
                    assert!(!pending.is_empty(), "live session with empty wave");
                    for e in pending {
                        let answer = key.answer(e, corpus.truth(e));
                        let req = match answer {
                            OracleAnswer::Label(l) => Request::answer(name, e, l),
                            OracleAnswer::Abstain => Request::abstain(name, e),
                        };
                        assert!(fleet.handle(&req).ok);
                    }
                }
                _ => return r,
            }
        }
        panic!("session '{name}' did not terminate");
    }

    #[test]
    fn served_session_matches_reference_fingerprint() {
        let fleet = fleet("fp", 8);
        assert!(fleet.handle(&Request::open("s1", "toy", 41, "margin")).ok);
        let done = drive_to_completion(&fleet, "s1", 41);
        assert_eq!(done.state.as_deref(), Some("done"));
        let reference = dataset::reference_fingerprint(
            "toy",
            41,
            build_strategy("margin").unwrap(),
            &dataset::default_params(),
        )
        .unwrap();
        assert_eq!(done.fingerprint.as_deref(), Some(reference.as_str()));
        assert!(fleet.obs().counter_value("serve.sessions_completed") == 1);
    }

    #[test]
    fn duplicates_and_unknown_examples_are_ignored() {
        let fleet = fleet("dup", 8);
        let r = fleet.handle(&Request::open("s1", "toy", 5, "margin"));
        let first = r.pending.unwrap()[0];
        // Unknown example: ignored, counted, session unaffected.
        assert!(fleet.handle(&Request::answer("s1", usize::MAX, true)).ok);
        assert_eq!(fleet.obs().counter_value("serve.answers_ignored"), 1);
        // Real answer applies; immediate duplicate is ignored.
        let corpus = dataset::build("toy").unwrap();
        assert!(
            fleet
                .handle(&Request::answer("s1", first, corpus.truth(first)))
                .ok
        );
        assert!(
            fleet
                .handle(&Request::answer("s1", first, !corpus.truth(first)))
                .ok
        );
        assert_eq!(fleet.obs().counter_value("serve.answers_applied"), 1);
        assert_eq!(fleet.obs().counter_value("serve.answers_ignored"), 2);
        // The contradicting duplicate changed nothing: run completes with
        // the reference fingerprint.
        let done = drive_to_completion(&fleet, "s1", 5);
        let reference = dataset::reference_fingerprint(
            "toy",
            5,
            build_strategy("margin").unwrap(),
            &dataset::default_params(),
        )
        .unwrap();
        assert_eq!(done.fingerprint.as_deref(), Some(reference.as_str()));
    }

    #[test]
    fn healthz_reports_uptime_and_counts() {
        let fleet = fleet("hz", 8);
        fleet.handle(&Request::open("h1", "toy", 2, "margin"));
        let r = fleet.handle(&Request::new("healthz"));
        assert!(r.ok);
        assert_eq!(r.active, Some(1));
        assert_eq!(r.draining, Some(false));
        assert!(r.uptime_us.unwrap() > 0);
    }

    #[test]
    fn status_lists_per_session_states() {
        let fleet = fleet("st", 8);
        fleet.handle(&Request::open("alpha", "toy", 2, "margin"));
        fleet.handle(&Request::open("beta", "toy", 3, "margin"));
        let mut crash = Request::new("crash");
        crash.session = Some("beta".into());
        fleet.handle(&crash);
        let r = fleet.handle(&Request::new("status"));
        assert_eq!(
            r.sessions.unwrap(),
            vec![
                ("alpha".to_string(), "awaiting_answers".to_string()),
                ("beta".to_string(), "failed".to_string()),
            ]
        );
    }

    #[test]
    fn concurrent_opens_of_a_new_name_answer_ok_once() {
        let fleet = fleet("open-race", 400);
        let names: Vec<String> = (0..200).map(|i| format!("race{i}")).collect();
        // Two threads, one chunk each, open every name in step.
        let barrier = std::sync::Barrier::new(2);
        let replies = Parallelism::fixed(2).map(&[0, 1], |_| {
            let open = |name: &String| {
                barrier.wait();
                fleet.handle(&Request::open(name, "toy", 7, "margin"))
            };
            names.iter().map(open).collect::<Vec<_>>()
        });
        for (i, name) in names.iter().enumerate() {
            let pair = [&replies[0][i], &replies[1][i]];
            let oks = pair.iter().filter(|r| r.ok).count();
            let exists = pair
                .iter()
                .filter(|r| r.error.as_deref() == Some(proto::ERR_EXISTS))
                .count();
            assert_eq!((oks, exists), (1, 1), "{name}: {pair:?}");
        }
        let status = fleet.handle(&Request::new("status"));
        assert_eq!(status.active, Some(200));
        assert_eq!(status.sessions.map(|rows| rows.len()), Some(200));
    }

    #[test]
    fn metrics_exposition_covers_every_fleet_counter() {
        let fleet = fleet("prom", 8);
        fleet.handle(&Request::open("m1", "toy", 7, "margin"));
        // Complete at least one wave so `serve.query_to_batch` has closed
        // spans to summarize.
        drive_to_completion(&fleet, "m1", 7);
        let r = fleet.handle(&Request::new("metrics"));
        assert!(r.ok);
        let counters = r.counters.unwrap();
        assert_eq!(counters.len(), FLEET_COUNTERS.len());
        let text = r.text.unwrap();
        for name in FLEET_COUNTERS {
            let sanitized = name.replace('.', "_");
            assert!(
                text.contains(&format!("# TYPE {sanitized} counter")),
                "family {name} missing from exposition:\n{text}"
            );
        }
        assert!(text.contains("serve_sessions_active"));
        assert!(text.contains("serve_query_to_batch{quantile=\"0.9\"}"));
        // No flight recorder configured → no windowed fields.
        assert!(r.q2b_win_count.is_none());
    }

    #[test]
    fn aggregating_registry_serves_the_same_metrics_without_a_log() {
        let run = |tag: &str, obs: Registry| {
            let fleet = fleet_with(tag, 20, obs);
            for i in 0..20 {
                let name = format!("s{i}");
                assert!(fleet.handle(&Request::open(&name, "toy", i, "margin")).ok);
                let done = drive_to_completion(&fleet, &name, i);
                assert_eq!(done.state.as_deref(), Some("done"));
            }
            let m = fleet.handle(&Request::new("metrics"));
            (fleet, m.counters.unwrap(), m.q2b_count.unwrap())
        };
        let (full, full_counters, full_q2b) = run("log", Registry::enabled());
        let (agg, agg_counters, agg_q2b) = run("nolog", Registry::aggregating());
        assert!(!full.obs().events().is_empty());
        assert!(agg.obs().events().is_empty());
        assert_eq!(agg_counters, full_counters);
        assert_eq!(agg_q2b, full_q2b);
        assert!(agg.obs().counter_value("serve.sessions_completed") == 20);
    }

    #[test]
    fn trace_id_is_validated_echoed_and_stamped_on_spans() {
        let fleet = fleet("trace", 8);
        let mut open = Request::open("t1", "toy", 4, "margin");
        open.trace_id = Some("labeler-9/interaction-3".into());
        let r = fleet.handle(&open);
        assert!(r.ok);
        assert_eq!(r.trace_id.as_deref(), Some("labeler-9/interaction-3"));
        // The wave span opened by this request carries the trace id.
        let traced: Vec<String> = fleet
            .obs()
            .events()
            .iter()
            .filter(|e| e.trace.as_deref() == Some("labeler-9/interaction-3"))
            .map(|e| e.name.to_string())
            .collect();
        assert!(!traced.is_empty(), "no events carried the trace id");
        let mut bad = Request::poll("t1");
        bad.trace_id = Some("has\u{7f}control".into());
        let r = fleet.handle(&bad);
        assert!(!r.ok);
        assert_eq!(r.error.as_deref(), Some(proto::ERR_INVALID));
    }

    #[test]
    fn panic_leaves_a_flight_postmortem_and_windowed_retry_tracks_throughput() {
        let dir = std::env::temp_dir().join(format!("alem-fleet-{}-fl", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let obs = Registry::enabled();
        let flight = FlightRecorder::new(obs.clone(), 16).with_dump_dir(dir.join("flight"));
        let fleet = Fleet::new(FleetConfig {
            state_dir: dir.clone(),
            max_sessions: 1,
            answer_deadline: Duration::from_secs(60),
            checkpoint_every: 3,
            obs: obs.clone(),
            flight: Some(flight.clone()),
            chaos_die_at_checkpoint: None,
        })
        .unwrap();
        fleet.handle(&Request::open("victim", "toy", 11, "margin"));
        // Complete a session so the window records freed capacity, then
        // tick so the interval lands in the ring.
        drive_to_completion(&fleet, "victim", 11);
        flight.tick();
        assert!(fleet.handle(&Request::open("next", "toy", 12, "margin")).ok);
        let busy = fleet.handle(&Request::open("over", "toy", 13, "margin"));
        assert_eq!(busy.error.as_deref(), Some(proto::ERR_BUSY));
        // One completion in the window → retry hint is window/1 clamped
        // to [25, 5000], i.e. the windowed path (not the static 25ms
        // lower bound is possible, but it must be within the clamp).
        let hint = busy.retry_after_ms.unwrap();
        assert!((25..=5_000).contains(&hint), "hint {hint}");
        // A worker panic writes a post-mortem dump.
        let mut crash = Request::new("crash");
        crash.session = Some("next".into());
        fleet.handle(&crash);
        let dumps: Vec<_> = std::fs::read_dir(dir.join("flight"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("postmortem-") && n.ends_with(".jsonl"))
            .collect();
        assert_eq!(dumps.len(), 1, "expected one post-mortem dump: {dumps:?}");
        assert_eq!(obs.counter_value("obs.flight.dumps"), 1);
        // The metrics op now reports windowed q2b quantiles.
        let m = fleet.handle(&Request::new("metrics"));
        assert!(m.q2b_win_count.unwrap() > 0);
        assert!(m.window_us.unwrap() > 0);
        assert!(m.text.unwrap().contains("serve_query_to_batch_window"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_control_rejects_with_retry_hint() {
        let fleet = fleet("busy", 1);
        assert!(fleet.handle(&Request::open("a", "toy", 1, "margin")).ok);
        let r = fleet.handle(&Request::open("b", "toy", 2, "margin"));
        assert!(!r.ok);
        assert_eq!(r.error.as_deref(), Some(proto::ERR_BUSY));
        assert!(r.retry_after_ms.unwrap_or(0) > 0);
        assert_eq!(fleet.obs().counter_value("serve.backpressure_rejects"), 1);
        // Duplicate name is a distinct error.
        let r = fleet.handle(&Request::open("a", "toy", 1, "margin"));
        assert_eq!(r.error.as_deref(), Some(proto::ERR_EXISTS));
    }

    #[test]
    fn crash_poisons_one_session_not_the_fleet() {
        let fleet = fleet("crash", 8);
        fleet.handle(&Request::open("victim", "toy", 9, "margin"));
        fleet.handle(&Request::open("bystander", "toy", 10, "margin"));
        let mut crash = Request::new("crash");
        crash.session = Some("victim".into());
        let r = fleet.handle(&crash);
        assert_eq!(r.state.as_deref(), Some("failed"));
        assert!(r.detail.unwrap().contains("panic"));
        assert_eq!(fleet.obs().counter_value("serve.worker_panics"), 1);
        // The bystander still runs to its reference fingerprint.
        let done = drive_to_completion(&fleet, "bystander", 10);
        assert_eq!(done.state.as_deref(), Some("done"));
        let (live, done_n, failed) = fleet.counts();
        assert_eq!((live, done_n, failed), (0, 1, 1));
    }

    #[test]
    fn deadline_sweep_converts_overdue_queries_to_abstentions() {
        let dir = std::env::temp_dir().join(format!("alem-fleet-{}-ddl", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fleet = Fleet::new(FleetConfig {
            state_dir: dir,
            max_sessions: 4,
            answer_deadline: Duration::from_millis(0),
            checkpoint_every: 0,
            obs: Registry::enabled(),
            flight: None,
            chaos_die_at_checkpoint: None,
        })
        .unwrap();
        fleet.handle(&Request::open("slow", "toy", 3, "margin"));
        std::thread::sleep(Duration::from_millis(5));
        assert!(fleet.sweep_deadlines() > 0);
        assert!(fleet.obs().counter_value("serve.answers_timeout") > 0);
        // All-abstain sessions eventually fail through the stalled guard
        // (or die at seeding) rather than hanging the fleet.
        for _ in 0..10_000 {
            std::thread::sleep(Duration::from_millis(1));
            fleet.sweep_deadlines();
            let r = fleet.handle(&Request::poll("slow"));
            if r.state.as_deref() == Some("failed") {
                return;
            }
        }
        panic!("silent session never failed");
    }

    fn reference(seed: u64) -> String {
        let strategy = build_strategy("margin").unwrap();
        dataset::reference_fingerprint("toy", seed, strategy, &dataset::default_params()).unwrap()
    }

    /// A second fleet over `fleet`'s state directory, as after a restart.
    fn restarted(fleet: &Fleet) -> Fleet {
        Fleet::new(FleetConfig {
            obs: Registry::enabled(),
            ..fleet.cfg.clone()
        })
        .unwrap()
    }

    /// Open `toy` sessions `names[i]` with seed `i` and drive them to done.
    fn finish_all(fleet: &Fleet, names: &[&str]) {
        for (seed, &name) in names.iter().enumerate() {
            assert!(
                fleet
                    .handle(&Request::open(name, "toy", seed as u64, "margin"))
                    .ok
            );
            let done = drive_to_completion(fleet, name, seed as u64);
            assert_eq!(done.state.as_deref(), Some("done"));
        }
    }

    #[test]
    fn finished_sessions_leave_the_session_map_and_status_lists_them() {
        let fleet = fleet("fin", 8);
        let names = ["f0", "f1", "f2", "f3", "f4"];
        finish_all(&fleet, &names);
        {
            let sessions = fleet.sessions.lock();
            assert!(sessions.held.is_empty(), "the fleet still holds a session");
            assert_eq!(sessions.finished.len(), names.len());
        }
        let status = fleet.handle(&Request::new("status"));
        assert_eq!(status.done, Some(names.len() as u64));
        let rows = status.sessions.unwrap();
        assert_eq!(rows.len(), names.len());
        assert!(rows.iter().all(|(_, state)| state == "done"), "{rows:?}");
        // Polls read the records back; the session map stays empty.
        for (seed, name) in names.iter().enumerate() {
            let r = fleet.handle(&Request::poll(name));
            assert_eq!(r.state.as_deref(), Some("done"));
            assert_eq!(r.resumed, Some(false));
            assert_eq!(r.fingerprint, Some(reference(seed as u64)));
        }
        assert!(fleet.sessions.lock().held.is_empty());
    }

    #[test]
    fn a_restart_registers_finished_sessions_without_reading_their_files() {
        let fleet = fleet("reg", 8);
        finish_all(&fleet, &["f0", "f1", "f2"]);
        assert!(fleet.handle(&Request::open("live", "toy", 9, "margin")).ok);
        // Had the restart read any of f0's files, f0 would fail there.
        let dir = &fleet.cfg.state_dir;
        for kind in ["meta", "done"] {
            std::fs::write(dir.join(format!("f0.{kind}.json")), "garbage").unwrap();
        }
        let again = restarted(&fleet);
        assert_eq!(again.restore().unwrap(), (1, 3, 0));
        assert_eq!(again.sessions.lock().held.len(), 1);
        // The first request runs the restore checks and gets their outcome.
        let r = again.handle(&Request::poll("f0"));
        assert_eq!(r.state.as_deref(), Some("failed"));
        assert_eq!(
            r.detail.as_deref(),
            Some("checkpoint corrupt: meta for 'f0': unexpected Some('g') at offset 0")
        );
        assert_eq!(again.counts(), (1, 2, 1));
        let r = again.handle(&Request::poll("f1"));
        assert_eq!(r.state.as_deref(), Some("done"));
        assert_eq!(r.resumed, Some(true));
        assert_eq!(r.fingerprint, Some(reference(1)));
        let status = again.handle(&Request::new("status"));
        assert_eq!(
            (status.active, status.done, status.failed),
            (Some(1), Some(2), Some(1))
        );
    }

    #[test]
    fn a_done_record_that_cannot_be_written_stays_in_memory() {
        let fleet = fleet("nodisk", 8);
        // A directory where the record goes makes its rename fail.
        let blocker = fleet.cfg.state_dir.join("x.done.json").join("blocker");
        std::fs::create_dir_all(blocker).unwrap();
        finish_all(&fleet, &["x"]);
        assert!(fleet.sessions.lock().held.contains_key("x"));
        assert!(fleet.sessions.lock().finished.is_empty());
        let r = fleet.handle(&Request::poll("x"));
        assert_eq!(r.state.as_deref(), Some("done"));
        assert_eq!(r.fingerprint, Some(reference(0)));
    }

    #[test]
    fn requests_racing_a_read_back_all_find_the_session() {
        let fleet = fleet("race", 8);
        let names = ["r0", "r1", "r2", "r3"];
        finish_all(&fleet, &names);
        let again = restarted(&fleet);
        assert_eq!(again.restore().unwrap(), (0, 4, 0));
        let fingerprints: Vec<String> = (0..names.len() as u64).map(reference).collect();
        // Four threads poll, answer and crash the sessions while a fifth
        // asks for the status, which runs the restore checks of all four.
        Parallelism::fixed(5).map(&[0, 1, 2, 3, 4], |&t| {
            for round in 0..20 {
                if t == 4 {
                    let status = again.handle(&Request::new("status"));
                    assert_eq!(status.done, Some(4));
                    continue;
                }
                let k = (t + round) % names.len();
                let req = match round % 3 {
                    0 => Request::poll(names[k]),
                    1 => Request::answer(names[k], 0, true),
                    _ => {
                        let mut crash = Request::new("crash");
                        crash.session = Some(names[k].to_string());
                        crash
                    }
                };
                let r = again.handle(&req);
                assert_eq!(r.state.as_deref(), Some("done"), "{:?}", r.error);
                assert_eq!(r.fingerprint.as_ref(), Some(&fingerprints[k]));
            }
        });
        assert_eq!(again.counts(), (0, 4, 0));
        assert!(again.sessions.lock().held.is_empty());
    }

    #[test]
    fn a_session_the_sweeper_finishes_leaves_the_session_map() {
        let fleet = Fleet::new(FleetConfig {
            answer_deadline: Duration::from_millis(0),
            ..fleet("sweepdone", 4).cfg.clone()
        })
        .unwrap();
        assert!(fleet.handle(&Request::open("s1", "toy", 6, "margin")).ok);
        let corpus = dataset::build("toy").unwrap();
        // Answer every question but the last of each batch wave; the
        // sweeper abstains on that one, so it ends each wave, the last
        // one included.
        let mut swept = 0;
        loop {
            let r = fleet.handle(&Request::poll("s1"));
            if r.state.as_deref() != Some("awaiting_answers") {
                assert_eq!(r.state.as_deref(), Some("done"));
                break;
            }
            let pending = r.pending.unwrap_or_default();
            let seeding = r.labels_used == Some(0);
            let answered = if seeding {
                &pending[..]
            } else {
                &pending[..pending.len() - 1]
            };
            for &e in answered {
                assert!(fleet.handle(&Request::answer("s1", e, corpus.truth(e))).ok);
            }
            if !seeding {
                std::thread::sleep(Duration::from_millis(1));
                swept += fleet.sweep_deadlines();
            }
        }
        assert!(swept > 0);
        assert!(fleet.sessions.lock().held.is_empty());
        assert!(fleet.sessions.lock().finished.contains_key("s1"));
    }

    /// A fleet with one live `toy` session, and valid `open`, `answer`,
    /// `abstain` and `poll` frames for that session.
    fn mutation_target() -> &'static (Fleet, [Vec<u8>; 4]) {
        static TARGET: std::sync::OnceLock<(Fleet, [Vec<u8>; 4])> = std::sync::OnceLock::new();
        TARGET.get_or_init(|| {
            let fleet = fleet("mutants", 4);
            let open = Request::open("s1", "toy", 7, "margin");
            let pending = fleet.handle(&open).pending.unwrap_or_default();
            let (Some(&first), Some(&last)) = (pending.first(), pending.last()) else {
                panic!("the session must be awaiting answers");
            };
            let frames = [
                open,
                Request::answer("s1", first, true),
                Request::abstain("s1", last),
                Request::poll("s1"),
            ]
            .map(|r| proto::encode(&r).into_bytes());
            (fleet, frames)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]
        /// One byte of a valid frame replaced, or the frame cut short:
        /// decoding never panics, and a mutant that still decodes gets
        /// an `ok` reply or one that carries an `ERR_*` code.
        #[test]
        fn mutated_frames_are_answered_not_panicked(
            frame in 0..4usize,
            at in 0..4096usize,
            byte in 0..=255u8,
            cut in 0..8u8,
        ) {
            let (fleet, frames) = mutation_target();
            let mut bytes = frames[frame].clone();
            let at = at % bytes.len();
            if cut == 0 {
                bytes.truncate(at);
            } else {
                bytes[at] = byte;
            }
            if let Ok(req) = proto::decode_request(&String::from_utf8_lossy(&bytes)) {
                if req.op != "crash" && req.op != "drain" {
                    let r = fleet.handle(&req);
                    let codes = [
                        proto::ERR_MALFORMED,
                        proto::ERR_BUSY,
                        proto::ERR_UNKNOWN_SESSION,
                        proto::ERR_EXISTS,
                        proto::ERR_DRAINING,
                        proto::ERR_INVALID,
                    ];
                    proptest::prop_assert!(
                        r.ok || r.error.as_deref().is_some_and(|e| codes.contains(&e)),
                        "{:?} got {:?}",
                        String::from_utf8_lossy(&bytes),
                        r.error
                    );
                }
            }
        }
    }
}
