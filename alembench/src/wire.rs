//! The serve-wire workload: the real `alem-serve` binary on a Unix
//! socket, driven by one closed-loop labeler running sessions back to
//! back over the server's named preset corpora with the `margin`
//! strategy.
//!
//! ML work per wave is microseconds here, so a wait is JSON framing,
//! socket I/O, fleet dispatch and checkpoint writes: the layers the
//! in-process workload bypasses. Not TCP: over loopback TCP every request
//! waits out a delayed ACK, because the server writes each reply in two
//! writes on a socket without `TCP_NODELAY`, and that timer would be all
//! a wait measured.
//!
//! The labeler runs its list of sessions `REPEATS` times over, and a
//! wave's wait is its fastest repeat. A wait is a fraction of a
//! millisecond, so a pause of the host's virtual CPU can swallow a whole
//! one; repeats seconds apart are rarely all hit.

use crate::mix64;
use crate::report::{self, Layers, Metric, Ops};
use alem_core::loop_::LoopParams;
use alem_core::oracle::{AnswerKey, OracleAnswer};
use alem_serve::dataset;
use alem_serve::fleet::build_strategy;
use alem_serve::proto::{self, Request, Response};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-wire";
/// Why it was chosen: which layers it loads and which it bypasses.
pub const WHY: &str = "JSON framing, sockets and fleet dispatch of the real server, one labeler; \
                       checkpoint writes in p99; bypasses blocking, featurize and heavy ML";
/// Sessions served per second of `--seconds` in the measured pass,
/// repeats included. The pass runs a fixed number of sessions rather than
/// for a fixed time: the server keeps every finished session in memory,
/// so its peak RSS grows with sessions served and would otherwise rise
/// whenever throughput does.
const SESSIONS_PER_SECOND: f64 = 50.0;
/// Times the measured pass runs its list of sessions.
const REPEATS: usize = 4;
/// Server restarts timed for set-up, about 0.5 s each.
const SETUP_REPEATS: usize = 21;
/// Sessions of the traced pass: a fixed amount of work, so per-layer
/// totals compare across runs.
const TRACE_SESSIONS: usize = 256;
const STRATEGY: &str = "margin";
/// The server's checkpoint cadence, in iterations.
const CHECKPOINT_EVERY: usize = 20;

/// Loop parameters of every session: the server's defaults (seed 12,
/// progressive F1) with batches of 4 up to 124 labels, so a session asks
/// 28 batches and writes one checkpoint, at iteration 20. Checkpoints
/// are then rare among the waits, and p50 and p90 both fall among waits
/// that write no file; p99 and the `checkpoint.*` metrics carry the write
/// path. With the defaults (9 iterations, a checkpoint every 3), a third of
/// the waits wrote a file, p90 fell among them, and its spread over five
/// seeds was 0.45, following the shared disk.
fn params() -> LoopParams {
    LoopParams {
        batch_size: 4,
        max_labels: 124,
        ..dataset::default_params()
    }
}

/// The `open` request of session `name` running `job`.
fn open_request(name: &str, job: &Job) -> Request {
    let p = params();
    let mut r = Request::open(name, job.spec, job.seed, STRATEGY);
    r.seed_size = Some(p.seed_size);
    r.batch_size = Some(p.batch_size);
    r.max_labels = Some(p.max_labels);
    r
}

/// One session: a corpus spec and a session seed.
struct Job {
    spec: &'static str,
    seed: u64,
}

/// Session `i` of workload seed `seed`: the server's named presets
/// (`dataset::SPECS`: toy, skew and wide; `serve-load` drives toy and skew
/// by default) in turn, each session with a seed of its own.
fn job(seed: u64, i: usize) -> Job {
    let (spec, _, _) = dataset::SPECS[i % dataset::SPECS.len()];
    Job {
        spec,
        seed: mix64(seed ^ mix64(0x3e7e_0000 + i as u64)),
    }
}

/// One connection to the server, counting requests and bytes (which the
/// crate's `Client` does not report).
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    requests: u64,
    sent: u64,
    received: u64,
}

impl Conn {
    fn connect(socket: &Path) -> Result<Conn, String> {
        let writer = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer,
            requests: 0,
            sent: 0,
            received: 0,
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut line = proto::encode(req);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        self.requests += 1;
        self.sent += line.len() as u64;
        self.received += n as u64;
        proto::decode_response(&reply)
    }
}

/// A running `alem-serve` process; stopped and waited for on drop.
struct Server {
    child: Child,
    socket: PathBuf,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start a server in `dir` (its socket, state directory and, when
    /// `metrics` is set, its span log `metrics.jsonl` live there) and wait
    /// for its listening line. Paths stay relative to `dir`, clear of the
    /// socket path length limit.
    fn spawn(bin: &Path, dir: &Path, metrics: bool) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut cmd = Command::new(bin);
        cmd.current_dir(dir)
            .args(["--socket", "s.sock", "--state-dir", "state"])
            .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if metrics {
            cmd.args(["--metrics-out", "metrics.jsonl"]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout not captured".to_string());
        };
        let mut server = Server {
            child,
            socket: dir.join("s.sock"),
            _stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        while !line.contains("listening on ") {
            line.clear();
            if matches!(server._stdout.read_line(&mut line), Ok(0) | Err(_)) {
                return Err("server exited before listening".to_string());
            }
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drain the server (it checkpoints live sessions and exits 0) and
    /// wait for it. Every client connection must be closed first.
    fn drain(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(&self.socket)?;
        let resp = conn.call(&Request::new("drain"))?;
        drop(conn);
        if !resp.ok {
            return Err(format!("drain refused: {:?}", resp.error));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("server did not exit after drain".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A session the server finished.
struct Done {
    /// The session's index `i` in `job(seed, i)`.
    index: usize,
    fingerprint: String,
    best_f1: f64,
    /// The session's waits, ms.
    waits_ms: Vec<f64>,
}

/// What the labeler saw.
#[derive(Default)]
struct ConnOut {
    done: Vec<Done>,
    failures: Vec<String>,
    attempted: u64,
    /// Labeler waits (answer round trips that started an iteration), ms.
    waits_ms: Vec<f64>,
    /// Σ round trips of the answers that ended a session, ms: each
    /// completed an iteration but started no wave, so none is a wait.
    ends_ms: f64,
    /// Round trips of answers that completed no wave, µs.
    rtts_us: Vec<f64>,
    answers: u64,
    requests: u64,
    sent: u64,
    received: u64,
    busy: u64,
    /// Time inside requests.
    in_request: Duration,
    /// Σ unlabeled pool size at each selection.
    pool_rows: u64,
    /// Σ rows evaluated (progressive F1 over the whole corpus per
    /// iteration).
    predicts: u64,
}

/// Corpus truth per preset, built locally from the same spec string.
type Truths = BTreeMap<&'static str, Vec<bool>>;

fn truths() -> Result<Truths, String> {
    dataset::SPECS
        .iter()
        .map(|&(spec, _, _)| {
            let corpus = dataset::build(spec).map_err(|e| e.to_string())?;
            Ok((spec, corpus.truths().to_vec()))
        })
        .collect()
}

/// Open the session and return the server's first reply.
fn open(conn: &mut Conn, name: &str, job: &Job, out: &mut ConnOut) -> Result<Response, String> {
    let t = Instant::now();
    let resp = conn.call(&open_request(name, job));
    out.in_request += t.elapsed();
    let resp = resp?;
    if resp.error.as_deref() == Some(proto::ERR_BUSY) {
        out.busy += 1;
    }
    if !resp.ok {
        return Err(format!("open refused: {:?} {:?}", resp.error, resp.detail));
    }
    Ok(resp)
}

/// Answer the session's questions until it is done.
fn answer_all(
    conn: &mut Conn,
    name: &str,
    job: &Job,
    truth: &[bool],
    mut resp: Response,
    out: &mut ConnOut,
) -> Result<Response, String> {
    let key = AnswerKey::perfect(job.seed);
    while resp.state.as_deref() == Some("awaiting_answers") {
        let pending = resp.pending.clone().unwrap_or_default();
        let &example = pending
            .first()
            .ok_or("live session with no pending question")?;
        let label = truth
            .get(example)
            .copied()
            .ok_or("pending example out of range")?;
        let req = match key.answer(example, label) {
            OracleAnswer::Label(l) => Request::answer(name, example, l),
            OracleAnswer::Abstain => Request::abstain(name, example),
        };
        let iterations = resp.iterations.unwrap_or(0);
        let t = Instant::now();
        let next = conn.call(&req);
        let dt = t.elapsed();
        out.in_request += dt;
        let next = next?;
        if !next.ok {
            return Err(format!(
                "answer refused: {:?} {:?}",
                next.error, next.detail
            ));
        }
        out.answers += 1;
        let next_pending = next.pending.clone().unwrap_or_default();
        if next.iterations.unwrap_or(0) > iterations {
            out.predicts += truth.len() as u64;
            // The labeler waits for a next batch; the answer that ends
            // the session (and writes its done record) starts none.
            if next.state.as_deref() == Some("awaiting_answers") {
                out.waits_ms.push(report::ms(dt));
                let labeled = next.labels_used.unwrap_or(0);
                out.pool_rows += truth.len().saturating_sub(labeled) as u64;
            } else {
                out.ends_ms += report::ms(dt);
            }
        } else if !next_pending.is_empty() && next_pending[..] == pending[1..] {
            out.rtts_us.push(dt.as_secs_f64() * 1e6);
        }
        resp = next;
    }
    Ok(resp)
}

/// The labeler's closed loop on one connection: sessions `0..sessions`
/// back to back, `repeats` times over.
fn labeler(socket: &Path, seed: u64, truths: &Truths, sessions: usize, repeats: usize) -> ConnOut {
    let mut out = ConnOut::default();
    let mut conn = match Conn::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.failures.push(e);
            return out;
        }
    };
    'run: for r in 0..repeats {
        for index in 0..sessions {
            let job = job(seed, index);
            let name = format!("s{index}-r{r}");
            out.attempted += 1;
            let truth = truths.get(job.spec).map_or(&[][..], Vec::as_slice);
            let first_wait = out.waits_ms.len();
            let result = open(&mut conn, &name, &job, &mut out)
                .and_then(|first| answer_all(&mut conn, &name, &job, truth, first, &mut out));
            match result {
                Ok(resp) if resp.state.as_deref() == Some("done") => out.done.push(Done {
                    index,
                    fingerprint: resp.fingerprint.unwrap_or_default(),
                    best_f1: resp.best_f1.unwrap_or(0.0),
                    waits_ms: out.waits_ms[first_wait..].to_vec(),
                }),
                Ok(resp) => out
                    .failures
                    .push(format!("{name}: ended {:?} {:?}", resp.state, resp.detail)),
                Err(e) => {
                    out.failures.push(format!("{name}: {e}"));
                    break 'run;
                }
            }
        }
    }
    out.requests = conn.requests;
    out.sent = conn.sent;
    out.received = conn.received;
    out
}

/// One pass: a fresh server, the labeler's sessions, and the server's
/// resource use over them.
struct Pass {
    out: ConnOut,
    wall: Duration,
    peak_rss_mb: f64,
    cpu_s: f64,
    /// Bytes the server wrote over the pass (`wchar`), if readable.
    wchar: Option<u64>,
}

fn pass(
    bin: &Path,
    dir: &Path,
    metrics: bool,
    seed: u64,
    truths: &Truths,
    sessions: usize,
    repeats: usize,
) -> Result<Pass, String> {
    let server = Server::spawn(bin, dir, metrics)?;
    let pid = server.pid();
    let cpu0 = report::cpu_secs(pid);
    let wchar0 = report::write_chars(pid);
    let start = Instant::now();
    let out = labeler(&server.socket, seed, truths, sessions, repeats);
    let wall = start.elapsed();
    let pid_s = pid.to_string();
    let peak_rss_mb = report::status_mb(&pid_s, "VmHWM");
    let cpu_s = report::cpu_secs(pid) - cpu0;
    let wchar = match (wchar0, report::write_chars(pid)) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    server.drain()?;
    Ok(Pass {
        out,
        wall,
        peak_rss_mb,
        cpu_s,
        wchar,
    })
}

/// One set-up sample: restart the server on the state the measured pass
/// left in `dir` (it restores every session there) until it listens,
/// plus `open` of a new session until its first question is pending. The
/// wait for the server to accept the connection is left out (a `healthz`
/// round trip absorbs it): the accept loop polls its listener every 5 ms,
/// so that wait is a uniform 0–5 ms draw.
fn setup_once(bin: &Path, dir: &Path, seed: u64, k: usize) -> Result<Duration, String> {
    let start = Instant::now();
    let server = Server::spawn(bin, dir, false)?;
    let listening = start.elapsed();
    let mut conn = Conn::connect(&server.socket)?;
    conn.call(&Request::new("healthz"))?;
    let job = job(seed, 0);
    let t = Instant::now();
    let resp = conn.call(&open_request(&format!("setup{k}"), &job))?;
    let open = t.elapsed();
    if !resp.ok || resp.pending.is_none_or(|p| p.is_empty()) {
        return Err(format!("set-up open failed: {:?}", resp.error));
    }
    drop(conn);
    server.drain()?;
    Ok(listening + open)
}

/// Everything one invocation measured.
#[derive(Default)]
struct Run {
    setups: Vec<f64>,
    /// The measured pass, then with `trace` an untraced and a traced pass
    /// over its first `TRACE_SESSIONS` sessions.
    passes: Vec<(&'static str, Pass)>,
    layers: Option<Layers>,
}

/// Fill `run` in the current directory (the invocation's work directory):
/// the measured pass of `SESSIONS_PER_SECOND × seconds` sessions
/// (`REPEATS` times over a list of distinct ones) on a fresh server, the
/// set-up repeats on its state, then with `trace` an untraced and a
/// traced pass over the first `TRACE_SESSIONS` sessions once, each on a
/// fresh server. Stops at the first error outside a session.
fn fill(run: &mut Run, bin: &Path, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let truths = truths()?;
    let sessions = (seconds * SESSIONS_PER_SECOND / REPEATS as f64).ceil() as usize;
    let dir = Path::new("main");
    let main = pass(bin, dir, false, seed, &truths, sessions, REPEATS)?;
    run.passes.push(("main", main));
    for k in 0..SETUP_REPEATS {
        run.setups
            .push(setup_once(bin, dir, seed, k)?.as_secs_f64());
    }
    if trace {
        let untraced = pass(
            bin,
            Path::new("untraced"),
            false,
            seed,
            &truths,
            TRACE_SESSIONS,
            1,
        )?;
        let dir = Path::new("traced");
        let traced = pass(bin, dir, true, seed, &truths, TRACE_SESSIONS, 1)?;
        let spans = dir.join("metrics.jsonl");
        let layers = layers(
            &traced,
            &untraced,
            &run.passes[0].1,
            &spans,
            &dir.join("state"),
        )?;
        run.passes.push(("untraced", untraced));
        run.passes.push(("traced", traced));
        run.layers = Some(layers);
    }
    Ok(())
}

/// Run the workload and check every session against its in-process
/// reference. An error outside a session (server start or drain) ends the
/// run as one failed operation. Returns the end-to-end metrics, or with
/// `trace` the per-layer metrics of the traced pass.
pub fn measure(bin: &Path, seed: u64, seconds: f64, trace: bool, ops: &mut Ops) -> Vec<Metric> {
    let mut run = Run::default();
    if let Err(e) = fill(&mut run, bin, seed, seconds, trace) {
        ops.attempted += 1;
        ops.fail(e);
    }
    let metrics = finish(&run, seed, ops);
    if trace {
        run.layers.map_or_else(Vec::new, |l| l.metrics())
    } else {
        metrics
    }
}

/// Summed duration (s) and count of each server span name.
fn span_totals(path: &Path) -> Result<BTreeMap<String, (f64, u64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"').to_string())
    };
    let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for line in text.lines().filter(|l| l.contains("\"type\":\"span\"")) {
        let (Some(name), Some(dur)) = (field(line, "\"span\":"), field(line, "\"dur_us\":")) else {
            continue;
        };
        let e = out.entry(name).or_default();
        e.0 += dur.parse::<f64>().unwrap_or(0.0) / 1e6;
        e.1 += 1;
    }
    Ok(out)
}

/// Total size of the state files with `suffix`.
fn file_bytes(dir: &Path, suffix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Per-layer totals of the traced pass `t`, whose overhead is taken
/// against `untraced`, the same sessions on a server without a span log.
/// The p99 wait (of the raw waits, host pauses included) and the answer
/// rate come from the measured pass `main`, which holds thousands of
/// waits.
fn layers(
    t: &Pass,
    untraced: &Pass,
    main: &Pass,
    metrics: &Path,
    state: &Path,
) -> Result<Layers, String> {
    let spans = span_totals(metrics)?;
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    // `wchar` counts write(2) calls: the per-session meta and done
    // records and the checkpoints. Socket replies go out through send(2),
    // which it does not count.
    let records = file_bytes(state, ".meta.json") + file_bytes(state, ".done.json");
    let o = &t.out;
    let l = Layers {
        fit_s: span("train").0,
        fit_calls: span("train").1,
        select_s: span("select").0,
        select_committee_s: span("select.committee").0,
        select_score_s: span("select.score").0,
        select_pool_rows: o.pool_rows,
        eval_s: span("eval").0,
        eval_predicts: o.predicts,
        wait_s: (o.waits_ms.iter().sum::<f64>() + o.ends_ms) / 1e3,
        waits: o.waits_ms.len() as u64,
        wire_requests: o.requests,
        wire_rtts_us: o.rtts_us.clone(),
        wire_bytes: o.sent + o.received,
        wire_busy: o.busy,
        server_cpu_s: t.cpu_s,
        checkpoint_writes: span("checkpoint.write").1,
        checkpoint_bytes: t.wchar.map_or(0, |w| w.saturating_sub(records)),
        p99_waits_ms: main.out.waits_ms.clone(),
        labels_per_s: (
            main.out.answers as f64 / main.wall.as_secs_f64(),
            main.out.answers,
        ),
        overhead_frac: t.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0,
        attributed_frac: o.in_request.as_secs_f64() / t.wall.as_secs_f64(),
        ..Layers::default()
    };
    Ok(l)
}

/// The in-process reference fingerprint of session `i`.
fn reference(seed: u64, i: usize) -> Result<String, String> {
    let job = job(seed, i);
    build_strategy(STRATEGY)
        .and_then(|s| dataset::reference_fingerprint(job.spec, job.seed, s, &params()))
        .map_err(|e| e.to_string())
}

/// Each wave's fastest repeat: for every session index, the minimum over
/// its repeats of the wait at each position.
fn fastest_waits(done: &[Done]) -> Vec<f64> {
    let mut by_index: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for d in done {
        let fastest = by_index
            .entry(d.index)
            .or_insert_with(|| d.waits_ms.clone());
        for (f, &w) in fastest.iter_mut().zip(&d.waits_ms) {
            *f = f.min(w);
        }
    }
    by_index.into_values().flatten().collect()
}

/// Check every session against its in-process reference (and repeats of
/// a session against each other) and compute the end-to-end metrics (none
/// when the measured pass did not run).
fn finish(run: &Run, seed: u64, ops: &mut Ops) -> Vec<Metric> {
    let indices: BTreeSet<usize> = run
        .passes
        .iter()
        .flat_map(|(_, p)| &p.out.done)
        .map(|d| d.index)
        .collect();
    let reference: BTreeMap<usize, Result<String, String>> = indices
        .into_iter()
        .map(|i| (i, reference(seed, i)))
        .collect();
    for (what, p) in &run.passes {
        ops.attempted += p.out.attempted;
        for f in &p.out.failures {
            ops.fail(format!("{what} {f}"));
        }
        let mut waves: BTreeMap<usize, usize> = BTreeMap::new();
        for d in &p.out.done {
            let expected = *waves.entry(d.index).or_insert(d.waits_ms.len());
            match &reference[&d.index] {
                Ok(fp) if *fp == d.fingerprint && d.waits_ms.len() == expected => {}
                Ok(fp) if *fp == d.fingerprint => ops.fail(format!(
                    "{what} session {}: repeats differ in their number of waits",
                    d.index
                )),
                Ok(_) => ops.fail(format!(
                    "{what} session {} differs from its reference fingerprint",
                    d.index
                )),
                Err(e) => ops.fail(format!("{what} session {}: reference: {e}", d.index)),
            }
        }
    }
    let Some((_, main)) = run.passes.first() else {
        return Vec::new();
    };
    let waits = fastest_waits(&main.out.done);
    let distinct: BTreeMap<usize, f64> =
        main.out.done.iter().map(|d| (d.index, d.best_f1)).collect();
    let specs: Vec<&str> = dataset::SPECS.iter().map(|&(s, _, _)| s).collect();
    println!(
        "input {{\"workload\": \"{NAME}\", \"datasets\": {:?}, \"connections\": 1, \
         \"sessions\": {}, \"repeats\": {REPEATS}, \"waves\": {}, \"waits\": {}, \
         \"requests\": {}}}",
        specs,
        distinct.len(),
        waits.len(),
        main.out.waits_ms.len(),
        main.out.requests
    );
    [
        Some(report::metric(
            "setup_s",
            report::median(&run.setups),
            "s",
            run.setups.len(),
        )),
        report::pct_metric("wait_p50_ms", &waits, 50.0),
        report::pct_metric("wait_p90_ms", &waits, 90.0),
        Some(report::metric("peak_rss_mb", main.peak_rss_mb, "MB", 1)),
        Some(report::metric(
            "best_f1",
            distinct.values().sum::<f64>() / distinct.len().max(1) as f64,
            "ratio",
            distinct.len(),
        )),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Self-test probe: one server, `PROBE_SESSIONS` sessions once;
/// summarized as counts and a digest of the fingerprints in session
/// order.
pub fn probe(bin: &Path, dir: &Path, seed: u64) -> Result<(String, u64), String> {
    const PROBE_SESSIONS: usize = 8;
    let p = pass(bin, dir, false, seed, &truths()?, PROBE_SESSIONS, 1)?;
    let o = &p.out;
    Ok((
        format!(
            "sessions={} waits={} requests={}",
            o.done.len(),
            o.waits_ms.len(),
            o.requests
        ),
        crate::digest(o.done.iter().map(|d| d.fingerprint.as_str())),
    ))
}
