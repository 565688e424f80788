//! `serve-load` — load generator and chaos harness for `alem-serve`.
//!
//! Drives many interleaved labeling sessions against a real server
//! process and asserts the service's core promise: every session's final
//! `deterministic_fingerprint` is byte-identical to a fault-free
//! in-process run of the same (dataset, seed, strategy, params) — no
//! matter what the transport and the process lifecycle did in between.
//!
//! With `--chaos`, client threads inject duplicate answers, reversed
//! wave order, answers for never-asked examples, truncated frames, and
//! mid-wave reconnects, and a few sessions get the `crash` op (a panic
//! inside the server's supervised region). With `--kill-restart`, the
//! run spans three server generations: generation 1 aborts mid-checkpoint
//! write (`--die-at-checkpoint`), generation 2 is SIGKILLed mid-run, and
//! generation 3 drains gracefully. Sessions poisoned by `crash` recover
//! after the next restart from their last durable checkpoint.
//!
//! Emits `BENCH_serve.json` (throughput, query-to-batch latency
//! quantiles from the server's histograms, per-restart recovery times,
//! chaos counts, fingerprint verdict) and exits non-zero on any
//! mismatch or incomplete session.

use alem_core::error::AlemError;
use alem_core::oracle::{AnswerKey, OracleAnswer, RetryPolicy};
use alem_par::{supervised, Parallelism};
use alem_serve::client::Client;
use alem_serve::dataset;
use alem_serve::fleet::build_strategy;
use alem_serve::proto::{self, Request, Response};
use serde::Serialize;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    sessions: usize,
    clients: usize,
    datasets: Vec<String>,
    strategy: String,
    chaos: bool,
    kill_restart: bool,
    die_at_checkpoint: u64,
    deadline_ms: u64,
    out: PathBuf,
    server_metrics_out: Option<PathBuf>,
}

const USAGE: &str = "usage: serve-load [--sessions N] [--clients N] [--datasets a,b] \
[--strategy NAME] [--chaos] [--kill-restart] [--die-at-checkpoint N] [--deadline-ms N] \
[--out FILE] [--server-metrics-out FILE]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sessions: 24,
        clients: 8,
        datasets: vec!["toy".to_string(), "skew".to_string()],
        strategy: "margin".to_string(),
        chaos: false,
        kill_restart: false,
        die_at_checkpoint: 25,
        deadline_ms: 10_000,
        out: PathBuf::from("BENCH_serve.json"),
        server_metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--sessions" => args.sessions = num(&value("--sessions")?)?,
            "--clients" => args.clients = num(&value("--clients")?)?,
            "--datasets" => {
                args.datasets = value("--datasets")?.split(',').map(String::from).collect()
            }
            "--strategy" => args.strategy = value("--strategy")?,
            "--chaos" => args.chaos = true,
            "--kill-restart" => args.kill_restart = true,
            "--die-at-checkpoint" => args.die_at_checkpoint = num(&value("--die-at-checkpoint")?)?,
            "--deadline-ms" => args.deadline_ms = num(&value("--deadline-ms")?)?,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--server-metrics-out" => {
                args.server_metrics_out = Some(PathBuf::from(value("--server-metrics-out")?))
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if args.sessions == 0 || args.clients == 0 || args.datasets.is_empty() {
        return Err("need at least one session, client, and dataset".to_string());
    }
    Ok(args)
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number '{s}': {e}"))
}

#[derive(Clone)]
struct Job {
    session: String,
    dataset: String,
    seed: u64,
    /// Chaos decision bits (0 = clean client).
    chaos: u64,
    /// Send the `crash` op once instead of answering (recovers after the
    /// next restart).
    crash: bool,
}

#[derive(Default)]
struct Stats {
    malformed_rejected: AtomicU64,
    duplicates_sent: AtomicU64,
    bogus_sent: AtomicU64,
    reconnects: AtomicU64,
    crashes_sent: AtomicU64,
}

struct Shared {
    addr: String,
    queue: parking_lot::Mutex<Vec<Job>>,
    requeue: parking_lot::Mutex<Vec<Job>>,
    results: parking_lot::Mutex<std::collections::BTreeMap<String, String>>,
    stop: AtomicBool,
    allow_crash_ops: AtomicBool,
    stats: Stats,
}

enum Drove {
    Done,
    Requeue(Job),
}

fn connect_retry(shared: &Shared) -> Option<Client> {
    let retry = RetryPolicy::default();
    for attempt in 0.. {
        if shared.stop.load(Ordering::SeqCst) {
            return None;
        }
        if let Ok(c) = Client::connect(&shared.addr) {
            return Some(c);
        }
        // Server may be mid-restart; keep probing with bounded backoff.
        std::thread::sleep(
            retry
                .delay_for(attempt.min(6))
                .min(Duration::from_millis(250)),
        );
        if attempt > 600 {
            return None;
        }
    }
    None
}

fn call(client: &mut Client, req: &Request) -> Result<Response, AlemError> {
    client.call(req)
}

/// Drive one session to completion (or to a point where it must be
/// retried after a server restart).
fn drive(shared: &Shared, mut job: Job) -> Drove {
    let Some(mut client) = connect_retry(shared) else {
        return Drove::Requeue(job);
    };
    // One trace id per job: every frame this client sends for the session
    // is correlatable across client thread, connection handler, and
    // session worker in the server's trace sinks.
    let trace = format!("load-{}", job.session);
    client.set_trace_id(Some(&trace));
    let Ok(corpus) = dataset::build(&job.dataset) else {
        eprintln!("serve-load: cannot build dataset '{}'", job.dataset);
        return Drove::Requeue(job);
    };
    let key = AnswerKey::perfect(job.seed);
    // Open (or attach to) the session.
    loop {
        let mut open = Request::open(&job.session, &job.dataset, job.seed, "STRAT");
        open.strategy = Some(shared_strategy());
        let resp = match call(&mut client, &open) {
            Ok(r) => r,
            Err(_) => return Drove::Requeue(job),
        };
        if resp.ok {
            break;
        }
        match resp.error.as_deref() {
            Some(proto::ERR_EXISTS) => break, // resumed or already known
            Some(proto::ERR_BUSY) => {
                std::thread::sleep(Duration::from_millis(resp.retry_after_ms.unwrap_or(50)));
            }
            Some(proto::ERR_DRAINING) => return Drove::Requeue(job),
            other => {
                eprintln!(
                    "serve-load: open '{}' rejected ({other:?}): {:?}",
                    job.session, resp.detail
                );
                return Drove::Requeue(job);
            }
        }
    }
    // Poll/answer until done.
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Drove::Requeue(job);
        }
        let resp = match call(&mut client, &Request::poll(&job.session)) {
            Ok(r) => r,
            Err(_) => return Drove::Requeue(job),
        };
        if !resp.ok {
            return Drove::Requeue(job);
        }
        match resp.state.as_deref() {
            Some("done") => {
                if let Some(fp) = resp.fingerprint {
                    shared.results.lock().insert(job.session.clone(), fp);
                }
                return Drove::Done;
            }
            Some("failed") => {
                // Poisoned (crash op or injected fault): parked until the
                // next restart re-hydrates it from checkpoint.
                return Drove::Requeue(job);
            }
            Some("awaiting_answers") => {
                let mut wave = resp.pending.unwrap_or_default();
                if wave.is_empty() {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                if job.crash && shared.allow_crash_ops.load(Ordering::SeqCst) {
                    job.crash = false;
                    let mut crash = Request::new("crash");
                    crash.session = Some(job.session.clone());
                    shared.stats.crashes_sent.fetch_add(1, Ordering::SeqCst);
                    let _ = call(&mut client, &crash);
                    return Drove::Requeue(job);
                }
                if job.chaos & 1 != 0 {
                    wave.reverse(); // out-of-order answers
                }
                for (k, &example) in wave.iter().enumerate() {
                    if job.chaos & 8 != 0 && k == 0 {
                        // Truncated/garbage frame: must get a structured
                        // malformed reply on the same connection.
                        match client.send_raw("{\"op\": \"ans") {
                            Ok(r) if r.error.as_deref() == Some(proto::ERR_MALFORMED) => {
                                shared
                                    .stats
                                    .malformed_rejected
                                    .fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(r) => {
                                eprintln!("serve-load: truncated frame got {:?}", r.error);
                            }
                            Err(_) => return Drove::Requeue(job),
                        }
                    }
                    if job.chaos & 4 != 0 && k == 1 {
                        // Answer for an example the server never asked.
                        shared.stats.bogus_sent.fetch_add(1, Ordering::SeqCst);
                        let bogus = Request::answer(&job.session, usize::MAX / 2, true);
                        if call(&mut client, &bogus).is_err() {
                            return Drove::Requeue(job);
                        }
                    }
                    if job.chaos & 16 != 0 && k == wave.len() / 2 {
                        // Mid-wave reconnect.
                        shared.stats.reconnects.fetch_add(1, Ordering::SeqCst);
                        drop(client);
                        match connect_retry(shared) {
                            Some(c) => {
                                client = c;
                                client.set_trace_id(Some(&trace));
                            }
                            None => return Drove::Requeue(job),
                        }
                    }
                    let req = match key.answer(example, corpus.truth(example)) {
                        OracleAnswer::Label(l) => Request::answer(&job.session, example, l),
                        OracleAnswer::Abstain => Request::abstain(&job.session, example),
                    };
                    if call(&mut client, &req).is_err() {
                        return Drove::Requeue(job);
                    }
                    if job.chaos & 2 != 0 && k == 0 {
                        // Duplicate delivery of the same answer.
                        shared.stats.duplicates_sent.fetch_add(1, Ordering::SeqCst);
                        if call(&mut client, &req).is_err() {
                            return Drove::Requeue(job);
                        }
                    }
                }
            }
            other => {
                eprintln!("serve-load: unexpected poll state {other:?}");
                return Drove::Requeue(job);
            }
        }
    }
}

// The strategy is fixed for the whole run; stashed in a global so `drive`
// doesn't need it threaded through `Job`.
static STRATEGY: parking_lot::Mutex<String> = parking_lot::Mutex::new(String::new());

fn shared_strategy() -> String {
    STRATEGY.lock().clone()
}

struct ServerProc {
    child: Child,
}

impl ServerProc {
    /// Spawn a server generation and block until its listening line.
    fn spawn(
        bin: &std::path::Path,
        addr: &str,
        state_dir: &std::path::Path,
        deadline_ms: u64,
        max_sessions: usize,
        die_at_checkpoint: Option<u64>,
        metrics_out: Option<&std::path::Path>,
    ) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        if addr.contains('/') {
            cmd.arg("--socket").arg(addr);
        } else {
            cmd.arg("--tcp").arg(addr);
        }
        cmd.arg("--state-dir")
            .arg(state_dir)
            .arg("--max-sessions")
            .arg(max_sessions.to_string())
            .arg("--deadline-ms")
            .arg(deadline_ms.to_string())
            .arg("--checkpoint-every")
            .arg("3")
            // Fast flight ticks so the windowed metrics and post-mortem
            // dumps have fresh intervals even in short harness runs.
            .arg("--flight-tick-ms")
            .arg("200");
        if let Some(n) = die_at_checkpoint {
            cmd.arg("--chaos-die-at-checkpoint").arg(n.to_string());
        }
        if let Some(path) = metrics_out {
            cmd.arg("--metrics-out").arg(path);
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        let mut child = cmd.spawn().map_err(|e| format!("spawning server: {e}"))?;
        let stdout = child.stdout.take().ok_or("no stdout")?;
        let mut reader = std::io::BufReader::new(stdout);
        use std::io::BufRead;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return Err("server exited before listening".to_string()),
                Ok(_) if line.contains("listening on") => break,
                Ok(_) => {}
                Err(e) => return Err(format!("reading server stdout: {e}")),
            }
        }
        // Keep draining stdout so the pipe never fills.
        let drain = supervised::spawn("load.stdout", move || {
            let mut sink = String::new();
            use std::io::Read;
            let _ = reader.read_to_string(&mut sink);
        });
        if let Ok(handle) = drain {
            drop(handle);
        }
        Ok(ServerProc { child })
    }

    fn wait_exit(&mut self, max: Duration) -> Option<std::process::ExitStatus> {
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) => {
                    if t0.elapsed() > max {
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => return None,
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Serialize)]
struct Report {
    sessions: usize,
    completed: usize,
    clients: usize,
    chaos: bool,
    kill_restart: bool,
    restarts: usize,
    wall_ms: u64,
    sessions_per_sec: f64,
    recovery_ms: Vec<u64>,
    q2b_count: u64,
    q2b_p50_us: u64,
    q2b_p90_us: u64,
    q2b_p99_us: u64,
    fingerprints_checked: usize,
    fingerprints_identical: bool,
    malformed_rejected: u64,
    duplicates_sent: u64,
    bogus_answers_sent: u64,
    reconnects: u64,
    crash_ops_sent: u64,
    sessions_resumed_final_gen: u64,
    answers_timeout_observed: u64,
    flight_postmortem_dumps: usize,
    counters: Vec<(String, u64)>,
}

fn main() {
    std::process::exit(run());
}

#[allow(clippy::too_many_lines)]
fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    *STRATEGY.lock() = args.strategy.clone();

    let server_bin = match server_bin_path() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("serve-load: {e}");
            return 1;
        }
    };
    let scratch = std::env::temp_dir().join(format!("alem-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let state_dir = scratch.join("state");
    let addr = listen_addr(&scratch);

    // Build the job list and the fault-free reference fingerprints.
    let jobs: Vec<Job> = (0..args.sessions)
        .map(|i| {
            let h = mix64(0xC4A0_5EED ^ i as u64);
            Job {
                session: format!("s{i:04}"),
                dataset: args.datasets[i % args.datasets.len()].clone(),
                seed: 1000 + i as u64,
                chaos: if args.chaos { h } else { 0 },
                crash: args.chaos && args.kill_restart && i % 31 == 5,
            }
        })
        .collect();
    eprintln!(
        "serve-load: computing {} reference fingerprints in-process...",
        jobs.len()
    );
    let params = dataset::default_params();
    let references: Vec<String> = Parallelism::auto().map(&jobs, |job| {
        let strategy = build_strategy(&args.strategy).expect("strategy");
        dataset::reference_fingerprint(&job.dataset, job.seed, strategy, &params)
            .expect("reference run")
    });

    let shared = Arc::new(Shared {
        addr: addr.clone(),
        queue: parking_lot::Mutex::new(jobs.iter().rev().cloned().collect()),
        requeue: parking_lot::Mutex::new(Vec::new()),
        results: parking_lot::Mutex::new(std::collections::BTreeMap::new()),
        stop: AtomicBool::new(false),
        allow_crash_ops: AtomicBool::new(true),
        stats: Stats::default(),
    });

    let t0 = Instant::now();
    let mut recovery_ms: Vec<u64> = Vec::new();
    let mut restarts = 0usize;
    let spawn_gen = |die_at: Option<u64>, metrics: Option<&std::path::Path>| {
        ServerProc::spawn(
            &server_bin,
            &addr,
            &state_dir,
            args.deadline_ms,
            args.sessions + 8,
            die_at,
            metrics,
        )
    };

    eprintln!("serve-load: starting generation 1 on {addr}");
    let gen1_die = if args.kill_restart {
        Some(args.die_at_checkpoint)
    } else {
        None
    };
    let mut server = match spawn_gen(gen1_die, None) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve-load: {e}");
            return 1;
        }
    };

    // Client fleet.
    let mut workers = Vec::new();
    for w in 0..args.clients {
        let shared = Arc::clone(&shared);
        let name = format!("load.client{w}");
        let handle = supervised::spawn(Box::leak(name.into_boxed_str()), move || loop {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let job = shared.queue.lock().pop();
            let Some(job) = job else {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            match drive(&shared, job) {
                Drove::Done => {}
                Drove::Requeue(job) => shared.requeue.lock().push(job),
            }
        });
        match handle {
            Ok(h) => workers.push(h),
            Err(e) => eprintln!("serve-load: spawning client {w}: {e}"),
        }
    }

    let move_requeued = |shared: &Shared| {
        let mut parked = shared.requeue.lock();
        let mut queue = shared.queue.lock();
        let n = parked.len();
        queue.append(&mut parked);
        n
    };

    if args.kill_restart {
        // Generation 1 dies mid-checkpoint-write (abort from the store's
        // chaos hook). If the threshold is never reached, kill it ourselves
        // — the harness still exercises kill-and-restart.
        match server.wait_exit(Duration::from_secs(180)) {
            Some(status) => eprintln!("serve-load: generation 1 died as planned ({status})"),
            None => {
                eprintln!("serve-load: generation 1 outlived die-at threshold; killing");
                server.kill();
            }
        }
        restarts += 1;
        let r0 = Instant::now();
        server = match spawn_gen(None, None) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve-load: restarting generation 2: {e}");
                return 1;
            }
        };
        recovery_ms.push(r0.elapsed().as_millis() as u64);
        let moved = move_requeued(&shared);
        eprintln!("serve-load: generation 2 up; requeued {moved} session(s)");

        // Let generation 2 get roughly halfway, then SIGKILL it.
        let target = args.sessions / 2;
        let t = Instant::now();
        while shared.results.lock().len() < target && t.elapsed() < Duration::from_secs(180) {
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!(
            "serve-load: SIGKILLing generation 2 at {} completed",
            shared.results.lock().len()
        );
        server.kill();
        restarts += 1;
        shared.allow_crash_ops.store(false, Ordering::SeqCst);
        let r0 = Instant::now();
        server = match spawn_gen(None, args.server_metrics_out.as_deref()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve-load: restarting generation 3: {e}");
                return 1;
            }
        };
        recovery_ms.push(r0.elapsed().as_millis() as u64);
        let moved = move_requeued(&shared);
        eprintln!("serve-load: generation 3 up; requeued {moved} session(s)");
    } else {
        shared.allow_crash_ops.store(false, Ordering::SeqCst);
    }

    // Wait for every session to finish.
    let t = Instant::now();
    let mut last_moved = Instant::now();
    while shared.results.lock().len() < args.sessions && t.elapsed() < Duration::from_secs(300) {
        std::thread::sleep(Duration::from_millis(50));
        if last_moved.elapsed() > Duration::from_secs(2) {
            move_requeued(&shared);
            last_moved = Instant::now();
        }
    }
    let completed = shared.results.lock().len();
    eprintln!(
        "serve-load: {completed}/{} sessions completed in {:?}",
        args.sessions,
        t0.elapsed()
    );

    // Final-generation metrics, then graceful drain.
    let mut q2b = (0u64, 0u64, 0u64, 0u64);
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut resumed_final = 0u64;
    if let Some(mut c) = connect_retry(&shared) {
        if let Ok(m) = c.call(&Request::new("metrics")) {
            q2b = (
                m.q2b_count.unwrap_or(0),
                m.q2b_p50_us.unwrap_or(0),
                m.q2b_p90_us.unwrap_or(0),
                m.q2b_p99_us.unwrap_or(0),
            );
            counters = m.counters.unwrap_or_default();
            resumed_final = counters
                .iter()
                .find(|(n, _)| n == "serve.sessions_resumed")
                .map(|&(_, v)| v)
                .unwrap_or(0);
        }
        let _ = c.call(&Request::new("drain"));
    }
    shared.stop.store(true, Ordering::SeqCst);
    match server.wait_exit(Duration::from_secs(30)) {
        Some(status) if status.success() => eprintln!("serve-load: final generation drained (0)"),
        Some(status) => eprintln!("serve-load: final generation exited {status}"),
        None => {
            eprintln!("serve-load: drain timed out; killing");
            server.kill();
        }
    }
    for w in workers {
        if let Err(p) = w.join() {
            eprintln!("serve-load: client thread panicked: {p}");
        }
    }

    // Separate scenario: a server with a tiny answer deadline must convert
    // silence into abstentions (AbstainingOracle semantics).
    let answers_timeout_observed = timeout_scenario(&server_bin, &scratch);

    // Verdict: every session finished with its reference fingerprint.
    let results = shared.results.lock();
    let mut identical = true;
    for (job, reference) in jobs.iter().zip(&references) {
        match results.get(&job.session) {
            Some(fp) if fp == reference => {}
            Some(fp) => {
                identical = false;
                eprintln!(
                    "serve-load: MISMATCH {}: served {fp} != reference {reference}",
                    job.session
                );
            }
            None => {
                identical = false;
                eprintln!("serve-load: session {} never completed", job.session);
            }
        }
    }

    // Black-box verdict: a `crash` op panics inside the server, and the
    // flight recorder must leave a post-mortem dump for it. Counted
    // before the scratch dir is removed.
    let flight_postmortem_dumps = count_postmortems(&state_dir.join("flight"));

    let wall_ms = t0.elapsed().as_millis() as u64;
    let report = Report {
        sessions: args.sessions,
        completed,
        clients: args.clients,
        chaos: args.chaos,
        kill_restart: args.kill_restart,
        restarts,
        wall_ms,
        sessions_per_sec: completed as f64 / (wall_ms.max(1) as f64 / 1000.0),
        recovery_ms,
        q2b_count: q2b.0,
        q2b_p50_us: q2b.1,
        q2b_p90_us: q2b.2,
        q2b_p99_us: q2b.3,
        fingerprints_checked: jobs.len(),
        fingerprints_identical: identical,
        malformed_rejected: shared.stats.malformed_rejected.load(Ordering::SeqCst),
        duplicates_sent: shared.stats.duplicates_sent.load(Ordering::SeqCst),
        bogus_answers_sent: shared.stats.bogus_sent.load(Ordering::SeqCst),
        reconnects: shared.stats.reconnects.load(Ordering::SeqCst),
        crash_ops_sent: shared.stats.crashes_sent.load(Ordering::SeqCst),
        sessions_resumed_final_gen: resumed_final,
        answers_timeout_observed,
        flight_postmortem_dumps,
        counters,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&args.out, json + "\n") {
                eprintln!("serve-load: writing {}: {e}", args.out.display());
                return 1;
            }
            eprintln!("serve-load: wrote {}", args.out.display());
        }
        Err(e) => {
            eprintln!("serve-load: serializing report: {e}");
            return 1;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if !identical || completed != args.sessions {
        eprintln!("serve-load: FAILED (complete={completed}, identical={identical})");
        return 1;
    }
    let crashes = shared.stats.crashes_sent.load(Ordering::SeqCst);
    if crashes > 0 && flight_postmortem_dumps == 0 {
        eprintln!("serve-load: FAILED ({crashes} crash op(s) sent but no flight post-mortem dump)");
        return 1;
    }
    eprintln!("serve-load: OK");
    0
}

/// Count `postmortem-*.jsonl` flight dumps left behind by induced panics.
fn count_postmortems(flight_dir: &std::path::Path) -> usize {
    let Ok(entries) = std::fs::read_dir(flight_dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("postmortem-") && name.ends_with(".jsonl")
        })
        .count()
}

/// Tiny-deadline scenario: open one session, answer nothing, and assert
/// the server's sweeper converts the silence into abstention answers.
fn timeout_scenario(server_bin: &std::path::Path, scratch: &std::path::Path) -> u64 {
    let state_dir = scratch.join("timeout-state");
    let addr = listen_addr(&scratch.join("timeout"));
    let _ = std::fs::create_dir_all(scratch.join("timeout"));
    let mut server = match ServerProc::spawn(server_bin, &addr, &state_dir, 100, 4, None, None) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve-load: timeout scenario spawn: {e}");
            return 0;
        }
    };
    let mut observed = 0;
    if let Ok(mut c) = Client::connect(&addr) {
        let _ = c.call(&Request::open("silent", "toy", 77, &shared_strategy()));
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(100));
            if let Ok(m) = c.call(&Request::new("metrics")) {
                if let Some(&(_, v)) = m
                    .counters
                    .as_deref()
                    .and_then(|cs| cs.iter().find(|(n, _)| n == "serve.answers_timeout"))
                {
                    if v > 0 {
                        observed = v;
                        break;
                    }
                }
            }
        }
        let _ = c.call(&Request::new("drain"));
    }
    let _ = server.wait_exit(Duration::from_secs(15));
    server.kill();
    eprintln!("serve-load: timeout scenario observed {observed} timed-out answer(s)");
    observed
}

fn server_bin_path() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = me.parent().ok_or("no parent dir")?;
    let candidate = dir.join(if cfg!(windows) {
        "alem-serve.exe"
    } else {
        "alem-serve"
    });
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(format!(
            "alem-serve binary not found next to serve-load ({})",
            candidate.display()
        ))
    }
}

#[cfg(unix)]
fn listen_addr(scratch: &std::path::Path) -> String {
    // Keep the socket path short (sun_path limit): /tmp, not the scratch
    // dir, but namespaced by pid + a scratch-derived tag.
    let tag = mix64(scratch.to_string_lossy().len() as u64 ^ std::process::id() as u64);
    format!("/tmp/alem-{:08x}.sock", tag & 0xffff_ffff)
}

#[cfg(not(unix))]
fn listen_addr(_scratch: &std::path::Path) -> String {
    format!("127.0.0.1:{}", 17000 + std::process::id() % 10_000)
}
