//! `alem-serve` — the crash-tolerant multi-session labeling service.
//!
//! ```text
//! alem-serve --socket /tmp/alem.sock --state-dir ./state \
//!            --max-sessions 256 --deadline-ms 30000 --checkpoint-every 3
//! ```
//!
//! Startup: install signal latches, restore the fleet from the state
//! directory (cold restart), bind, print the resolved listen address on
//! stdout (load harnesses wait for this line), serve until drained.

use alem_obs::{FlightRecorder, Registry};
use alem_serve::fleet::{Fleet, FleetConfig};
use alem_serve::server::{Bind, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    bind: Bind,
    state_dir: PathBuf,
    max_sessions: usize,
    deadline_ms: u64,
    checkpoint_every: usize,
    metrics_out: Option<PathBuf>,
    flight_window: usize,
    flight_tick_ms: u64,
    chaos_die_at_checkpoint: Option<u64>,
}

const USAGE: &str = "usage: alem-serve [--tcp ADDR | --socket PATH] --state-dir DIR \
[--max-sessions N] [--deadline-ms N] [--checkpoint-every N] \
[--metrics-out FILE] [--flight-window N] [--flight-tick-ms N] \
[--chaos-die-at-checkpoint N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        state_dir: PathBuf::from("alem-serve-state"),
        max_sessions: 256,
        deadline_ms: 30_000,
        checkpoint_every: 3,
        metrics_out: None,
        flight_window: 60,
        flight_tick_ms: 1_000,
        chaos_die_at_checkpoint: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--tcp" => args.bind = Bind::Tcp(value("--tcp")?),
            "--socket" => {
                #[cfg(unix)]
                {
                    args.bind = Bind::Unix(PathBuf::from(value("--socket")?));
                }
                #[cfg(not(unix))]
                return Err("--socket requires a unix platform".to_string());
            }
            "--state-dir" => args.state_dir = PathBuf::from(value("--state-dir")?),
            "--max-sessions" => {
                args.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--checkpoint-every" => {
                args.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--flight-window" => {
                args.flight_window = value("--flight-window")?
                    .parse()
                    .map_err(|e| format!("--flight-window: {e}"))?
            }
            "--flight-tick-ms" => {
                args.flight_tick_ms = value("--flight-tick-ms")?
                    .parse()
                    .map_err(|e| format!("--flight-tick-ms: {e}"))?
            }
            "--chaos-die-at-checkpoint" => {
                args.chaos_die_at_checkpoint = Some(
                    value("--chaos-die-at-checkpoint")?
                        .parse()
                        .map_err(|e| format!("--chaos-die-at-checkpoint: {e}"))?,
                )
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    sigshim::install();
    // The per-event log grows with every request and only the
    // `--metrics-out` sink reads it; the metrics op and the flight
    // recorder read the aggregates.
    let obs = if args.metrics_out.is_some() {
        Registry::enabled()
    } else {
        Registry::aggregating()
    };
    obs.set_run_id("alem-serve");
    // Flight recorder: the service's black box. Dumps land next to the
    // session checkpoints so one directory holds everything needed for a
    // post-mortem. A panic on any supervised thread (connection handler,
    // deadline sweeper, flight ticker) snapshots the last window before
    // the thread dies.
    let flight = FlightRecorder::new(obs.clone(), args.flight_window)
        .with_dump_dir(args.state_dir.join("flight"));
    {
        let flight = flight.clone();
        alem_par::supervised::add_panic_observer(move |p| {
            flight.tick();
            match flight.dump_to_dir("postmortem") {
                Ok(Some(path)) => eprintln!(
                    "alem-serve: thread '{}' panicked; flight dump at {}",
                    p.thread,
                    path.display()
                ),
                Ok(None) => {}
                Err(e) => eprintln!("alem-serve: postmortem flight dump failed: {e}"),
            }
        });
    }
    let fleet = match Fleet::new(FleetConfig {
        state_dir: args.state_dir.clone(),
        max_sessions: args.max_sessions,
        answer_deadline: Duration::from_millis(args.deadline_ms),
        checkpoint_every: args.checkpoint_every,
        obs: obs.clone(),
        flight: Some(flight.clone()),
        chaos_die_at_checkpoint: args.chaos_die_at_checkpoint,
    }) {
        Ok(f) => Arc::new(f),
        Err(e) => {
            eprintln!("alem-serve: opening state dir: {e}");
            return 1;
        }
    };
    match fleet.restore() {
        Ok((live, done, failed)) => {
            eprintln!("alem-serve: restored {live} live, {done} done, {failed} failed");
        }
        Err(e) => {
            eprintln!("alem-serve: fleet restore failed: {e}");
            return 1;
        }
    }
    let server = match Server::bind(&args.bind, Arc::clone(&fleet)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("alem-serve: bind failed: {e}");
            return 1;
        }
    };
    // The load harness and tests block on this exact line.
    println!("alem-serve: listening on {}", server.addr_desc());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    let ticker = match flight.start_ticker(Duration::from_millis(args.flight_tick_ms)) {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("alem-serve: flight ticker failed to start: {e}");
            None
        }
    };
    let served = server.run();
    if let Some(t) = ticker {
        if let Err(p) = t.stop() {
            eprintln!("alem-serve: flight ticker panicked: {p}");
        }
    }
    if let Err(e) = served {
        eprintln!("alem-serve: serve loop failed: {e}");
        // Abnormal exit from the serve loop: leave a black-box dump so the
        // failure window is not lost with the process.
        flight.tick();
        if let Ok(Some(path)) = flight.dump_to_dir("abend") {
            eprintln!("alem-serve: abend flight dump at {}", path.display());
        }
        return 1;
    }
    if let Some(path) = &args.metrics_out {
        match std::fs::File::create(path) {
            Ok(mut f) => {
                if let Err(e) = obs.write_jsonl(&mut f) {
                    eprintln!("alem-serve: writing metrics: {e}");
                }
            }
            Err(e) => eprintln!("alem-serve: creating {}: {e}", path.display()),
        }
    }
    0
}
