//! Accept loop, connection threads, deadline sweeper, and graceful drain.
//!
//! Threading model: one nonblocking accept loop on the caller's thread,
//! one `alem_par::supervised` thread per connection (named `serve.conn`),
//! and one supervised deadline sweeper (`serve.deadline`). Connection
//! threads never touch each other's state — all shared mutation goes
//! through [`Fleet`], which is panic-isolated per session — so a
//! misbehaving connection can at worst poison the sessions it drives.
//!
//! Drain: when [`Fleet::request_drain`] fires (via the `drain` op or a
//! latched `SIGTERM`/`SIGINT` from `sigshim`), the accept loop stops
//! accepting, gives in-flight connections a bounded grace period, stops
//! the sweeper, checkpoints every live session, and returns — the binary
//! then exits 0. A `SIGKILL` skips all of that, which is exactly what the
//! crash-recovery tests exercise: the fleet restarts from the last
//! durable iteration-boundary checkpoints instead.

use crate::fleet::Fleet;
use crate::proto::{self, Response};
use alem_core::error::AlemError;
use alem_par::supervised;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where to listen.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP address, e.g. `127.0.0.1:0`.
    Tcp(String),
    /// Unix-domain socket path (removed and re-bound if it exists).
    #[cfg(unix)]
    Unix(PathBuf),
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn prepare(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                // A reply is one write; sending it at once keeps a round
                // trip from waiting on the peer's delayed ACK.
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(Duration::from_millis(250)))
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(Duration::from_millis(250)))
            }
        }
    }

    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The serving half: owns the listener, drives the fleet.
pub struct Server {
    fleet: Arc<Fleet>,
    listener: Listener,
    addr_desc: String,
}

impl Server {
    /// Bind the listener (nonblocking accept).
    pub fn bind(bind: &Bind, fleet: Arc<Fleet>) -> Result<Server, AlemError> {
        let (listener, addr_desc) = match bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                let desc = l.local_addr().map(|a| a.to_string()).unwrap_or_default();
                (Listener::Tcp(l), desc)
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (Listener::Unix(l), path.display().to_string())
            }
        };
        Ok(Server {
            fleet,
            listener,
            addr_desc,
        })
    }

    /// Resolved listen address (socket path, or `host:port` with the
    /// real port when bound to port 0).
    pub fn addr_desc(&self) -> &str {
        &self.addr_desc
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match &self.listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    /// Serve until a drain is requested, then drain and return. On
    /// return every live session has a durable checkpoint.
    pub fn run(&self) -> Result<(), AlemError> {
        let sweep_stop = Arc::new(AtomicBool::new(false));
        let sweeper = {
            let fleet = Arc::clone(&self.fleet);
            let stop = Arc::clone(&sweep_stop);
            supervised::spawn("serve.deadline", move || {
                while !stop.load(Ordering::SeqCst) {
                    fleet.sweep_deadlines();
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
            .map_err(|e| AlemError::Io(format!("spawning deadline sweeper: {e}")))?
        };

        let active_conns = Arc::new(AtomicU64::new(0));
        loop {
            if sigshim::requested() {
                self.fleet.request_drain();
            }
            if self.fleet.draining() {
                break;
            }
            match self.accept() {
                Ok(conn) => {
                    let fleet = Arc::clone(&self.fleet);
                    let conns = Arc::clone(&active_conns);
                    conns.fetch_add(1, Ordering::SeqCst);
                    let spawned = supervised::spawn("serve.conn", move || {
                        if let Err(e) = conn_loop(&fleet, conn) {
                            // Client-side disconnects are routine; log and move on.
                            eprintln!("alem-serve: connection ended: {e}");
                        }
                        conns.fetch_sub(1, Ordering::SeqCst);
                    });
                    match spawned {
                        Ok(handle) => drop(handle), // detach; panics stay in the thread
                        Err(e) => {
                            active_conns.fetch_sub(1, Ordering::SeqCst);
                            eprintln!("alem-serve: could not spawn connection thread: {e}");
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    eprintln!("alem-serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }

        // Drain: bounded grace for in-flight connections (they observe the
        // draining flag at their next read timeout), then sweeper down,
        // then checkpoint everything live.
        let span = self.fleet.obs().span("serve.drain");
        for _ in 0..200 {
            if active_conns.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        sweep_stop.store(true, Ordering::SeqCst);
        if let Err(p) = sweeper.join() {
            eprintln!("alem-serve: deadline sweeper panicked: {p}");
        }
        let written = self.fleet.checkpoint_all();
        span.finish();
        // The drain dump is the service's black box for the shutdown
        // path: the final window of telemetry, written after the last
        // checkpoint so it reflects the drain itself.
        if let Some(flight) = self.fleet.flight() {
            flight.tick();
            match flight.dump_to_dir("drain") {
                Ok(Some(path)) => {
                    eprintln!("alem-serve: drain flight dump at {}", path.display())
                }
                Ok(None) => {}
                Err(e) => eprintln!("alem-serve: drain flight dump failed: {e}"),
            }
        }
        eprintln!("alem-serve: drained; {written} session checkpoint(s) written");
        Ok(())
    }
}

/// One connection: read request lines, answer each on the same
/// connection. Malformed frames, frames that are not UTF-8 included, get a
/// structured `malformed` reply — never a disconnect. A frame split
/// across read timeouts is kept and answered once its newline arrives.
/// Returns when the peer closes, a non-timeout I/O error occurs, or the
/// server starts draining.
fn conn_loop(fleet: &Fleet, conn: Conn) -> Result<(), AlemError> {
    conn.prepare()?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    // The frame being read; cleared only once it has been handled, so the
    // bytes read before an idle tick stay.
    let mut frame = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut frame) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {
                let text = std::str::from_utf8(&frame);
                if text.is_ok_and(|t| t.trim().is_empty()) {
                    frame.clear();
                    continue;
                }
                // Decode before opening the request span so the span (and
                // everything under it) can be stamped with the client's
                // trace id; a fresh scope per request means an id never
                // leaks onto the next frame of the same connection.
                let decoded = text
                    .map_err(|e| format!("frame is not UTF-8: {e}"))
                    .and_then(proto::decode_request);
                let trace_id = decoded
                    .as_ref()
                    .ok()
                    .and_then(|req| req.trace_id.clone())
                    .filter(|t| proto::valid_trace_id(t));
                let _trace = alem_obs::trace_scope(trace_id.as_deref());
                let span = fleet.obs().span("serve.request");
                let response = match decoded {
                    Ok(req) => fleet.handle(&req),
                    Err(detail) => {
                        fleet.obs().counter_add("serve.frames_rejected", 1);
                        Response::err(proto::ERR_MALFORMED, detail)
                    }
                };
                let reply = format!("{}\n", proto::encode(&response));
                writer.write_all(reply.as_bytes())?;
                writer.flush()?;
                span.finish();
                frame.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle tick: fall out quickly once a drain begins so the
                // grace period in `run` converges.
                if fleet.draining() || sigshim::requested() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}
