//! Shared scaffolding for the serve integration tests: spawn a real
//! `alem-serve` process, talk to it over the wire, drive sessions with
//! ground-truth answers.
//!
//! Each integration-test binary compiles its own copy of this module and
//! uses a different subset of it.
#![allow(dead_code)]

use alem_core::oracle::OracleAnswer;
use alem_serve::client::Client;
use alem_serve::dataset;
use alem_serve::proto::{self, Request};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct TestServer {
    pub child: Child,
    pub addr: String,
    pub state_dir: PathBuf,
}

impl TestServer {
    /// Spawn a server over a fresh state dir. `tag` must be unique per
    /// test; `reuse_state` restarts over an existing dir (recovery tests).
    pub fn spawn(tag: &str, extra_args: &[&str], reuse_state: Option<PathBuf>) -> TestServer {
        TestServer::spawn_at(&listen_addr(tag), tag, extra_args, reuse_state)
    }

    /// Spawn a server on TCP loopback, on a port the OS picks.
    pub fn spawn_tcp(tag: &str, extra_args: &[&str]) -> TestServer {
        TestServer::spawn_at("127.0.0.1:0", tag, extra_args, None)
    }

    fn spawn_at(
        addr: &str,
        tag: &str,
        extra_args: &[&str],
        reuse_state: Option<PathBuf>,
    ) -> TestServer {
        let state_dir = reuse_state.unwrap_or_else(|| {
            let dir =
                std::env::temp_dir().join(format!("alem-serve-it-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_alem-serve"));
        if addr.contains('/') {
            cmd.arg("--socket").arg(addr);
        } else {
            cmd.arg("--tcp").arg(addr);
        }
        cmd.arg("--state-dir").arg(&state_dir);
        cmd.args(extra_args);
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        let mut child = cmd.spawn().expect("spawn alem-serve");
        let addr = wait_listening(&mut child);
        TestServer {
            child,
            addr,
            state_dir,
        }
    }

    pub fn raw(&self) -> RawConn {
        RawConn::connect(&self.addr)
    }

    pub fn client(&self) -> Client {
        let t = Instant::now();
        loop {
            match Client::connect(&self.addr) {
                Ok(c) => return c,
                Err(e) => {
                    assert!(t.elapsed() < Duration::from_secs(10), "cannot connect: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Request a graceful drain and assert the process exits 0.
    pub fn drain(mut self) -> PathBuf {
        let mut c = self.client();
        let r = c.call(&Request::new("drain")).expect("drain call");
        assert!(r.ok);
        let status = wait_exit(&mut self.child, Duration::from_secs(30)).expect("drain exit");
        assert!(status.success(), "drain exit was {status}");
        self.state_dir.clone()
    }

    /// SIGKILL the server (no drain, no checkpoint-all).
    pub fn kill(mut self) -> PathBuf {
        self.child.kill().expect("kill");
        let _ = self.child.wait();
        self.state_dir.clone()
    }

    /// Wait for the process to exit on its own (chaos aborts).
    pub fn wait_death(mut self, max: Duration) -> PathBuf {
        let status = wait_exit(&mut self.child, max).expect("server did not die");
        assert!(!status.success(), "expected abnormal exit, got {status}");
        self.state_dir.clone()
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A connection that writes raw bytes and returns each reply line
/// exactly as the server wrote it, without its newline.
pub struct RawConn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl RawConn {
    pub fn connect(addr: &str) -> RawConn {
        let t = Instant::now();
        loop {
            match RawConn::try_connect(addr) {
                Ok(c) => return c,
                Err(e) => {
                    assert!(t.elapsed() < Duration::from_secs(10), "cannot connect: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    fn try_connect(addr: &str) -> std::io::Result<RawConn> {
        let timeout = Some(Duration::from_secs(60));
        #[cfg(unix)]
        if addr.contains('/') {
            let s = std::os::unix::net::UnixStream::connect(addr)?;
            s.set_read_timeout(timeout)?;
            return Ok(RawConn {
                reader: BufReader::new(Box::new(s.try_clone()?)),
                writer: Box::new(s),
            });
        }
        let s = std::net::TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(timeout)?;
        Ok(RawConn {
            reader: BufReader::new(Box::new(s.try_clone()?)),
            writer: Box::new(s),
        })
    }

    /// Write `bytes` as they are (no newline is added).
    pub fn write(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write frame");
        self.writer.flush().expect("flush frame");
    }

    /// Block for the next reply line.
    pub fn reply(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "server closed the connection");
        line.truncate(line.trim_end_matches('\n').len());
        line
    }

    /// Send `bytes` and a newline in one write; return the reply line.
    pub fn send(&mut self, bytes: &[u8]) -> String {
        let mut frame = bytes.to_vec();
        frame.push(b'\n');
        self.write(&frame);
        self.reply()
    }

    /// Send `req`; return the reply line.
    pub fn call(&mut self, req: &Request) -> String {
        self.send(proto::encode(req).as_bytes())
    }
}

fn wait_exit(child: &mut Child, max: Duration) -> Option<std::process::ExitStatus> {
    let t = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if t.elapsed() < max => std::thread::sleep(Duration::from_millis(20)),
            _ => return None,
        }
    }
}

/// Block until the server announces its address; returns that address
/// (the real port when bound to port 0).
fn wait_listening(child: &mut Child) -> String {
    let stdout = child.stdout.take().expect("stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read stdout");
        assert!(n > 0, "server exited before listening");
        if let Some((_, addr)) = line.split_once("listening on ") {
            break addr.trim().to_string();
        }
    };
    let drainer = alem_par::supervised::spawn("test.stdout", move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    if let Ok(handle) = drainer {
        drop(handle); // detach
    }
    addr
}

#[cfg(unix)]
fn listen_addr(tag: &str) -> String {
    format!("/tmp/alem-it-{}-{tag}.sock", std::process::id())
}

#[cfg(not(unix))]
fn listen_addr(tag: &str) -> String {
    let h = tag
        .bytes()
        .fold(0u32, |a, b| a.wrapping_mul(31).wrapping_add(b as u32));
    format!("127.0.0.1:{}", 18000 + (std::process::id() + h) % 10_000)
}

/// Answer pending queries with ground truth until the session finishes;
/// returns its fingerprint. Panics if the session fails or stalls.
pub fn drive_to_done(client: &mut Client, session: &str, dataset_spec: &str, seed: u64) -> String {
    let corpus = dataset::build(dataset_spec).expect("dataset");
    let key = alem_core::oracle::AnswerKey::perfect(seed);
    let t = Instant::now();
    loop {
        assert!(
            t.elapsed() < Duration::from_secs(120),
            "session '{session}' did not finish"
        );
        let r = client.call(&Request::poll(session)).expect("poll");
        assert!(r.ok, "poll failed: {:?} {:?}", r.error, r.detail);
        match r.state.as_deref() {
            Some("done") => return r.fingerprint.expect("fingerprint"),
            Some("failed") => panic!("session '{session}' failed: {:?}", r.detail),
            Some("awaiting_answers") => {
                for example in r.pending.unwrap_or_default() {
                    let req = match key.answer(example, corpus.truth(example)) {
                        OracleAnswer::Label(l) => Request::answer(session, example, l),
                        OracleAnswer::Abstain => Request::abstain(session, example),
                    };
                    let ar = client.call(&req).expect("answer");
                    assert!(ar.ok, "answer rejected: {:?}", ar.error);
                }
            }
            other => panic!("unexpected state {other:?}"),
        }
    }
}

/// The fault-free in-process fingerprint for (spec, seed) under the
/// default service params and the `margin` strategy.
pub fn reference(spec: &str, seed: u64) -> String {
    dataset::reference_fingerprint(
        spec,
        seed,
        alem_serve::fleet::build_strategy("margin").expect("strategy"),
        &dataset::default_params(),
    )
    .expect("reference run")
}

/// Drive the session partway: deliver answers until at least
/// `min_answers` have been sent, then return (leaving the wave wherever
/// it happens to be — possibly mid-wave).
pub fn drive_partial(
    client: &mut Client,
    session: &str,
    dataset_spec: &str,
    seed: u64,
    min_answers: usize,
) {
    let corpus = dataset::build(dataset_spec).expect("dataset");
    let key = alem_core::oracle::AnswerKey::perfect(seed);
    let mut sent = 0;
    let t = Instant::now();
    while sent < min_answers {
        assert!(t.elapsed() < Duration::from_secs(60), "partial drive stuck");
        let r = client.call(&Request::poll(session)).expect("poll");
        assert!(r.ok);
        match r.state.as_deref() {
            Some("awaiting_answers") => {
                for example in r.pending.unwrap_or_default() {
                    let req = match key.answer(example, corpus.truth(example)) {
                        OracleAnswer::Label(l) => Request::answer(session, example, l),
                        OracleAnswer::Abstain => Request::abstain(session, example),
                    };
                    assert!(client.call(&req).expect("answer").ok);
                    sent += 1;
                    if sent >= min_answers {
                        return;
                    }
                }
            }
            other => panic!("session ended early in partial drive: {other:?}"),
        }
    }
}
