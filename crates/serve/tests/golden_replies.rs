//! Golden replies: every `open`, `answer`, `poll`, `crash` and `status`
//! reply of a fixed conversation with a real server, pinned as a digest
//! of the exact reply lines, across three server generations on one
//! state directory. Between generations one finished session loses half
//! of its done record and another gets a corrupt meta, so the pins also
//! cover how a restart treats finished sessions whose files are damaged.
//!
//! On a mismatch the transcript is written next to the state directory
//! and its path is in the failure message.

mod common;

use alem_core::oracle::{AnswerKey, OracleAnswer};
use alem_serve::dataset;
use alem_serve::proto::{self, Request, Response};
use common::{reference, RawConn, TestServer};
use std::path::Path;

/// FNV-1a 64 over the transcript.
fn digest(lines: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One generation's conversation: every reply line, in order.
struct Transcript {
    conn: RawConn,
    lines: Vec<String>,
}

impl Transcript {
    fn new(server: &TestServer) -> Transcript {
        Transcript {
            conn: server.raw(),
            lines: Vec::new(),
        }
    }

    fn call(&mut self, req: &Request) -> Response {
        let line = self.conn.call(req);
        let resp = proto::decode_response(&line).expect("reply parses");
        self.lines.push(line);
        resp
    }

    fn crash(&mut self, session: &str) -> Response {
        let mut req = Request::new("crash");
        req.session = Some(session.to_string());
        self.call(&req)
    }

    /// Poll and answer with ground truth until the session leaves
    /// `awaiting_answers`, or until `max_answers` answers went out.
    fn drive(&mut self, session: &str, spec: &str, seed: u64, max_answers: usize) -> Response {
        let corpus = dataset::build(spec).expect("dataset");
        let key = AnswerKey::perfect(seed);
        let mut sent = 0;
        loop {
            let r = self.call(&Request::poll(session));
            if r.state.as_deref() != Some("awaiting_answers") || sent >= max_answers {
                return r;
            }
            for example in r.pending.unwrap_or_default() {
                let req = match key.answer(example, corpus.truth(example)) {
                    OracleAnswer::Label(l) => Request::answer(session, example, l),
                    OracleAnswer::Abstain => Request::abstain(session, example),
                };
                self.call(&req);
                sent += 1;
                if sent >= max_answers {
                    break;
                }
            }
        }
    }

    /// Compare with the pinned digest. On a mismatch keep the
    /// transcript and note it in `failures`.
    fn check(&self, generation: &str, want: &str, state_dir: &Path, failures: &mut Vec<String>) {
        let got = digest(&self.lines);
        if got != want {
            let path = state_dir.with_extension(format!("{generation}.transcript"));
            std::fs::write(&path, self.lines.join("\n") + "\n").expect("write transcript");
            failures.push(format!(
                "{generation}: replies digest {got}, pinned {want}; {} replies in {}",
                self.lines.len(),
                path.display()
            ));
        }
    }
}

#[test]
fn replies_are_pinned_across_restarts_with_damaged_finished_sessions() {
    let mut failures = Vec::new();
    // Generation 1: two sessions finish, one is crashed mid-run and one
    // is left mid-run for the drain to checkpoint.
    let server = TestServer::spawn("golden-1", &[], None);
    let mut t = Transcript::new(&server);
    for (name, spec, seed) in [
        ("a", "toy", 61),
        ("b", "skew", 62),
        ("c", "toy", 63),
        ("d", "skew", 64),
    ] {
        assert!(t.call(&Request::open(name, spec, seed, "margin")).ok);
    }
    t.call(&Request::open("a", "toy", 61, "margin"));
    let a = t.drive("a", "toy", 61, usize::MAX);
    assert_eq!(a.fingerprint, Some(reference("toy", 61)));
    t.call(&Request::answer("a", 0, true));
    t.crash("a");
    t.call(&Request::poll("a"));
    let b = t.drive("b", "skew", 62, usize::MAX);
    assert_eq!(b.fingerprint, Some(reference("skew", 62)));
    t.drive("c", "toy", 63, 30);
    assert_eq!(t.crash("c").state.as_deref(), Some("failed"));
    t.call(&Request::poll("c"));
    t.call(&Request::answer("c", 0, true));
    t.drive("d", "skew", 64, 25);
    t.call(&Request::poll("never-opened"));
    t.call(&Request::new("status"));
    t.check(
        "generation-1",
        "cce508396b28d8f4",
        &server.state_dir,
        &mut failures,
    );
    drop(t);
    let state_dir = server.drain();

    // Generation 2: `a` lost the second half of its done record, so the
    // restart resumes it; the first request after the restart touches it.
    let done_a = state_dir.join("a.done.json");
    let text = std::fs::read(&done_a).expect("a's done record");
    std::fs::write(&done_a, &text[..text.len() / 2]).expect("truncate");
    let server = TestServer::spawn("golden-2", &[], Some(state_dir));
    let mut t = Transcript::new(&server);
    let a = t.call(&Request::poll("a"));
    assert_eq!(a.state.as_deref(), Some("awaiting_answers"));
    assert_eq!(a.resumed, Some(true));
    t.call(&Request::new("status"));
    t.call(&Request::poll("b"));
    t.crash("b");
    t.call(&Request::answer("b", 0, true));
    t.call(&Request::poll("c"));
    let a = t.drive("a", "toy", 61, usize::MAX);
    assert_eq!(a.fingerprint, Some(reference("toy", 61)));
    let c = t.drive("c", "toy", 63, usize::MAX);
    assert_eq!(c.fingerprint, Some(reference("toy", 63)));
    let d = t.drive("d", "skew", 64, usize::MAX);
    assert_eq!(d.fingerprint, Some(reference("skew", 64)));
    t.call(&Request::new("status"));
    t.check(
        "generation-2",
        "c08c17f50ac27ecb",
        &server.state_dir,
        &mut failures,
    );
    drop(t);
    let state_dir = server.drain();

    // Generation 3: `b`'s meta is corrupt, so `b` fails; the first
    // request after the restart is `status`.
    std::fs::write(state_dir.join("b.meta.json"), "not json").expect("corrupt meta");
    let server = TestServer::spawn("golden-3", &[], Some(state_dir));
    let mut t = Transcript::new(&server);
    t.call(&Request::new("status"));
    let b = t.call(&Request::poll("b"));
    assert_eq!(b.state.as_deref(), Some("failed"));
    assert_eq!(
        b.detail.as_deref(),
        Some("checkpoint corrupt: meta for 'b': invalid literal at offset 0")
    );
    t.crash("b");
    t.call(&Request::answer("b", 0, true));
    for name in ["a", "c", "d"] {
        assert_eq!(t.call(&Request::poll(name)).state.as_deref(), Some("done"));
    }
    t.call(&Request::open("b", "skew", 62, "margin"));
    assert!(t.call(&Request::open("e", "toy", 65, "margin")).ok);
    let e = t.drive("e", "toy", 65, usize::MAX);
    assert_eq!(e.fingerprint, Some(reference("toy", 65)));
    t.call(&Request::poll("e"));
    t.call(&Request::new("status"));
    t.check(
        "generation-3",
        "90abceab0b368e1c",
        &server.state_dir,
        &mut failures,
    );
    drop(t);
    server.drain();
    assert!(failures.is_empty(), "{failures:#?}");
}
