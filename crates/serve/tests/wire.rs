//! Wire-protocol integration tests against a real `alem-serve` process.

mod common;

use alem_serve::proto::{self, Request};
use common::{drive_to_done, reference, RawConn, TestServer};
use std::time::{Duration, Instant};

#[test]
fn session_over_the_wire_matches_in_process_reference() {
    let server = TestServer::spawn("wire-basic", &[], None);
    let mut c = server.client();
    let r = c.call(&Request::open("s1", "toy", 41, "margin")).unwrap();
    assert!(r.ok, "{:?} {:?}", r.error, r.detail);
    assert_eq!(r.state.as_deref(), Some("awaiting_answers"));
    assert!(!r.pending.unwrap().is_empty());
    let fp = drive_to_done(&mut c, "s1", "toy", 41);
    assert_eq!(fp, reference("toy", 41));
    server.drain();
}

#[test]
fn malformed_frames_get_structured_errors_and_the_connection_survives() {
    let server = TestServer::spawn("wire-malformed", &[], None);
    let mut c = server.client();
    for garbage in ["{\"op\": tru", "[1,2,3]", "not json at all", "{}"] {
        let r = c.send_raw(garbage).unwrap();
        assert!(!r.ok, "garbage accepted: {garbage}");
        assert_eq!(r.error.as_deref(), Some(proto::ERR_MALFORMED), "{garbage}");
        assert!(r.detail.is_some());
    }
    // Same connection still works for real traffic.
    let r = c.call(&Request::new("status")).unwrap();
    assert!(r.ok);
    assert_eq!(r.active, Some(0));

    // Well-formed but invalid requests get their own codes.
    let r = c.call(&Request::poll("never-opened")).unwrap();
    assert_eq!(r.error.as_deref(), Some(proto::ERR_UNKNOWN_SESSION));
    let r = c
        .call(&Request::open("bad/name", "toy", 1, "margin"))
        .unwrap();
    assert_eq!(r.error.as_deref(), Some(proto::ERR_INVALID));
    let r = c
        .call(&Request::open("s1", "toy", 1, "no-such-strategy"))
        .unwrap();
    assert_eq!(r.error.as_deref(), Some(proto::ERR_INVALID));
    let r = c.call(&Request::new("frobnicate")).unwrap();
    assert_eq!(r.error.as_deref(), Some(proto::ERR_INVALID));
    server.drain();
}

#[test]
fn backpressure_rejects_with_retry_hint_at_capacity() {
    let server = TestServer::spawn("wire-busy", &["--max-sessions", "1"], None);
    let mut c = server.client();
    assert!(
        c.call(&Request::open("only", "toy", 1, "margin"))
            .unwrap()
            .ok
    );
    let r = c.call(&Request::open("extra", "toy", 2, "margin")).unwrap();
    assert!(!r.ok);
    assert_eq!(r.error.as_deref(), Some(proto::ERR_BUSY));
    assert!(r.retry_after_ms.unwrap() > 0);
    // Capacity frees once the only session completes.
    drive_to_done(&mut c, "only", "toy", 1);
    let r = c.call(&Request::open("extra", "toy", 2, "margin")).unwrap();
    assert!(r.ok, "{:?} {:?}", r.error, r.detail);
    server.drain();
}

#[test]
fn crash_op_poisons_one_session_and_the_fleet_keeps_serving() {
    let server = TestServer::spawn("wire-crash", &[], None);
    let mut c = server.client();
    assert!(
        c.call(&Request::open("victim", "toy", 9, "margin"))
            .unwrap()
            .ok
    );
    assert!(
        c.call(&Request::open("bystander", "skew", 10, "margin"))
            .unwrap()
            .ok
    );
    let mut crash = Request::new("crash");
    crash.session = Some("victim".to_string());
    let r = c.call(&crash).unwrap();
    assert_eq!(r.state.as_deref(), Some("failed"));
    assert!(r.detail.unwrap().contains("panic"));
    // Same connection, different session: unaffected.
    let fp = drive_to_done(&mut c, "bystander", "skew", 10);
    assert_eq!(fp, reference("skew", 10));
    let status = c.call(&Request::new("status")).unwrap();
    assert_eq!(status.failed, Some(1));
    assert_eq!(status.done, Some(1));
    server.drain();
}

#[test]
fn metrics_op_reports_counters_and_latency_quantiles() {
    let server = TestServer::spawn("wire-metrics", &[], None);
    let mut c = server.client();
    assert!(c.call(&Request::open("s1", "toy", 3, "margin")).unwrap().ok);
    drive_to_done(&mut c, "s1", "toy", 3);
    let m = c.call(&Request::new("metrics")).unwrap();
    let counters = m.counters.unwrap();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(get("serve.sessions_opened"), 1);
    assert_eq!(get("serve.sessions_completed"), 1);
    assert!(get("serve.answers_applied") > 0);
    assert!(
        m.q2b_count.unwrap_or(0) > 0,
        "query_to_batch spans recorded"
    );
    assert!(m.q2b_p99_us.unwrap_or(0) >= m.q2b_p50_us.unwrap_or(0));

    // The Prometheus text exposition rides along and covers the full
    // counter catalog (zero-filled where nothing incremented yet).
    let text = m.text.expect("text exposition");
    for family in alem_serve::fleet::FLEET_COUNTERS {
        let sanitized = family.replace('.', "_");
        assert!(
            text.contains(&format!("# TYPE {sanitized} counter")),
            "exposition missing {family}:\n{text}"
        );
    }
    assert!(text.contains("serve_query_to_batch{quantile=\"0.99\"}"));
    server.drain();
}

#[test]
fn healthz_and_trace_ids_over_the_wire() {
    let server = TestServer::spawn("wire-admin", &[], None);
    let mut c = server.client();

    let h = c.call(&Request::new("healthz")).unwrap();
    assert!(h.ok);
    assert_eq!(h.active, Some(0));
    assert_eq!(h.draining, Some(false));
    assert!(h.uptime_us.unwrap_or(0) > 0);

    // A connection-level trace id is stamped onto every frame and echoed
    // back by the server.
    c.set_trace_id(Some("it-trace-1"));
    let r = c.call(&Request::open("t1", "toy", 5, "margin")).unwrap();
    assert!(r.ok, "{:?} {:?}", r.error, r.detail);
    assert_eq!(r.trace_id.as_deref(), Some("it-trace-1"));
    let fp = drive_to_done(&mut c, "t1", "toy", 5);
    assert_eq!(fp, reference("toy", 5), "trace ids must not perturb runs");

    // Invalid ids are rejected before dispatch.
    let mut bad = Request::poll("t1");
    bad.trace_id = Some("bad\u{7f}id".to_string());
    let r = c.send_raw(&proto::encode(&bad)).unwrap();
    assert_eq!(r.error.as_deref(), Some(proto::ERR_INVALID));
    server.drain();
}

/// Over TCP a round trip must not wait out a delayed ACK (40 ms or more
/// on Linux): each side sends a frame in one write on a `TCP_NODELAY`
/// socket, so 200 sequential requests take milliseconds. A frame written
/// as body then newline, with Nagle on, stalls every round trip until
/// the peer's ACK timer fires.
#[test]
fn tcp_round_trips_do_not_wait_for_delayed_acks() {
    let server = TestServer::spawn_tcp("wire-tcp", &[]);
    let mut c = server.client();
    let start = Instant::now();
    for _ in 0..200 {
        let r = c.call(&Request::new("healthz")).unwrap();
        assert!(r.ok, "{:?} {:?}", r.error, r.detail);
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(4),
        "200 TCP round trips took {took:?}"
    );
    server.drain();
}

fn counter(c: &mut RawConn, name: &str) -> u64 {
    let m = proto::decode_response(&c.call(&Request::new("metrics"))).unwrap();
    let counters = m.counters.unwrap_or_default();
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// A frame that is not UTF-8 gets a `malformed` reply, counted as a
/// rejected frame, and the next frame on the same connection gets `ok`.
#[test]
fn a_frame_that_is_not_utf8_is_answered_and_the_connection_survives() {
    let server = TestServer::spawn("wire-utf8", &[], None);
    let mut c = server.raw();
    let reply = c.send(b"{\"op\":\"poll\",\"session\":\"n\xffpe\"}");
    let r = proto::decode_response(&reply).unwrap();
    assert_eq!(r.error.as_deref(), Some(proto::ERR_MALFORMED), "{reply}");
    assert!(r.detail.unwrap().contains("not UTF-8"), "{reply}");
    let r = proto::decode_response(&c.call(&Request::new("healthz"))).unwrap();
    assert!(r.ok, "{:?} {:?}", r.error, r.detail);
    assert_eq!(counter(&mut c, "serve.frames_rejected"), 1);
    drop(c);
    server.drain();
}

/// A frame whose second half arrives after the server's 250 ms read
/// timeout is answered whole, also when the split falls inside a
/// multibyte character.
#[test]
fn a_frame_split_across_a_read_timeout_is_answered_whole() {
    let server = TestServer::spawn("wire-split", &[], None);
    let mut c = server.raw();
    c.write(b"{\"op\":\"heal");
    std::thread::sleep(Duration::from_millis(400));
    c.write(b"thz\"}\n");
    let reply = c.reply();
    let r = proto::decode_response(&reply).unwrap();
    assert!(r.ok, "{reply}");
    assert!(r.uptime_us.is_some(), "{reply}");
    let frame = "{\"op\":\"poll\",\"session\":\"x\u{e9}\"}\n".as_bytes();
    // Byte 26 is the second byte of the 'é'.
    let (head, tail) = frame.split_at(26);
    c.write(head);
    std::thread::sleep(Duration::from_millis(400));
    c.write(tail);
    let r = proto::decode_response(&c.reply()).unwrap();
    assert_eq!(r.error.as_deref(), Some(proto::ERR_UNKNOWN_SESSION));
    assert_eq!(r.detail.as_deref(), Some("no session named 'x\u{e9}'"));
    let r = proto::decode_response(&c.call(&Request::new("healthz"))).unwrap();
    assert!(r.ok, "{:?} {:?}", r.error, r.detail);
    assert_eq!(counter(&mut c, "serve.frames_rejected"), 0);
    drop(c);
    server.drain();
}
