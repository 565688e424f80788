#![forbid(unsafe_code)]
//! `alem-serve`: a crash-tolerant multi-session active-learning service.
//!
//! The blocking session loop in `alem-core` assumes one process, one
//! session, and an oracle that answers inline. This crate hosts **many
//! concurrent labeling sessions** behind a line-oriented JSON protocol
//! (one request object per line, one response object per line) over a
//! Unix-domain or TCP socket, with the failure model a real labeling
//! deployment needs:
//!
//! - every session is a resumable [`alem_core::session::SessionMachine`]
//!   checkpointed at iteration boundaries, so a `SIGKILL` mid-run loses at
//!   most one in-flight wave of answers;
//! - per-session supervision: a panic inside one session's strategy is
//!   caught and poisons *that session only* — the fleet keeps serving;
//! - deadline enforcement: an answer that never arrives is converted to an
//!   abstention after a configurable deadline (the service-side analogue
//!   of [`alem_core::oracle::AbstainingOracle`] semantics);
//! - admission control: past `max_sessions` the server answers
//!   `{"ok":false,"error":"busy","retry_after_ms":…}` instead of queueing
//!   unboundedly — clients back off with the existing
//!   [`alem_core::oracle::RetryPolicy`] schedule;
//! - malformed frames are rejected with a structured error on the same
//!   connection (never a disconnect, never a crash);
//! - `SIGTERM`/`SIGINT` (via the vendored `sigshim`) or a `drain` request
//!   triggers a graceful drain: stop accepting, finish in-flight requests,
//!   checkpoint every live session past its seed wave (a restart replays
//!   the seed wave from the session's meta), exit 0;
//! - a cold restart re-hydrates the whole fleet from the state directory,
//!   re-validating each checkpoint against the corpus content fingerprint.
//!
//! Because the machine consumes answers *by example* (waves apply only
//! when complete, in the selector's order), a session's
//! `deterministic_fingerprint` is invariant to everything the transport
//! can do to answers — duplication, reordering, reconnects, kills and
//! restarts — as long as every example eventually gets the same answer
//! value. The `serve-load` chaos harness asserts exactly that: hundreds of
//! interleaved sessions under injected disconnects, duplicate and
//! out-of-order answers, truncated frames, and a mid-run kill-and-restart
//! must all finish byte-identical to a fault-free in-process run.

pub mod client;
pub mod dataset;
pub mod fleet;
pub mod proto;
pub mod server;
pub mod store;
