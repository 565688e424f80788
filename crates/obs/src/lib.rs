//! `alem-obs`: zero-dependency telemetry for the active-learning pipeline.
//!
//! Hand-rolled on `std` only (the build environment has no registry access,
//! so this crate follows the same offline-shim discipline as `vendor/`).
//! It provides:
//!
//! - hierarchical [`Span`]s with wall-clock timing — parent/child nesting is
//!   tracked per thread, and every span close feeds a per-name latency
//!   [`Histogram`];
//! - monotonic **counters** and last-write-wins **gauges**;
//! - two export sinks: a JSONL structured-event writer
//!   ([`Registry::write_jsonl`]) and a Chrome `trace_event` exporter
//!   ([`Registry::write_chrome_trace`]) loadable in `chrome://tracing` or
//!   Perfetto;
//! - an end-of-run summary table ([`Registry::summary`]).
//!
//! The [`Registry`] is cheap to clone (an `Arc`) and thread-safe. It comes
//! in three kinds:
//!
//! - [`Registry::enabled`] keeps the **aggregates** (counters, gauges and
//!   per-name histograms) *and* the **per-event log** — one [`Event`] per
//!   span close, counter add and gauge set, with span ids, parents, thread
//!   indices, timestamps, iteration and trace id. The log grows with the
//!   work recorded; only [`Registry::events`], [`Registry::write_jsonl`]
//!   and [`Registry::write_chrome_trace`] read it.
//! - [`Registry::aggregating`] keeps the aggregates only, in memory
//!   bounded by the number of metric names. Everything that reads a
//!   [`Snapshot`] — [`FlightRecorder`], [`render_prometheus`],
//!   [`Registry::summary`] — sees the same values as on an enabled
//!   registry; the log sinks see no events.
//! - [`Registry::disabled`] skips all bookkeeping: [`Registry::span`]
//!   still returns a [`Span`] whose [`Span::finish`] reports the elapsed
//!   wall-clock time — so instrumented code uses the span as its single
//!   source of timing truth — but nothing is recorded.
//!
//! Telemetry is determinism-neutral by construction: no RNG is consumed and
//! no recorded quantity feeds back into the learner, so enabling sinks
//! cannot change a run's `deterministic_fingerprint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flight;
mod hist;

pub use flight::{render_prometheus, FlightRecorder, FlightTicker, Snapshot};
pub use hist::{bucket_bounds, bucket_index, Histogram, BUCKETS};

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

thread_local! {
    /// Stack of trace frames for the current thread. A frame is `Some(id)`
    /// inside [`trace_scope`] with an id, `None` inside a scope opened
    /// without one — an explicit "no trace" frame masks any outer id, so a
    /// request without a `trace_id` never inherits the previous request's.
    static TRACE_STACK: RefCell<Vec<Option<Arc<str>>>> = const { RefCell::new(Vec::new()) };
}

/// Enter a trace scope on the current thread. Every event recorded on
/// this thread while the returned [`TraceGuard`] is alive carries
/// `trace_id` (spans capture it at open). Passing `None` opens a masking
/// scope: events inside it carry no trace id even if an outer scope has
/// one. Scopes nest; the guard restores the previous frame on drop.
pub fn trace_scope(trace_id: Option<&str>) -> TraceGuard {
    let frame = trace_id.map(Arc::from);
    TRACE_STACK.with(|s| s.borrow_mut().push(frame));
    TraceGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// The trace id active on the current thread, if any.
pub fn current_trace() -> Option<Arc<str>> {
    TRACE_STACK.with(|s| s.borrow().last().cloned().flatten())
}

/// RAII guard for a [`trace_scope`]; pops the thread's trace frame on
/// drop. Deliberately `!Send`: a trace scope belongs to one thread.
pub struct TraceGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        TRACE_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// What a recorded [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span: `value` is the duration in microseconds.
    Span,
    /// A counter increment: `value` is the delta added.
    Counter,
    /// A gauge sample: `value` is the new level.
    Gauge,
}

/// One structured telemetry event, recorded at span close or metric update.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event kind (span close, counter add, gauge set).
    pub kind: EventKind,
    /// Span or metric name.
    pub name: &'static str,
    /// Duration in µs (spans), delta (counters), or level (gauges).
    pub value: u64,
    /// Active-learning iteration the event was recorded in.
    pub iter: u64,
    /// Span id (0 for counter/gauge events).
    pub id: u64,
    /// Enclosing span id (0 = root).
    pub parent: u64,
    /// Event start time in µs since the registry epoch.
    pub ts_us: u64,
    /// Dense per-registry thread index (for trace viewers).
    pub tid: u64,
    /// Client-supplied trace id active when the event was recorded
    /// (spans capture it at open), for cross-thread correlation.
    pub trace: Option<Arc<str>>,
}

#[derive(Default)]
struct State {
    stacks: HashMap<ThreadId, Vec<u64>>,
    tids: HashMap<ThreadId, u64>,
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

struct Inner {
    epoch: Instant,
    run_id: Mutex<String>,
    iter: AtomicU64,
    next_span_id: AtomicU64,
    /// Whether the per-event log is kept. Without it, `State::stacks`,
    /// `State::tids`, `State::events` and `next_span_id` stay untouched.
    log: bool,
    state: Mutex<State>,
}

impl Inner {
    fn new(log: bool) -> Self {
        Inner {
            epoch: Instant::now(),
            run_id: Mutex::new(String::new()),
            iter: AtomicU64::new(0),
            next_span_id: AtomicU64::new(1),
            log,
            state: Mutex::new(State::default()),
        }
    }

    fn thread_ctx(state: &mut State) -> (u64, u64) {
        let tid_key = std::thread::current().id();
        let n = state.tids.len() as u64;
        let tid = *state.tids.entry(tid_key).or_insert(n);
        let parent = state
            .stacks
            .get(&tid_key)
            .and_then(|s| s.last().copied())
            .unwrap_or(0);
        (tid, parent)
    }

    /// Apply a counter or gauge update to the aggregates and, when the
    /// log is kept, append its event — both under one state lock.
    fn record_metric(
        &self,
        kind: EventKind,
        name: &'static str,
        value: u64,
        update: impl FnOnce(&mut State),
    ) {
        if !self.log {
            update(&mut self.state.lock().unwrap());
            return;
        }
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        let iter = self.iter.load(Ordering::Relaxed);
        let trace = current_trace();
        let mut state = self.state.lock().unwrap();
        let (tid, parent) = Inner::thread_ctx(&mut state);
        update(&mut state);
        state.events.push(Event {
            kind,
            name,
            value,
            iter,
            id: 0,
            parent,
            ts_us,
            tid,
            trace,
        });
    }
}

/// Thread-safe telemetry registry. Clones share the same store.
#[derive(Clone)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Registry {
    /// The default registry is disabled (telemetry is opt-in).
    fn default() -> Self {
        Registry::disabled()
    }
}

impl Registry {
    /// A no-op registry: spans still time, nothing is recorded.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// A recording registry with its epoch set to now: aggregates plus
    /// the per-event log the JSONL and Chrome trace sinks write.
    pub fn enabled() -> Self {
        Registry {
            inner: Some(Arc::new(Inner::new(true))),
        }
    }

    /// A recording registry that keeps the aggregates (counters, gauges,
    /// per-name histograms) but no per-event log, so its memory is
    /// bounded by the number of metric names. A span takes the state
    /// lock once, at close, to feed its histogram; [`Registry::events`]
    /// stays empty and the log sinks write no event lines.
    pub fn aggregating() -> Self {
        Registry {
            inner: Some(Arc::new(Inner::new(false))),
        }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a run identifier stamped onto every exported JSONL line.
    pub fn set_run_id(&self, id: &str) {
        if let Some(inner) = &self.inner {
            *inner.run_id.lock().unwrap() = id.to_string();
        }
    }

    /// Set the current active-learning iteration; subsequent events carry it.
    pub fn set_iter(&self, k: u64) {
        if let Some(inner) = &self.inner {
            inner.iter.store(k, Ordering::Relaxed);
        }
    }

    /// Open a span. Always usable: on a disabled registry the returned
    /// [`Span`] still measures elapsed time via [`Span::finish`].
    pub fn span(&self, name: &'static str) -> Span {
        let meta = self.inner.as_ref().map(|inner| {
            let log = inner.log.then(|| {
                let id = inner.next_span_id.fetch_add(1, Ordering::Relaxed);
                let ts_us = inner.epoch.elapsed().as_micros() as u64;
                let iter = inner.iter.load(Ordering::Relaxed);
                let trace = current_trace();
                let mut state = inner.state.lock().unwrap();
                let (tid, parent) = Inner::thread_ctx(&mut state);
                state
                    .stacks
                    .entry(std::thread::current().id())
                    .or_default()
                    .push(id);
                SpanLog {
                    id,
                    parent,
                    ts_us,
                    iter,
                    tid,
                    trace,
                }
            });
            SpanMeta {
                inner: Arc::clone(inner),
                log,
            }
        });
        Span {
            start: Instant::now(),
            name,
            meta,
            done: false,
        }
    }

    /// Add `delta` to counter `name` and, when the log is kept, record a
    /// counter event.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.record_metric(EventKind::Counter, name, delta, |state| {
                *state.counters.entry(name).or_insert(0) += delta;
            });
        }
    }

    /// Set gauge `name` to `value` and, when the log is kept, record a
    /// gauge event.
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.record_metric(EventKind::Gauge, name, value, |state| {
                state.gauges.insert(name, value);
            });
        }
    }

    /// Current total of counter `name` (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| {
                inner
                    .state
                    .lock()
                    .unwrap()
                    .counters
                    .get(name)
                    .copied()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }

    /// Latency histogram accumulated for span `name`, if any closed.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.state.lock().unwrap().hists.get(name).cloned())
    }

    /// Snapshot of every recorded event, in recording (close) order.
    /// Empty unless the registry is [`Registry::enabled`].
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map(|inner| inner.state.lock().unwrap().events.clone())
            .unwrap_or_default()
    }

    /// The run identifier set via [`Registry::set_run_id`].
    pub fn run_id(&self) -> String {
        self.inner
            .as_ref()
            .map(|inner| inner.run_id.lock().unwrap().clone())
            .unwrap_or_default()
    }

    /// Microseconds since the registry epoch (0 when disabled).
    pub fn uptime_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.epoch.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }

    /// Point-in-time copy of every counter, gauge, and histogram. The
    /// state lock is held only for the clone — sinks and renderers work
    /// from the returned [`Snapshot`] without stalling recording threads.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let at_us = inner.epoch.elapsed().as_micros() as u64;
        let state = inner.state.lock().unwrap();
        Snapshot {
            at_us,
            interval_us: 0,
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            hists: state.hists.clone(),
        }
    }

    /// Write one JSON object per event (spans, counters, gauges) followed by
    /// one per-span-name histogram summary line. Every line carries the
    /// `span`, `dur_us`, and `iter` fields; events recorded inside a
    /// [`trace_scope`] also carry `trace_id`. Events and histograms are
    /// copied out under the lock and serialized outside it, so a slow sink
    /// never stalls recording threads. A [`Registry::aggregating`]
    /// registry has no events, so only the histogram lines are written.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let run = inner.run_id.lock().unwrap().clone();
        let run = json_escape(&run);
        let last_iter = inner.iter.load(Ordering::Relaxed);
        let (events, hists) = {
            let state = inner.state.lock().unwrap();
            (state.events.clone(), state.hists.clone())
        };
        for e in &events {
            let (ty, dur, mut extra) = match e.kind {
                EventKind::Span => ("span", e.value, String::new()),
                EventKind::Counter => ("counter", 0, format!(",\"value\":{}", e.value)),
                EventKind::Gauge => ("gauge", 0, format!(",\"value\":{}", e.value)),
            };
            if let Some(t) = &e.trace {
                extra.push_str(&format!(",\"trace_id\":\"{}\"", json_escape(t)));
            }
            writeln!(
                w,
                "{{\"type\":\"{ty}\",\"run\":\"{run}\",\"span\":\"{}\",\"id\":{},\"parent\":{},\"iter\":{},\"ts_us\":{},\"dur_us\":{dur},\"tid\":{}{extra}}}",
                e.name, e.id, e.parent, e.iter, e.ts_us, e.tid
            )?;
        }
        for (name, h) in &hists {
            writeln!(
                w,
                "{{\"type\":\"hist\",\"run\":\"{run}\",\"span\":\"{name}\",\"iter\":{last_iter},\"dur_us\":0,\"count\":{},\"sum_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{}}}",
                h.count(),
                h.sum(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99)
            )?;
        }
        Ok(())
    }

    /// Write the Chrome `trace_event` JSON format (an object with a
    /// `traceEvents` array) loadable in `chrome://tracing` or Perfetto.
    /// Spans become complete (`"ph":"X"`) events; counters and gauges become
    /// counter (`"ph":"C"`) events. Spans opened inside a [`trace_scope`]
    /// carry the trace id in `args.trace_id`, so one labeling interaction
    /// can be followed across client thread, connection handler, and
    /// session worker. Events are copied out under the lock and serialized
    /// outside it. A [`Registry::aggregating`] registry writes an empty
    /// `traceEvents` array.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            writeln!(w, "{{\"traceEvents\":[]}}")?;
            return Ok(());
        };
        let events = inner.state.lock().unwrap().events.clone();
        write!(w, "{{\"traceEvents\":[")?;
        let mut running: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let trace_arg = e
                .trace
                .as_ref()
                .map(|t| format!(",\"trace_id\":\"{}\"", json_escape(t)))
                .unwrap_or_default();
            match e.kind {
                EventKind::Span => write!(
                    w,
                    "{{\"name\":\"{}\",\"cat\":\"alem\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"iter\":{}{trace_arg}}}}}",
                    e.name, e.ts_us, e.value, e.tid, e.iter
                )?,
                EventKind::Counter | EventKind::Gauge => {
                    let level = if e.kind == EventKind::Counter {
                        let c = running.entry(e.name).or_insert(0);
                        *c += e.value;
                        *c
                    } else {
                        e.value
                    };
                    write!(
                        w,
                        "{{\"name\":\"{}\",\"cat\":\"alem\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"value\":{level}{trace_arg}}}}}",
                        e.name, e.ts_us, e.tid
                    )?
                }
            }
        }
        writeln!(w, "]}}")?;
        Ok(())
    }

    /// Per-span-name totals: `(name, count, total, p50, p90, p99)` in µs,
    /// sorted by descending total time.
    pub fn phase_totals(&self) -> Vec<(&'static str, u64, u64, u64, u64, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let state = inner.state.lock().unwrap();
        let mut rows: Vec<_> = state
            .hists
            .iter()
            .map(|(name, h)| {
                (
                    *name,
                    h.count(),
                    h.sum(),
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.quantile(0.99),
                )
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows
    }

    /// Render the end-of-run summary table (per-phase totals + histogram
    /// quantiles, then counters and gauges). Empty string when disabled.
    pub fn summary(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>7} {:>12} {:>10} {:>10} {:>10}\n",
            "span", "count", "total_ms", "p50_us", "p90_us", "p99_us"
        ));
        for (name, count, total_us, p50, p90, p99) in self.phase_totals() {
            out.push_str(&format!(
                "{name:<24} {count:>7} {:>12.2} {p50:>10} {p90:>10} {p99:>10}\n",
                total_us as f64 / 1e3
            ));
        }
        let state = inner.state.lock().unwrap();
        if !state.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &state.counters {
                out.push_str(&format!("  {name:<26} {v:>10}\n"));
            }
        }
        if !state.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &state.gauges {
                out.push_str(&format!("  {name:<26} {v:>10}\n"));
            }
        }
        out
    }
}

struct SpanMeta {
    inner: Arc<Inner>,
    /// What the span's log event needs, captured at open; `None` when the
    /// registry keeps no log.
    log: Option<SpanLog>,
}

struct SpanLog {
    id: u64,
    parent: u64,
    ts_us: u64,
    iter: u64,
    tid: u64,
    trace: Option<Arc<str>>,
}

impl SpanMeta {
    fn close(&self, name: &'static str, dur: Duration) {
        let dur_us = dur.as_micros() as u64;
        let mut state = self.inner.state.lock().unwrap();
        state.hists.entry(name).or_default().record(dur_us);
        let Some(log) = &self.log else {
            return;
        };
        if let Some(stack) = state.stacks.get_mut(&std::thread::current().id()) {
            if let Some(pos) = stack.iter().rposition(|&id| id == log.id) {
                stack.remove(pos);
            }
        }
        state.events.push(Event {
            kind: EventKind::Span,
            name,
            value: dur_us,
            iter: log.iter,
            id: log.id,
            parent: log.parent,
            ts_us: log.ts_us,
            tid: log.tid,
            trace: log.trace.clone(),
        });
    }
}

/// An open timing span. Obtain via [`Registry::span`]; close with
/// [`Span::finish`] to get the elapsed [`Duration`] (and, on an enabled
/// registry, record the close event and feed the per-name histogram).
/// Dropping an unfinished span closes it too.
pub struct Span {
    start: Instant,
    name: &'static str,
    meta: Option<SpanMeta>,
    done: bool,
}

impl Span {
    /// Close the span, returning its wall-clock duration. Works (and
    /// returns an accurate duration) on disabled registries too.
    pub fn finish(mut self) -> Duration {
        let dur = self.start.elapsed();
        if let Some(meta) = &self.meta {
            meta.close(self.name, dur);
        }
        self.done = true;
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            if let Some(meta) = &self.meta {
                meta.close(self.name, self.start.elapsed());
            }
        }
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing_but_spans_still_time() {
        let reg = Registry::disabled();
        let span = reg.span("work");
        std::thread::sleep(Duration::from_millis(2));
        let dur = span.finish();
        assert!(dur >= Duration::from_millis(2));
        assert!(reg.events().is_empty());
        reg.counter_add("c", 5);
        reg.gauge_set("g", 7);
        assert_eq!(reg.counter_value("c"), 0);
        assert!(reg.histogram("work").is_none());
        let mut buf = Vec::new();
        reg.write_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert!(reg.summary().is_empty());
    }

    #[test]
    fn span_nesting_tracks_parent_ids() {
        let reg = Registry::enabled();
        let outer = reg.span("outer");
        let inner = reg.span("inner");
        inner.finish();
        outer.finish();
        let events = reg.events();
        assert_eq!(events.len(), 2);
        // Close order: inner first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[0].parent, events[1].id);
        assert_eq!(events[1].parent, 0);
    }

    #[test]
    fn dropped_span_still_closes() {
        let reg = Registry::enabled();
        {
            let _span = reg.span("scoped");
        }
        assert_eq!(reg.events().len(), 1);
        assert_eq!(reg.histogram("scoped").unwrap().count(), 1);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let reg = Registry::enabled();
        reg.counter_add("pairs", 3);
        reg.counter_add("pairs", 4);
        reg.gauge_set("pool", 100);
        reg.gauge_set("pool", 90);
        assert_eq!(reg.counter_value("pairs"), 7);
        let events = reg.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].value, 90);
    }

    #[test]
    fn jsonl_lines_have_required_fields() {
        let reg = Registry::enabled();
        reg.set_run_id("test-run");
        reg.set_iter(2);
        reg.span("phase").finish();
        reg.counter_add("ticks", 1);
        let mut buf = Vec::new();
        reg.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // span + counter + hist summary
        for line in &lines {
            for key in ["\"span\":", "\"dur_us\":", "\"iter\":"] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
            assert!(line.contains("\"run\":\"test-run\""));
        }
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let reg = Registry::enabled();
        reg.span("a").finish();
        reg.counter_add("c", 2);
        let mut buf = Vec::new();
        reg.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.trim_end().ends_with("]}"));
    }

    #[test]
    fn summary_lists_phases_and_metrics() {
        let reg = Registry::enabled();
        reg.span("train").finish();
        reg.counter_add("labels", 10);
        reg.gauge_set("pool", 5);
        let s = reg.summary();
        assert!(s.contains("train"));
        assert!(s.contains("labels"));
        assert!(s.contains("pool"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn trace_scope_stamps_events_and_restores_on_drop() {
        let reg = Registry::enabled();
        reg.span("before").finish();
        {
            let _g = trace_scope(Some("req-42"));
            reg.span("inside").finish();
            reg.counter_add("hits", 1);
            {
                // A scope without an id masks the outer trace.
                let _inner = trace_scope(None);
                reg.span("masked").finish();
            }
            reg.span("inside_again").finish();
        }
        reg.span("after").finish();
        let by_name: HashMap<&str, Option<String>> = reg
            .events()
            .iter()
            .map(|e| (e.name, e.trace.as_ref().map(|t| t.to_string())))
            .collect();
        assert_eq!(by_name["before"], None);
        assert_eq!(by_name["inside"], Some("req-42".to_string()));
        assert_eq!(by_name["hits"], Some("req-42".to_string()));
        assert_eq!(by_name["masked"], None);
        assert_eq!(by_name["inside_again"], Some("req-42".to_string()));
        assert_eq!(by_name["after"], None);
    }

    #[test]
    fn trace_id_reaches_jsonl_and_chrome_sinks() {
        let reg = Registry::enabled();
        {
            let _g = trace_scope(Some("t-7"));
            reg.span("traced").finish();
        }
        reg.span("plain").finish();
        let mut buf = Vec::new();
        reg.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let traced = text.lines().find(|l| l.contains("\"traced\"")).unwrap();
        assert!(traced.contains("\"trace_id\":\"t-7\""), "{traced}");
        let plain = text.lines().find(|l| l.contains("\"plain\"")).unwrap();
        assert!(!plain.contains("trace_id"), "{plain}");
        let mut buf = Vec::new();
        reg.write_chrome_trace(&mut buf).unwrap();
        let chrome = String::from_utf8(buf).unwrap();
        assert!(chrome.contains("\"trace_id\":\"t-7\""));
    }

    /// The same nested spans, counters and gauges, across two iterations
    /// and a trace scope, with a flight tick after each iteration.
    fn feed(reg: &Registry) -> FlightRecorder {
        let flight = FlightRecorder::new(reg.clone(), 8);
        for k in 0..2 {
            reg.set_iter(k);
            let _g = trace_scope(Some("feed"));
            let outer = reg.span("outer");
            for i in 0..3 {
                let _inner = reg.span("inner");
                reg.counter_add("pairs", i + 1);
            }
            reg.gauge_set("pool", 10 - k);
            outer.finish();
            reg.counter_add("rounds", 1);
            flight.tick();
        }
        flight
    }

    #[test]
    fn aggregating_registry_keeps_the_aggregates_and_no_log() {
        let full = Registry::enabled();
        let agg = Registry::aggregating();
        let (full_flight, agg_flight) = (feed(&full), feed(&agg));
        let (a, b) = (full.snapshot(), agg.snapshot());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.gauges, b.gauges);
        assert_eq!(b.counters.get("pairs"), Some(&12));
        let counts = |s: &Snapshot| -> BTreeMap<&str, u64> {
            s.hists.iter().map(|(&n, h)| (n, h.count())).collect()
        };
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(counts(&b), BTreeMap::from([("inner", 6), ("outer", 2)]));
        let deltas =
            |f: &FlightRecorder| -> Vec<_> { f.window().into_iter().map(|s| s.counters).collect() };
        assert_eq!(deltas(&full_flight), deltas(&agg_flight));
        assert_eq!(deltas(&agg_flight).len(), 2);
        assert!(agg.summary().contains("inner"));

        assert_eq!(full.events().len(), 18);
        assert!(agg.events().is_empty());
        let mut buf = Vec::new();
        agg.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.lines().all(|l| l.starts_with("{\"type\":\"hist\"")),
            "{text}"
        );
        assert_eq!(text.lines().count(), 2);
        let mut buf = Vec::new();
        agg.write_chrome_trace(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "{\"traceEvents\":[]}\n");
    }

    #[test]
    fn snapshot_is_a_cheap_aggregate_copy() {
        let reg = Registry::enabled();
        reg.counter_add("c", 2);
        reg.gauge_set("g", 3);
        reg.span("s").finish();
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("c"), Some(&2));
        assert_eq!(snap.gauges.get("g"), Some(&3));
        assert_eq!(snap.hists.get("s").unwrap().count(), 1);
        assert!(reg.uptime_us() >= snap.at_us);
        // Disabled registries snapshot to the empty default.
        assert_eq!(Registry::disabled().snapshot(), Snapshot::default());
    }
}
