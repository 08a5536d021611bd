//! Structured span tracing for the parallel engines.
//!
//! [`Instrument`](crate::Instrument) answers "how much work happened";
//! this module answers "when, on which thread, and inside what". A
//! [`span`] marks a region of work with enter/exit events carrying a
//! span id, the parent span's id, a per-thread id, and monotonic
//! nanosecond timestamps relative to the sink's epoch. Events land in a
//! lock-sharded in-memory buffer ([`TraceSink`]) that the CLI flushes to
//! an append-only JSONL event log; `repro trace export` converts a log
//! to Chrome trace-event JSON for `chrome://tracing` / Perfetto.
//!
//! Design constraints, in order:
//!
//! 1. **Zero-cost when off.** With no sink installed, [`span`] is a
//!    single thread-local `Cell` read returning an inert guard — the engines
//!    keep their spans unconditionally, like [`faults::inject`]
//!    (crate::faults) keeps its sites.
//! 2. **Never perturbs results.** Tracing only ever *observes*: no
//!    event influences scheduling, seeding, or output. Archived JSONs
//!    are byte-identical with tracing on or off; timestamps exist only
//!    in trace files.
//! 3. **Well-formed under unwinding.** The exit event is emitted from
//!    the guard's `Drop`, so panics (injected faults, deadline
//!    cancellations) still close every span they unwind through —
//!    parents close after children, every exit matches an enter.
//!
//! The current span is *ambient*, mirroring [`cancel`](crate::cancel):
//! a thread-local parent id that [`par_map`](crate::par_map) captures on
//! entry and re-installs inside each scoped worker via [`with_parent`],
//! so per-item spans created deep inside an engine parent correctly
//! across threads.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of event-buffer shards; events shard by thread id, so a
/// thread's own events stay in push order within one shard.
const SHARDS: usize = 16;

/// One trace event. Timestamps are nanoseconds since the sink's epoch;
/// span ids start at 1 and parent id 0 means "root" (no enclosing span).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A span was entered.
    Enter {
        /// Unique span id (process-wide, never reused).
        id: u64,
        /// Enclosing span's id, 0 for roots.
        parent: u64,
        /// Trace thread id of the entering thread.
        tid: u64,
        /// Span name (a static site label, e.g. `"balls"`).
        name: &'static str,
        /// Optional dynamic label (unit id, metric name, …).
        label: Option<Box<str>>,
        /// Nanoseconds since the sink's epoch.
        t_ns: u64,
    },
    /// A span was exited (emitted on guard drop, including unwinds).
    Exit {
        /// Id of the span being closed.
        id: u64,
        /// Trace thread id (same thread that entered).
        tid: u64,
        /// Span name, repeated so rollups need no enter/exit matching.
        name: &'static str,
        /// Nanoseconds since the sink's epoch.
        t_ns: u64,
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
}

/// Aggregated view of all completed spans sharing a name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRollup {
    /// Span name.
    pub name: &'static str,
    /// Completed spans with this name.
    pub count: u64,
    /// Total duration across them, nanoseconds (spans on concurrent
    /// threads sum, so this can exceed wall-clock — same convention as
    /// the phase rows of a [`TimingReport`](crate::TimingReport)).
    pub nanos: u64,
}

/// Buffer positions returned by [`TraceSink::mark`]; pass back to
/// [`TraceSink::rollup_since`] to aggregate only the spans completed
/// after the mark (the per-unit rollups of `repro --timings`).
#[derive(Clone, Debug)]
pub struct Mark(Vec<usize>);

/// The lock-sharded in-memory event buffer. Cheap to share behind an
/// `Arc`; all methods take `&self`. Install one for a scope with
/// [`with_sink`] to turn every [`span`] call site in it live.
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    shards: [Mutex<Vec<TraceEvent>>; SHARDS],
    next_id: AtomicU64,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// A fresh, empty sink; its epoch (timestamp zero) is now.
    pub fn new() -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            next_id: AtomicU64::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, tid: u64, ev: TraceEvent) {
        let shard = &self.shards[(tid as usize) % SHARDS];
        shard.lock().unwrap_or_else(|p| p.into_inner()).push(ev);
    }

    /// Copy out every buffered event, shard by shard. Within a thread's
    /// events order matches emission order; cross-thread interleaving is
    /// by shard, not time (consumers order by `t_ns` where they care).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend_from_slice(&shard.lock().unwrap_or_else(|p| p.into_inner()));
        }
        out
    }

    /// Record the current buffer positions; spans completing after this
    /// point are what [`Self::rollup_since`] aggregates.
    pub fn mark(&self) -> Mark {
        Mark(
            self.shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
                .collect(),
        )
    }

    /// Copy out the events recorded since `mark` and return the new
    /// position — the incremental read behind progress streaming
    /// (`topogen-serve` polls a per-request sink and forwards fresh
    /// events as NDJSON lines while the engines run).
    pub fn drain_since(&self, mark: &Mark) -> (Vec<TraceEvent>, Mark) {
        let mut out = Vec::new();
        let mut next = Vec::with_capacity(SHARDS);
        for (i, shard) in self.shards.iter().enumerate() {
            let events = shard.lock().unwrap_or_else(|p| p.into_inner());
            let from = mark.0.get(i).copied().unwrap_or(0).min(events.len());
            out.extend_from_slice(&events[from..]);
            next.push(events.len());
        }
        (out, Mark(next))
    }

    /// Aggregate the spans completed since `mark` by name, sorted by
    /// name (deterministic regardless of thread interleaving).
    pub fn rollup_since(&self, mark: &Mark) -> Vec<SpanRollup> {
        let mut agg: Vec<SpanRollup> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let events = shard.lock().unwrap_or_else(|p| p.into_inner());
            let from = mark.0.get(i).copied().unwrap_or(0).min(events.len());
            for ev in &events[from..] {
                if let TraceEvent::Exit { name, dur_ns, .. } = ev {
                    if let Some(r) = agg.iter_mut().find(|r| r.name == *name) {
                        r.count += 1;
                        r.nanos += dur_ns;
                    } else {
                        agg.push(SpanRollup {
                            name,
                            count: 1,
                            nanos: *dur_ns,
                        });
                    }
                }
            }
        }
        agg.sort_by_key(|r| r.name);
        agg
    }

    /// Serialize every buffered event as JSON Lines (one event object
    /// per line), the on-disk format of `out/trace/<run>.jsonl`.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<usize> {
        let events = self.snapshot();
        for ev in &events {
            writeln!(w, "{}", event_json(ev))?;
        }
        Ok(events.len())
    }
}

/// One event as a single-line JSON object.
pub fn event_json(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::Enter {
            id,
            parent,
            tid,
            name,
            label,
            t_ns,
        } => {
            let mut s = format!(
                "{{\"ev\":\"enter\",\"id\":{id},\"parent\":{parent},\"tid\":{tid},\"name\":\"{}\"",
                escape_json(name)
            );
            if let Some(l) = label {
                s.push_str(&format!(",\"label\":\"{}\"", escape_json(l)));
            }
            s.push_str(&format!(",\"t_ns\":{t_ns}}}"));
            s
        }
        TraceEvent::Exit {
            id,
            tid,
            name,
            t_ns,
            dur_ns,
        } => format!(
            "{{\"ev\":\"exit\",\"id\":{id},\"tid\":{tid},\"name\":\"{}\",\"t_ns\":{t_ns},\"dur_ns\":{dur_ns}}}",
            escape_json(name)
        ),
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
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

thread_local! {
    /// Fast flag mirroring whether [`SINK`] holds a sink, so the
    /// tracing-off path of [`span`] costs one `Cell` read.
    static TRACING: Cell<bool> = const { Cell::new(false) };
    /// The calling thread's sink, installed by [`with_sink`]. Per
    /// thread, so two concurrent `topogen-serve` requests stream
    /// disjoint progress traces from one process.
    static SINK: RefCell<Option<Arc<TraceSink>>> = const { RefCell::new(None) };
}

/// Run `f` with `sink` as this thread's trace sink — `None` disables
/// tracing for the scope — restoring the previous one afterwards
/// (unwind-safe via a drop guard). Scopes on different threads are
/// independent; [`par_map`](crate::par_map) carries the caller's sink
/// into its workers.
pub fn with_sink<R>(sink: Option<Arc<TraceSink>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<TraceSink>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            TRACING.with(|c| c.set(prev.is_some()));
            SINK.with(|s| *s.borrow_mut() = prev);
        }
    }
    TRACING.with(|c| c.set(sink.is_some()));
    let prev = SINK.with(|s| s.replace(sink));
    let _restore = Restore(prev);
    f()
}

/// The calling thread's sink, if tracing is on (see [`with_sink`]).
/// The tracing-off path is one `Cell` read.
pub fn active() -> Option<Arc<TraceSink>> {
    if !TRACING.with(Cell::get) {
        return None;
    }
    SINK.with(|s| s.borrow().clone())
}

/// Process-wide trace-thread-id allocator; ids are small sequential
/// labels assigned lazily per OS thread, not OS tids.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static PARENT: Cell<u64> = const { Cell::new(0) };
}

fn thread_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The calling thread's current span id (0 = none). `par_map` captures
/// this on entry and re-installs it inside each worker so per-item
/// spans parent across threads.
pub fn current_parent() -> u64 {
    PARENT.with(|p| p.get())
}

/// Run `f` with `parent` installed as this thread's current span,
/// restoring the previous value afterwards (unwind-safe via a drop
/// guard) — the cross-thread half of parent propagation.
pub fn with_parent<R>(parent: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            PARENT.with(|p| p.set(self.0));
        }
    }
    let prev = PARENT.with(|p| p.replace(parent));
    let _restore = Restore(prev);
    f()
}

/// Open a span; the returned guard emits the exit event when dropped
/// (including during unwinding). Must be dropped on the thread that
/// created it — every current call site holds it across a lexical scope.
#[must_use = "dropping immediately produces a zero-length span"]
pub fn span(name: &'static str) -> SpanGuard {
    match active() {
        Some(sink) => SpanGuard::enter(sink, name, None),
        None => SpanGuard { inner: None },
    }
}

/// [`span`] with a dynamic label (unit id, metric name, …). The label
/// is only copied when a sink is installed.
#[must_use = "dropping immediately produces a zero-length span"]
pub fn span_labeled(name: &'static str, label: &str) -> SpanGuard {
    match active() {
        Some(sink) => SpanGuard::enter(sink, name, Some(label.into())),
        None => SpanGuard { inner: None },
    }
}

/// RAII handle for an open span. Inert (a `None`) when tracing is off.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

#[derive(Debug)]
struct GuardInner {
    sink: Arc<TraceSink>,
    id: u64,
    tid: u64,
    name: &'static str,
    entered_ns: u64,
    prev_parent: u64,
}

impl SpanGuard {
    fn enter(sink: Arc<TraceSink>, name: &'static str, label: Option<Box<str>>) -> SpanGuard {
        let id = sink.next_id.fetch_add(1, Ordering::Relaxed);
        let tid = thread_tid();
        let prev_parent = PARENT.with(|p| p.replace(id));
        let t_ns = sink.now_ns();
        sink.push(
            tid,
            TraceEvent::Enter {
                id,
                parent: prev_parent,
                tid,
                name,
                label,
                t_ns,
            },
        );
        SpanGuard {
            inner: Some(GuardInner {
                sink,
                id,
                tid,
                name,
                entered_ns: t_ns,
                prev_parent,
            }),
        }
    }

    /// This span's id (0 when tracing is off) — what a caller hands to
    /// [`with_parent`] on another thread.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |g| g.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            PARENT.with(|p| p.set(g.prev_parent));
            let t_ns = g.sink.now_ns();
            g.sink.push(
                g.tid,
                TraceEvent::Exit {
                    id: g.id,
                    tid: g.tid,
                    name: g.name,
                    t_ns,
                    dur_ns: t_ns.saturating_sub(g.entered_ns),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let g = span("noop");
        assert_eq!(g.id(), 0);
        drop(g);
        assert_eq!(current_parent(), 0);
        // A scope with no sink is as inert as no scope at all.
        with_sink(None, || assert_eq!(span("noop").id(), 0));
    }

    #[test]
    fn spans_nest_and_events_pair() {
        let sink = Arc::new(TraceSink::new());
        with_sink(Some(sink.clone()), || {
            let outer = span_labeled("outer", "o");
            assert_eq!(current_parent(), outer.id());
            {
                let _inner = span("inner");
                assert_ne!(current_parent(), outer.id());
            }
            assert_eq!(current_parent(), outer.id());
        });
        let events = sink.snapshot();
        assert_eq!(events.len(), 4);
        let enters: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Enter { .. }))
            .collect();
        let exits: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Exit { .. }))
            .collect();
        assert_eq!(enters.len(), 2);
        assert_eq!(exits.len(), 2);
        // The inner span parents on the outer one.
        let TraceEvent::Enter {
            id: outer_id,
            parent: 0,
            ..
        } = enters[0]
        else {
            panic!("outer enter malformed: {:?}", enters[0]);
        };
        let TraceEvent::Enter { parent, .. } = enters[1] else {
            unreachable!()
        };
        assert_eq!(parent, outer_id);
    }

    #[test]
    fn exit_emitted_during_unwind() {
        let sink = Arc::new(TraceSink::new());
        with_sink(Some(sink.clone()), || {
            let _ = std::panic::catch_unwind(|| {
                let _s = span("doomed");
                panic!("boom");
            });
        });
        let events = sink.snapshot();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(matches!(events[1], TraceEvent::Exit { .. }));
        assert_eq!(current_parent(), 0, "parent restored by the unwind");
    }

    #[test]
    fn rollup_aggregates_since_mark() {
        let sink = Arc::new(TraceSink::new());
        let mark = with_sink(Some(sink.clone()), || {
            drop(span("before"));
            let mark = sink.mark();
            drop(span("work"));
            drop(span("work"));
            drop(span("other"));
            mark
        });
        let roll = sink.rollup_since(&mark);
        assert_eq!(roll.len(), 2);
        assert_eq!(roll[0].name, "other");
        assert_eq!(roll[0].count, 1);
        assert_eq!(roll[1].name, "work");
        assert_eq!(roll[1].count, 2);
        // The pre-mark span is excluded.
        assert!(roll.iter().all(|r| r.name != "before"));
    }

    #[test]
    fn parent_propagates_with_with_parent() {
        let sink = Arc::new(TraceSink::new());
        let (parent, child_parent) = with_sink(Some(sink.clone()), || {
            let _outer = span("outer");
            let parent = current_parent();
            let child_parent = std::thread::scope(|s| {
                s.spawn(|| {
                    with_sink(Some(sink.clone()), || {
                        with_parent(parent, || {
                            let _c = span("child");
                            // Inside the worker the child's parent is
                            // the cross-thread outer span.
                            current_parent()
                        })
                    })
                })
                .join()
                .unwrap()
            });
            (parent, child_parent)
        });
        assert_ne!(child_parent, 0);
        let events = sink.snapshot();
        let child_enter = events.iter().find_map(|e| match e {
            TraceEvent::Enter {
                name: "child",
                parent,
                ..
            } => Some(*parent),
            _ => None,
        });
        assert_eq!(child_enter, Some(parent));
    }

    #[test]
    fn jsonl_lines_are_valid_objects() {
        let sink = Arc::new(TraceSink::new());
        with_sink(Some(sink.clone()), || {
            drop(span_labeled("unit", "tab\"1\n"))
        });
        let mut buf = Vec::new();
        let n = sink.write_jsonl(&mut buf).unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
        }
        assert!(text.contains("\\\"1\\n"), "label escaped: {text}");
    }

    #[test]
    fn escape_json_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
