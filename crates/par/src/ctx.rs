//! Re-entrant engine contexts.
//!
//! [`EngineCtx`] is the small, cloneable bundle of state an engine run
//! depends on: an optional cooperative deadline and an optional span
//! sink. [`EngineCtx::scope`] installs it thread-locally for the
//! duration of a closure (and [`par_map`](crate::par_map) re-installs
//! the same state inside each worker), so any number of contexts can be
//! live at once on different threads — two concurrent daemon requests
//! run with their own deadlines and trace streams in one process. There
//! is no process-global fallback: outside a scope, engines run with no
//! deadline and no tracing.

use crate::cancel::{self, Deadline};
use crate::trace::{self, TraceSink};
use std::sync::Arc;

/// The state one engine run executes under: an optional
/// cooperative deadline and an optional span sink. `Clone` is cheap
/// (an `Arc` and a token); a daemon clones one per request.
#[derive(Clone, Debug, Default)]
pub struct EngineCtx {
    /// Cooperative cancellation + wall-clock expiry observed by
    /// [`cancel::checkpoint`] inside the scope.
    pub deadline: Option<Deadline>,
    /// Span sink receiving every [`trace::span`] opened inside the
    /// scope. `None` means tracing is off for the scope.
    pub trace: Option<Arc<TraceSink>>,
}

impl EngineCtx {
    /// A context with no deadline and no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replace the trace sink.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Run `f` with this context installed thread-locally: `checkpoint`
    /// observes `deadline`, `span` lands in `trace`, and `par_map`
    /// carries both into its workers. Nested scopes shadow and restore
    /// on exit (including unwinds), so scoping is re-entrant.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let body = || match &self.deadline {
            Some(d) => cancel::with_deadline(d.clone(), f),
            None => f(),
        };
        trace::with_sink(self.trace.clone(), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::Cancelled;
    use crate::trace::TraceEvent;

    #[test]
    fn scope_installs_deadline_and_sink() {
        let sink = Arc::new(TraceSink::new());
        let d = Deadline::cancel_only();
        let token = d.token();
        let ctx = EngineCtx::new().with_deadline(d).with_trace(sink.clone());
        ctx.scope(|| {
            drop(trace::span("inside"));
            cancel::checkpoint(); // not yet cancelled: no unwind
        });
        assert_eq!(sink.snapshot().len(), 2);
        token.cancel();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.scope(cancel::checkpoint)
        }))
        .expect_err("cancelled context must unwind");
        assert!(err.downcast_ref::<Cancelled>().is_some());
        // Outside the scope neither the deadline nor the sink remain.
        cancel::checkpoint();
        assert_eq!(sink.snapshot().len(), 2, "span outside scope not recorded");
    }

    #[test]
    fn two_contexts_on_two_threads_stay_disjoint() {
        let mk = || Arc::new(TraceSink::new());
        let (a, b) = (mk(), mk());
        std::thread::scope(|s| {
            let ta = s.spawn(|| {
                EngineCtx::new().with_trace(a.clone()).scope(|| {
                    let items: Vec<u64> = (0..64).collect();
                    crate::par_map_threads(&items, Some(4), |&x| {
                        drop(trace::span("work-a"));
                        x
                    });
                })
            });
            let tb = s.spawn(|| {
                EngineCtx::new().with_trace(b.clone()).scope(|| {
                    let items: Vec<u64> = (0..64).collect();
                    crate::par_map_threads(&items, Some(4), |&x| {
                        drop(trace::span("work-b"));
                        x
                    });
                })
            });
            ta.join().unwrap();
            tb.join().unwrap();
        });
        let names = |sink: &TraceSink| {
            sink.snapshot()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Enter { name, .. } => Some(*name),
                    _ => None,
                })
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(names(&a), std::collections::BTreeSet::from(["work-a"]));
        assert_eq!(names(&b), std::collections::BTreeSet::from(["work-b"]));
        assert_eq!(
            a.snapshot().len(),
            128,
            "64 enters + 64 exits, none leaked to the other context"
        );
    }

    #[test]
    fn empty_context_disables_tracing_inside_a_traced_scope() {
        let outer = Arc::new(TraceSink::new());
        trace::with_sink(Some(outer.clone()), || {
            EngineCtx::new().scope(|| drop(trace::span("muted")));
            drop(trace::span("loud"));
        });
        let names: Vec<&str> = outer
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Enter { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(
            names,
            vec!["loud"],
            "scoped span must not hit the outer sink"
        );
    }
}
