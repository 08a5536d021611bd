//! The run context: the one carrier of run state.
//!
//! A build/measure run depends on an artifact store, a cooperative
//! deadline, a trace sink, a counter sink, a BFS kernel policy and a
//! build memory budget. [`RunCtx`] carries all of them explicitly, and
//! every entry point of the pipeline takes one
//! ([`zoo::build_in`](crate::zoo::build_in),
//! [`suite::run_suite_in`](crate::suite::run_suite_in),
//! [`hier::hierarchy_report_timed_in`](crate::hier::hierarchy_report_timed_in)).
//! Nothing is read from process globals: `repro` builds one context
//! from its flags, its runner hands each unit attempt a copy carrying
//! that attempt's deadline and counter sink, and the serve daemon
//! builds one per request — so concurrent runs never observe each
//! other's state.

use std::sync::Arc;

use topogen_metrics::engine::KernelPolicy;
use topogen_par::cancel::Deadline;
use topogen_par::{EngineCtx, Instrument, TraceSink};
use topogen_store::Store;

/// Everything one build/measure run depends on. All handles optional;
/// `RunCtx::default()` is a fully isolated run — no caching, no
/// deadline, no tracing, no shared counters, the `Auto` BFS kernel
/// policy and in-memory builds.
#[derive(Clone, Debug, Default)]
pub struct RunCtx {
    /// Content-addressed artifact store consulted (and fed) by topology
    /// builds, metric-curve runs, and link-value analyses. `None`
    /// disables caching for the run.
    pub store: Option<Arc<Store>>,
    /// Cooperative deadline observed at engine checkpoints.
    pub deadline: Option<Deadline>,
    /// Span sink receiving the run's trace events. `None` means tracing
    /// off for this run.
    pub trace: Option<Arc<TraceSink>>,
    /// Run-level counter sink. It records what outlives a single call:
    /// the largest arena a traversal or budgeted build held
    /// ([`Instrument::record_arena_peak`]) and the runs budgeted builds
    /// spilled. `repro`'s runner attaches a fresh one per unit attempt
    /// and copies both into the run ledger. Each call's own
    /// `TimingReport` always comes from a private instrument.
    pub instrument: Option<Arc<Instrument>>,
    /// BFS kernel policy for metric plans run under this context
    /// (whether expansion-only centers share 64-lane passes; `Auto`, the
    /// default, decides per plan). No flag sets it: the two kernels give
    /// bit-identical outputs, and only tests, `repro check` and
    /// benchmarks force one.
    pub kernel: KernelPolicy,
    /// Edge-buffer memory budget (bytes) for topology builds. `Some`
    /// builds the canonical and PLRG specs with
    /// [`topogen_graph::GraphBuilder::budgeted`] (bounded buffer,
    /// spill-to-disk runs, k-way merge); `None` builds in memory.
    /// `repro --mem-budget` sets it. The built graph is identical
    /// either way.
    pub mem_budget: Option<u64>,
}

impl RunCtx {
    /// A fully isolated context: no store, no deadline, no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach an artifact store.
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attach a deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a trace sink.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attach a shared instrument.
    pub fn with_instrument(mut self, ins: Arc<Instrument>) -> Self {
        self.instrument = Some(ins);
        self
    }

    /// Override the BFS kernel policy for this run.
    pub fn with_kernel(mut self, policy: KernelPolicy) -> Self {
        self.kernel = policy;
        self
    }

    /// Override the build memory budget for this run (`None` builds in
    /// memory).
    pub fn with_mem_budget(mut self, budget: Option<u64>) -> Self {
        self.mem_budget = budget;
        self
    }

    /// The engine-level slice of this context (deadline + trace) — what
    /// gets installed around engine work so `checkpoint()` and `span()`
    /// deep inside the parallel loops observe this run's state.
    pub fn engine(&self) -> EngineCtx {
        EngineCtx {
            deadline: self.deadline.clone(),
            trace: self.trace.clone(),
        }
    }

    /// Run `f` under this context's engine state (see
    /// [`EngineCtx::scope`]). The store and the counter sink are not
    /// installed — only the `_in` entry points consume them, explicitly.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        self.engine().scope(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_is_isolated() {
        let ctx = RunCtx::new();
        assert!(ctx.store.is_none());
        assert!(ctx.deadline.is_none());
        assert!(ctx.trace.is_none());
        assert!(ctx.instrument.is_none());
        assert_eq!(ctx.kernel, KernelPolicy::Auto);
        assert!(ctx.mem_budget.is_none());
    }

    #[test]
    fn scope_installs_engine_state() {
        let sink = Arc::new(TraceSink::new());
        let ctx = RunCtx::new().with_trace(sink.clone());
        ctx.scope(|| drop(topogen_par::trace::span("scoped")));
        assert_eq!(sink.snapshot().len(), 2);
    }
}
