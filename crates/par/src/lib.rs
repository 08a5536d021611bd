//! # topogen-par
//!
//! The workspace's shared parallel-execution substrate: a minimal
//! scoped-thread [`par_map`](par::par_map) (the per-center loops of the
//! ball-growing metrics and the per-source loop of the §5 link-value
//! pipeline are embarrassingly parallel and CPU-bound), plus the
//! [`Instrument`] counter sink that both engines report into.
//!
//! Before this crate existed, `topogen-metrics` and `topogen-hierarchy`
//! each carried a hand-rolled copy of the same chunked `par_map`; this is
//! the single implementation both now use. Everything here preserves the
//! determinism contract of the PR-1 engine: output order always matches
//! input order, so results are bit-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod ctx;
pub mod faults;
pub mod instrument;
pub mod par;
pub mod trace;

pub use cancel::{CancelToken, Cancelled, Deadline};
pub use ctx::EngineCtx;
pub use faults::IoFault;
pub use instrument::{phase, Instrument, TimingReport};
pub use par::{panic_message, par_map, par_map_threads, worker_count};
pub use trace::{SpanGuard, SpanRollup, TraceEvent, TraceSink};
