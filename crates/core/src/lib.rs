//! # topogen-core
//!
//! The paper's comparison framework as a reusable library: build any of
//! the topologies it studies, run the metric suite, and reproduce its
//! classifications.
//!
//! * [`zoo`] — the topology zoo of Figure 1 (canonical, structural,
//!   degree-based and synthetic-measured networks) behind a single
//!   [`zoo::TopologySpec`] API with CI-sized and paper-sized scales.
//! * [`suite`] — runs the three basic metrics (expansion, resilience,
//!   distortion), with policy-routing variants for annotated graphs.
//! * [`classify`] — turns metric curves into the paper's Low/High
//!   signatures (§3.2.1's table and §4.4's conclusions).
//! * [`hier`] — link-value analysis glue: distributions,
//!   strict/moderate/loose classes, degree correlation (§5).
//! * [`report`] — text tables and serde-serializable result records for
//!   the experiment harness (EXPERIMENTS.md is generated from these).
//! * [`cache`] — artifact-store glue (content hashes, binary payloads,
//!   cache keys): when the run context carries a `topogen-store` handle
//!   (`repro --cache`), topology builds, metric suites, and link-value
//!   analyses replay from disk bit-identically.
//! * [`ctx`] — [`RunCtx`], the one carrier of run state (store,
//!   deadline, trace sink, counters, kernel policy, memory budget) that
//!   every entry point takes.
//!
//! The intended entry point is [`zoo::build_in`] + [`suite::run_suite_in`]:
//!
//! ```
//! use topogen_core::zoo::{build_in, Scale, TopologySpec};
//! use topogen_core::suite::{run_suite_in, SuiteParams};
//! use topogen_core::RunCtx;
//!
//! let ctx = RunCtx::new();
//! let t = build_in(&ctx, &TopologySpec::Tree { k: 3, depth: 5 }, Scale::Small, 42);
//! let result = run_suite_in(&ctx, &t, &SuiteParams::quick());
//! println!("{} signature: {}", t.name, result.signature);
//! assert_eq!(result.signature.to_string(), "HLL");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod classify;
pub mod ctx;
pub mod hier;
pub mod report;
pub mod suite;
pub mod zoo;

pub use classify::{Level, Signature};
pub use ctx::RunCtx;
pub use suite::{run_suite_in, SuiteParams, SuiteResult};
pub use zoo::{build_in, BuiltTopology, Scale, TopologySpec};
