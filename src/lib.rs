//! # topogen
//!
//! A from-scratch Rust reproduction of
//!
//! > Hongsuda Tangmunarunkit, Ramesh Govindan, Sugih Jamin, Scott
//! > Shenker, Walter Willinger. *Network Topology Generators:
//! > Degree-Based vs. Structural.* SIGCOMM 2002.
//!
//! The paper asks which family of Internet topology generators —
//! *structural* (Transit-Stub, Tiers) or *degree-based* (PLRG,
//! Barabási–Albert, BRITE, GLP, Inet) — better captures the Internet's
//! **large-scale structure**, measured with three ball-growing metrics
//! (expansion, resilience, distortion) and a hierarchy analysis based on
//! link traversal sets. Its famous answer: the degree-based generators
//! win, because a power-law degree distribution plus random wiring
//! *implies* the Internet's moderate, loosely layered hierarchy.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — undirected simple-graph substrate (CSR, BFS, balls,
//!   biconnectivity, trees).
//! * [`generators`] — every generator the paper compares, plus the
//!   connectivity variants of Appendix D.
//! * [`measured`] — synthetic annotated stand-ins for the measured AS
//!   and router-level graphs (see DESIGN.md for the substitution
//!   rationale).
//! * [`policy`] — valley-free policy routing, Gao relationship
//!   inference, BGP-table simulation, policy-induced balls.
//! * [`metrics`] — the three basic metrics and the Appendix B suite.
//! * [`hierarchy`] — link values, strict/moderate/loose classes, the
//!   link-value ↔ degree correlation.
//! * [`par`] — the shared parallel substrate: order-preserving scoped
//!   `par_map` and the `Instrument` counter/phase-timer layer.
//! * [`linalg`] — Jacobi and Lanczos eigensolvers for spectra.
//! * [`core`] — the comparison framework: topology zoo, suite runner,
//!   L/H signatures, reporting, and `RunCtx`, the one carrier of run
//!   state that every entry point takes.
//!
//! ## Quickstart
//!
//! ```
//! use topogen::core::zoo::{build_in, Scale, TopologySpec};
//! use topogen::core::suite::{run_suite_in, SuiteParams};
//! use topogen::core::RunCtx;
//! use topogen::generators::plrg::PlrgParams;
//!
//! // Build the paper's PLRG instance (CI-sized) and classify it. The
//! // run context carries every piece of run state (cache, deadline,
//! // tracing, kernel choice); `RunCtx::new()` is a plain in-memory run.
//! let ctx = RunCtx::new();
//! let spec = TopologySpec::Plrg(PlrgParams { n: 1300, alpha: 2.246, max_degree: None });
//! let topo = build_in(&ctx, &spec, Scale::Small, 42);
//! let result = run_suite_in(&ctx, &topo, &SuiteParams::quick());
//! // The paper's headline: PLRG shares the Internet's HHL signature.
//! assert_eq!(result.signature.to_string(), "HHL");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use topogen_core as core;
pub use topogen_generators as generators;
pub use topogen_graph as graph;
pub use topogen_hierarchy as hierarchy;
pub use topogen_linalg as linalg;
pub use topogen_measured as measured;
pub use topogen_metrics as metrics;
pub use topogen_par as par;
pub use topogen_policy as policy;
