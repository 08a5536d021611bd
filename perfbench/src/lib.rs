//! # topogen-perfbench
//!
//! The repository's benchmark: one command that runs a named workload
//! in-process against the library's explicit-context entry points,
//! checks every operation's output, and prints the end-to-end metrics
//! (untraced run) or the per-layer metrics (traced run) as one JSON
//! line. See `README.md` in this directory for the workloads, the
//! metric definitions and how to run it.

#![warn(missing_docs)]

pub mod adapter;
pub mod cli;
pub mod report;
pub mod selfcheck;
pub mod sys;
pub mod workloads;
