//! # topogen-graph
//!
//! Undirected simple-graph substrate for the reproduction of
//! *"Network Topology Generators: Degree-Based vs. Structural"*
//! (Tangmunarunkit, Govindan, Jamin, Shenker, Willinger — SIGCOMM 2002).
//!
//! Everything in the paper — generators, ball-growing metrics, policy
//! routing, and the hierarchy analysis — operates on plain undirected
//! simple graphs (the paper explicitly discards self-loops and duplicate
//! links produced by generators such as PLRG, see its footnote 6). This
//! crate provides that substrate:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) undirected simple
//!   graph, built through [`GraphBuilder`] which deduplicates multi-edges
//!   and drops self-loops — the one builder every generator emits into,
//!   in memory or under a memory budget.
//! * [`bfs`] — breadth-first distance fields, hop-bounded balls, shortest
//!   path counting (σ) and shortest-path DAGs for traversal-set analysis;
//!   the one single-source BFS scratch ball centers grow on.
//! * [`bfs_bitset`] — the direction-optimizing 64-lane multi-source BFS
//!   for large sampled-center runs, bit-identical to the [`bfs`] oracle.
//! * [`components`] — connected components and largest-component
//!   extraction (the paper analyzes the largest connected component of
//!   every generated graph).
//! * [`bicon`] — Tarjan biconnected components and articulation points
//!   (Appendix B, Figure 8(d–f)).
//! * [`subgraph`] — induced subgraphs and *balls* of radius `h`, the unit
//!   of the paper's ball-growing methodology (§3.2.1).
//! * [`tree`] — rooted-tree utilities (LCA, tree distance) used by the
//!   distortion metric.
//! * [`geometry`] — points in the unit square and Euclidean MSTs used by
//!   the Waxman and Tiers generators.
//! * [`flow`] — unit-capacity max flow (Menger cross-checks and the
//!   footnote-22 center-to-surface flow metric).
//! * [`prune`] — recursive degree-1 pruning ("core" extraction, the
//!   paper's footnote 29).
//! * [`stream`] — the spill-and-merge half of a
//!   [`GraphBuilder::budgeted`] build: sorted runs on disk, k-way merged
//!   at build time (the xl-tier build path), and its [`stream::StreamStats`].
//! * [`apsp`] — all-pairs shortest paths over small subgraphs.
//! * [`io`] — a tiny edge-list interchange format.
//!
//! The crate is dependency-free and deterministic; all randomness lives in
//! the generator crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apsp;
pub mod bfs;
pub mod bfs_bitset;
pub mod bicon;
pub mod components;
pub mod flow;
pub mod geometry;
mod graph;
pub mod io;
pub mod prune;
pub mod stream;
pub mod subgraph;
pub mod tree;
pub mod unionfind;

pub use graph::{Edge, Graph, GraphBuilder, NodeId};

/// Sentinel distance meaning "unreached" in BFS distance fields.
pub const UNREACHED: u32 = u32::MAX;
