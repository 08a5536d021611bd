//! # topogen-generators
//!
//! Every network topology generator the paper compares, reimplemented
//! from its published description:
//!
//! * **Canonical networks** (§3.1.3, used for calibration):
//!   [`canonical::kary_tree`], [`canonical::mesh`], [`canonical::linear`],
//!   [`canonical::ring`], [`canonical::complete`], and Erdős–Rényi random
//!   graphs [`canonical::random_gnp`].
//! * **Random-graph generator with geography**: [`waxman`] (§3.1.2,
//!   Waxman \[47\]).
//! * **Structural generators**: [`transit_stub`] (GT-ITM's Transit-Stub
//!   \[10\]), [`tiers`] (Tiers \[14\]) and GT-ITM's [`nlevel`]
//!   hierarchy (the model Zegura et al.'s original comparison \[50\]
//!   used), which deliberately construct hierarchy.
//! * **Degree-based generators** (all targeting a power-law degree
//!   distribution): [`plrg`] (power-law random graph \[1\]), [`ba`]
//!   (Barabási–Albert \[4\] and the Albert–Barabási rewiring variant
//!   \[2\]), [`brite`] (BRITE v1.0-style \[28\]), [`glp`] (Bu–Towsley's
//!   GLP, the paper's "BT" \[8\]), and [`inet`] (Inet-style \[24\]).
//! * **Degree-sequence machinery** ([`degseq`]): power-law sampling,
//!   Erdős–Gallai feasibility, CCDFs and exponent fitting.
//! * **Connectivity variants** ([`connectivity`], Appendix D.1): given a
//!   degree sequence, connect nodes by PLRG matching, uniformly at
//!   random, highest-degree-first (uniform / degree-proportional /
//!   unsatisfied-proportional), or deterministically — plus graph
//!   re-wiring ("Modified B-A" / "Modified Brite", Figure 13).
//!
//! Every generator takes an explicit `&mut impl Rng` (Waxman and the
//! [`Generate`] trait take the workspace's `StdRng`, whose exact jump
//! ahead lets Waxman's pair loop split across workers) so runs are
//! exactly reproducible from a seed, and returns a simple undirected
//! [`topogen_graph::Graph`] (self-loops and duplicate links are dropped,
//! per the paper's footnote 6). Generators that may produce disconnected
//! graphs document it; the paper's methodology is to analyze the largest
//! connected component, available via
//! [`topogen_graph::components::largest_component`].
//!
//! The unified entry point is the [`Generate`] trait: every parameter
//! struct implements `params.generate(rng)`, which always returns the
//! *analysis graph* (the largest connected component when the raw model
//! output may be disconnected). The per-generator free functions remain
//! as the raw primitives.
//!
//! Each generator has one implementation, and every edge it draws goes
//! into a [`topogen_graph::GraphBuilder`]. The canonical networks and
//! the PLRG expose that body as `*_into(…, &mut GraphBuilder)` (for
//! example [`canonical::mesh_into`] and [`plrg::plrg_into`]), so a
//! caller can hand them a
//! [`budgeted`](topogen_graph::GraphBuilder::budgeted) builder; their
//! `fn xyz() -> Graph` wrappers build the same body in memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ba;
pub mod brite;
pub mod canonical;
pub mod connectivity;
pub mod degseq;
pub mod generate;
pub mod glp;
pub mod inet;
pub mod nlevel;
pub mod plrg;
pub mod tiers;
pub mod transit_stub;
pub mod waxman;

pub use generate::Generate;
