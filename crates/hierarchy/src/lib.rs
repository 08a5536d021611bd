//! # topogen-hierarchy
//!
//! The paper's hierarchy measure (§5): how concentrated is *usage* across
//! a topology's links?
//!
//! For each link, its **traversal set** is the set of source–destination
//! pairs whose shortest (or policy-compliant) paths cross the link, with
//! equal-cost multipath splitting weights (footnote 27). The link's
//! **value** is the minimum *weighted vertex cover* of that set — "the
//! smallest set of nodes affected by removal of the link" — computed with
//! the classical primal-dual approximation \[30\]. The distribution of
//! link values over a topology classifies its hierarchy:
//!
//! * **strict** — a few links carry enormous values (Tree, Transit-Stub,
//!   Tiers: deliberately constructed backbones);
//! * **moderate** — values fall off quickly but the top is far lower
//!   (AS, RL, PLRG and all degree-based generators);
//! * **loose** — values are spread almost evenly (Mesh, Random, Waxman).
//!
//! §5.2's final step correlates link values with the *smaller endpoint
//! degree* of each link: a high correlation means the backbone is simply
//! "links between hubs" (PLRG's implicit, degree-driven hierarchy); a low
//! correlation means the backbone was placed deliberately (Tree, TS,
//! Tiers, RL).
//!
//! Modules: [`traversal`] (per-link traversal sets — flat per-source
//! DAGs in parallel, then a parallel link-range gather, bit-identical
//! at any thread count), [`cover`] (weighted vertex cover on a dense
//! node-indexed scratch), [`linkvalue`] (end-to-end link values and
//! rank distributions, with optional instrumentation), [`baseline`]
//! (the serial pre-arena pipeline over the graph crate's per-source
//! `bfs::PathDag`, kept as correctness oracle and bench baseline),
//! [`classify`] (strict/moderate/loose), [`correlation`] (link-value ↔
//! degree).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod classify;
pub mod correlation;
pub mod cover;
pub mod linkvalue;
pub mod traversal;

pub use classify::{classify_hierarchy, HierarchyClass};
pub use linkvalue::{link_values, link_values_threads, normalized_rank_distribution, PathMode};
pub use traversal::{link_traversals, link_traversals_threads};
