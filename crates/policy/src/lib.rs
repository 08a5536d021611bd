//! # topogen-policy
//!
//! Policy routing for annotated AS topologies — the paper's machinery for
//! making measured-graph metrics realistic (§3.2.1, Appendix E).
//!
//! The Internet does not route along shortest paths: BGP policies derived
//! from commercial relationships constrain which paths are usable. The
//! paper models this with the standard *valley-free* rule over
//! provider–customer / peer / sibling annotated AS graphs (after Gao
//! \[18\] and \[42, 21\]): once a path has traversed a provider→customer
//! or peer link it may never climb back up, and at most one peer link may
//! appear, at the apex.
//!
//! Modules:
//!
//! * [`rel`] — the relationship vocabulary ([`Relationship`]) and
//!   per-edge annotation table ([`AsAnnotations`]).
//! * [`valley`] — valley-free shortest paths: a two-phase step rule run
//!   by the graph crate's path-DAG BFS over states, giving distances,
//!   path DAGs with equal-cost path counts (the σ-weights the hierarchy
//!   analysis of §5 needs), and reachability.
//! * [`balls`] — policy-induced ball growing (Appendix E): the subgraph
//!   of nodes within policy distance `h` of a center, using only links on
//!   policy-compliant shortest paths.
//! * [`gao`] — Gao's relationship-inference algorithm \[18\],
//!   reconstructing annotations from observed AS paths.
//! * [`bgp`] — a BGP table simulator: the AS paths a vantage point's
//!   routing table would contain, generated from the annotated topology
//!   (input for [`gao`], mirroring how the paper inferred relationships
//!   from route-views tables).
//! * [`bgp_sim`] — the full Gao–Rexford route-selection model (customer
//!   > peer > provider preference with export rules), used to quantify
//!   > how closely the paper's shortest-valley-free approximation tracks
//!   > real BGP outcomes.
//! * [`overlay`] — router-level policy distances through an AS overlay
//!   (the paper's two-step RL policy path construction, Appendix E).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balls;
pub mod bgp;
pub mod bgp_sim;
pub mod gao;
pub mod overlay;
pub mod rel;
pub mod valley;

pub use rel::{AsAnnotations, Relationship};
pub use valley::policy_distances;
